// Validation of the blocked packed-micro-kernel GEMM backend and the blocked
// trmm paths against straightforward triple-loop references: all four
// transpose combinations, sizes that are not multiples of any block
// dimension, alpha/beta edge cases, and views with ld > m. Also pins the
// geqrt -> unmqr round trip so a future backend change that perturbs the
// factorization path beyond rounding noise is caught here.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "kernels/qr_kernels.hpp"
#include "lac/blas.hpp"
#include "lac/dense.hpp"
#include "lac/gemm_microkernel.hpp"

namespace tbsvd {
namespace {

Matrix random_matrix(int m, int n, std::uint64_t seed) {
  Rng rng(seed);
  Matrix A(m, n);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < m; ++i) A(i, j) = rng.normal();
  return A;
}

// Triple-loop reference: C := alpha * op(A) * op(B) + beta * C.
void ref_gemm(Trans ta, Trans tb, double alpha, ConstMatrixView A,
              ConstMatrixView B, double beta, MatrixView C) {
  const int k = (ta == Trans::No) ? A.n : A.m;
  for (int j = 0; j < C.n; ++j) {
    for (int i = 0; i < C.m; ++i) {
      double s = 0.0;
      for (int l = 0; l < k; ++l) {
        const double a = (ta == Trans::No) ? A(i, l) : A(l, i);
        const double b = (tb == Trans::No) ? B(l, j) : B(j, l);
        s += a * b;
      }
      C(i, j) = alpha * s + beta * C(i, j);
    }
  }
}

double max_abs_diff(ConstMatrixView X, ConstMatrixView Y) {
  double d = 0.0;
  for (int j = 0; j < X.n; ++j)
    for (int i = 0; i < X.m; ++i)
      d = std::max(d, std::fabs(X(i, j) - Y(i, j)));
  return d;
}

void check_gemm_case(Trans ta, Trans tb, int m, int n, int k, double alpha,
                     double beta) {
  const int am = (ta == Trans::No) ? m : k;
  const int an = (ta == Trans::No) ? k : m;
  const int bm = (tb == Trans::No) ? k : n;
  const int bn = (tb == Trans::No) ? n : k;
  Matrix A = random_matrix(am, an, 1000 + m * 7 + n * 11 + k * 13);
  Matrix B = random_matrix(bm, bn, 2000 + m * 3 + n * 5 + k * 17);
  Matrix C0 = random_matrix(m, n, 3000 + m + n + k);
  Matrix C = C0, Cref = C0;
  gemm(ta, tb, alpha, A.cview(), B.cview(), beta, C.view());
  ref_gemm(ta, tb, alpha, A.cview(), B.cview(), beta, Cref.view());
  const double tol = 1e-12 * std::max(1, k);
  EXPECT_LT(max_abs_diff(C.cview(), Cref.cview()), tol)
      << "ta=" << int(ta) << " tb=" << int(tb) << " m=" << m << " n=" << n
      << " k=" << k << " alpha=" << alpha << " beta=" << beta;
}

TEST(BlasBlocked, AllTransCombosNonMultipleSizes) {
  const int sizes[] = {1, 3, 5, 17, 31, 100};
  for (Trans ta : {Trans::No, Trans::Yes}) {
    for (Trans tb : {Trans::No, Trans::Yes}) {
      for (int m : sizes)
        for (int n : sizes)
          for (int k : sizes) check_gemm_case(ta, tb, m, n, k, 1.0, 1.0);
    }
  }
}

TEST(BlasBlocked, SizesSpanningEveryBlockBoundary) {
  // Straddle the micro-tile, MC/KC/NC cache blocks, and the small-shape
  // dispatch thresholds.
  using detail::kKC;
  using detail::kMC;
  using detail::kMR;
  using detail::kNR;
  const int ms[] = {kMR - 1, kMR, kMR + 1, kMC - 1, kMC + 3};
  const int ns[] = {kNR - 1, kNR, kNR + 1, 2 * kNR + 1};
  const int ks[] = {detail::kSmallK, detail::kSmallK + 1, kKC - 1, kKC + 5};
  for (Trans ta : {Trans::No, Trans::Yes})
    for (Trans tb : {Trans::No, Trans::Yes})
      for (int m : ms)
        for (int n : ns)
          for (int k : ks) check_gemm_case(ta, tb, m, n, k, -0.5, 1.0);
}

TEST(BlasBlocked, AlphaBetaEdgeCases) {
  for (double alpha : {0.0, 1.0, -1.0, 0.37}) {
    for (double beta : {0.0, 1.0, -2.5}) {
      check_gemm_case(Trans::No, Trans::No, 65, 33, 48, alpha, beta);
      check_gemm_case(Trans::Yes, Trans::Yes, 33, 65, 48, alpha, beta);
    }
  }
}

TEST(BlasBlocked, StridedViewsLdGreaterThanM) {
  // Operands and C are interior blocks of larger matrices, so every ld
  // exceeds the view's row count and the packing routines must honor it.
  const int m = 70, n = 41, k = 53, pad = 9;
  Matrix Abig = random_matrix(m + pad, k + pad, 71);
  Matrix Bbig = random_matrix(k + pad, n + pad, 72);
  Matrix Cbig = random_matrix(m + pad, n + pad, 73);
  Matrix Cref_big = Cbig;
  gemm(Trans::No, Trans::No, 2.0, Abig.cview().block(3, 2, m, k),
       Bbig.cview().block(1, 4, k, n), 0.5, Cbig.block(2, 3, m, n));
  ref_gemm(Trans::No, Trans::No, 2.0, Abig.cview().block(3, 2, m, k),
           Bbig.cview().block(1, 4, k, n), 0.5, Cref_big.block(2, 3, m, n));
  EXPECT_LT(max_abs_diff(Cbig.cview(), Cref_big.cview()), 1e-12 * k);
  // Elements outside the C block must be untouched: the diff above covers
  // them because the reference only wrote the same block.
}

// Reference trmm via ref_gemm on an explicit triangular matrix.
Matrix explicit_triangle(ConstMatrixView T, UpLo uplo, Diag diag) {
  Matrix E(T.m, T.n);
  for (int j = 0; j < T.n; ++j) {
    for (int i = 0; i < T.m; ++i) {
      const bool keep = (uplo == UpLo::Upper) ? (i <= j) : (i >= j);
      E(i, j) = keep ? T(i, j) : 0.0;
      if (i == j && diag == Diag::Unit) E(i, j) = 1.0;
    }
  }
  return E;
}

TEST(BlasBlocked, TrmmLeftMatchesExplicitProduct) {
  // k = 150 exercises the blocked path (> kTrmmBlock); n covers skinny and
  // wide right-hand sides.
  const int k = 150;
  for (int n : {1, 7, 90}) {
    for (UpLo uplo : {UpLo::Upper, UpLo::Lower}) {
      for (Trans trans : {Trans::No, Trans::Yes}) {
        for (Diag diag : {Diag::Unit, Diag::NonUnit}) {
          Matrix T = random_matrix(k, k, 500 + n);
          Matrix W = random_matrix(k, n, 600 + n);
          Matrix E = explicit_triangle(T.cview(), uplo, diag);
          Matrix Wref(k, n);
          ref_gemm(trans, Trans::No, 1.0, E.cview(), W.cview(), 0.0,
                   Wref.view());
          trmm_left(uplo, trans, diag, T.cview(), W.view());
          EXPECT_LT(max_abs_diff(W.cview(), Wref.cview()), 1e-11)
              << "uplo=" << int(uplo) << " trans=" << int(trans)
              << " diag=" << int(diag) << " n=" << n;
        }
      }
    }
  }
}

TEST(BlasBlocked, TrmmRightMatchesExplicitProduct) {
  const int k = 150;
  for (int m : {1, 7, 90}) {
    for (UpLo uplo : {UpLo::Upper, UpLo::Lower}) {
      for (Trans trans : {Trans::No, Trans::Yes}) {
        for (Diag diag : {Diag::Unit, Diag::NonUnit}) {
          Matrix T = random_matrix(k, k, 700 + m);
          Matrix W = random_matrix(m, k, 800 + m);
          Matrix E = explicit_triangle(T.cview(), uplo, diag);
          Matrix Wref(m, k);
          ref_gemm(Trans::No, trans, 1.0, W.cview(), E.cview(), 0.0,
                   Wref.view());
          trmm_right(uplo, trans, diag, W.view(), T.cview());
          EXPECT_LT(max_abs_diff(W.cview(), Wref.cview()), 1e-11)
              << "uplo=" << int(uplo) << " trans=" << int(trans)
              << " diag=" << int(diag) << " m=" << m;
        }
      }
    }
  }
}

// Densified reference for gemm_trap: copy the valid support, zero the rest.
Matrix densify_trap(ConstMatrixView X, UpLo uplo, int off) {
  Matrix D(X.m, X.n);
  for (int c = 0; c < X.n; ++c) {
    for (int r = 0; r < X.m; ++r) {
      const bool valid =
          (uplo == UpLo::Upper) ? (r <= off + c) : (c <= off + r);
      D(r, c) = valid ? X(r, c) : 0.0;
    }
  }
  return D;
}

void check_gemm_trap_case(Trans ta, Trans tb, TrapSide side, UpLo uplo,
                          int off, int m, int n, int k, double alpha,
                          double beta) {
  const int am = (ta == Trans::No) ? m : k;
  const int an = (ta == Trans::No) ? k : m;
  const int bm = (tb == Trans::No) ? k : n;
  const int bn = (tb == Trans::No) ? n : k;
  // Poison the out-of-support region so any read of it shows up loudly.
  Matrix A = random_matrix(am, an, 5000 + m * 3 + n * 5 + k * 7 + off);
  Matrix B = random_matrix(bm, bn, 6000 + m * 3 + n * 5 + k * 7 + off);
  Matrix X = (side == TrapSide::A) ? A : B;  // copy before poisoning
  Matrix& P = (side == TrapSide::A) ? A : B;
  for (int c = 0; c < P.cols(); ++c)
    for (int r = 0; r < P.rows(); ++r) {
      const bool valid =
          (uplo == UpLo::Upper) ? (r <= off + c) : (c <= off + r);
      if (!valid) P(r, c) = 1e30;
    }
  Matrix C = random_matrix(m, n, 7000 + m + n + k + off);
  Matrix Cref = C;
  gemm_trap(ta, tb, alpha, A.cview(), B.cview(), beta, C.view(), side, uplo,
            off);
  const Matrix D = densify_trap(X.cview(), uplo, off);
  if (side == TrapSide::A) {
    ref_gemm(ta, tb, alpha, D.cview(), B.cview(), beta, Cref.view());
  } else {
    ref_gemm(ta, tb, alpha, A.cview(), D.cview(), beta, Cref.view());
  }
  EXPECT_LT(max_abs_diff(C.cview(), Cref.cview()), 1e-12 * (k + 1))
      << "ta=" << (ta == Trans::Yes) << " tb=" << (tb == Trans::Yes)
      << " side=" << (side == TrapSide::A ? 'A' : 'B')
      << " uplo=" << (uplo == UpLo::Upper ? 'U' : 'L') << " off=" << off
      << " m=" << m << " n=" << n << " k=" << k;
}

TEST(BlasBlocked, GemmTrapAllMaskCombosSmallAndBlocked) {
  for (TrapSide side : {TrapSide::A, TrapSide::B}) {
    for (UpLo uplo : {UpLo::Upper, UpLo::Lower}) {
      for (Trans ta : {Trans::No, Trans::Yes}) {
        for (Trans tb : {Trans::No, Trans::Yes}) {
          for (int off : {0, 3, 17}) {
            check_gemm_trap_case(ta, tb, side, uplo, off, 5, 4, 6, 1.0, 1.0);
            check_gemm_trap_case(ta, tb, side, uplo, off, 33, 41, 29, -1.0,
                                 1.0);
            check_gemm_trap_case(ta, tb, side, uplo, off, 70, 65, 80, 0.37,
                                 0.0);
          }
        }
      }
    }
  }
}

TEST(BlasBlocked, GemmTrapTtKernelShapes) {
  // The exact shapes the TT kernels produce: upper trapezoid as op(A)
  // (TTQRT/TTMQR panels, mv = off + kb) and lower trapezoid as op(B)
  // (TTLQT/TTMLQ panels), at tile-sized operands crossing the KC boundary.
  for (int kb : {8, 32}) {
    for (int off : {0, 32, 128, 240}) {
      const int mv = off + kb;
      check_gemm_trap_case(Trans::Yes, Trans::No, TrapSide::A, UpLo::Upper,
                           off, kb, 160, mv, 1.0, 1.0);
      check_gemm_trap_case(Trans::No, Trans::No, TrapSide::A, UpLo::Upper,
                           off, mv, 160, kb, -1.0, 1.0);
      check_gemm_trap_case(Trans::No, Trans::Yes, TrapSide::B, UpLo::Lower,
                           off, 160, kb, mv, 1.0, 1.0);
      check_gemm_trap_case(Trans::No, Trans::No, TrapSide::B, UpLo::Lower,
                           off, 160, mv, kb, -1.0, 1.0);
    }
  }
}

TEST(BlasBlocked, GemmTrapColumnsEntirelyOutsideSupport) {
  // Wide-and-short Lower operands where trailing columns lie entirely
  // outside the support (c - off > rows): those columns must densify /
  // pack to all zeros, not write past the column end (regression: the
  // small-path densify used an unclamped lower bound).
  for (TrapSide side : {TrapSide::A, TrapSide::B}) {
    for (int off : {0, 2}) {
      // side A: A stored 6 x 20 (ta = No -> m=6, k=20); side B: B stored
      // 12 x 18 (tb = Yes -> n=12, k=18). Small C keeps the densify path.
      const int m = (side == TrapSide::A) ? 6 : 5;
      const int n = (side == TrapSide::A) ? 4 : 12;
      const int k = (side == TrapSide::A) ? 20 : 18;
      check_gemm_trap_case(Trans::No, (side == TrapSide::A) ? Trans::No
                                                            : Trans::Yes,
                           side, UpLo::Lower, off, m, n, k, 1.0, 1.0);
      // And the blocked path for the same support pattern.
      check_gemm_trap_case(Trans::No, (side == TrapSide::A) ? Trans::No
                                                            : Trans::Yes,
                           side, UpLo::Lower, off, 40, 50, 90, 1.0, 0.0);
    }
  }
}

TEST(BlasBlocked, GemmTrapFullSupportMatchesGemm) {
  // A mask wide enough to cover the whole operand must reduce to plain
  // gemm exactly (same blocked path, same packing layout).
  const int m = 50, n = 40, k = 45;
  Matrix A = random_matrix(m, k, 91), B = random_matrix(k, n, 92);
  Matrix C = random_matrix(m, n, 93), Cref = C;
  gemm_trap(Trans::No, Trans::No, 1.0, A.cview(), B.cview(), 1.0, C.view(),
            TrapSide::A, UpLo::Upper, m);  // off >= m - 1: everything valid
  gemm(Trans::No, Trans::No, 1.0, A.cview(), B.cview(), 1.0, Cref.view());
  EXPECT_EQ(max_abs_diff(C.cview(), Cref.cview()), 0.0);
}

// Row-split products must reproduce the single call bitwise: the blocks are
// micro-tile aligned and stay on the whole product's kernel path, and a
// product whose smallest block would fall onto the direct loops is not
// split at all.
template <class T>
void check_row_split(Trans ta, int m, int n, int k, int parts) {
  SCOPED_TRACE(::testing::Message() << (ta == Trans::No ? "N " : "T ") << m
                                    << "x" << n << " k=" << k << " parts="
                                    << parts << " bytes=" << sizeof(T));
  const Matrix Ad = ta == Trans::No ? random_matrix(m, k, 101)
                                    : random_matrix(k, m, 101);
  const Matrix Bd = random_matrix(k, n, 102);
  MatrixT<T> A(Ad.rows(), Ad.cols()), B(k, n);
  convert_matrix<T, double>(Ad.cview(), A.view());
  convert_matrix<T, double>(Bd.cview(), B.view());
  MatrixT<T> whole(m, n), split(m, n);
  gemm<T>(ta, Trans::No, T(1), A.cview(), B.cview(), T(0), whole.view());
  const int rb = gemm_row_block<T>(m, n, k, parts);
  ASSERT_GE(rb, 1);
  ASSERT_LE(rb, m);
  if (rb < m) {
    EXPECT_EQ(rb % detail::MicroTile<T>::kMR, 0);
  }
  for (int r0 = 0; r0 < m; r0 += rb) {
    const int mr = std::min(rb, m - r0);
    const ConstMatrixViewT<T> Ab = ta == Trans::No
                                       ? A.cview().block(r0, 0, mr, k)
                                       : A.cview().block(0, r0, k, mr);
    gemm<T>(ta, Trans::No, T(1), Ab, B.cview(), T(0),
            split.view().block(r0, 0, mr, n));
  }
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < m; ++i) {
      ASSERT_EQ(split(i, j), whole(i, j)) << "at " << i << "," << j;
    }
  }
}

TEST(BlasBlocked, RowBlockSplitIsBitwiseTheWholeProduct) {
  for (const Trans ta : {Trans::No, Trans::Yes}) {
    for (int parts = 1; parts <= 4; ++parts) {
      for (const auto& [m, n, k] :
           {std::tuple{333, 18, 100}, {100, 18, 333}, {1000, 72, 300},
            {40, 8, 8}, {8, 8, 40}, {70, 1, 20}}) {
        check_row_split<double>(ta, m, n, k, parts);
        check_row_split<float>(ta, m, n, k, parts);
      }
    }
  }
}

TEST(BlasBlocked, RowBlockKeepsDirectPathProductsWhole) {
  // Whole product on the direct loops (8x8 output, short k): never split.
  EXPECT_EQ(gemm_row_block<double>(8, 8, 40, 4), 8);
  // k <= kSmallK is direct at any size.
  EXPECT_EQ(gemm_row_block<double>(4096, 64, detail::kSmallK, 4), 4096);
  // A packed-path product whose last row block (40 - MR rows or fewer,
  // times 8 columns) would drop onto the direct loops stays one call.
  EXPECT_EQ(gemm_row_block<double>(40, 8, 8, 4), 40);
  // Large products split into micro-tile-aligned blocks, one per part.
  const int rb = gemm_row_block<double>(16384, 72, 1024, 4);
  EXPECT_EQ(rb % detail::MicroTile<double>::kMR, 0);
  EXPECT_EQ((16384 + rb - 1) / rb, 4);
  EXPECT_EQ(gemm_row_block<double>(16384, 72, 1024, 1), 16384);
}

TEST(BlasBlocked, GeqrtUnmqrRoundTrip) {
  // Factor, rebuild Q R, and demand reconstruction at the level the seed
  // backend achieved (well below 1e-13 relative) — a regression gate on the
  // whole geqrt/larfb/gemm stack after the backend swap.
  for (int ib : {8, 32}) {
    const int n = 160;
    Matrix A = random_matrix(n, n, 42);
    Matrix V = A;
    Matrix T(ib, n);
    kernels::geqrt(V.view(), T.view(), ib);
    Matrix R(n, n);
    for (int j = 0; j < n; ++j)
      for (int i = 0; i <= j; ++i) R(i, j) = V(i, j);
    Matrix QR = R;
    kernels::unmqr(Trans::No, V.cview(), T.cview(), QR.view(), ib);
    double scale = norm_max(A.cview());
    EXPECT_LT(max_abs_diff(QR.cview(), A.cview()) / scale, 1e-13)
        << "ib=" << ib;
    // Q itself stays orthogonal.
    Matrix Q = Matrix::identity(n);
    kernels::unmqr(Trans::No, V.cview(), T.cview(), Q.view(), ib);
    EXPECT_LT(orthogonality_error(Q.cview()), 1e-12);
  }
}

}  // namespace
}  // namespace tbsvd
