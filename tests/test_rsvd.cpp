// Tests for src/rsvd: TSQR driver conformance against the dense recursive
// QR oracle (R up to row signs, Q orthogonality, backward error, implicit
// applies) across tall shapes and every reduction tree; gesvd_truncated
// top-k accuracy against the full gesvd_values driver on low-rank-plus-
// noise inputs in float and double; truncated factors; the typed-error and
// safe-scaling contracts; and the nthreads >= 1 option-contract
// enforcement (regression for the examples bug that passed an unclamped
// hardware_concurrency() into the drivers).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/svd.hpp"
#include "lac/qr_rec.hpp"
#include "rsvd/rsvd.hpp"
#include "rsvd/tsqr.hpp"
#include "runtime/task_graph.hpp"
#include "test_harness.hpp"
#include "tile/matrix_gen.hpp"
#include "tune/tune.hpp"

namespace tbsvd {
namespace {

using test::conformance_tol;
using test::expect_orthogonal;
using test::random_matrix;
using test::tol_eps;

// Dense oracle: R of A via the recursive panel factorization.
template <class T>
MatrixT<T> oracle_r(ConstMatrixViewT<T> A) {
  MatrixT<T> W(A.m, A.n);
  copy<T>(A, W.view());
  MatrixT<T> Tm(A.n, A.n);
  geqrf_rec<T>(W.view(), Tm.view());
  MatrixT<T> R(A.n, A.n);
  for (int j = 0; j < A.n; ++j) {
    for (int i = 0; i <= j; ++i) R(i, j) = W(i, j);
  }
  return R;
}

// R is unique up to the sign of each row (for full-rank A); fix signs off
// the diagonals before comparing.
template <class T>
void expect_r_conforms(ConstMatrixViewT<T> got, ConstMatrixViewT<T> want,
                       double tol, const char* what) {
  ASSERT_EQ(got.m, want.m) << what;
  ASSERT_EQ(got.n, want.n) << what;
  for (int i = 0; i < got.m; ++i) {
    const double s =
        (double(got(i, i)) < 0.0) == (double(want(i, i)) < 0.0) ? 1.0 : -1.0;
    for (int j = i; j < got.n; ++j) {
      EXPECT_NEAR(s * double(got(i, j)), double(want(i, j)), tol)
          << what << " at row " << i << " col " << j;
    }
  }
}

template <class T>
void run_tsqr_conformance(int m, int n, TreeKind tree, std::uint64_t seed) {
  SCOPED_TRACE(std::string(tree_name(tree)) + " " + std::to_string(m) + "x" +
               std::to_string(n));
  const MatrixT<T> A = random_matrix<T>(m, n, seed);
  TsqrOptions opts;
  opts.tree = tree;
  opts.nb = 32;  // explicit: force a multi-tile-row reduction
  opts.ib = 8;
  const TsqrFactorsT<T> f = tsqr<T>(A.cview(), opts);

  const MatrixT<T> R = f.r();
  const double tol = conformance_tol<T>(A.cview());
  // Upper triangular by construction; conforms with the dense oracle.
  const MatrixT<T> Rref = oracle_r<T>(A.cview());
  expect_r_conforms<T>(R.cview(), Rref.cview(), tol, "R vs geqrf_rec");

  // Thin explicit factor: orthonormal columns, A = Q R backward stable.
  const MatrixT<T> Q = tsqr_form_q<T>(f);
  ASSERT_EQ(Q.rows(), m);
  ASSERT_EQ(Q.cols(), n);
  expect_orthogonal<T>(Q.cview(), test::default_tol_per_dim<T>(), "thin Q");
  EXPECT_LT(test::backward_error<T>(A.cview(), Q.cview(), R.cview()),
            tol_eps<T>(4500.0));

  // Implicit apply, forward: Q^T A lands R in the leading n rows and ~0
  // below (same factorization, so no sign ambiguity).
  MatrixT<T> C(m, n);
  copy<T>(A.cview(), C.view());
  tsqr_apply_q<T>(f, Trans::Yes, C.view());
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < m; ++i) {
      const double want = i <= j ? double(R(i, j)) : 0.0;
      EXPECT_NEAR(double(C(i, j)), want, tol) << "Q^T A at " << i << "," << j;
    }
  }
  // And in reverse: Q (Q^T A) round-trips to A.
  tsqr_apply_q<T>(f, Trans::No, C.view());
  test::expect_matrix_near<T>(C.cview(), A.cview(), tol, "Q Q^T A");
}

TEST(Tsqr, ConformsToDenseOracleDouble) {
  int shape_seed = 0;
  for (const auto& [m, n] : {std::pair{96, 32}, {130, 40}, {64, 64}}) {
    for (const TreeKind tree : {TreeKind::Greedy, TreeKind::FlatTT,
                                TreeKind::FlatTS, TreeKind::Auto}) {
      run_tsqr_conformance<double>(m, n, tree, 1300 + shape_seed++);
    }
  }
}

TEST(Tsqr, ConformsToDenseOracleFloat) {
  int shape_seed = 0;
  for (const auto& [m, n] : {std::pair{96, 32}, {130, 40}}) {
    for (const TreeKind tree : {TreeKind::Greedy, TreeKind::FlatTT}) {
      run_tsqr_conformance<float>(m, n, tree, 2300 + shape_seed++);
    }
  }
}

TEST(Tsqr, ThreadedMatchesSerialBitwise) {
  const Matrix A = random_matrix(256, 64, 77);
  TsqrOptions serial;
  serial.nb = 32;
  serial.serial = true;
  TsqrOptions threaded;
  threaded.nb = 32;
  threaded.nthreads = 4;
  const TsqrFactors fs = tsqr<double>(A.cview(), serial);
  const TsqrFactors ft = tsqr<double>(A.cview(), threaded);
  const Matrix Rs = fs.r();
  const Matrix Rt = ft.r();
  for (int j = 0; j < 64; ++j) {
    for (int i = 0; i <= j; ++i) {
      EXPECT_EQ(Rs(i, j), Rt(i, j)) << "R not deterministic at " << i << ","
                                    << j;
    }
  }
  const Matrix Qs = tsqr_form_q<double>(fs);
  const Matrix Qt = tsqr_form_q<double>(ft, /*nthreads=*/4);
  for (int j = 0; j < 64; ++j) {
    for (int i = 0; i < 256; ++i) EXPECT_EQ(Qs(i, j), Qt(i, j));
  }
}

template <class T>
void expect_bitwise(ConstMatrixViewT<T> got, ConstMatrixViewT<T> want,
                    const char* what) {
  ASSERT_EQ(got.m, want.m) << what;
  ASSERT_EQ(got.n, want.n) << what;
  for (int j = 0; j < got.n; ++j) {
    for (int i = 0; i < got.m; ++i) {
      ASSERT_EQ(got(i, j), want(i, j)) << what << " at " << i << "," << j;
    }
  }
}

// The implicit-Q replay is one task per (panel transform, tile column);
// every thread count must reproduce the single-threaded replay bitwise, for
// every tree, with one tile column (a panel-wide tile) and with several.
// Explicit tile sizes keep the tile-column counts independent of any
// loaded calibration; the shapes are large enough that every replay runs
// on all the workers asked for.
TEST(Tsqr, ReplayBitwiseAcrossThreadCounts) {
  const int m = 2000;
  struct Case {
    int n, nb, cn;  // panel width, tile size, columns of C
  };
  for (const Case c : {Case{40, 40, 33}, Case{64, 16, 20}}) {
    const Matrix A = random_matrix(m, c.n, 4000 + c.n);
    const Matrix C0 = random_matrix(m, c.cn, 5000 + c.n);
    for (const TreeKind tree : {TreeKind::Greedy, TreeKind::FlatTT,
                                TreeKind::FlatTS, TreeKind::Auto}) {
      SCOPED_TRACE(std::string(tree_name(tree)) + " n=" +
                   std::to_string(c.n));
      TsqrOptions opts;
      opts.tree = tree;
      opts.nb = c.nb;
      const TsqrFactors f = tsqr<double>(A.cview(), opts);
      ASSERT_EQ(f.A.nt(), (c.n + c.nb - 1) / c.nb);
      const Matrix Q1 = tsqr_form_q<double>(f, 1);
      Matrix Cy1 = C0, Cn1 = C0;
      tsqr_apply_q<double>(f, Trans::Yes, Cy1.view(), 1);
      tsqr_apply_q<double>(f, Trans::No, Cn1.view(), 1);
      for (int nt = 2; nt <= 4; ++nt) {
        SCOPED_TRACE("nthreads=" + std::to_string(nt));
        expect_bitwise<double>(tsqr_form_q<double>(f, nt).cview(),
                               Q1.cview(), "form_q");
        Matrix Cy = C0, Cn = C0;
        tsqr_apply_q<double>(f, Trans::Yes, Cy.view(), nt);
        tsqr_apply_q<double>(f, Trans::No, Cn.view(), nt);
        expect_bitwise<double>(Cy.cview(), Cy1.cview(), "Q^T C");
        expect_bitwise<double>(Cn.cview(), Cn1.cview(), "Q C");
      }
    }
  }
}

// Runs a test with no calibration loaded, so 0-sentinel tile sizes resolve
// to the historical fallbacks whatever TBSVD_TUNE_FILE or the user's cache
// holds; restores the environment and the active calibration afterwards.
class Untuned : public ::testing::Test {
 protected:
  void SetUp() override {
    save("TBSVD_TUNE_FILE");
    save("XDG_CACHE_HOME");
    ::unsetenv("TBSVD_TUNE_FILE");
    ::setenv("XDG_CACHE_HOME",
             (::testing::TempDir() + "rsvd_untuned_cache").c_str(), 1);
    tune::reset_active();
  }
  void TearDown() override {
    for (const auto& [name, value] : saved_) {
      if (value.second) {
        ::setenv(name.c_str(), value.first.c_str(), 1);
      } else {
        ::unsetenv(name.c_str());
      }
    }
    tune::reset_active();
  }

 private:
  void save(const char* name) {
    const char* v = std::getenv(name);
    saved_.emplace_back(name,
                        std::make_pair(v != nullptr ? v : "", v != nullptr));
  }
  std::vector<std::pair<std::string, std::pair<std::string, bool>>> saved_;
};

// With the untuned nb = 64: a 72-column sketch is one 72-wide tile column,
// not two 64-wide ones, and so is a 120-column panel; a 128-column panel
// (two full tiles, no padding) and one wider than twice nb keep nb = 64;
// a 5-column panel gets the 16-wide floor; an explicit nb always wins.
TEST_F(Untuned, AutoTileWidthPadsSketchToMultipleOf8) {
  ASSERT_EQ(tune::active(), nullptr);
  auto auto_nb = [](int m, int n) {
    return tsqr<double>(random_matrix(m, n, 60 + n).cview(), {}).A.nb();
  };
  const Matrix A = random_matrix(200, 72, 61);
  const TsqrFactors f = tsqr<double>(A.cview(), {});
  EXPECT_EQ(f.A.nb(), 72);
  EXPECT_EQ(f.A.nt(), 1);
  TsqrOptions explicit_nb;
  explicit_nb.nb = 32;
  EXPECT_EQ(tsqr<double>(A.cview(), explicit_nb).A.nb(), 32);
  EXPECT_EQ(auto_nb(200, 120), 120);
  EXPECT_EQ(auto_nb(200, 128), 64);
  EXPECT_EQ(auto_nb(300, 130), 64);
  EXPECT_EQ(auto_nb(50, 5), 16);
}

TEST(Tsqr, TypedErrors) {
  const Matrix A = random_matrix(16, 32, 3);  // wide
  EXPECT_THROW(tsqr<double>(A.cview(), {}), invalid_argument_error);

  Matrix B = random_matrix(32, 8, 4);
  TsqrOptions bad;
  bad.nthreads = 0;
  EXPECT_THROW(tsqr<double>(B.cview(), bad), invalid_argument_error);

  B(5, 3) = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(tsqr<double>(B.cview(), {}), numerical_hazard_error);
}

// Low-rank-plus-noise input with a prescribed spectrum: k dominant values
// 'k, k-1, ..., 1' and a noise tail at `tail`.
Matrix low_rank_input(int m, int n, int k, double tail, std::uint64_t seed) {
  std::vector<double> sv(n, tail);
  for (int i = 0; i < k; ++i) sv[i] = double(k - i);
  return generate_matrix_with_sv(m, n, sv, seed);
}

TEST(GesvdTruncated, TopKMatchesFullDriverDouble) {
  const int m = 300, n = 80, k = 10;
  const Matrix A = low_rank_input(m, n, k, 1e-10, 99);
  const std::vector<double> full = gesvd_values<double>(A.cview(), {});
  const TruncatedSvd tr = gesvd_truncated<double>(A.cview(), k);
  ASSERT_EQ(tr.values.size(), static_cast<std::size_t>(k));
  EXPECT_TRUE(tr.info.ok());
  for (int i = 0; i < k; ++i) {
    EXPECT_NEAR(tr.values[i], full[i], 1e-8 * full[0])
        << "value " << i << " off";
  }
}

TEST(GesvdTruncated, TreeAndThreadVariantsAgree) {
  const int m = 200, n = 64, k = 8;
  const Matrix A = low_rank_input(m, n, k, 1e-10, 31);
  const std::vector<double> full = gesvd_values<double>(A.cview(), {});
  for (const TreeKind tree : {TreeKind::FlatTT, TreeKind::Auto}) {
    GesvdTruncatedOptions opts;
    opts.tree = tree;
    opts.nthreads = 2;
    const TruncatedSvd tr = gesvd_truncated<double>(A.cview(), k, opts);
    for (int i = 0; i < k; ++i) {
      EXPECT_NEAR(tr.values[i], full[i], 1e-8 * full[0])
          << tree_name(tree) << " value " << i;
    }
  }
}

// Values and factors bitwise identical across worker counts: the row-split
// A-products, the TSQRs and the Q replays all reproduce the serial result.
// 2001x160 with k = 42 splits every A-product and U = Q Jk into row blocks
// at 2..4 threads; m is not a multiple of the micro-tile and l = 50 is not
// a multiple of the tile size (auto: one tile column; nb = 16: four). The
// tiny k = 1 problems (40x8, 60x36) are products too small to split, whose
// blocks would also fall onto the direct gemm loops.
TEST(GesvdTruncated, BitwiseAcrossThreadCounts) {
  struct Case {
    int m, n, k, nb;
  };
  for (const Case c : {Case{2001, 160, 42, 0}, Case{2001, 160, 42, 16},
                       Case{40, 8, 1, 0}, Case{60, 36, 1, 0}}) {
    SCOPED_TRACE(std::to_string(c.m) + "x" + std::to_string(c.n) + " k=" +
                 std::to_string(c.k) + " nb=" + std::to_string(c.nb));
    const Matrix A = low_rank_input(c.m, c.n, c.k, 1e-3, 300 + c.nb);
    GesvdTruncatedOptions opts;
    opts.nb = c.nb;
    opts.want_factors = true;
    const TruncatedSvd ref = gesvd_truncated<double>(A.cview(), c.k, opts);
    for (int nt = 2; nt <= 4; ++nt) {
      SCOPED_TRACE("nthreads=" + std::to_string(nt));
      opts.nthreads = nt;
      const TruncatedSvd tr = gesvd_truncated<double>(A.cview(), c.k, opts);
      ASSERT_EQ(tr.values.size(), ref.values.size());
      for (std::size_t i = 0; i < ref.values.size(); ++i) {
        EXPECT_EQ(tr.values[i], ref.values[i]) << "value " << i;
      }
      expect_bitwise<double>(tr.U.cview(), ref.U.cview(), "U");
      expect_bitwise<double>(tr.V.cview(), ref.V.cview(), "V");
    }
  }
}

TEST(GesvdTruncated, TopKMatchesFullDriverFloat) {
  const int m = 240, n = 64, k = 8;
  const Matrix Ad = low_rank_input(m, n, k, 1e-6, 17);
  MatrixT<float> A(m, n);
  convert_matrix<float, double>(Ad.cview(), A.view());
  const std::vector<double> full = gesvd_values<float>(A.cview(), {});
  const TruncatedSvdT<float> tr = gesvd_truncated<float>(A.cview(), k);
  ASSERT_EQ(tr.values.size(), static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) {
    EXPECT_NEAR(tr.values[i], full[i], 2e-4 * full[0]) << "value " << i;
  }
}

TEST(GesvdTruncated, FactorsReconstructLowRankInput) {
  const int m = 200, n = 64, k = 8;
  std::vector<double> sv(n, 0.0);
  for (int i = 0; i < k; ++i) sv[i] = double(k - i);
  const Matrix A = generate_matrix_with_sv(m, n, sv, 7);
  GesvdTruncatedOptions opts;
  opts.want_factors = true;
  const TruncatedSvd tr = gesvd_truncated<double>(A.cview(), k, opts);
  ASSERT_EQ(tr.U.rows(), m);
  ASSERT_EQ(tr.U.cols(), k);
  ASSERT_EQ(tr.V.rows(), n);
  ASSERT_EQ(tr.V.cols(), k);
  expect_orthogonal<double>(tr.U.cview(), test::default_tol_per_dim(), "U");
  expect_orthogonal<double>(tr.V.cview(), test::default_tol_per_dim(), "V");
  // A is exactly rank k, so U diag(values) V^T reconstructs it.
  Matrix US(m, k);
  for (int j = 0; j < k; ++j) {
    for (int i = 0; i < m; ++i) US(i, j) = tr.U(i, j) * tr.values[j];
  }
  Matrix rec = test::mul<double>(US.cview(), tr.V.cview(), Trans::No,
                                 Trans::Yes);
  double err2 = 0.0;
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < m; ++i) {
      const double d = rec(i, j) - A(i, j);
      err2 += d * d;
    }
  }
  EXPECT_LT(std::sqrt(err2) / norm_fro<double>(A.cview()), 1e-9);
}

TEST(GesvdTruncated, TypedErrors) {
  const Matrix A = random_matrix(64, 16, 5);
  EXPECT_THROW(gesvd_truncated<double>(A.cview(), 0), invalid_argument_error);
  EXPECT_THROW(gesvd_truncated<double>(A.cview(), 17), invalid_argument_error);

  GesvdTruncatedOptions bad;
  bad.oversample = -1;
  EXPECT_THROW(gesvd_truncated<double>(A.cview(), 4, bad),
               invalid_argument_error);
  bad = GesvdTruncatedOptions{};
  bad.power_iters = -1;
  EXPECT_THROW(gesvd_truncated<double>(A.cview(), 4, bad),
               invalid_argument_error);

  const Matrix W = random_matrix(16, 64, 6);  // wide
  EXPECT_THROW(gesvd_truncated<double>(W.cview(), 4), invalid_argument_error);

  Matrix N = random_matrix(64, 16, 8);
  N(1, 1) = std::numeric_limits<double>::infinity();
  EXPECT_THROW(gesvd_truncated<double>(N.cview(), 4), numerical_hazard_error);
}

// Regression for the examples bug: hardware_concurrency() may return 0 and
// used to flow unclamped into the drivers. nthreads < 1 must throw typed
// everywhere — at the Scheduler, through ge2bnd's options, and through the
// new driver — never hang on a zero-worker pool.
TEST(NthreadsContract, ZeroThrowsTypedEverywhere) {
  TaskGraph g;
  EXPECT_THROW(g.run(0), invalid_argument_error);
  EXPECT_THROW(g.run(-3), invalid_argument_error);

  const Matrix A = random_matrix(64, 32, 9);
  GesvdOptions so;
  so.ge2bnd.nthreads = 0;
  EXPECT_THROW(gesvd_values<double>(A.cview(), so), invalid_argument_error);

  GesvdTruncatedOptions to;
  to.nthreads = 0;
  EXPECT_THROW(gesvd_truncated<double>(A.cview(), 4, to),
               invalid_argument_error);
}

TEST(GesvdTruncated, SafeScalingAt1e300) {
  const int m = 160, n = 48, k = 5;
  const Matrix A = low_rank_input(m, n, k, 1e-10, 23);
  const TruncatedSvd ref = gesvd_truncated<double>(A.cview(), k);
  Matrix S(m, n);
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < m; ++i) S(i, j) = A(i, j) * 1e300;
  }
  const TruncatedSvd tr = gesvd_truncated<double>(S.cview(), k);
  EXPECT_TRUE(tr.info.scaled);
  EXPECT_TRUE(tr.info.ok());
  for (int i = 0; i < k; ++i) {
    ASSERT_TRUE(std::isfinite(tr.values[i]));
    EXPECT_NEAR(tr.values[i] / 1e300, ref.values[i], 1e-8 * ref.values[0])
        << "scaled value " << i;
  }
}

TEST(GesvdTruncated, DeterministicAcrossRuns) {
  const Matrix A = low_rank_input(120, 40, 6, 1e-10, 55);
  const TruncatedSvd a = gesvd_truncated<double>(A.cview(), 6);
  const TruncatedSvd b = gesvd_truncated<double>(A.cview(), 6);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(a.values[i], b.values[i]);
}

TEST(TreeFromName, ParsesAllKindsCaseInsensitive) {
  TreeKind k = TreeKind::FlatTS;
  EXPECT_TRUE(tree_from_name("greedy", k));
  EXPECT_EQ(k, TreeKind::Greedy);
  EXPECT_TRUE(tree_from_name("FlatTT", k));
  EXPECT_EQ(k, TreeKind::FlatTT);
  EXPECT_TRUE(tree_from_name("FLATTS", k));
  EXPECT_EQ(k, TreeKind::FlatTS);
  EXPECT_TRUE(tree_from_name("Auto", k));
  EXPECT_EQ(k, TreeKind::Auto);
  EXPECT_FALSE(tree_from_name("binary", k));
  EXPECT_FALSE(tree_from_name(nullptr, k));
}

}  // namespace
}  // namespace tbsvd
