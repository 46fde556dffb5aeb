#include "rsvd/rsvd.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "batched/small_svd.hpp"
#include "common/check.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/hazard.hpp"
#include "common/rng.hpp"
#include "lac/blas.hpp"
#include "runtime/task_graph.hpp"
#include "tune/tune.hpp"

namespace tbsvd {

namespace {

/// Library default for GesvdTruncatedOptions::oversample == 0.
constexpr int kDefaultOversample = 8;

template <class T>
constexpr Precision precision_of() {
  return sizeof(T) == sizeof(float) ? Precision::F32 : Precision::F64;
}

/// One-sided Jacobi with accumulated right rotations: on exit the columns
/// of W (n x l) are mutually orthogonal, J (l x l, entered as identity)
/// holds the accumulated rotation product, and sigma[j] = ||W col j||.
/// With W entered as B^T this yields B = J diag(sigma) V^T where V is W's
/// normalized columns — the factor pieces gesvd_truncated needs. Only used
/// on the l-column projected matrix, so the O(l^2 n) sweeps are cheap.
template <class T>
void one_sided_jacobi(MatrixViewT<T> W, MatrixViewT<T> J,
                      std::vector<double>& sigma) {
  const int n = W.m, l = W.n;
  const double eps = static_cast<double>(std::numeric_limits<T>::epsilon());
  constexpr int kMaxSweeps = 30;
  bool converged = false;
  for (int sweep = 0; sweep < kMaxSweeps && !converged; ++sweep) {
    converged = true;
    for (int p = 0; p < l - 1; ++p) {
      for (int q = p + 1; q < l; ++q) {
        double app = 0.0, aqq = 0.0, apq = 0.0;
        const T* wp = W.col(p);
        const T* wq = W.col(q);
        for (int i = 0; i < n; ++i) {
          const double x = wp[i], y = wq[i];
          app += x * x;
          aqq += y * y;
          apq += x * y;
        }
        if (std::fabs(apq) <= 8.0 * eps * std::sqrt(app * aqq) ||
            apq == 0.0) {
          continue;
        }
        converged = false;
        // Rutishauser rotation zeroing the (p, q) Gram entry.
        const double tau = (aqq - app) / (2.0 * apq);
        const double t = (tau >= 0.0 ? 1.0 : -1.0) /
                         (std::fabs(tau) + std::sqrt(1.0 + tau * tau));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = t * c;
        T* mwp = W.col(p);
        T* mwq = W.col(q);
        for (int i = 0; i < n; ++i) {
          const double x = mwp[i], y = mwq[i];
          mwp[i] = static_cast<T>(c * x - s * y);
          mwq[i] = static_cast<T>(s * x + c * y);
        }
        T* jp = J.col(p);
        T* jq = J.col(q);
        for (int i = 0; i < l; ++i) {
          const double x = jp[i], y = jq[i];
          jp[i] = static_cast<T>(c * x - s * y);
          jq[i] = static_cast<T>(s * x + c * y);
        }
      }
    }
  }
  if (!converged) {
    throw convergence_error(
        "gesvd_truncated: one-sided Jacobi failed to converge");
  }
  sigma.resize(l);
  for (int j = 0; j < l; ++j) {
    sigma[j] = static_cast<double>(nrm2<T>(n, W.col(j), 1));
  }
}

/// C := op(A) * B with C's rows split into up to one contiguous block per
/// worker, each block one task running the serial gemm on sub-views of A
/// and C. The block height comes from gemm_row_block, so the result is
/// bitwise the single call's at any worker count; products too small to
/// give each block kMinFmaPerWorker stay one call on the calling thread.
template <class T>
void gemm_rows(Trans ta, ConstMatrixViewT<T> A, ConstMatrixViewT<T> B,
               MatrixViewT<T> C, int nthreads) {
  const int parts =
      workers_for(static_cast<long long>(C.m) * C.n * B.m, nthreads);
  const int rb = gemm_row_block<T>(C.m, C.n, B.m, parts);
  if (rb == C.m) {
    gemm<T>(ta, Trans::No, T(1), A, B, T(0), C);
    return;
  }
  TaskGraph g;
  for (int r0 = 0; r0 < C.m; r0 += rb) {
    const int mr = std::min(rb, C.m - r0);
    const ConstMatrixViewT<T> Ab =
        ta == Trans::No ? A.block(r0, 0, mr, A.n) : A.block(0, r0, A.m, mr);
    const MatrixViewT<T> Cb = C.block(r0, 0, mr, C.n);
    g.submit("rsvd_gemm_rows",
             [ta, Ab, B, Cb] { gemm<T>(ta, Trans::No, T(1), Ab, B, T(0), Cb); },
             {{Cb.a, Access::Write}});
  }
  g.run(static_cast<int>(g.size()));  // one worker per block
}

}  // namespace

template <class T>
TruncatedSvdT<T> gesvd_truncated(ConstMatrixViewT<T> A, int k,
                                 const GesvdTruncatedOptions& opts) {
  TBSVD_CHECK(A.m >= A.n && A.n >= 1,
              "gesvd_truncated requires m >= n >= 1 (transpose first)");
  TBSVD_CHECK(A.a != nullptr && A.ld >= A.m,
              "gesvd_truncated: invalid input view");
  TBSVD_CHECK(k >= 1 && k <= std::min(A.m, A.n),
              "gesvd_truncated: k must be in [1, min(m, n)]");
  TBSVD_CHECK(opts.oversample >= 0,
              "gesvd_truncated: oversample must be >= 0 (0 = default)");
  TBSVD_CHECK(opts.power_iters >= 0,
              "gesvd_truncated: power_iters must be >= 0");
  TBSVD_CHECK(opts.nb >= 0 && opts.ib >= 0,
              "gesvd_truncated: nb/ib must be >= 0 (0 = tuned)");
  TBSVD_CHECK(opts.nthreads >= 1, "gesvd_truncated: nthreads must be >= 1");

  const int m = A.m, n = A.n;
  TruncatedSvdT<T> res;
  SvdInfo& si = res.info;
  si.reduce_precision = precision_of<T>();
  si.values_precision = precision_of<T>();

  const ExtremeScan scan = scan_extremes<T>(A);
  if (!scan.finite) {
    throw numerical_hazard_error("gesvd_truncated: non-finite entry in input");
  }

  // The sketch products square the norm, so they must see data already
  // inside the per-precision safe range: out-of-range inputs are scaled on
  // a working copy, everything else is read in place.
  MatrixT<T> scaled;
  ConstMatrixViewT<T> Aw = A;
  const double target = svd_safe_target<T>(scan.amax);
  if (target != scan.amax) {
    scaled = MatrixT<T>(m, n);
    copy<T>(A, scaled.view());
    scale_stepwise<T>(scaled.view(), scan.amax, target);
    Aw = scaled.cview();
    si.scaled = true;
    si.scale_from = scan.amax;
    si.scale_to = target;
  }

  const int oversample =
      tune::resolved_oversample(opts.oversample, kDefaultOversample);
  const int l = std::min(n, k + oversample);

  // Gaussian sketch: Y = A * Omega picks up a basis of A's dominant range
  // with the oversampled columns absorbing the noise subspace.
  Rng rng(opts.seed);
  MatrixT<T> Omega(n, l);
  for (int j = 0; j < l; ++j) {
    for (int i = 0; i < n; ++i) Omega(i, j) = static_cast<T>(rng.normal());
  }
  MatrixT<T> Y(m, l);
  gemm_rows<T>(Trans::No, Aw, Omega.cview(), Y.view(), opts.nthreads);
  if (TBSVD_FAULT_FIRE("rsvd.sketch_poison")) {
    Y(0, 0) = std::numeric_limits<T>::quiet_NaN();
  }

  TsqrOptions qo;
  qo.tree = opts.tree;
  qo.nb = opts.nb;
  qo.ib = opts.ib;
  qo.nthreads = opts.nthreads;
  std::size_t tasks = 0;
  auto orthonormalize = [&](ConstMatrixViewT<T> X) {
    TsqrFactorsT<T> f = tsqr<T>(X, qo);
    tasks += f.ntasks;
    return tsqr_form_q<T>(f, opts.nthreads);
  };

  // Subspace iteration on (A A^T), re-orthonormalized through TSQR on the
  // SHORT side (n x l) after each round trip: normalizing Qz bounds the
  // basis against collapse onto the top vector, while the expensive tall
  // m x l TSQR runs exactly once, after the loop. The unnormalized
  // intermediates stay inside the safe range because the dlascl
  // pre-scaling above caps amax at svd_safe_target — chosen so amax^2
  // times the dimension factors cannot overflow the working precision.
  for (int it = 0; it < opts.power_iters; ++it) {
    MatrixT<T> Z(n, l);
    gemm_rows<T>(Trans::Yes, Aw, Y.cview(), Z.view(), opts.nthreads);
    const MatrixT<T> Qz = orthonormalize(Z.cview());  // n x l, cheap
    gemm_rows<T>(Trans::No, Aw, Qz.cview(), Y.view(), opts.nthreads);
  }
  const MatrixT<T> Q = orthonormalize(Y.cview());  // m x l
  si.ge2bnd_tasks = tasks;

  // Projected matrix, stored transposed: W = A^T Q = B^T (n x l, tall),
  // the m >= n orientation the shared direct staging wants.
  MatrixT<T> W(n, l);
  gemm_rows<T>(Trans::Yes, Aw, Q.cview(), W.view(), opts.nthreads);

  // Values through the batched direct path's shared preQR + GEBRD + BD2VAL
  // staging (on a copy when the factor path still needs W).
  {
    MatrixT<T> Wc;
    if (opts.want_factors) Wc = W;
    std::vector<T> tfac(static_cast<std::size_t>(l) * l);
    std::vector<T> rbuf(static_cast<std::size_t>(l) * l);
    Bd2valInfo bi;
    const std::vector<T> svt = batched::small_svd_values<T>(
        opts.want_factors ? Wc.view() : W.view(), tfac.data(), rbuf.data(),
        opts.bd2val, &bi);
    si.status = bi.status;
    si.qr_iterations = bi.qr_iterations;
    si.bisection_fallback = bi.bisection_fallback;
    res.values.assign(svt.begin(), svt.begin() + k);
  }

  if (opts.want_factors) {
    // B = Q^T A = J diag(sigma) V^T from the one-sided Jacobi on W = B^T,
    // so U = Q J[:, :k] and V = W's normalized columns. The Jacobi sigmas
    // only order/normalize the vectors; the returned values stay the
    // direct-staging ones above (identical to working precision).
    MatrixT<T> J = MatrixT<T>::identity(l);
    std::vector<double> sigma;
    one_sided_jacobi<T>(W.view(), J.view(), sigma);
    std::vector<int> order(l);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&sigma](int a, int b) { return sigma[a] > sigma[b]; });
    MatrixT<T> Jk(l, k);
    res.V = MatrixT<T>(n, k);
    for (int j = 0; j < k; ++j) {
      const int src = order[j];
      for (int i = 0; i < l; ++i) Jk(i, j) = J(i, src);
      if (sigma[src] > 0.0) {
        const T inv = static_cast<T>(1.0 / sigma[src]);
        for (int i = 0; i < n; ++i) res.V(i, j) = W(i, src) * inv;
      }  // a zero singular value has no defined vector; leave the column 0
    }
    res.U = MatrixT<T>(m, k);
    gemm_rows<T>(Trans::No, Q.cview(), Jk.cview(), res.U.view(), opts.nthreads);
  }

  if (si.scaled) {
    scale_stepwise<double>(res.values, si.scale_to, si.scale_from);
  }
  return res;
}

#define TBSVD_INSTANTIATE_RSVD(T)                                         \
  template TruncatedSvdT<T> gesvd_truncated<T>(                           \
      ConstMatrixViewT<T>, int, const GesvdTruncatedOptions&);

TBSVD_INSTANTIATE_RSVD(float)
TBSVD_INSTANTIATE_RSVD(double)

#undef TBSVD_INSTANTIATE_RSVD

}  // namespace tbsvd
