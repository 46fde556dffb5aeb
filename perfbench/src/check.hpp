// Output checks against the planted spectra. Every timed solve goes
// through one of these; a failed check counts in failed_frac and makes the
// benchmark exit non-zero, but the run continues.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

constexpr double kEps = std::numeric_limits<double>::epsilon();

struct CheckResult {
  bool ok = true;
  double err_eps = 0.0;  ///< max |got - want| / (eps * sigma_max)
  std::string why;       ///< set when !ok
};

/// A failed check that compared nothing (a throw, a broken invariant).
inline CheckResult failed_check(std::string why) {
  CheckResult r;
  r.ok = false;
  r.why = std::move(why);
  return r;
}

/// Compares the leading want.size() values of `got` with the planted
/// `want` (both descending): every value must be finite and within
/// tol_eps * eps * sigma_max of its planted value.
inline CheckResult check_values(const std::vector<double>& got,
                                const std::vector<double>& want,
                                double tol_eps) {
  CheckResult r;
  if (got.size() < want.size() || want.empty()) {
    r.ok = false;
    r.why = "expected " + std::to_string(want.size()) + " values, got " +
            std::to_string(got.size());
    return r;
  }
  const double unit = kEps * want.front();
  for (std::size_t i = 0; i < want.size(); ++i) {
    const double e = std::fabs(got[i] - want[i]) / unit;
    const bool finite = std::isfinite(e);
    if (finite) r.err_eps = std::max(r.err_eps, e);
    if (!finite || e > tol_eps) {
      if (r.ok) {
        r.why = "value " + std::to_string(i) + ": error " +
                std::to_string(e) + " eps*sigma_max, tolerance " +
                std::to_string(tol_eps);
      }
      r.ok = false;
    }
  }
  return r;
}

/// Tolerance of the full drivers: n * eps * sigma_max.
inline double full_tol_eps(int n) { return static_cast<double>(n); }

/// Tolerance of the randomized top-k values. With sketch residual rho the
/// range finder underestimates sigma_i by at most rho^2 / sigma_i; the
/// oversampled power iteration keeps rho below sqrt(n) * sigma_{k+1}, so
/// the bound is n * sigma_{k+1}^2 / sigma_k on top of the rounding term.
/// It stays tight only because the planted spectrum has a gap after
/// sigma_k.
inline double rsvd_tol_eps(int n, const std::vector<double>& sigma, int k) {
  const double gap_term =
      static_cast<double>(n) * sigma[k] * sigma[k] / sigma[k - 1];
  return static_cast<double>(n) + gap_term / (kEps * sigma.front());
}

}  // namespace perfbench
