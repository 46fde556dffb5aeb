// Seeded input generation for the benchmark workloads. Kept independent of
// the library's own generators and RNG so that a change to the library
// never changes the inputs the benchmark measures.
//
// A planted m x n matrix (m = s * n) with singular values sigma is built as
//   A = [Q_1 M; Q_2 M; ...; Q_s M] / sqrt(s),   M = diag(sigma) V^T,
// where V and every Q_j are products of random Householder reflectors.
// Then A^T A = M^T M = V diag(sigma)^2 V^T, so the spectrum is exactly
// sigma up to the rounding of the construction, and the cost is
// O(r * m * n) for r reflectors per factor instead of the O(m n^2) of a
// QR-based Haar sample.
#pragma once

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "lac/dense.hpp"

namespace perfbench {

/// splitmix64 stream; normal() by Box-Muller.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in (0, 1).
  double uniform() { return (static_cast<double>(next() >> 11) + 0.5) * 0x1.0p-53; }
  double normal() {
    const double u = uniform(), v = uniform();
    return std::sqrt(-2.0 * std::log(u)) * std::cos(6.283185307179586 * v);
  }

 private:
  std::uint64_t s_;
};

/// X := (I - 2 v v^T / v^T v) X for a random Gaussian v, r times.
inline void apply_random_reflectors(Rng& rng, tbsvd::MatrixView X, int r) {
  std::vector<double> v(X.m);
  for (int k = 0; k < r; ++k) {
    double vv = 0.0;
    for (double& x : v) {
      x = rng.normal();
      vv += x * x;
    }
    const double scale = 2.0 / vv;
    for (int j = 0; j < X.n; ++j) {
      double* c = X.col(j);
      // Eight partial sums in a fixed order: vectorizable, deterministic.
      double part[8] = {};
      int i = 0;
      for (; i + 8 <= X.m; i += 8) {
        for (int k = 0; k < 8; ++k) part[k] += v[i + k] * c[i + k];
      }
      double dot = 0.0;
      for (; i < X.m; ++i) dot += v[i] * c[i];
      for (double p : part) dot += p;
      dot *= scale;
      for (i = 0; i < X.m; ++i) c[i] -= dot * v[i];
    }
  }
}

/// sigma_i = smax * cond^(-i / (n - 1)), descending.
inline std::vector<double> geometric_spectrum(int n, double cond,
                                              double smax = 1.0) {
  std::vector<double> s(n, smax);
  for (int i = 1; i < n; ++i) {
    s[i] = smax * std::pow(cond, -static_cast<double>(i) / (n - 1));
  }
  return s;
}

/// m x n matrix (m a multiple of n) whose singular values are `sigma`
/// (descending, length n); r reflectors per orthogonal factor.
inline tbsvd::Matrix planted(int m, int n, const std::vector<double>& sigma,
                             Rng& rng, int r) {
  if (n < 1 || m % n != 0 || static_cast<int>(sigma.size()) != n) {
    throw std::invalid_argument("planted: need m = s * n and n values");
  }
  const int s = m / n;
  tbsvd::Matrix M = tbsvd::Matrix::identity(n);
  apply_random_reflectors(rng, M.view(), r);  // M = V^T
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) M(i, j) *= sigma[i];
  }
  tbsvd::Matrix A(m, n);
  const double inv = 1.0 / std::sqrt(static_cast<double>(s));
  for (int b = 0; b < s; ++b) {
    tbsvd::MatrixView blk = A.block(b * n, 0, n, n);
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i < n; ++i) blk(i, j) = M(i, j) * inv;
    }
    apply_random_reflectors(rng, blk, r);
  }
  return A;
}

}  // namespace perfbench
