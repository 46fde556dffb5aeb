// Tall-skinny QR (TSQR) driver: factors a dense m x n matrix (m >= n)
// through the tiled QR machinery — TS/TT recursive panel kernels under a
// configurable reduction tree (Greedy binomial by default, the
// communication-optimal shape of Demmel et al.'s TSQR; FlatTS/FlatTT/Auto
// as in the paper's Section III) — executed on the work-stealing Scheduler
// with CP-fed priorities, exactly like the GE2BND pipeline.
//
// The result keeps the factorization implicit: the tiled matrix holds R
// plus the Householder tiles, the T grids hold the block-reflector
// triangles, and the op stream records the elimination order. r() extracts
// the explicit n x n R; tsqr_apply_q / tsqr_form_q replay the panel
// transforms core/qform-style (forward with Trans::Yes for Q^T C, reverse
// with Trans::No for Q C), so the m x m Q is never materialized — the
// randomized range-finder (rsvd.hpp) only ever needs the thin factor.
//
// Padding contract: inputs are zero-padded to tile multiples internally.
// Reflectors computed from exactly-zero padding rows are exactly zero, so
// the padded orthogonal factor is block-diagonal over [real rows | padding]
// and the thin m x n factor returned by tsqr_form_q satisfies A = Q R with
// orthonormal columns — padding never leaks into results.
//
// Hazard contract (docs/ROBUSTNESS.md): inputs are scanned once up front;
// NaN/Inf throws numerical_hazard_error. Option misuse (wide input,
// nthreads < 1, negative nb/ib) throws invalid_argument_error.
#pragma once

#include <cstddef>
#include <vector>

#include "core/ge2bnd.hpp"
#include "lac/blas.hpp"
#include "lac/dense.hpp"
#include "tile/tile_matrix.hpp"
#include "trees/tree.hpp"

namespace tbsvd {

struct TsqrOptions {
  /// Reduction tree combining the per-panel tile rows (paper Section III).
  TreeKind tree = TreeKind::Greedy;
  /// Tile size; 0 resolves to the active calibration's tuned nb (the
  /// historical 64 when no calibration is loaded), except that a panel of
  /// up to twice that width gets one tile column padded only to a multiple
  /// of 8 wherever that pads less (tile kernels cost O(nb^3) whether or
  /// not the columns are real, so a skinny sketch must not pad up to
  /// mostly-empty tiles).
  int nb = 0;
  /// Inner blocking; 0 resolves to the tuned ib (historical 32), capped
  /// at nb.
  int ib = 0;
  int nthreads = 1;    ///< executor workers (>= 1)
  double gamma = 2.0;  ///< Auto-tree parallelism target multiplier
  bool serial = false; ///< run ops in submission order (debug/reference)
};

/// A factored TSQR: the tiled matrix (R + Householder tiles, padded to
/// tile multiples), the T grids, and the op stream that produced them —
/// the implicit-Q handle. Keep it alive to apply or form Q.
template <class T>
struct TsqrFactorsT {
  TileMatrixT<T> A;
  TFactorsT<T> t;
  std::vector<TileOp> ops;
  int ib = 32;
  int m = 0;  ///< unpadded input rows
  int n = 0;  ///< unpadded input cols
  std::size_t ntasks = 0;  ///< executor tasks of the factorization

  /// The explicit n x n upper-triangular R.
  [[nodiscard]] MatrixT<T> r() const;
};

using TsqrFactors = TsqrFactorsT<double>;

/// Factor dense A (m >= n >= 1). The input is copied (padded) into tiled
/// storage; A itself is not modified.
template <class T>
TsqrFactorsT<T> tsqr(ConstMatrixViewT<T> A, const TsqrOptions& opts = {});

/// Apply the implicit factor to C (f.m rows) in place:
///   Trans::Yes  C := Q^T C  (panel ops replayed forward),
///   Trans::No   C := Q C    (replayed in reverse).
/// Q here is the full orthogonal factor of the padded problem restricted
/// to the leading f.m rows: after Q^T C the leading f.n rows carry the
/// R-space coefficients (all a least-squares solve consumes); for Q C the
/// thin-factor semantics hold when C's rows beyond f.n are zero. The
/// replay is one task per (panel transform, tile column of C) on the
/// executor, so independent reduction-tree branches and tile columns run
/// concurrently; every tile sees its transforms in the serial order, so
/// the result is bitwise the same for any nthreads. A replay too small to
/// give each worker kMinFmaPerWorker multiply-adds uses fewer workers,
/// down to the calling thread alone.
template <class T>
void tsqr_apply_q(const TsqrFactorsT<T>& f, Trans trans, MatrixViewT<T> C,
                  int nthreads = 1);

/// The explicit thin factor: m x n Q with orthonormal columns and
/// A = Q * R (applies Q to [I_n; 0] through the same parallel replay).
template <class T>
MatrixT<T> tsqr_form_q(const TsqrFactorsT<T>& f, int nthreads = 1);

}  // namespace tbsvd
