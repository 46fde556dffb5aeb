// Minimal BLAS-like dense operations (hand-written; no external BLAS is
// available in this environment), templated over the scalar type
// T in {float, double}. gemm and the trmm variants run on a cache-blocked,
// packed micro-kernel backend (see gemm_microkernel.hpp); small/skinny
// products take direct vectorized loops. Definitions live in blas.cpp with
// explicit instantiations for float and double.
#pragma once

#include "lac/dense.hpp"

namespace tbsvd {

enum class Trans { No, Yes };
enum class UpLo { Upper, Lower };
enum class Diag { Unit, NonUnit };

/// C := alpha * op(A) * op(B) + beta * C.
template <class T>
void gemm(Trans ta, Trans tb, T alpha, ConstMatrixViewT<T> A,
          ConstMatrixViewT<T> B, T beta, MatrixViewT<T> C);

/// Row-block height for splitting an m x n (inner dimension k) gemm into
/// at most `parts` contiguous row blocks, each a separate gemm call on
/// sub-views of op(A) and C, whose results are bitwise those of the single
/// call: the height is a multiple of the micro-tile, and every block takes
/// the kernel path the whole product takes. Returns m when the product must
/// stay one call (parts <= 1, the whole product or its smallest block on
/// the direct path). Lets a threaded caller split products without
/// changing their results.
template <class T>
[[nodiscard]] int gemm_row_block(int m, int n, int k, int parts);

/// Which operand of gemm_trap carries the trapezoidal support mask.
enum class TrapSide { A, B };

/// C := alpha * op(A) * op(B) + beta * C where the operand selected by
/// `side` is trapezoidal in storage: only entries (r, c) of the *stored*
/// (untransposed) operand with r <= off + c (UpLo::Upper) or c <= off + r
/// (UpLo::Lower) are read; everything outside that support is treated as
/// exactly zero regardless of what the storage holds. The TT kernels use
/// this to run their triangular V2 panels — whose out-of-support entries
/// are unrelated Householder data — through the packed micro-kernel at
/// blocked-gemm speed, with the mask applied during panel packing instead
/// of densifying the operand first.
template <class T>
void gemm_trap(Trans ta, Trans tb, T alpha, ConstMatrixViewT<T> A,
               ConstMatrixViewT<T> B, T beta, MatrixViewT<T> C, TrapSide side,
               UpLo uplo, int off);

/// y := alpha * op(A) * x + beta * y  (x, y contiguous with given strides).
template <class T>
void gemv(Trans ta, T alpha, ConstMatrixViewT<T> A, const T* x, int incx,
          T beta, T* y, int incy);

/// Dot product of two strided vectors of length n.
template <class T>
[[nodiscard]] T dot(int n, const T* x, int incx, const T* y,
                    int incy) noexcept;

/// Euclidean norm of a strided vector (with scaling for robustness).
template <class T>
[[nodiscard]] T nrm2(int n, const T* x, int incx) noexcept;

/// y := a*x + y on strided vectors.
template <class T>
void axpy(int n, T a, const T* x, int incx, T* y, int incy) noexcept;

/// x := a*x on a strided vector.
template <class T>
void scal(int n, T a, T* x, int incx) noexcept;

/// W := op(T) * W in place, T triangular (k x k), W (k x n).
template <class T>
void trmm_left(UpLo uplo, Trans trans, Diag diag, ConstMatrixViewT<T> Tm,
               MatrixViewT<T> W);

/// Solve op(A) X = B in place (B overwritten with X), A triangular
/// (n x n), B (n x nrhs). Column-oriented forward/back substitution — sized
/// for the small right-hand sides of the batched gels path, not for large
/// blocked solves. The diagonal is not checked: with Diag::NonUnit a zero
/// pivot yields non-finite results, so callers that can see rank-deficient
/// input must test the diagonal first (batched::gels does).
template <class T>
void trsm_left(UpLo uplo, Trans trans, Diag diag, ConstMatrixViewT<T> A,
               MatrixViewT<T> B);

/// W := W * op(T) in place, T triangular (n x n), W (m x n).
template <class T>
void trmm_right(UpLo uplo, Trans trans, Diag diag, MatrixViewT<T> W,
                ConstMatrixViewT<T> Tm);

/// B := A (shape-checked element copy between views).
template <class T>
void copy(ConstMatrixViewT<T> A, MatrixViewT<T> B);

/// B := A^T.
template <class T>
void transpose(ConstMatrixViewT<T> A, MatrixViewT<T> B);

/// C -= W elementwise (the block-reflector "subtract the W product" step).
template <class T>
void sub_inplace(MatrixViewT<T> C, ConstMatrixViewT<T> W);

/// C -= W^T (same step for the transposed-workspace applies).
template <class T>
void sub_transposed(MatrixViewT<T> C, ConstMatrixViewT<T> W);

/// Frobenius norm of a view (accumulated in double in either precision).
template <class T>
[[nodiscard]] double norm_fro(ConstMatrixViewT<T> A) noexcept;

/// max |A(i,j)|.
template <class T>
[[nodiscard]] double norm_max(ConstMatrixViewT<T> A) noexcept;

/// ||A^T A - I||_F, measuring loss of column orthonormality.
template <class T>
[[nodiscard]] double orthogonality_error(ConstMatrixViewT<T> A);

}  // namespace tbsvd
