// Dense kernels: products, norms and column orthonormalisation.
//
// The matrix products are cache-blocked and optionally multi-threaded.
// Threading partitions output rows (or columns) into disjoint contiguous
// ranges, and every kernel accumulates each output element in the same
// (ascending-k) order regardless of blocking, striding or thread count, so
// results are bit-identical from one run and one machine to the next.
//
// Every kernel has two forms: a view-based `_into` form writing a
// caller-provided output (the zero-allocation serving path, DESIGN.md §10)
// and an owning convenience wrapper that allocates the result and
// delegates. The `_into` forms accept arbitrary row strides, so batch
// prefixes and workspace slices feed the kernels without a copy; outputs
// must not alias inputs.
#ifndef EIGENMAPS_NUMERICS_BLAS_H
#define EIGENMAPS_NUMERICS_BLAS_H

#include <cstddef>

#include "numerics/matrix.h"

namespace eigenmaps::numerics {

double dot(ConstVectorView a, ConstVectorView b);
double norm2(ConstVectorView a);

/// Number of threads the dense kernels may use. Defaults to the
/// EIGENMAPS_THREADS environment variable when set (a positive integer),
/// otherwise to the hardware concurrency. Small products always run on the
/// calling thread regardless of this setting.
std::size_t blas_threads();

/// Overrides blas_threads() for this process; 0 restores the default
/// (environment / hardware) resolution.
void set_blas_threads(std::size_t threads);

/// Overrides blas_threads() for the calling thread only (wins over the
/// process-wide setting); 0 clears it. Pools that already parallelise at a
/// coarser grain pin their workers to 1 so kernel threading cannot nest.
void set_blas_threads_this_thread(std::size_t threads);

/// C = A * B into a caller-provided output (overwritten).
void matmul_into(ConstMatrixView a, ConstMatrixView b, MatrixView c);

/// C = A * B.
Matrix matmul(const Matrix& a, const Matrix& b);

/// C += A * B into a caller-provided (and caller-initialised) C. Lets hot
/// paths fold an offset into the product without a second pass over C.
void matmul_accumulate(ConstMatrixView a, ConstMatrixView b, MatrixView c);

/// c(i, j) = bias[j] + (A * B)(i, j), with the bias seeded inside the
/// kernel's first k-panel so the output never streams through cache twice.
/// This is the serving hot path: coefficient batches expanding through a
/// basis on top of a mean map.
void matmul_bias_into(ConstMatrixView a, ConstMatrixView b,
                      ConstVectorView bias, MatrixView c);
Matrix matmul_bias(const Matrix& a, const Matrix& b, const Vector& bias);

/// Gram matrix A^T * A (cols x cols), exploiting symmetry.
void gram_into(ConstMatrixView a, MatrixView g);
Matrix gram(const Matrix& a);

/// y = A * x.
void matvec_into(ConstMatrixView a, ConstVectorView x, VectorView y);
Vector matvec(const Matrix& a, const Vector& x);

/// y = A^T * x.
void matvec_transpose_into(ConstMatrixView a, ConstVectorView x,
                           VectorView y);
Vector matvec_transpose(const Matrix& a, const Vector& x);

/// In-place modified Gram-Schmidt on the columns of `a`. Columns that turn
/// out linearly dependent are replaced by zeros; returns the numerical rank.
std::size_t orthonormalize_columns(MatrixView a, double tolerance = 1e-12);
inline std::size_t orthonormalize_columns(Matrix& a,
                                          double tolerance = 1e-12) {
  return orthonormalize_columns(a.view(), tolerance);
}

}  // namespace eigenmaps::numerics

#endif  // EIGENMAPS_NUMERICS_BLAS_H
