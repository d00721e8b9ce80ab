// fp32 expansion GEMM: portable kernel and runtime dispatch.
//
// Compiled with the library-wide -ffp-contract=off, so the portable float
// loop uses separate multiply and add; the explicit AVX2/AVX-512 tiles use
// fp32 FMA. The tiers are not bitwise-identical to each other (unlike the
// golden kernels) — the fp32 tier's contract is the measured-at-publish
// error budget, not bit reproduction (DESIGN.md §14). Each tier on its own
// is deterministic: fixed accumulation order, shape-only thread partition.
#include "numerics/gemm_f32.h"

#include <algorithm>
#include <stdexcept>

#include "numerics/blas_internal.h"
#include "numerics/isa.h"
#include "numerics/simd_kernels.h"

namespace eigenmaps::numerics {

namespace {

using detail::kBlockJ;
using detail::parallel_ranges;
using detail::threads_for;

/// Rows [i0, i1) of C: per output row, walk kBlockJ-wide column panels
/// keeping an fp32 accumulator panel on the stack — seeded from the fp32
/// bias, accumulated k-ascending in fp32, widened to double on the single
/// store. Coefficients convert fp64 -> fp32 on the fly.
void gemm_f32_rows_portable(ConstMatrixView a, const ConstF32MatrixView& b,
                            const float* bias, MatrixView c, std::size_t i0,
                            std::size_t i1) {
  const std::size_t inner = b.rows;
  const std::size_t n = b.cols;
  float acc[kBlockJ];
  for (std::size_t i = i0; i < i1; ++i) {
    const double* arow = a.row_data(i);
    double* crow = c.row_data(i);
    for (std::size_t jj = 0; jj < n; jj += kBlockJ) {
      const std::size_t w = std::min(kBlockJ, n - jj);
      for (std::size_t l = 0; l < w; ++l) acc[l] = bias[jj + l];
      for (std::size_t k = 0; k < inner; ++k) {
        const float aik = static_cast<float>(arow[k]);
        const float* brow = b.row_data(k) + jj;
        for (std::size_t l = 0; l < w; ++l) acc[l] = acc[l] + aik * brow[l];
      }
      for (std::size_t l = 0; l < w; ++l) {
        crow[jj + l] = static_cast<double>(acc[l]);
      }
    }
  }
}

void gemm_f32_rows(ConstMatrixView a, const ConstF32MatrixView& b,
                   const float* bias, MatrixView c, std::size_t i0,
                   std::size_t i1) {
  switch (active_isa()) {
#if defined(EIGENMAPS_HAVE_X86_KERNELS)
    case Isa::kAvx512:
      detail::gemm_f32_rows_avx512(a, b, bias, c, i0, i1);
      return;
    case Isa::kAvx2:
      detail::gemm_f32_rows_avx2(a, b, bias, c, i0, i1);
      return;
#endif
    default:
      gemm_f32_rows_portable(a, b, bias, c, i0, i1);
      return;
  }
}

}  // namespace

void matmul_bias_f32_into(ConstMatrixView a, const ConstF32MatrixView& b,
                          const float* bias, MatrixView c) {
  if (a.cols() != b.rows) {
    throw std::invalid_argument(
        "matmul_bias_f32_into: inner dimension mismatch");
  }
  if (c.rows() != a.rows() || c.cols() != b.cols) {
    throw std::invalid_argument("matmul_bias_f32_into: output shape mismatch");
  }
  if (c.rows() == 0 || b.cols == 0) return;
  if (a.cols() == 0) {  // no k-panel runs; seed the widened bias directly
    for (std::size_t i = 0; i < c.rows(); ++i) {
      double* crow = c.row_data(i);
      for (std::size_t j = 0; j < c.cols(); ++j) {
        crow[j] = static_cast<double>(bias[j]);
      }
    }
    return;
  }
  const std::size_t threads = threads_for(a.rows() * a.cols() * b.cols);
  parallel_ranges(a.rows(), threads, [&](std::size_t i0, std::size_t i1) {
    gemm_f32_rows(a, b, bias, c, i0, i1);
  });
}

}  // namespace eigenmaps::numerics
