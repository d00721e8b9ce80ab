// The GEMM family: matmul / matmul_accumulate / matmul_bias, in both view
// (`_into`) and owning forms.
//
// The explicit AVX2/AVX-512 tiers fuse multiply-adds, roughly doubling
// throughput on FMA hardware, and this translation unit is compiled with
// -ffp-contract=fast (see CMakeLists) so the portable loops fuse too
// wherever the baseline ISA has FMA. That makes GEMM results depend on
// the active tier in the last bits — which is why the GEMM family is
// quarantined here: every kernel the golden regression files flow through
// (gram for the SVD rank checks, the QR solves, the eigensolvers) lives in
// contraction-free translation units and stays bit-identical across
// machines. Within one machine the GEMMs are still fully deterministic:
// accumulation order is fixed (ascending k, left-associated) and the
// thread partition depends only on the shapes, so thread count, blocking
// and row strides never change bits anywhere.
#include <stdexcept>
#include <string>

#include "numerics/blas.h"
#include "numerics/blas_internal.h"
#include "numerics/isa.h"
#include "numerics/simd_kernels.h"

namespace eigenmaps::numerics {

namespace {

using detail::kBlockJ;
using detail::kBlockK;
using detail::parallel_ranges;
using detail::threads_for;

/// Rows [i0, i1) of C = A * B (plus an optional per-column bias seeded
/// into C on the first k-panel, fused so the output never streams through
/// cache twice), blocked over k and j. For every c(i, j) the contributions
/// accumulate left-associated with k ascending — the same order as the
/// naive triple loop — so blocking changes speed, not bits.
///
/// Register blocking: two rows of C share four rows of B per sweep, so
/// each B panel load feeds two accumulator rows and each c(i, j) is
/// loaded/stored once per four multiply-adds. That is 8 broadcast values
/// + 4 panel vectors + 2 accumulators = 14 live vector registers; wider
/// shapes (16 broadcasts) spill the 16 architectural registers and halve
/// throughput.
void matmul_rows_portable(ConstMatrixView a, ConstMatrixView b, MatrixView c,
                          const double* bias, std::size_t i0,
                          std::size_t i1) {
  const std::size_t inner = a.cols();
  const std::size_t n = b.cols();
  for (std::size_t kk = 0; kk < inner; kk += kBlockK) {
    const std::size_t kend = std::min(kk + kBlockK, inner);
    for (std::size_t jj = 0; jj < n; jj += kBlockJ) {
      const std::size_t jend = std::min(jj + kBlockJ, n);
      std::size_t i = i0;
      for (; i + 2 <= i1; i += 2) {
        const double* arow0 = a.row_data(i);
        const double* arow1 = a.row_data(i + 1);
        double* crow0 = c.row_data(i);
        double* crow1 = c.row_data(i + 1);
        if (bias != nullptr && kk == 0) {
          for (std::size_t j = jj; j < jend; ++j) {
            crow0[j] = bias[j];
            crow1[j] = bias[j];
          }
        }
        std::size_t k = kk;
        for (; k + 4 <= kend; k += 4) {
          const double p0 = arow0[k], p1 = arow0[k + 1], p2 = arow0[k + 2],
                       p3 = arow0[k + 3];
          const double q0 = arow1[k], q1 = arow1[k + 1], q2 = arow1[k + 2],
                       q3 = arow1[k + 3];
          const double* b0 = b.row_data(k);
          const double* b1 = b.row_data(k + 1);
          const double* b2 = b.row_data(k + 2);
          const double* b3 = b.row_data(k + 3);
          for (std::size_t j = jj; j < jend; ++j) {
            crow0[j] =
                crow0[j] + p0 * b0[j] + p1 * b1[j] + p2 * b2[j] + p3 * b3[j];
            crow1[j] =
                crow1[j] + q0 * b0[j] + q1 * b1[j] + q2 * b2[j] + q3 * b3[j];
          }
        }
        for (; k < kend; ++k) {
          const double p = arow0[k];
          const double q = arow1[k];
          const double* brow = b.row_data(k);
          for (std::size_t j = jj; j < jend; ++j) {
            crow0[j] += p * brow[j];
            crow1[j] += q * brow[j];
          }
        }
      }
      if (i < i1) {  // odd tail row
        const double* arow = a.row_data(i);
        double* crow = c.row_data(i);
        if (bias != nullptr && kk == 0) {
          for (std::size_t j = jj; j < jend; ++j) crow[j] = bias[j];
        }
        std::size_t k = kk;
        for (; k + 4 <= kend; k += 4) {
          const double a0 = arow[k], a1 = arow[k + 1], a2 = arow[k + 2],
                       a3 = arow[k + 3];
          const double* b0 = b.row_data(k);
          const double* b1 = b.row_data(k + 1);
          const double* b2 = b.row_data(k + 2);
          const double* b3 = b.row_data(k + 3);
          for (std::size_t j = jj; j < jend; ++j) {
            crow[j] =
                crow[j] + a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
          }
        }
        for (; k < kend; ++k) {
          const double aik = arow[k];
          const double* brow = b.row_data(k);
          for (std::size_t j = jj; j < jend; ++j) crow[j] += aik * brow[j];
        }
      }
    }
  }
}

/// Runtime tier selection for the GEMM inner kernel (DESIGN.md §13): the
/// explicit AVX-512 / AVX2 register-tile kernels where compiled and
/// supported, else the portable baseline path above. Every tier
/// accumulates each c(i, j) in ascending-k left-associated order, so the
/// choice moves last-bit roundings (FMA vs compiler contraction) but
/// never determinism.
void gemm_rows(ConstMatrixView a, ConstMatrixView b, MatrixView c,
               const double* bias, std::size_t i0, std::size_t i1) {
  switch (active_isa()) {
#if defined(EIGENMAPS_HAVE_X86_KERNELS)
    case Isa::kAvx512:
      detail::gemm_rows_avx512(a, b, c, bias, i0, i1);
      return;
    case Isa::kAvx2:
      detail::gemm_rows_avx2(a, b, c, bias, i0, i1);
      return;
#endif
    default:
      matmul_rows_portable(a, b, c, bias, i0, i1);
      return;
  }
}

void check_product_shapes(const char* name, ConstMatrixView a,
                          ConstMatrixView b, ConstMatrixView c) {
  if (a.cols() != b.rows()) {
    throw std::invalid_argument(std::string(name) +
                                ": inner dimension mismatch");
  }
  if (c.rows() != a.rows() || c.cols() != b.cols()) {
    throw std::invalid_argument(std::string(name) +
                                ": output shape mismatch");
  }
}

}  // namespace

void matmul_into(ConstMatrixView a, ConstMatrixView b, MatrixView c) {
  check_product_shapes("matmul_into", a, b, c);
  for (std::size_t i = 0; i < c.rows(); ++i) c.row_view(i).fill(0.0);
  matmul_accumulate(a, b, c);
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  if (a.cols() != b.rows()) {
    throw std::invalid_argument("matmul: inner dimension mismatch");
  }
  Matrix c(a.rows(), b.cols());
  matmul_accumulate(a, b, c.view());
  return c;
}

void matmul_accumulate(ConstMatrixView a, ConstMatrixView b, MatrixView c) {
  check_product_shapes("matmul_accumulate", a, b, c);
  const std::size_t threads = threads_for(a.rows() * a.cols() * b.cols());
  parallel_ranges(a.rows(), threads,
                  [&](std::size_t i0, std::size_t i1) {
                    gemm_rows(a, b, c, nullptr, i0, i1);
                  });
}

void matmul_bias_into(ConstMatrixView a, ConstMatrixView b,
                      ConstVectorView bias, MatrixView c) {
  check_product_shapes("matmul_bias_into", a, b, c);
  if (bias.size() != b.cols()) {
    throw std::invalid_argument("matmul_bias_into: bias size mismatch");
  }
  if (a.cols() == 0) {  // no k-panel runs; seed the bias directly
    for (std::size_t i = 0; i < c.rows(); ++i) {
      double* crow = c.row_data(i);
      for (std::size_t j = 0; j < c.cols(); ++j) crow[j] = bias[j];
    }
    return;
  }
  const std::size_t threads = threads_for(a.rows() * a.cols() * b.cols());
  parallel_ranges(a.rows(), threads,
                  [&](std::size_t i0, std::size_t i1) {
                    gemm_rows(a, b, c, bias.data(), i0, i1);
                  });
}

Matrix matmul_bias(const Matrix& a, const Matrix& b, const Vector& bias) {
  Matrix c(a.rows(), b.cols());
  matmul_bias_into(a, b, bias, c.view());
  return c;
}

}  // namespace eigenmaps::numerics
