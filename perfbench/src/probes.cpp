#include "probes.h"

#include <cstdint>
#include <utility>

#include "core/workspace.h"
#include "dist/protocol.h"
#include "numerics/blas.h"
#include "numerics/rng.h"
#include "runtime/registry.h"
#include "server.h"

namespace perfbench {

namespace {

// Output buffers cycled through: 16 x 32 x 3360 doubles is ~14 MB, several
// times a core's L2, so each call writes cold lines as the engine's pooled
// buffers do under load.
constexpr std::size_t kOutputBuffers = 16;
constexpr int kWarmCalls = 16;
constexpr int kTimedCalls = 400;
constexpr int kRegistryReps = 15;

/// Median per-call time in ns of `call(i)` over kTimedCalls calls, after
/// kWarmCalls untimed ones; `i` selects the refreshed inputs.
template <typename Call>
double median_call_ns(const Call& call) {
  for (int i = 0; i < kWarmCalls; ++i) call(i);
  std::vector<double> samples;
  samples.reserve(kTimedCalls);
  for (int i = 0; i < kTimedCalls; ++i) {
    const std::uint64_t start = now_ns();
    call(kWarmCalls + i);
    samples.push_back(static_cast<double>(now_ns() - start));
  }
  return median(samples);
}

}  // namespace

void run_layer_probes(std::shared_ptr<const core::ReconstructionModel> model,
                      std::shared_ptr<const core::ReconstructionModel> swap_to,
                      const numerics::Matrix& readings, std::size_t batch,
                      std::vector<Metric>& out) {
  numerics::set_blas_threads_this_thread(1);
  const std::size_t cells = model->cell_count();
  const std::size_t order = model->order();
  const std::size_t sensors = model->sensor_count();
  const std::size_t blocks = readings.rows() / batch;
  std::vector<numerics::Matrix> outputs(kOutputBuffers,
                                        numerics::Matrix(batch, cells));
  const auto block = [&](int i) {
    return numerics::ConstMatrixView(
        readings.row_data((static_cast<std::size_t>(i) % blocks) * batch),
        batch, sensors, sensors);
  };
  const auto output = [&](int i) -> numerics::Matrix& {
    return outputs[static_cast<std::size_t>(i) % kOutputBuffers];
  };

  // core: the whole per-batch reconstruction (solve + expand).
  core::Workspace workspace;
  const double batch_ns = median_call_ns([&](int i) {
    model->reconstruct_batch_into(block(i), output(i).view(), workspace);
  });
  out.push_back({"core.batch32_us", batch_ns * 1e-3, "us"});

  // core / numerics: the expansion tail alone, on distinct coefficients.
  std::vector<numerics::Matrix> alphas;
  numerics::Rng rng(11);
  for (std::size_t a = 0; a < kOutputBuffers; ++a) {
    numerics::Matrix alpha(batch, order);
    for (std::size_t r = 0; r < batch; ++r) {
      for (std::size_t c = 0; c < order; ++c) alpha(r, c) = rng.normal();
    }
    alphas.push_back(std::move(alpha));
  }
  const auto alpha = [&](int i) -> const numerics::Matrix& {
    return alphas[static_cast<std::size_t>(i * 7) % kOutputBuffers];
  };
  const double expand_ns = median_call_ns(
      [&](int i) { model->expand_into(alpha(i), output(i).view()); });
  out.push_back({"core.expand32_us", expand_ns * 1e-3, "us"});

  numerics::Matrix basis_t(order, cells);
  for (std::size_t c = 0; c < cells; ++c) {
    for (std::size_t k = 0; k < order; ++k) {
      basis_t(k, c) = model->subspace()(c, k);
    }
  }
  const double gemm_ns = median_call_ns([&](int i) {
    numerics::matmul_bias_into(alpha(i), basis_t, model->mean_map(),
                               output(i).view());
  });
  const double flops_per_batch = 2.0 * static_cast<double>(batch * order * cells);
  out.push_back({"numerics.gemm_bias_gflops", flops_per_batch / gemm_ns,
                 "GFLOP/s"});
  // Computed from shapes, not measured: per frame the expansion does one
  // k-long dot product per cell, reads the mean map once, writes the map,
  // and shares one read of the k x N operator with its batch.
  out.push_back({"numerics.expand_flops_per_frame",
                 flops_per_batch / static_cast<double>(batch), "flop"});
  out.push_back(
      {"numerics.expand_bytes_per_frame",
       8.0 * (2.0 * static_cast<double>(cells) + static_cast<double>(order) +
              static_cast<double>(order * cells) / static_cast<double>(batch)),
       "B"});

  // dist: the result message a shard writes per batch, and its decode on
  // the router's reader thread.
  std::vector<std::vector<std::uint8_t>> encoded(kOutputBuffers);
  const double encode_ns = median_call_ns([&](int i) {
    dist::encode_result(static_cast<std::uint64_t>(i), 0, output(i),
                        encoded[static_cast<std::size_t>(i) % kOutputBuffers]);
  });
  out.push_back({"dist.encode_result_us", encode_ns * 1e-3, "us"});
  dist::ResultMsg decoded;
  const double decode_ns = median_call_ns([&](int i) {
    const auto& bytes = encoded[static_cast<std::size_t>(i) % kOutputBuffers];
    dist::decode_result(bytes.data(), bytes.size(), decoded);
  });
  out.push_back({"dist.decode_result_us", decode_ns * 1e-3, "us"});
  std::vector<std::uint8_t> submit;
  dist::encode_submit_frame(0, 0, kModelId, core::SensorBitmask(),
                            readings.row_view(0), submit);
  const double wire_bytes =
      static_cast<double>(submit.size() + dist::WireHeader::kBytes) +
      static_cast<double>(encoded[0].size() + dist::WireHeader::kBytes) /
          static_cast<double>(batch);
  out.push_back({"dist.wire_bytes_per_frame", wire_bytes, "B"});

  // runtime: publishing a model into a registry, then hot-swapping it
  // (no engine subscribed, so no factor pre-warm — the in-run swap of
  // dropout_swap measures that).
  std::vector<double> register_ms;
  std::vector<double> swap_ms;
  for (int rep = 0; rep < kRegistryReps; ++rep) {
    runtime::ModelRegistry registry;
    std::uint64_t start = now_ns();
    registry.register_model(kModelId, model);
    register_ms.push_back(static_cast<double>(now_ns() - start) * 1e-6);
    start = now_ns();
    registry.register_model(kModelId, swap_to);
    swap_ms.push_back(static_cast<double>(now_ns() - start) * 1e-6);
  }
  out.push_back({"runtime.register_probe_ms", median(register_ms), "ms"});
  out.push_back({"runtime.swap_probe_ms", median(swap_ms), "ms"});
  numerics::set_blas_threads_this_thread(0);
}

}  // namespace perfbench
