// Layer probes timed from outside: single-thread calls into each layer's
// public functions, with the inputs and outputs refreshed between
// iterations (the next distinct input block, the next of several output
// buffers) so a warm cache cannot flatter a layer.
#ifndef PERFBENCH_PROBES_H
#define PERFBENCH_PROBES_H

#include <memory>
#include <vector>

#include "common.h"
#include "core/model.h"
#include "numerics/matrix.h"

namespace perfbench {

/// Appends core.batch32_us, core.expand32_us, numerics.gemm_bias_gflops,
/// numerics.expand_{flops,bytes}_per_frame, dist.encode_result_us,
/// dist.decode_result_us, dist.wire_bytes_per_frame,
/// runtime.register_probe_ms and runtime.swap_probe_ms to `out`.
/// `readings` holds whole input blocks of `batch` frames each.
void run_layer_probes(std::shared_ptr<const core::ReconstructionModel> model,
                      std::shared_ptr<const core::ReconstructionModel> swap_to,
                      const numerics::Matrix& readings, std::size_t batch,
                      std::vector<Metric>& out);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H
