// The serving front door a workload drives: either one in-process
// ReconstructionEngine over a ModelRegistry, or a ShardRouter over shard
// worker processes. Both take the same frames and deliver through the same
// callback, so the traffic generator and the checker do not care which.
#ifndef PERFBENCH_SERVER_H
#define PERFBENCH_SERVER_H

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <sys/types.h>

#include "common.h"
#include "core/factor_cache.h"
#include "core/model.h"
#include "dist/cluster_stats.h"
#include "dist/router.h"
#include "obs/trace.h"
#include "runtime/engine.h"
#include "runtime/registry.h"

namespace perfbench {

/// The one model id every workload serves.
constexpr runtime::ModelId kModelId = 1;

struct ServerConfig {
  bool routed = false;
  /// Engine worker threads (in-process), or shards x 1 worker thread each.
  std::size_t workers = 2;
  std::size_t batch_size = 32;
  std::string worker_binary;  // routed only
  std::string socket_dir;     // routed only
};

class Server {
 public:
  using Callback = std::function<void(std::uint64_t stream,
                                      std::uint64_t first_seq,
                                      numerics::ConstMatrixView maps)>;

  /// Starts the engine (or spawns and handshakes the shards).
  Server(const ServerConfig& config, Callback on_result);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Registers (or hot-swaps) the served model; returns its version.
  std::uint64_t register_model(
      std::shared_ptr<const core::ReconstructionModel> model);

  void push(std::uint64_t stream, numerics::ConstVectorView frame,
            const core::SensorBitmask& mask);
  void drain();

  /// Shard worker pids (empty in process).
  std::vector<pid_t> shard_pids() const;

  /// The engine's stats, or the shards' merged stats when routed.
  runtime::EngineStats engine_stats();
  /// Router counters (zero in process).
  dist::RouterCounters router_counters();

  /// Spans recorded since the last call: this process's rings, plus the
  /// shards' when routed.
  std::vector<obs::SpanRecord> drain_spans();

  /// The served id's current registry entry (in process only; nullptr
  /// when routed) — the factor cache counters are read from it.
  std::shared_ptr<const runtime::RegisteredModel> registered() const;

 private:
  std::unique_ptr<runtime::ModelRegistry> registry_;
  std::unique_ptr<runtime::ReconstructionEngine> engine_;
  std::unique_ptr<dist::ShardRouter> router_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SERVER_H
