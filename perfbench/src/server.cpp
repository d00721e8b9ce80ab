#include "server.h"

#include <utility>

namespace perfbench {

Server::Server(const ServerConfig& config, Callback on_result) {
  if (config.routed) {
    dist::RouterOptions options;
    options.shard_count = config.workers;
    options.worker_threads = 1;
    options.batch_size = config.batch_size;
    options.worker_binary = config.worker_binary;
    options.socket_dir = config.socket_dir;
    router_ = std::make_unique<dist::ShardRouter>(options, std::move(on_result));
    return;
  }
  registry_ = std::make_unique<runtime::ModelRegistry>();
  runtime::EngineOptions options;
  options.worker_count = config.workers;
  options.batch_size = config.batch_size;
  engine_ = std::make_unique<runtime::ReconstructionEngine>(
      *registry_, options, std::move(on_result));
}

Server::~Server() {
  // The engine holds a reference to the registry: it goes first.
  engine_.reset();
  router_.reset();
}

std::uint64_t Server::register_model(
    std::shared_ptr<const core::ReconstructionModel> model) {
  if (router_) return router_->register_model(kModelId, std::move(model));
  return registry_->register_model(kModelId, std::move(model));
}

void Server::push(std::uint64_t stream, numerics::ConstVectorView frame,
                  const core::SensorBitmask& mask) {
  if (router_) {
    router_->push_frame(stream, frame, kModelId, mask);
  } else {
    engine_->push_frame(stream, frame, kModelId, mask);
  }
}

void Server::drain() {
  if (router_) {
    router_->drain();
  } else {
    engine_->drain();
  }
}

std::vector<pid_t> Server::shard_pids() const {
  std::vector<pid_t> pids;
  if (router_) {
    for (std::size_t s = 0; s < router_->shard_count(); ++s) {
      pids.push_back(router_->shard_pid(s));
    }
  }
  return pids;
}

runtime::EngineStats Server::engine_stats() {
  if (router_) return router_->stats().aggregate;
  return engine_->stats();
}

dist::RouterCounters Server::router_counters() {
  if (router_) return router_->stats().router;
  return dist::RouterCounters{};
}

std::vector<obs::SpanRecord> Server::drain_spans() {
  if (router_) return router_->drain_trace();
  return obs::drain_spans();
}

std::shared_ptr<const runtime::RegisteredModel> Server::registered() const {
  if (registry_) return registry_->resolve(kModelId);
  return nullptr;
}

}  // namespace perfbench
