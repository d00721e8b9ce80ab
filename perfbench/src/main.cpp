// End-to-end and per-layer benchmark of the EigenMaps serving path.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// One run: simulate the thermal maps (untimed), set the server up several
// times (timed: setup_s), derive the frames and their offline references,
// then drive the server open loop at the workload's fixed .lo and .hi
// rates and check every delivered map. The last stdout line is one JSON
// object; with --trace 1 its metrics are the per-layer ones instead of the
// end-to-end ones. README.md explains the choices.
#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/prctl.h>

#include "common.h"
#include "core/allocation.h"
#include "core/factor_cache.h"
#include "core/model.h"
#include "core/pca_basis.h"
#include "core/pipeline.h"
#include "core/snapshot_set.h"
#include "numerics/isa.h"
#include "numerics/rng.h"
#include "obs/trace.h"
#include "probes.h"
#include "runtime/registry.h"
#include "server.h"

namespace {

using namespace perfbench;

// ---- fixed design point (the paper's serving configuration) -------------
constexpr std::size_t kOrder = 16;    // K
constexpr std::size_t kSensors = 24;  // M
constexpr std::size_t kBatch = 32;    // frames per block = per batch
constexpr std::size_t kSetupReps = 3;
/// Distinct 32-frame input blocks, drawn from held-out simulated maps.
constexpr std::size_t kPoolBlocks = 40;
constexpr double kSensorNoiseC = 0.1;  // Gaussian sensor noise sigma, deg C
constexpr std::size_t kDropoutStreams = 96;
constexpr std::size_t kBlocksPerDropoutStream = 4;
constexpr std::size_t kMaxDeadSensors = 8;  // downdates up to 4, refactors past
/// Seed of the dropout masks: fixed, so every run serves the same set.
constexpr std::uint64_t kMaskSeed = 0x5eed;
constexpr double kZipfExponent = 1.0;
constexpr std::uint64_t kSpanDrainNs = 200'000'000;

struct Workload {
  const char* name;
  bool routed;
  bool dropout;
  std::size_t streams;
  // Fixed offered rates (frames/s), set once from this workload's
  // closed-loop capacity (--capacity) on a 4-core host: about 10% (.lo)
  // and 30% (.hi) of it. Never recomputed per run, so a faster build
  // shows lower latency and CPU, not different load. (.hi at 50% let the
  // host's slow phases back the queue up for seconds; at 20% idle
  // workers' wake-ups made the tail noisier. README.md.)
  double lo_fps;
  double hi_fps;
};

constexpr Workload kWorkloads[] = {
    {"engine_steady", false, false, 8, 32000.0, 100000.0},
    {"router_steady", true, false, 8, 8000.0, 25000.0},
    {"dropout_swap", false, true, kDropoutStreams, 30000.0, 90000.0},
};

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool capacity = false;
  std::string worker_binary = PERFBENCH_WORKER_BIN;
  std::string socket_dir = ".";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--capacity] [--socket-dir <dir>]"
               "\nworkloads: engine_steady router_steady dropout_swap\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--capacity") {
      args.capacity = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) args.workload = &w;
      }
      if (args.workload == nullptr) usage("unknown workload");
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
      if (!(args.seconds > 0.0)) usage("--seconds must be positive");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--socket-dir") {
      args.socket_dir = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload == nullptr) usage("--workload is required");
  return args;
}

double ms_since(std::uint64_t start) {
  return static_cast<double>(now_ns() - start) * 1e-6;
}

// ---- inputs ---------------------------------------------------------------

/// Everything simulated before the setup clock starts. The simulation
/// keeps the library's default seed, so every run trains the same models,
/// places the same sensors and so serves the same dropout masks; the run
/// seed draws the sensor noise and the schedule. With a seeded simulation
/// the accepted masks' conditioning, and with it recon_rmse on
/// dropout_swap, changes by tens of times from seed to seed.
struct Simulation {
  core::SnapshotSet train_a;  // maps 0 mod 4: the v1 design-time ensemble
  core::SnapshotSet train_b;  // maps 2 mod 4: the hot-swap version's
  numerics::Matrix truth;     // held-out maps served, kPoolBlocks x kBatch
};

Simulation simulate() {
  core::ExperimentConfig config;
  config.grid_width = 60;
  config.grid_height = 56;
  config.scenario_count = 5;
  config.steps_per_scenario = 530;
  config.dt = 2e-3;
  config.training_stride = 4;
  config.pca_max_order = kOrder;
  config.dct_max_order = kOrder;
  const core::Experiment experiment = core::simulate_experiment(config);
  const numerics::Matrix& maps = experiment.snapshots().data();
  const std::size_t cells = maps.cols();

  Simulation sim;
  sim.train_a = experiment.training_set();
  numerics::Matrix train_b((maps.rows() + 1) / 4, cells);
  for (std::size_t t = 2, row = 0; t < maps.rows(); t += 4, ++row) {
    train_b.set_row(row, maps.row_view(t));
  }
  sim.train_b = core::SnapshotSet(std::move(train_b));
  // Served frames: odd-numbered maps (in neither training ensemble),
  // evenly spaced over all five scenarios.
  const std::size_t odd = maps.rows() / 2;
  const std::size_t frames = kPoolBlocks * kBatch;
  sim.truth = numerics::Matrix(frames, cells);
  for (std::size_t f = 0; f < frames; ++f) {
    sim.truth.set_row(f, maps.row_view(2 * (f * odd / frames) + 1));
  }
  return sim;
}

/// One offline reference: a 32-frame input block under one dropout mask.
struct Reference {
  std::size_t block = 0;          // pool block of readings / truth
  core::SensorBitmask mask;       // empty = all sensors
};

/// Expected outputs of every reference under each model version.
struct Expected {
  std::vector<Fingerprint> rows;  // [reference * kBatch + row]
  std::vector<double> sq_error;   // [reference]: sum over the block's cells
};

Expected compute_expected(const std::vector<Reference>& refs,
                          const std::shared_ptr<const core::ReconstructionModel>& model,
                          const numerics::Matrix& readings,
                          const numerics::Matrix& truth) {
  core::FactorCacheOptions options =
      runtime::ModelRegistry::default_cache_options();
  options.capacity = 4 * kDropoutStreams;  // never evicts: refs are one-shot
  core::FactorCache cache(model, options);
  Expected expected;
  expected.rows.resize(refs.size() * kBatch);
  expected.sq_error.assign(refs.size(), 0.0);
  const std::size_t sensors = model->sensor_count();
  for (std::size_t r = 0; r < refs.size(); ++r) {
    const numerics::ConstMatrixView block(
        readings.row_data(refs[r].block * kBatch), kBatch, sensors, sensors);
    const numerics::Matrix maps =
        refs[r].mask.size() == 0 ? model->reconstruct_batch(block)
                                 : cache.reconstruct_batch(block, refs[r].mask);
    for (std::size_t row = 0; row < kBatch; ++row) {
      expected.rows[r * kBatch + row] =
          fingerprint(maps.row_data(row), maps.cols());
      const double* want = truth.row_data(refs[r].block * kBatch + row);
      for (std::size_t c = 0; c < maps.cols(); ++c) {
        const double d = maps(row, c) - want[c];
        expected.sq_error[r] += d * d;
      }
    }
  }
  return expected;
}

/// Dead-sensor masks, one per dropout stream: distinct, dead counts
/// spanning the downdate (<= 4) and refactor (> 4) paths, and each one
/// validated by the server's own feasibility check under every model
/// version, so a refusal during the run is a real failure. The masks are
/// drawn from a fixed seed, not the run's: every run serves the same mask
/// set, and the run seed varies only the sensor noise and the schedule,
/// so recon_rmse does not measure which masks a seed happened to draw.
std::vector<core::SensorBitmask> draw_masks(
    const std::vector<std::shared_ptr<const core::ReconstructionModel>>& versions) {
  std::vector<std::unique_ptr<core::FactorCache>> caches;
  for (const auto& model : versions) {
    core::FactorCacheOptions options =
        runtime::ModelRegistry::default_cache_options();
    options.capacity = 4 * kDropoutStreams;
    caches.push_back(std::make_unique<core::FactorCache>(model, options));
  }
  numerics::Rng rng(kMaskSeed);
  std::vector<core::SensorBitmask> masks;
  std::size_t by_dead[kMaxDeadSensors + 1] = {};
  while (masks.size() < kDropoutStreams) {
    const std::size_t dead_count =
        1 + static_cast<std::size_t>(rng.uniform() * kMaxDeadSensors);
    std::vector<std::size_t> dead;
    while (dead.size() < dead_count) {
      const auto slot = static_cast<std::size_t>(rng.uniform() * kSensors);
      if (std::find(dead.begin(), dead.end(), slot) == dead.end()) {
        dead.push_back(slot);
      }
    }
    core::SensorBitmask mask = core::SensorBitmask::except(kSensors, dead);
    if (std::find(masks.begin(), masks.end(), mask) != masks.end()) continue;
    try {
      for (const auto& cache : caches) cache->validate(mask);
    } catch (const std::invalid_argument&) {
      continue;  // rank loss or past the cache's conditioning ceiling
    }
    ++by_dead[dead_count];
    masks.push_back(std::move(mask));
  }
  std::printf("# dropout masks by dead sensors:");
  for (std::size_t d = 1; d <= kMaxDeadSensors; ++d) {
    std::printf(" %zu:%zu", d, by_dead[d]);
  }
  std::printf("\n");
  return masks;
}

// ---- schedule -------------------------------------------------------------

enum class Rate { kLo, kHi };

/// A stretch of traffic at one fixed rate. Measured windows of the same
/// label alternate with each other through the run, so every label samples
/// the same spread of machine conditions, and each metric is the median
/// over its label's windows: an episodic stall of the host (a noisy
/// neighbour, steal time) spoils a window or two, not the figure.
struct Segment {
  const char* label;
  Rate rate;
  double seconds;
  bool measured;
  bool traced;
};

constexpr double kWindowSeconds = 0.5;

struct Block {
  std::uint64_t due_ns = 0;  // offset from the run's start
  std::uint32_t stream = 0;
  std::uint32_t ref = 0;     // index into the references
  std::uint32_t segment = 0;
};

struct Schedule {
  std::vector<Segment> segments;
  std::vector<Block> blocks;
  /// The blocks of each stream in push order: a delivery's (stream,
  /// first_seq) names block stream_blocks[stream][first_seq / kBatch].
  std::vector<std::vector<std::uint32_t>> stream_blocks;
  std::vector<std::uint32_t> segment_first_block;
  std::uint64_t swap_due_ns = 0;  // 0: no hot swap

  /// Indices of the segments carrying `label`.
  std::vector<std::size_t> windows(const char* label) const {
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < segments.size(); ++i) {
      if (std::strcmp(segments[i].label, label) == 0) out.push_back(i);
    }
    return out;
  }
};

Schedule make_schedule(const Workload& w, const Args& args) {
  Schedule s;
  if (args.capacity) {
    // Closed loop: every block is due at once, so the generator pushes as
    // fast as the server's back-pressure lets it.
    s.segments = {{"capacity", Rate::kHi, args.seconds, true, false}};
  } else {
    s.segments = {{"warm.lo", Rate::kLo, 0.5, false, false},
                  {"warm.hi", Rate::kHi, 0.3, false, false}};
    // The untraced run alternates lo and hi windows. The traced run adds
    // a traced hi window beside each untraced one (the tracing overhead
    // is their CPU ratio) and traces its lo windows.
    std::vector<Segment> cycle;
    if (args.trace) {
      cycle = {{"lo.traced", Rate::kLo, kWindowSeconds, true, true},
               {"hi", Rate::kHi, kWindowSeconds, true, false},
               {"hi.traced", Rate::kHi, kWindowSeconds, true, true}};
    } else {
      cycle = {{"lo", Rate::kLo, kWindowSeconds, true, false},
               {"hi", Rate::kHi, kWindowSeconds, true, false}};
    }
    const auto cycles = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::lround(
               args.seconds / (kWindowSeconds * static_cast<double>(cycle.size())))));
    for (std::size_t c = 0; c < cycles; ++c) {
      s.segments.insert(s.segments.end(), cycle.begin(), cycle.end());
    }
  }
  // Dropout traffic: each block goes to a stream drawn with Zipf
  // popularity, so a hot set of masks stays cached while the tail keeps
  // missing and evicting; the steady workloads go round-robin.
  std::vector<double> cdf;
  if (w.dropout) {
    double total = 0.0;
    for (std::size_t k = 0; k < w.streams; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), kZipfExponent);
      cdf.push_back(total);
    }
    for (double& c : cdf) c /= total;
  }
  numerics::Rng rng(args.seed * 31 + 7);
  s.stream_blocks.resize(w.streams);
  double start_s = 0.0;
  for (std::size_t seg = 0; seg < s.segments.size(); ++seg) {
    const Segment& segment = s.segments[seg];
    const double fps = segment.rate == Rate::kLo ? w.lo_fps : w.hi_fps;
    const double period = static_cast<double>(kBatch) / fps;
    const auto count = static_cast<std::size_t>(segment.seconds / period);
    s.segment_first_block.push_back(static_cast<std::uint32_t>(s.blocks.size()));
    for (std::size_t i = 0; i < count; ++i) {
      Block block;
      if (!args.capacity) {
        block.due_ns = static_cast<std::uint64_t>(
            (start_s + static_cast<double>(i) * period) * 1e9);
      }
      block.segment = static_cast<std::uint32_t>(seg);
      const std::size_t b = s.blocks.size();
      if (w.dropout) {
        const double u = rng.uniform();
        block.stream = static_cast<std::uint32_t>(
            std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
        if (block.stream >= w.streams) block.stream = w.streams - 1;
        const std::size_t nth = s.stream_blocks[block.stream].size();
        block.ref = static_cast<std::uint32_t>(
            block.stream * kBlocksPerDropoutStream +
            nth % kBlocksPerDropoutStream);
      } else {
        block.stream = static_cast<std::uint32_t>(b % w.streams);
        block.ref = static_cast<std::uint32_t>(b % kPoolBlocks);
      }
      s.stream_blocks[block.stream].push_back(static_cast<std::uint32_t>(b));
      s.blocks.push_back(block);
    }
    start_s += segment.seconds;
  }
  s.segment_first_block.push_back(static_cast<std::uint32_t>(s.blocks.size()));
  if (w.dropout && !args.capacity) {
    // One hot swap, half-way through the middle window of the last label
    // in the cycle (a hi window), so windows after it serve the new version.
    const std::vector<std::size_t> hi = s.windows(s.segments.back().label);
    const std::size_t window = hi[hi.size() / 2];
    double at = 0.0;
    for (std::size_t i = 0; i < window; ++i) at += s.segments[i].seconds;
    s.swap_due_ns = static_cast<std::uint64_t>(
        (at + 0.5 * s.segments[window].seconds) * 1e9);
  }
  return s;
}

// ---- delivery checking ----------------------------------------------------

/// The result sink. Runs on engine workers / router reader threads; every
/// field it writes is an atomic or owned by a single block, so concurrent
/// deliveries need no lock.
class Checker {
 public:
  void arm(const Schedule* schedule, const Expected* v1, const Expected* v2,
           bool time_callbacks) {
    schedule_ = schedule;
    expected_[0] = v1;
    expected_[1] = v2;
    time_callbacks_ = time_callbacks;
    const std::size_t blocks = schedule->blocks.size();
    done_ns_ = std::make_unique<std::atomic<std::uint64_t>[]>(blocks);
    deliveries_ = std::make_unique<std::atomic<std::uint32_t>[]>(blocks);
    status_ = std::make_unique<std::atomic<std::uint8_t>[]>(blocks);
    next_seq_ = std::make_unique<std::atomic<std::uint64_t>[]>(
        schedule->stream_blocks.size());
    for (std::size_t b = 0; b < blocks; ++b) {
      done_ns_[b].store(0, std::memory_order_relaxed);
      deliveries_[b].store(0, std::memory_order_relaxed);
      status_[b].store(0, std::memory_order_relaxed);
    }
    for (std::size_t s = 0; s < schedule->stream_blocks.size(); ++s) {
      next_seq_[s].store(0, std::memory_order_relaxed);
    }
  }

  // Status bits per block.
  static constexpr std::uint8_t kMatchV1 = 1;
  static constexpr std::uint8_t kMatchV2 = 2;
  static constexpr std::uint8_t kOutOfOrder = 4;

  void on_result(std::uint64_t stream, std::uint64_t first_seq,
                 numerics::ConstMatrixView maps) {
    const std::uint64_t arrived = now_ns();
    if (schedule_ == nullptr || stream >= schedule_->stream_blocks.size() ||
        first_seq % kBatch != 0 || maps.rows() != kBatch ||
        first_seq / kBatch >= schedule_->stream_blocks[stream].size()) {
      unknown_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    const std::uint32_t b = schedule_->stream_blocks[stream][first_seq / kBatch];
    std::uint8_t status = 0;
    // Deliveries of one stream are serialised by the server; the atomic
    // only keeps the sink race-free should they ever not be.
    if (next_seq_[stream].exchange(first_seq + kBatch,
                                   std::memory_order_relaxed) != first_seq) {
      status |= kOutOfOrder;
    }
    if (deliveries_[b].fetch_add(1, std::memory_order_relaxed) == 0) {
      done_ns_[b].store(arrived, std::memory_order_relaxed);
    }
    const std::uint32_t ref = schedule_->blocks[b].ref;
    bool match[2] = {expected_[0] != nullptr, expected_[1] != nullptr};
    for (std::size_t row = 0; row < kBatch; ++row) {
      const Fingerprint got = fingerprint(maps.row_data(row), maps.cols());
      for (int v = 0; v < 2; ++v) {
        if (match[v] && got != expected_[v]->rows[ref * kBatch + row]) {
          match[v] = false;
        }
      }
    }
    if (match[0]) status |= kMatchV1;
    if (match[1]) status |= kMatchV2;
    status_[b].store(status, std::memory_order_relaxed);
    if (time_callbacks_) {
      callback_ns_.fetch_add(now_ns() - arrived, std::memory_order_relaxed);
    }
  }

  std::uint64_t done_ns(std::size_t b) const {
    return done_ns_[b].load(std::memory_order_relaxed);
  }
  std::uint32_t deliveries(std::size_t b) const {
    return deliveries_[b].load(std::memory_order_relaxed);
  }
  std::uint8_t status(std::size_t b) const {
    return status_[b].load(std::memory_order_relaxed);
  }
  std::uint64_t unknown() const {
    return unknown_.load(std::memory_order_relaxed);
  }
  std::uint64_t callback_ns() const {
    return callback_ns_.load(std::memory_order_relaxed);
  }

 private:
  const Schedule* schedule_ = nullptr;
  const Expected* expected_[2] = {nullptr, nullptr};
  bool time_callbacks_ = false;
  std::unique_ptr<std::atomic<std::uint64_t>[]> done_ns_;
  std::unique_ptr<std::atomic<std::uint32_t>[]> deliveries_;
  std::unique_ptr<std::atomic<std::uint8_t>[]> status_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> next_seq_;
  std::atomic<std::uint64_t> unknown_{0};
  std::atomic<std::uint64_t> callback_ns_{0};
};

// ---- setup ----------------------------------------------------------------

struct Setup {
  double total_s = 0.0;
  double pca_s = 0.0;
  double place_s = 0.0;
  double build_ms = 0.0;
  double start_ms = 0.0;
  double register_ms = 0.0;
  std::shared_ptr<const core::ReconstructionModel> v1;
  std::shared_ptr<const core::ReconstructionModel> v2;  // dropout_swap only
  std::unique_ptr<Server> server;
};

/// Inputs in memory -> ready to serve: PCA training, greedy placement
/// (Algorithm 1), model build(s), server start, model registration.
Setup run_setup(const Workload& w, const Simulation& sim,
                const ServerConfig& config, Checker& checker) {
  Setup s;
  core::PcaOptions pca;
  pca.max_order = kOrder;
  const std::uint64_t t0 = now_ns();
  const core::PcaBasis basis(sim.train_a, pca);
  const std::uint64_t t1 = now_ns();
  const core::SensorLocations sensors =
      core::allocate_greedy(basis, kOrder, kSensors);
  const std::uint64_t t2 = now_ns();
  s.v1 = std::make_shared<const core::ReconstructionModel>(
      basis, kOrder, sensors, sim.train_a.mean());
  const std::uint64_t t3 = now_ns();
  double pca_b_ns = 0.0, build_b_ns = 0.0;
  if (w.dropout) {
    // The hot-swap target: a basis retrained on another ensemble, same
    // sensors — what a retrain publishes.
    const std::uint64_t b0 = now_ns();
    const core::PcaBasis basis_b(sim.train_b, pca);
    const std::uint64_t b1 = now_ns();
    s.v2 = std::make_shared<const core::ReconstructionModel>(
        basis_b, kOrder, sensors, sim.train_b.mean());
    pca_b_ns = static_cast<double>(b1 - b0);
    build_b_ns = static_cast<double>(now_ns() - b1);
  }
  const std::uint64_t t4 = now_ns();
  s.server = std::make_unique<Server>(
      config, [&checker](std::uint64_t stream, std::uint64_t first_seq,
                         numerics::ConstMatrixView maps) {
        checker.on_result(stream, first_seq, maps);
      });
  const std::uint64_t t5 = now_ns();
  s.server->register_model(s.v1);
  const std::uint64_t t6 = now_ns();
  s.total_s = static_cast<double>(t6 - t0) * 1e-9;
  s.pca_s = (static_cast<double>(t1 - t0) + pca_b_ns) * 1e-9;
  s.place_s = static_cast<double>(t2 - t1) * 1e-9;
  s.build_ms = (static_cast<double>(t3 - t2) + build_b_ns) * 1e-6;
  s.start_ms = static_cast<double>(t5 - t4) * 1e-6;
  s.register_ms = static_cast<double>(t6 - t5) * 1e-6;
  return s;
}

// ---- traffic --------------------------------------------------------------

/// What the generator thread records beside the deliveries.
struct GeneratorLog {
  std::vector<std::uint64_t> late_ns;   // per block: start - due
  std::vector<std::uint64_t> push_ns;   // per block: 32 push_frame calls
  std::vector<std::uint8_t> allowed;    // per block: versions it may bind
  std::vector<std::uint8_t> refused;    // per block: a push threw
  std::vector<std::uint64_t> segment_cpu_ns;  // CPU at each segment start
  std::string first_error;
};

std::uint64_t server_cpu_ns(const Server& server) {
  std::uint64_t total = process_cpu_ns();
  for (const pid_t pid : server.shard_pids()) total += pid_cpu_ns(pid);
  return total;
}

std::uint64_t shard_cpu_ns(const Server& server) {
  std::uint64_t total = 0;
  for (const pid_t pid : server.shard_pids()) total += pid_cpu_ns(pid);
  return total;
}

/// The open-loop generator: sleeps to each block's absolute due time and
/// pushes its 32 frames; never spins, never waits for results.
void generate(Server& server, const Schedule& schedule,
              const std::vector<Reference>& refs,
              const numerics::Matrix& readings, std::uint64_t start_ns,
              const std::atomic<int>& swap_state, GeneratorLog& log,
              std::vector<std::uint64_t>& shard_cpu_at_segment) {
  // The default 50 us timer slack would make every wake-up that late; the
  // open loop needs its due times kept to within scheduler latency.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const std::size_t n = schedule.blocks.size();
  log.late_ns.assign(n, 0);
  log.push_ns.assign(n, 0);
  log.allowed.assign(n, 0);
  log.refused.assign(n, 0);
  std::size_t segment = 0;
  for (std::size_t b = 0; b < n; ++b) {
    const Block& block = schedule.blocks[b];
    if (b == schedule.segment_first_block[segment]) {
      // Segment boundary (every segment holds at least one block): sample
      // CPU and switch tracing in the slack before its first due time.
      log.segment_cpu_ns.push_back(server_cpu_ns(server));
      shard_cpu_at_segment.push_back(shard_cpu_ns(server));
      obs::set_tracing(schedule.segments[segment].traced);
      ++segment;
    }
    const std::uint64_t due = start_ns + block.due_ns;
    sleep_until_ns(due);
    const std::uint64_t begin = now_ns();
    log.late_ns[b] = begin > due ? begin - due : 0;
    const Reference& ref = refs[block.ref];
    const int before = swap_state.load();
    try {
      for (std::size_t row = 0; row < kBatch; ++row) {
        server.push(block.stream, readings.row_view(ref.block * kBatch + row),
                    ref.mask);
      }
    } catch (const std::exception& error) {
      log.refused[b] = 1;
      if (log.first_error.empty()) log.first_error = error.what();
    }
    const int after = swap_state.load();
    log.push_ns[b] = now_ns() - begin;
    // A block binds the version current when its first frame arrived:
    // v1 if the swap had not begun once the pushes were done, v2 if it
    // had finished before they began, either one in between.
    if (after == 0) {
      log.allowed[b] = Checker::kMatchV1;
    } else if (before == 2) {
      log.allowed[b] = Checker::kMatchV2;
    } else {
      log.allowed[b] = Checker::kMatchV1 | Checker::kMatchV2;
    }
  }
  obs::set_tracing(false);
}

// ---- span accounting (traced run) -----------------------------------------

/// Span durations (ns) per segment and stage, read back per label.
struct SpanTally {
  using Key = std::pair<std::uint32_t, std::uint8_t>;  // segment, stage
  std::map<Key, std::vector<double>> durations;
  std::map<Key, double> frames;

  void add(const Schedule& schedule, const std::vector<obs::SpanRecord>& spans) {
    for (const obs::SpanRecord& span : spans) {
      if (span.stream >= schedule.stream_blocks.size()) continue;
      const auto& list = schedule.stream_blocks[span.stream];
      if (span.seq / kBatch >= list.size()) continue;
      const Key key(schedule.blocks[list[span.seq / kBatch]].segment,
                    span.stage);
      durations[key].push_back(
          span.end_ns >= span.start_ns
              ? static_cast<double>(span.end_ns - span.start_ns)
              : 0.0);
      frames[key] += span.frames;
    }
  }

  /// q-quantile of one span's duration (us) over the given segments.
  double quantile_us(const std::vector<std::size_t>& segments,
                     obs::Stage stage, double q) const {
    std::vector<double> all;
    for (const std::size_t seg : segments) {
      const auto it = durations.find(key(seg, stage));
      if (it != durations.end()) {
        all.insert(all.end(), it->second.begin(), it->second.end());
      }
    }
    return quantile(std::move(all), q) * 1e-3;
  }

  /// Total span time per frame covered (us) over the given segments.
  double per_frame_us(const std::vector<std::size_t>& segments,
                      obs::Stage stage) const {
    double ns = 0.0, covered = 0.0;
    for (const std::size_t seg : segments) {
      const auto it = durations.find(key(seg, stage));
      if (it == durations.end()) continue;
      for (const double d : it->second) ns += d;
      covered += frames.at(key(seg, stage));
    }
    return covered > 0.0 ? ns * 1e-3 / covered : 0.0;
  }

 private:
  static Key key(std::size_t segment, obs::Stage stage) {
    return Key(static_cast<std::uint32_t>(segment),
               static_cast<std::uint8_t>(stage));
  }
};

// ---- main run -------------------------------------------------------------

int run(const Args& args) {
  const Workload& w = *args.workload;
  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("# perfbench %s seed=%" PRIu64 " seconds=%.3g trace=%d\n",
              w.name, args.seed, args.seconds, args.trace ? 1 : 0);
  std::printf("# host: nproc=%u isa=%s; threads: %s, generator=1, "
              "EIGENMAPS_THREADS=%s\n",
              cores, numerics::isa_name(),
              w.routed ? "2 shards x 1 worker thread" : "2 engine workers",
              std::getenv("EIGENMAPS_THREADS") ? std::getenv("EIGENMAPS_THREADS")
                                               : "unset");
  std::printf("# rates: lo=%.0f frames/s hi=%.0f frames/s, blocks of %zu "
              "frames, %zu streams\n",
              w.lo_fps, w.hi_fps, kBatch, w.streams);

  const std::uint64_t sim_start = now_ns();
  const Simulation sim = simulate();
  std::printf("# simulated %zu held-out frames in %.2f s (untimed)\n",
              sim.truth.rows(), ms_since(sim_start) * 1e-3);

  ServerConfig config;
  config.routed = w.routed;
  config.workers = 2;
  config.batch_size = kBatch;
  config.worker_binary = args.worker_binary;
  config.socket_dir = args.socket_dir;

  Checker checker;
  Setup setup;
  std::vector<double> totals, pca, place, build, start, reg;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    setup = Setup();  // the previous server shuts down first
    setup = run_setup(w, sim, config, checker);
    totals.push_back(setup.total_s);
    pca.push_back(setup.pca_s);
    place.push_back(setup.place_s);
    build.push_back(setup.build_ms);
    start.push_back(setup.start_ms);
    reg.push_back(setup.register_ms);
    std::printf("# setup %zu: %.3f s (pca %.3f s, place %.3f s, build %.2f "
                "ms, start %.2f ms, register %.2f ms)\n",
                rep, setup.total_s, setup.pca_s, setup.place_s,
                setup.build_ms, setup.start_ms, setup.register_ms);
  }
  Server& server = *setup.server;
  std::printf("# model condition number, all sensors: %.2f\n",
              setup.v1->condition_number());

  // Frames: true held-out maps sampled at the placed sensors, plus noise.
  numerics::Matrix readings(sim.truth.rows(), kSensors);
  {
    numerics::Rng noise(args.seed * 1000003 + 5);
    numerics::Vector frame(kSensors);
    for (std::size_t f = 0; f < sim.truth.rows(); ++f) {
      setup.v1->sample_into(sim.truth.row_view(f), frame);
      for (double& v : frame) v += kSensorNoiseC * noise.normal();
      readings.set_row(f, frame);
    }
  }
  std::vector<Reference> refs;
  if (w.dropout) {
    const std::vector<core::SensorBitmask> masks =
        draw_masks({setup.v1, setup.v2});
    for (std::size_t s = 0; s < kDropoutStreams; ++s) {
      for (std::size_t j = 0; j < kBlocksPerDropoutStream; ++j) {
        refs.push_back({(s * kBlocksPerDropoutStream + j) % kPoolBlocks,
                        masks[s]});
      }
    }
  } else {
    for (std::size_t p = 0; p < kPoolBlocks; ++p) refs.push_back({p, {}});
  }
  const Expected expected_v1 =
      compute_expected(refs, setup.v1, readings, sim.truth);
  Expected expected_v2;
  if (setup.v2) {
    expected_v2 = compute_expected(refs, setup.v2, readings, sim.truth);
  }

  std::vector<Metric> layer;
  if (args.trace) {
    run_layer_probes(setup.v1, setup.v2 ? setup.v2 : setup.v1, readings,
                     kBatch, layer);
  }

  const Schedule schedule = make_schedule(w, args);
  checker.arm(&schedule, &expected_v1, setup.v2 ? &expected_v2 : nullptr,
              args.trace);
  const std::shared_ptr<const runtime::RegisteredModel> entry_v1 =
      server.registered();

  // Run the traffic. The main thread performs the hot swap (if any) and,
  // when tracing, drains the span rings every kSpanDrainNs.
  GeneratorLog log;
  std::vector<std::uint64_t> shard_cpu_at_segment;
  std::atomic<int> swap_state{0};
  std::atomic<bool> generator_done{false};
  SpanTally tally;
  double swap_ms = 0.0;
  const std::uint64_t steal_start = host_steal_ns();
  const std::uint64_t traffic_start = now_ns() + 50'000'000;
  std::thread generator([&] {
    generate(server, schedule, refs, readings, traffic_start, swap_state,
             log, shard_cpu_at_segment);
    generator_done.store(true);
  });
  std::uint64_t next_drain = traffic_start + kSpanDrainNs;
  bool swapped = schedule.swap_due_ns == 0;
  std::string swap_error;
  while (!generator_done.load()) {
    std::uint64_t wake = now_ns() + 20'000'000;
    if (!swapped) wake = std::min(wake, traffic_start + schedule.swap_due_ns);
    if (args.trace) wake = std::min(wake, next_drain);
    sleep_until_ns(wake);
    if (!swapped && now_ns() >= traffic_start + schedule.swap_due_ns) {
      swap_state.store(1);
      const std::uint64_t t = now_ns();
      try {
        server.register_model(setup.v2);
      } catch (const std::exception& error) {
        swap_error = error.what();
      }
      swap_ms = ms_since(t);
      swap_state.store(2);
      swapped = true;
    }
    if (args.trace && now_ns() >= next_drain) {
      tally.add(schedule, server.drain_spans());
      next_drain = now_ns() + kSpanDrainNs;
    }
  }
  generator.join();
  server.drain();
  const std::uint64_t drained_at = now_ns();
  const std::uint64_t steal_end = host_steal_ns();
  const std::uint64_t cpu_end = server_cpu_ns(server);
  const std::uint64_t shard_cpu_end = shard_cpu_ns(server);
  if (args.trace) tally.add(schedule, server.drain_spans());
  log.segment_cpu_ns.push_back(cpu_end);
  shard_cpu_at_segment.push_back(shard_cpu_end);

  const runtime::EngineStats engine_stats = server.engine_stats();
  const dist::RouterCounters router_counters = server.router_counters();
  std::vector<double> shard_rss;
  for (const pid_t pid : server.shard_pids()) shard_rss.push_back(pid_rss_mb(pid));

  // ---- verdict ----
  std::uint64_t failed_blocks = 0, missing = 0, duplicated = 0, wrong = 0,
                out_of_order = 0, refused = 0;
  double sq_error = 0.0;
  std::uint64_t checked_frames = 0;
  // Per segment: each checked block's latency (us), due -> delivery.
  std::vector<std::vector<double>> latency(schedule.segments.size());
  for (std::size_t b = 0; b < schedule.blocks.size(); ++b) {
    const Block& block = schedule.blocks[b];
    const std::uint8_t status = checker.status(b);
    const std::uint32_t deliveries = checker.deliveries(b);
    const std::uint8_t matched =
        status & log.allowed[b] & (Checker::kMatchV1 | Checker::kMatchV2);
    bool bad = false;
    if (log.refused[b]) ++refused, bad = true;
    if (deliveries == 0) {
      ++missing;
      bad = true;
    } else {
      if (deliveries > 1) ++duplicated, bad = true;
      if (status & Checker::kOutOfOrder) ++out_of_order, bad = true;
      if (matched == 0) ++wrong, bad = true;
    }
    if (bad) {
      ++failed_blocks;
      continue;
    }
    const Expected& e =
        (matched & Checker::kMatchV1) ? expected_v1 : expected_v2;
    sq_error += e.sq_error[block.ref];
    checked_frames += kBatch;
    const std::uint64_t due = traffic_start + block.due_ns;
    const std::uint64_t done = checker.done_ns(b);
    latency[block.segment].push_back(
        done > due ? static_cast<double>(done - due) * 1e-3 : 0.0);
  }
  const std::uint64_t attempted = schedule.blocks.size() * kBatch;
  const std::uint64_t failed = failed_blocks * kBatch + checker.unknown();
  const bool correct = failed == 0 && swap_error.empty();
  std::printf("# frames: attempted=%" PRIu64 " failed=%" PRIu64
              " (missing %" PRIu64 ", duplicated %" PRIu64
              ", out-of-order %" PRIu64 ", wrong %" PRIu64 ", refused %" PRIu64
              " blocks; %" PRIu64 " unknown deliveries)\n",
              attempted, failed, missing, duplicated, out_of_order, wrong,
              refused, checker.unknown());
  if (!log.first_error.empty()) {
    std::printf("# first push error: %s\n", log.first_error.c_str());
  }
  if (!swap_error.empty()) std::printf("# swap error: %s\n", swap_error.c_str());
  const double cells = static_cast<double>(sim.truth.cols());
  const double rmse =
      checked_frames == 0
          ? 0.0
          : std::sqrt(sq_error / (static_cast<double>(checked_frames) * cells));

  // Per-window figures; a label's metric is the median over its windows.
  const auto window_frames = [&](std::size_t seg) {
    return static_cast<double>(schedule.segment_first_block[seg + 1] -
                               schedule.segment_first_block[seg]) *
           static_cast<double>(kBatch);
  };
  const auto window_cpu_us = [&](std::size_t seg,
                                 const std::vector<std::uint64_t>& cpu) {
    return static_cast<double>(cpu[seg + 1] - cpu[seg]) * 1e-3 /
           window_frames(seg);
  };
  const auto latency_us = [&](const char* label, double q) {
    std::vector<double> per_window;
    for (const std::size_t seg : schedule.windows(label)) {
      per_window.push_back(quantile(latency[seg], q));
    }
    return median(per_window);
  };
  const auto cpu_us_per_frame = [&](const char* label,
                                    const std::vector<std::uint64_t>& cpu) {
    std::vector<double> per_window;
    for (const std::size_t seg : schedule.windows(label)) {
      per_window.push_back(window_cpu_us(seg, cpu));
    }
    return median(per_window);
  };
  std::vector<double> late_us;
  for (std::size_t b = 0; b < schedule.blocks.size(); ++b) {
    if (schedule.segments[schedule.blocks[b].segment].measured) {
      late_us.push_back(static_cast<double>(log.late_ns[b]) * 1e-3);
    }
  }
  std::vector<const char*> labels;
  for (const Segment& segment : schedule.segments) {
    if (std::find_if(labels.begin(), labels.end(), [&](const char* l) {
          return std::strcmp(l, segment.label) == 0;
        }) == labels.end()) {
      labels.push_back(segment.label);
    }
  }
  for (const char* label : labels) {
    // Pooled over every window of the label; p99 and p99.9 are printed
    // for context only (they do not repeat from run to run on a shared
    // host, see README.md).
    std::vector<double> pooled;
    double frames = 0.0;
    const std::vector<std::size_t> windows = schedule.windows(label);
    for (const std::size_t seg : windows) {
      pooled.insert(pooled.end(), latency[seg].begin(),
                    latency[seg].end());
      frames += window_frames(seg);
    }
    std::printf("# %-9s %2zu windows %8.0f frames  window-median latency us: "
                "p50 %.1f p90 %.1f | pooled p50 %.1f p90 %.1f p99 %.1f "
                "p99.9 %.1f  cpu %.3f us/frame\n",
                label, windows.size(), frames, latency_us(label, 0.5),
                latency_us(label, 0.9), quantile(pooled, 0.5),
                quantile(pooled, 0.9), quantile(pooled, 0.99),
                quantile(pooled, 0.999),
                cpu_us_per_frame(label, log.segment_cpu_ns));
    if (windows.size() > 1) {
      std::printf("#   per window p90 us / cpu us per frame:");
      for (const std::size_t seg : windows) {
        std::printf(" %.0f/%.2f", quantile(latency[seg], 0.9),
                    window_cpu_us(seg, log.segment_cpu_ns));
      }
      std::printf("\n");
    }
  }
  std::printf("# gen.late_us p50 %.1f p99 %.1f max %.1f\n",
              quantile(late_us, 0.5), quantile(late_us, 0.99),
              quantile(late_us, 1.0));
  std::printf("# host steal during traffic: %.1f ms of CPU over %.1f s\n",
              static_cast<double>(steal_end - steal_start) * 1e-6,
              static_cast<double>(drained_at - traffic_start) * 1e-9);
  if (swap_ms > 0.0) std::printf("# hot swap register_model: %.3f ms\n", swap_ms);

  std::vector<Metric> metrics;
  if (args.capacity) {
    const double fps = window_frames(0) /
                       (static_cast<double>(drained_at - traffic_start) * 1e-9);
    std::printf("# closed-loop capacity: %.0f frames/s\n", fps);
    metrics = {{"capacity_fps", fps, "1/s"}};
  } else if (!args.trace) {
    metrics = {
        {"setup_s", median(totals), "s"},
        {"latency_p50_us.lo", latency_us("lo", 0.5), "us"},
        {"latency_p90_us.lo", latency_us("lo", 0.9), "us"},
        {"latency_p50_us.hi", latency_us("hi", 0.5), "us"},
        {"latency_p90_us.hi", latency_us("hi", 0.9), "us"},
        {"cpu_us_per_frame", cpu_us_per_frame("hi", log.segment_cpu_ns), "us"},
        {"recon_rmse", rmse, "degC"},
    };
  } else {
    const std::vector<std::size_t> lo = schedule.windows("lo.traced");
    const std::vector<std::size_t> hi = schedule.windows("hi.traced");
    // Setup layers (median over the setup repetitions).
    layer.push_back({"core.pca_s", median(pca), "s"});
    layer.push_back({"core.place_s", median(place), "s"});
    layer.push_back({"core.model_build_ms", median(build), "ms"});
    layer.push_back({"runtime.engine_start_ms", w.routed ? 0.0 : median(start),
                     "ms"});
    layer.push_back({"dist.router_start_ms", w.routed ? median(start) : 0.0,
                     "ms"});
    layer.push_back({"dist.register_ms", w.routed ? median(reg) : 0.0, "ms"});
    // Serving stages from the traced hi windows (the shard engines' spans
    // when routed).
    const double deliver = tally.per_frame_us(hi, obs::Stage::kDeliver);
    layer.push_back({"core.solve_us_per_frame",
                     tally.per_frame_us(hi, obs::Stage::kSolve), "us"});
    layer.push_back({"core.expand_us_per_frame",
                     tally.per_frame_us(hi, obs::Stage::kExpand), "us"});
    std::vector<double> push_us;
    for (const std::size_t seg : hi) {
      for (std::uint32_t b = schedule.segment_first_block[seg];
           b < schedule.segment_first_block[seg + 1]; ++b) {
        push_us.push_back(static_cast<double>(log.push_ns[b]) * 1e-3 /
                          static_cast<double>(kBatch));
      }
    }
    layer.push_back({"runtime.push_us_p50", median(push_us), "us"});
    layer.push_back({"runtime.queue_wait_us_p50",
                     tally.quantile_us(hi, obs::Stage::kQueueWait, 0.5), "us"});
    layer.push_back({"runtime.queue_wait_us_p90",
                     tally.quantile_us(hi, obs::Stage::kQueueWait, 0.9), "us"});
    layer.push_back({"runtime.queue_wait_us_p50.lo",
                     tally.quantile_us(lo, obs::Stage::kQueueWait, 0.5), "us"});
    layer.push_back({"runtime.deliver_us_per_frame", w.routed ? 0.0 : deliver,
                     "us"});
    layer.push_back({"runtime.swap_ms", swap_ms, "ms"});
    std::uint64_t allocations = 0;
    const auto model_stats = engine_stats.models.find(kModelId);
    if (model_stats != engine_stats.models.end()) {
      allocations = model_stats->second.steady_state_allocations;
    }
    layer.push_back({"runtime.steady_state_allocations",
                     static_cast<double>(allocations), "count"});
    // Factor cache: both versions' caches in process; the shards' merged
    // counters when routed (evictions are not on the wire).
    core::FactorCacheStats cache;
    std::uint64_t cache_bytes = 0;
    if (entry_v1) {
      cache = entry_v1->cache->stats();
      const auto current = server.registered();
      if (current && current != entry_v1) {
        const core::FactorCacheStats v2 = current->cache->stats();
        cache.hits += v2.hits;
        cache.misses += v2.misses;
        cache.downdates += v2.downdates;
        cache.refactors += v2.refactors;
        cache.evictions += v2.evictions;
      }
      cache_bytes = (current ? current : entry_v1)->cache->resident_bytes();
    } else if (model_stats != engine_stats.models.end()) {
      cache.hits = model_stats->second.cache_hits;
      cache.misses = model_stats->second.cache_misses;
      cache.downdates = model_stats->second.factor_downdates;
      cache.refactors = model_stats->second.factor_refactors;
      cache_bytes = model_stats->second.factor_cache_bytes;
    }
    const double lookups = static_cast<double>(cache.hits + cache.misses);
    layer.push_back({"core.factor_hit_rate",
                     lookups > 0 ? static_cast<double>(cache.hits) / lookups
                                 : 0.0,
                     "ratio"});
    layer.push_back({"core.factor_downdates",
                     static_cast<double>(cache.downdates), "count"});
    layer.push_back({"core.factor_refactors",
                     static_cast<double>(cache.refactors), "count"});
    layer.push_back({"core.factor_evictions",
                     static_cast<double>(cache.evictions), "count"});
    layer.push_back({"core.factor_cache_bytes",
                     static_cast<double>(cache_bytes), "B"});
    // dist.
    layer.push_back({"dist.route_us_p50",
                     tally.quantile_us(hi, obs::Stage::kRoute, 0.5), "us"});
    layer.push_back({"dist.ack_us_p50",
                     tally.quantile_us(hi, obs::Stage::kAck, 0.5), "us"});
    layer.push_back({"dist.shard_deliver_us_per_frame",
                     w.routed ? deliver : 0.0, "us"});
    layer.push_back({"dist.shard_cpu_us_per_frame",
                     w.routed ? cpu_us_per_frame("hi", shard_cpu_at_segment)
                              : 0.0,
                     "us"});
    layer.push_back({"dist.frames_replayed",
                     static_cast<double>(router_counters.frames_replayed),
                     "count"});
    layer.push_back({"dist.shard_rss_mb",
                     shard_rss.empty() ? 0.0
                                       : *std::max_element(shard_rss.begin(),
                                                           shard_rss.end()),
                     "MiB"});
    // obs / generator / the sink itself.
    layer.push_back({"obs.trace_overhead",
                     cpu_us_per_frame("hi.traced", log.segment_cpu_ns) /
                         cpu_us_per_frame("hi", log.segment_cpu_ns),
                     "ratio"});
    layer.push_back({"gen.late_us_p50", quantile(late_us, 0.5), "us"});
    layer.push_back({"gen.late_us_p99", quantile(late_us, 0.99), "us"});
    layer.push_back({"bench.check_us_per_frame",
                     static_cast<double>(checker.callback_ns()) * 1e-3 /
                         static_cast<double>(attempted),
                     "us"});
    // Reconciliation: per-batch stage medians along the blocking path of
    // the traced hi windows, against the untraced hi windows' p50.
    const double push_block = median(push_us) * static_cast<double>(kBatch);
    const double queue = tally.quantile_us(hi, obs::Stage::kQueueWait, 0.5);
    const double solve = tally.quantile_us(hi, obs::Stage::kSolve, 0.5);
    const double expand = tally.quantile_us(hi, obs::Stage::kExpand, 0.5);
    const double deliver_batch = tally.quantile_us(hi, obs::Stage::kDeliver, 0.5);
    const double ack = tally.quantile_us(hi, obs::Stage::kAck, 0.5);
    const double stage_sum = push_block + queue + solve + expand +
                             deliver_batch + ack;
    const double p50_hi = latency_us("hi", 0.5);
    layer.push_back({"reconcile.stage_sum_us", stage_sum, "us"});
    layer.push_back({"reconcile.latency_p50_us_hi", p50_hi, "us"});
    layer.push_back({"reconcile.residual_us", p50_hi - stage_sum, "us"});
    std::printf("# reconcile (hi, per batch p50): push %.1f + queue %.1f + "
                "solve %.1f + expand %.1f + deliver %.1f + ack %.1f = %.1f us"
                " vs untraced latency p50 %.1f us; residual %.1f us\n",
                push_block, queue, solve, expand, deliver_batch, ack,
                stage_sum, p50_hi, p50_hi - stage_sum);
    metrics = layer;
  }
  for (const Metric& m : metrics) {
    std::printf("# %-34s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  // Shut the server down (shards reaped) before the result line.
  setup = Setup();
  print_result_json(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
}
