// Distributed sharded serving: wire-protocol round trips, the bounded
// replay log, and end-to-end router/worker runs — including the chaos
// case: SIGKILL a shard mid-stream and require byte-identical,
// exactly-once, in-order delivery against a single-process golden run
// (DESIGN.md §12).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "core/allocation.h"
#include "core/dct_basis.h"
#include "core/reconstructor.h"
#include "dist/protocol.h"
#include "dist/replay_log.h"
#include "dist/router.h"
#include "numerics/rng.h"
#include "obs/event_log.h"
#include "obs/trace.h"
#include "runtime/engine.h"

namespace {

using namespace eigenmaps;

#ifndef EIGENMAPS_WORKER_BIN
#define EIGENMAPS_WORKER_BIN ""
#endif

struct Fixture {
  Fixture()
      : basis(12, 12, 8),
        mean(basis.cell_count(), 40.0),
        sensors(core::allocate_greedy(basis, 8, 12)),
        rec(basis, 8, sensors, mean) {}

  core::DctBasis basis;
  numerics::Vector mean;
  core::SensorLocations sensors;
  core::Reconstructor rec;

  numerics::Vector frame(std::uint64_t stream, std::uint64_t seq) const {
    numerics::Rng rng(stream * 7919 + seq);
    numerics::Vector f(sensors.size());
    for (double& v : f) v = 40.0 + rng.normal();
    return f;
  }
};

// ---- protocol ------------------------------------------------------------

TEST(DistProtocol, HeaderRoundTripRejectsCorruption) {
  dist::WireHeader header;
  header.type = static_cast<std::uint16_t>(dist::MessageType::kResult);
  header.payload_bytes = 1234;
  std::uint8_t bytes[dist::WireHeader::kBytes];
  dist::encode_header(header, bytes);
  const dist::WireHeader back = dist::decode_header(bytes);
  EXPECT_EQ(back.type, header.type);
  EXPECT_EQ(back.payload_bytes, header.payload_bytes);

  std::uint8_t bad_magic[dist::WireHeader::kBytes];
  std::memcpy(bad_magic, bytes, sizeof(bytes));
  bad_magic[0] ^= 0xFF;
  EXPECT_THROW(dist::decode_header(bad_magic), dist::ProtocolError);

  std::uint8_t bad_version[dist::WireHeader::kBytes];
  dist::WireHeader skew = header;
  skew.version = dist::kProtocolVersion + 1;
  dist::encode_header(skew, bad_version);
  EXPECT_THROW(dist::decode_header(bad_version), dist::ProtocolError);

  // A v5 worker still sends the retired blocked-CSR threshold and gauges;
  // its hello is refused before any of that is parsed.
  dist::WireHeader old_hello;
  old_hello.type = static_cast<std::uint16_t>(dist::MessageType::kHello);
  old_hello.version = 5;
  old_hello.payload_bytes = 4;
  std::uint8_t v5_hello[dist::WireHeader::kBytes];
  dist::encode_header(old_hello, v5_hello);
  EXPECT_THROW(dist::decode_header(v5_hello), dist::ProtocolError);

  dist::WireHeader absurd = header;
  absurd.payload_bytes = dist::kMaxPayloadBytes + 1;
  std::uint8_t bad_size[dist::WireHeader::kBytes];
  dist::encode_header(absurd, bad_size);
  EXPECT_THROW(dist::decode_header(bad_size), dist::ProtocolError);
}

TEST(DistProtocol, SubmitFrameRoundTripAndTruncationThrows) {
  const Fixture fx;
  const numerics::Vector readings = fx.frame(3, 17);
  const core::SensorBitmask mask =
      core::SensorBitmask::except(fx.sensors.size(), {1, 5});
  std::vector<std::uint8_t> payload;
  dist::encode_submit_frame(
      9, 41, 7, mask,
      numerics::ConstVectorView(readings.data(), readings.size()), payload);

  dist::SubmitFrameMsg msg;
  dist::decode_submit_frame(payload.data(), payload.size(), msg);
  EXPECT_EQ(msg.stream, 9u);
  EXPECT_EQ(msg.seq, 41u);
  EXPECT_EQ(msg.model, 7u);
  EXPECT_FALSE(msg.rebase);  // default flag round-trips as false
  EXPECT_EQ(msg.mask, mask);
  ASSERT_EQ(msg.readings.size(), readings.size());
  EXPECT_EQ(std::memcmp(msg.readings.data(), readings.data(),
                        readings.size() * sizeof(double)),
            0);

  // Truncation anywhere must throw, never misparse.
  for (std::size_t cut : {std::size_t{0}, payload.size() / 2,
                          payload.size() - 1}) {
    EXPECT_THROW(dist::decode_submit_frame(payload.data(), cut, msg),
                 dist::ProtocolError);
  }
  // Trailing garbage is equally loud.
  payload.push_back(0);
  EXPECT_THROW(dist::decode_submit_frame(payload.data(), payload.size(), msg),
               dist::ProtocolError);

  // The rebase anchor (set on the first frame after a stream reassignment)
  // survives the round trip.
  dist::encode_submit_frame(
      9, 41, 7, mask,
      numerics::ConstVectorView(readings.data(), readings.size()), payload,
      /*rebase=*/true);
  dist::decode_submit_frame(payload.data(), payload.size(), msg);
  EXPECT_TRUE(msg.rebase);
  EXPECT_FALSE(msg.traced);  // v4 trace context defaults off
  EXPECT_EQ(msg.origin_ns, 0u);

  // The v4 trace context (traced flag + router-side origin timestamp, the
  // cross-process stitch) survives the round trip.
  dist::encode_submit_frame(
      9, 41, 7, mask,
      numerics::ConstVectorView(readings.data(), readings.size()), payload,
      /*rebase=*/false, /*traced=*/true, /*origin_ns=*/987654321012345ull);
  dist::decode_submit_frame(payload.data(), payload.size(), msg);
  EXPECT_TRUE(msg.traced);
  EXPECT_EQ(msg.origin_ns, 987654321012345ull);
}

TEST(DistProtocol, OverflowingLengthFieldsThrowInsteadOfAllocating) {
  // A corrupt count near 2^61 makes count * sizeof(double) wrap to a tiny
  // number; the reader must reject it as a ProtocolError (contained as a
  // shard failure), never pass the bounds check and blow up in resize.
  auto put_u64 = [](std::uint8_t* out, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
  };
  std::uint8_t wire[16] = {};

  for (const std::uint64_t count :
       {std::uint64_t{1} << 61, (std::uint64_t{1} << 61) + 1,
        ~std::uint64_t{0}, std::uint64_t{3}}) {
    put_u64(wire, count);  // claims `count` doubles, provides 8 bytes
    dist::WireReader reader(wire, sizeof(wire));
    numerics::Vector out;
    EXPECT_THROW(reader.doubles(out), dist::ProtocolError) << count;
  }

  // Same wrap in the bitmask width: (width + 7) / 8 overflows to 0 bytes.
  for (const std::uint64_t width :
       {~std::uint64_t{0}, ~std::uint64_t{0} - 6, std::uint64_t{1} << 61,
        std::uint64_t{65}}) {
    put_u64(wire, width);  // claims `width` mask bits, provides 8 bytes
    dist::WireReader reader(wire, sizeof(wire));
    EXPECT_THROW(reader.bitmask(), dist::ProtocolError) << width;
  }
}

TEST(DistProtocol, ResultRoundTripAndTruncationAtEveryByteThrows) {
  // v5 result: coefficients plus the generation that solved them, from a
  // strided view (the worker encodes row slices of a batch).
  numerics::Matrix alpha(5, 9);
  for (std::size_t r = 0; r < alpha.rows(); ++r) {
    for (std::size_t c = 0; c < alpha.cols(); ++c) {
      alpha(r, c) = 0.25 * static_cast<double>(r) - static_cast<double>(c);
    }
  }
  const numerics::ConstMatrixView strided(alpha.row_data(1), 3, 8, 9);
  std::vector<std::uint8_t> payload;
  dist::encode_result(4, 1000, strided, payload, /*generation=*/77);

  dist::ResultMsg msg;
  dist::decode_result(payload.data(), payload.size(), msg);
  EXPECT_EQ(msg.stream, 4u);
  EXPECT_EQ(msg.first_seq, 1000u);
  EXPECT_EQ(msg.generation, 77u);
  EXPECT_EQ(msg.frames, 3u);
  EXPECT_EQ(msg.order, 8u);
  ASSERT_EQ(msg.alpha.size(), 24u);
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(std::memcmp(msg.alpha.data() + r * 8, alpha.row_data(r + 1),
                          8 * sizeof(double)),
              0);
  }
  // 8 bytes per coefficient on the wire, against 8 per cell for maps.
  EXPECT_EQ(payload.size(), 6 * sizeof(std::uint64_t) + 24 * sizeof(double));

  // Every proper prefix is a truncation and must throw, never misparse;
  // so must trailing garbage.
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_THROW(dist::decode_result(payload.data(), cut, msg),
                 dist::ProtocolError)
        << "cut at " << cut;
  }
  payload.push_back(0);
  EXPECT_THROW(dist::decode_result(payload.data(), payload.size(), msg),
               dist::ProtocolError);

  // The defaulted generation keeps the pre-v5 call shape compiling.
  dist::encode_result(4, 0, strided, payload);
  dist::decode_result(payload.data(), payload.size(), msg);
  EXPECT_EQ(msg.generation, 0u);
}

TEST(DistProtocol, ResultOverflowingFramesTimesOrderThrows) {
  // frames * order is wire-controlled: a product that wraps to the real
  // coefficient count (here 2^32 * 2^32 = 0 mod 2^64, with no
  // coefficients) must be rejected, as must any mismatch.
  const auto put_u64 = [](std::vector<std::uint8_t>& out, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  };
  const auto result = [&](std::uint64_t frames, std::uint64_t order,
                          std::uint64_t count) {
    std::vector<std::uint8_t> wire;
    put_u64(wire, 1);  // stream
    put_u64(wire, 0);  // first_seq
    put_u64(wire, 1);  // generation
    put_u64(wire, frames);
    put_u64(wire, order);
    put_u64(wire, count);
    for (std::uint64_t i = 0; i < count * 8; ++i) wire.push_back(0);
    return wire;
  };
  dist::ResultMsg msg;
  for (const auto& [frames, order, count] :
       std::vector<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>>{
           {std::uint64_t{1} << 32, std::uint64_t{1} << 32, 0},
           {(std::uint64_t{1} << 63) + 1, 2, 2},
           {~std::uint64_t{0}, ~std::uint64_t{0}, 1},
           {3, 0, 0},
           {2, 3, 5}}) {
    const std::vector<std::uint8_t> wire = result(frames, order, count);
    EXPECT_THROW(dist::decode_result(wire.data(), wire.size(), msg),
                 dist::ProtocolError)
        << frames << " x " << order << " with " << count;
  }
  const std::vector<std::uint8_t> good = result(2, 3, 6);
  EXPECT_NO_THROW(dist::decode_result(good.data(), good.size(), msg));
}

TEST(DistProtocol, RegisterModelCarriesGenerationAndExpansionOptions) {
  // v5+: the router's generation and the model's expansion options cross
  // the wire, so a shard rebuilds (and budget-checks) exactly the backend
  // the caller chose instead of the environment's default.
  const Fixture fx;
  core::ExpansionOptions fp32;
  fp32.backend = core::ExpansionBackend::kFp32;
  fp32.fp32_error_budget = 2.5e-4;
  const core::Reconstructor rec(fx.basis, 8, fx.sensors, fx.mean, fp32);
  std::vector<std::uint8_t> payload;
  dist::encode_register_model(5, *rec.model(), payload, /*generation=*/42);
  const dist::RegisterModelMsg msg =
      dist::decode_register_model(payload.data(), payload.size());
  EXPECT_EQ(msg.generation, 42u);
  EXPECT_EQ(msg.expansion.backend, core::ExpansionBackend::kFp32);
  EXPECT_EQ(msg.expansion.fp32_error_budget, 2.5e-4);
  const auto rebuilt = dist::build_model(msg);
  EXPECT_EQ(rebuilt->expansion_backend(), core::ExpansionBackend::kFp32);
  EXPECT_EQ(rebuilt->fp32_measured_error(), rec.model()->fp32_measured_error());

  // Every proper prefix is a truncation and must throw.
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_THROW(dist::decode_register_model(payload.data(), cut),
                 dist::ProtocolError)
        << "prefix " << cut;
  }

  // An unknown backend byte is a corrupt frame, not a default — including
  // 1, the retired blocked-CSR backend, whose id stays unassigned.
  for (const std::uint8_t bad : {std::uint8_t{1}, std::uint8_t{9}}) {
    payload[16] = bad;
    EXPECT_THROW(dist::decode_register_model(payload.data(), payload.size()),
                 dist::ProtocolError)
        << "backend byte " << int{bad};
  }
}

TEST(DistProtocol, RegisterModelRoundTripRebuildsBitIdenticalModel) {
  const Fixture fx;
  std::vector<std::uint8_t> payload;
  dist::encode_register_model(5, *fx.rec.model(), payload);
  const dist::RegisterModelMsg msg =
      dist::decode_register_model(payload.data(), payload.size());
  EXPECT_EQ(msg.model, 5u);
  const auto rebuilt = dist::build_model(msg);

  // The worker-side rebuild recomputes the QR from the same bits, so the
  // reconstruction must be byte-identical to the original model's.
  numerics::Matrix frames(6, fx.sensors.size());
  for (std::size_t f = 0; f < 6; ++f) frames.set_row(f, fx.frame(1, f));
  const numerics::Matrix expect = fx.rec.model()->reconstruct_batch(frames);
  const numerics::Matrix got = rebuilt->reconstruct_batch(frames);
  ASSERT_EQ(got.rows(), expect.rows());
  for (std::size_t f = 0; f < got.rows(); ++f) {
    EXPECT_EQ(std::memcmp(got.row_data(f), expect.row_data(f),
                          got.cols() * sizeof(double)),
              0);
  }
}

TEST(DistProtocol, EngineStatsRoundTrip) {
  runtime::EngineStats stats;
  stats.frames_submitted = 100;
  stats.frames_completed = 96;
  stats.batches_completed = 3;
  stats.total_batch_latency_ns = 123456;
  stats.max_batch_latency_ns = 65432;
  stats.latency.record(2000);
  stats.latency.record(9000000);
  runtime::ModelStats& model = stats.models[4];
  model.frames_completed = 96;
  model.cache_hits = 7;
  model.cache_misses = 2;
  model.hot_swaps_served = 1;
  model.adaptation.drift_events = 5;
  // v4 payload: per-stage histograms and the structured event snapshot.
  for (std::size_t s = 0; s < obs::kEngineStageCount; ++s) {
    stats.stage_latency[s].record(1000 * (s + 1));
    stats.stage_latency[s].record(900000 * (s + 1));
  }
  obs::Event event;
  event.index = 12;
  event.ts_ns = 777;
  event.a = 3;
  event.b = 2;
  event.shard = 1;
  event.type = obs::EventType::kHotSwapPublished;
  stats.events.push_back(event);

  std::vector<std::uint8_t> payload;
  dist::encode_engine_stats(stats, payload);
  const runtime::EngineStats back =
      dist::decode_engine_stats(payload.data(), payload.size());
  EXPECT_EQ(back.frames_submitted, stats.frames_submitted);
  EXPECT_EQ(back.frames_completed, stats.frames_completed);
  EXPECT_EQ(back.max_batch_latency_ns, stats.max_batch_latency_ns);
  EXPECT_EQ(back.latency.total, stats.latency.total);
  EXPECT_EQ(back.latency.counts, stats.latency.counts);
  for (std::size_t s = 0; s < obs::kEngineStageCount; ++s) {
    EXPECT_EQ(back.stage_latency[s].total, 2u);
    EXPECT_EQ(back.stage_latency[s].counts, stats.stage_latency[s].counts);
  }
  ASSERT_EQ(back.events.size(), 1u);
  EXPECT_EQ(back.events[0].index, 12u);
  EXPECT_EQ(back.events[0].ts_ns, 777u);
  EXPECT_EQ(back.events[0].a, 3u);
  EXPECT_EQ(back.events[0].b, 2u);
  EXPECT_EQ(back.events[0].shard, 1u);
  EXPECT_EQ(back.events[0].type, obs::EventType::kHotSwapPublished);
  ASSERT_EQ(back.models.count(4), 1u);
  EXPECT_EQ(back.models.at(4).cache_hits, 7u);
  EXPECT_EQ(back.models.at(4).adaptation.drift_events, 5u);
}

TEST(DistProtocol, TraceReplyRoundTripAndTruncationThrows) {
  std::vector<obs::SpanRecord> spans(3);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    spans[i].start_ns = 1000 + i;
    spans[i].end_ns = 2000 + i;
    spans[i].stream = 5 + i;
    spans[i].seq = 40 + i;
    spans[i].frames = 8;
    spans[i].shard = static_cast<std::uint16_t>(i);
    spans[i].stage = static_cast<std::uint8_t>(obs::Stage::kSolve);
    spans[i].thread = static_cast<std::uint8_t>(i);
  }
  std::vector<std::uint8_t> payload;
  dist::encode_trace_reply(spans, payload);
  const std::vector<obs::SpanRecord> back =
      dist::decode_trace_reply(payload.data(), payload.size());
  ASSERT_EQ(back.size(), spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(back[i].start_ns, spans[i].start_ns);
    EXPECT_EQ(back[i].end_ns, spans[i].end_ns);
    EXPECT_EQ(back[i].stream, spans[i].stream);
    EXPECT_EQ(back[i].seq, spans[i].seq);
    EXPECT_EQ(back[i].frames, spans[i].frames);
    EXPECT_EQ(back[i].shard, spans[i].shard);
    EXPECT_EQ(back[i].stage, spans[i].stage);
    EXPECT_EQ(back[i].thread, spans[i].thread);
  }

  // Truncation and a count larger than the payload could hold both throw.
  for (std::size_t cut : {std::size_t{4}, payload.size() / 2,
                          payload.size() - 1}) {
    EXPECT_THROW(dist::decode_trace_reply(payload.data(), cut),
                 dist::ProtocolError);
  }
  std::vector<std::uint8_t> lying(payload);
  lying[0] = 0xff;  // count claims 255+ spans, payload holds 3
  EXPECT_THROW(dist::decode_trace_reply(lying.data(), lying.size()),
               dist::ProtocolError);
}

// ---- replay log ----------------------------------------------------------

TEST(DistReplayLog, AppendAckPendingOrder) {
  dist::ReplayLog log(16);
  const numerics::Vector readings{1.0, 2.0};
  const numerics::ConstVectorView view(readings.data(), readings.size());
  for (std::uint64_t seq = 0; seq < 4; ++seq) {
    ASSERT_TRUE(log.acquire_slot());
    log.append(7, seq, 1, core::SensorBitmask(), view);
  }
  ASSERT_TRUE(log.acquire_slot());
  log.append(8, 0, 1, core::SensorBitmask(), view);
  EXPECT_EQ(log.size(), 5u);

  log.ack_before(7, 2);  // frames 0,1 acked
  EXPECT_EQ(log.size(), 3u);
  const auto pending = log.pending(7);
  ASSERT_EQ(pending.size(), 2u);
  EXPECT_EQ(pending[0].seq, 2u);
  EXPECT_EQ(pending[1].seq, 3u);
  EXPECT_EQ(pending[0].readings, readings);

  log.ack_before(7, 100);
  EXPECT_EQ(log.pending(7).size(), 0u);
  EXPECT_EQ(log.pending_streams(), std::vector<std::uint64_t>{8});
}

TEST(DistReplayLog, ContainsDistinguishesInFlightFromAcked) {
  dist::ReplayLog log(8);
  const numerics::Vector readings{1.0, 2.0};
  const numerics::ConstVectorView view(readings.data(), readings.size());
  for (std::uint64_t seq = 0; seq < 3; ++seq) {
    ASSERT_TRUE(log.acquire_slot());
    ASSERT_TRUE(log.append(5, seq, 1, core::SensorBitmask(), view));
  }
  EXPECT_TRUE(log.contains(5, 0));
  EXPECT_TRUE(log.contains(5, 2));
  EXPECT_FALSE(log.contains(5, 3));   // never appended
  EXPECT_FALSE(log.contains(6, 0));   // unknown stream

  log.ack_before(5, 2);
  EXPECT_FALSE(log.contains(5, 0));   // acked: no longer in flight
  EXPECT_FALSE(log.contains(5, 1));
  EXPECT_TRUE(log.contains(5, 2));
}

TEST(DistReplayLog, AppendAfterFailReturnsFalseAndLogsNothing) {
  dist::ReplayLog log(4);
  const numerics::Vector readings{1.0};
  const numerics::ConstVectorView view(readings.data(), readings.size());
  ASSERT_TRUE(log.acquire_slot());
  ASSERT_TRUE(log.append(1, 0, 0, core::SensorBitmask(), view));

  // Reserve a slot, then poison the log before the append lands — exactly
  // the shape of a producer racing a total-cluster failure. The append
  // must report the failure instead of logging a frame no one will serve.
  ASSERT_TRUE(log.acquire_slot());
  log.fail();
  EXPECT_FALSE(log.append(1, 1, 0, core::SensorBitmask(), view));
  EXPECT_EQ(log.size(), 1u);  // the poisoned append logged nothing
  EXPECT_FALSE(log.acquire_slot());  // and the log stays poisoned
}

TEST(DistReplayLog, BoundBlocksProducersUntilAckOrFail) {
  dist::ReplayLog log(2);
  const numerics::Vector readings{1.0};
  const numerics::ConstVectorView view(readings.data(), readings.size());
  ASSERT_TRUE(log.acquire_slot());
  log.append(1, 0, 0, core::SensorBitmask(), view);
  ASSERT_TRUE(log.acquire_slot());
  log.append(1, 1, 0, core::SensorBitmask(), view);

  std::atomic<int> state{0};
  std::thread producer([&] {
    state = 1;
    const bool ok = log.acquire_slot();  // blocks: log is full
    state = ok ? 2 : 3;
    if (ok) log.append(1, 2, 0, core::SensorBitmask(), view);
  });
  while (state < 1) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(state, 1);  // still blocked at the bound

  log.ack_before(1, 1);  // frees one slot
  producer.join();
  EXPECT_EQ(state, 2);
  EXPECT_EQ(log.size(), 2u);

  std::thread blocked([&] { EXPECT_FALSE(log.acquire_slot()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  log.fail();
  blocked.join();
  EXPECT_TRUE(log.wait_idle() == false || log.size() == 0);
}

// ---- end-to-end router ---------------------------------------------------

/// Collects delivered rows keyed by (stream, seq), asserting in-order,
/// exactly-once delivery as rows arrive.
struct Collector {
  std::mutex mutex;
  std::map<std::uint64_t, std::uint64_t> next_seq;  // per-stream expectation
  std::map<std::uint64_t, std::map<std::uint64_t, numerics::Vector>> rows;
  bool order_violated = false;

  dist::ShardRouter::ResultCallback callback() {
    return [this](std::uint64_t stream, std::uint64_t first_seq,
                  numerics::ConstMatrixView maps) {
      std::lock_guard<std::mutex> lock(mutex);
      auto& expected = next_seq[stream];
      if (first_seq != expected) order_violated = true;
      for (std::size_t r = 0; r < maps.rows(); ++r) {
        numerics::Vector row(maps.row_data(r), maps.row_data(r) + maps.cols());
        const bool fresh =
            rows[stream].emplace(first_seq + r, std::move(row)).second;
        if (!fresh) order_violated = true;  // duplicate delivery
      }
      expected = first_seq + maps.rows();
    };
  }
};

/// Single-process golden: the same frames through one in-process engine
/// with the same batch size; per-stream results keyed by seq.
std::map<std::uint64_t, std::map<std::uint64_t, numerics::Vector>> golden_run(
    const Fixture& fx, std::size_t batch,
    const std::vector<std::pair<std::uint64_t, core::SensorBitmask>>& streams,
    std::size_t frames_per_stream,
    std::shared_ptr<const core::ReconstructionModel> model = nullptr) {
  std::map<std::uint64_t, std::map<std::uint64_t, numerics::Vector>> out;
  std::mutex mutex;
  runtime::ModelRegistry registry;
  registry.register_model(1, model ? model : fx.rec.model());
  runtime::EngineOptions options;
  options.worker_count = 1;
  options.batch_size = batch;
  runtime::ReconstructionEngine engine(
      registry, options,
      [&](std::uint64_t stream, std::uint64_t first_seq,
          numerics::ConstMatrixView maps) {
        std::lock_guard<std::mutex> lock(mutex);
        for (std::size_t r = 0; r < maps.rows(); ++r) {
          out[stream][first_seq + r] = numerics::Vector(
              maps.row_data(r), maps.row_data(r) + maps.cols());
        }
      });
  for (std::size_t f = 0; f < frames_per_stream; ++f) {
    for (const auto& [stream, mask] : streams) {
      const numerics::Vector frame = fx.frame(stream, f);
      engine.push_frame(stream,
                        numerics::ConstVectorView(frame.data(), frame.size()),
                        1, mask);
    }
  }
  engine.drain();
  return out;
}

dist::RouterOptions test_router_options(std::size_t shards,
                                        std::size_t batch) {
  dist::RouterOptions options;
  options.shard_count = shards;
  options.worker_binary = EIGENMAPS_WORKER_BIN;
  options.worker_threads = 1;
  options.batch_size = batch;
  options.heartbeat_interval_ms = 20;
  options.heartbeat_timeout_ms = 5000;  // SIGKILL is caught via EOF, not HB
  // Tests opt into self-healing explicitly; pure-failover tests must not
  // have a respawn racing their post-kill assertions.
  options.respawn_max_attempts = 0;
  return options;
}

/// Sets an environment variable for the lifetime of the scope (worker
/// processes inherit the environment at fork, so these must wrap the
/// router's construction).
struct ScopedEnv {
  std::string name;
  ScopedEnv(const char* n, const std::string& value) : name(n) {
    ::setenv(n, value.c_str(), 1);
  }
  ~ScopedEnv() { ::unsetenv(name.c_str()); }
};

/// Polls `done` every 10ms until it returns true or `timeout` elapses.
bool wait_until(const std::function<bool()>& done,
                std::chrono::milliseconds timeout =
                    std::chrono::seconds(15)) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return done();
}

void push_wave(
    dist::ShardRouter& router, const Fixture& fx,
    const std::vector<std::pair<std::uint64_t, core::SensorBitmask>>& streams,
    std::size_t first_frame, std::size_t last_frame) {
  for (std::size_t f = first_frame; f < last_frame; ++f) {
    for (const auto& [stream, mask] : streams) {
      const numerics::Vector frame = fx.frame(stream, f);
      router.push_frame(
          stream, numerics::ConstVectorView(frame.data(), frame.size()), 1,
          mask);
    }
  }
}

/// First live shard that has actually accepted frames (a meaningful chaos
/// victim); falls back to any live shard other than `skip`.
std::size_t pick_loaded_shard(dist::ShardRouter& router,
                              std::size_t skip = SIZE_MAX) {
  const dist::ClusterStats stats = router.stats();
  for (const auto& shard : stats.shards) {
    if (shard.shard == skip) continue;
    if (shard.alive && shard.engine.frames_submitted > 0) return shard.shard;
  }
  for (const auto& shard : stats.shards) {
    if (shard.shard != skip && shard.alive) return shard.shard;
  }
  return 0;
}

void expect_byte_identical(
    const std::map<std::uint64_t,
                   std::map<std::uint64_t, numerics::Vector>>& got,
    const std::map<std::uint64_t,
                   std::map<std::uint64_t, numerics::Vector>>& golden) {
  ASSERT_EQ(got.size(), golden.size());
  for (const auto& [stream, rows] : golden) {
    ASSERT_EQ(got.count(stream), 1u) << "stream " << stream << " missing";
    const auto& got_rows = got.at(stream);
    ASSERT_EQ(got_rows.size(), rows.size()) << "stream " << stream;
    for (const auto& [seq, row] : rows) {
      ASSERT_EQ(got_rows.count(seq), 1u)
          << "stream " << stream << " seq " << seq << " dropped";
      const numerics::Vector& got_row = got_rows.at(seq);
      ASSERT_EQ(got_row.size(), row.size());
      EXPECT_EQ(std::memcmp(got_row.data(), row.data(),
                            row.size() * sizeof(double)),
                0)
          << "stream " << stream << " seq " << seq << " differs";
    }
  }
}

TEST(DistRouter, TwoShardsMatchSingleProcessGoldenByteForByte) {
  const Fixture fx;
  constexpr std::size_t kBatch = 8;
  constexpr std::size_t kFrames = 40;
  std::vector<std::pair<std::uint64_t, core::SensorBitmask>> streams;
  for (std::uint64_t s = 0; s < 5; ++s) {
    core::SensorBitmask mask;  // streams 0/1/2 full, 3/4 degraded
    if (s >= 3) {
      mask = core::SensorBitmask::except(fx.sensors.size(),
                                         {s % fx.sensors.size()});
    }
    streams.emplace_back(s, mask);
  }

  Collector collector;
  dist::ShardRouter router(test_router_options(2, kBatch),
                           collector.callback());
  router.register_model(1, fx.rec.model());
  for (std::size_t f = 0; f < kFrames; ++f) {
    for (const auto& [stream, mask] : streams) {
      const numerics::Vector frame = fx.frame(stream, f);
      router.push_frame(
          stream, numerics::ConstVectorView(frame.data(), frame.size()), 1,
          mask);
    }
  }
  router.drain();

  const auto golden = golden_run(fx, kBatch, streams, kFrames);
  {
    std::lock_guard<std::mutex> lock(collector.mutex);
    EXPECT_FALSE(collector.order_violated);
    expect_byte_identical(collector.rows, golden);
  }

  const dist::ClusterStats stats = router.stats();
  EXPECT_EQ(stats.router.frames_routed, streams.size() * kFrames);
  EXPECT_EQ(stats.router.results_delivered, streams.size() * kFrames);
  EXPECT_EQ(stats.router.shard_failures, 0u);
  EXPECT_EQ(stats.aggregate.frames_completed, streams.size() * kFrames);
  EXPECT_GT(stats.aggregate.latency.total, 0u);
  // Both shards carried traffic (5 streams over 2 shards, 16 vnodes each).
  std::size_t loaded = 0;
  for (const auto& shard : stats.shards) {
    if (shard.engine.frames_completed > 0) ++loaded;
  }
  EXPECT_GE(loaded, 1u);
}

/// Restores the process-global tracer to the off state when a traced test
/// scope ends (and clears whatever its rings still hold).
struct ScopedTracing {
  ScopedTracing() {
    obs::drain_spans();
    obs::set_tracing(true);
  }
  ~ScopedTracing() {
    obs::set_tracing(false);
    obs::drain_spans();
  }
};

TEST(DistRouter, TracedRunStitchesSpansAcrossRouterAndShards) {
  // The cross-process acceptance story (DESIGN.md §15): with tracing on,
  // a frame pushed through the 2-shard router yields ingest → queue-wait →
  // solve → deliver spans from whichever worker served it, and route,
  // expand and ack spans from the router process (shards ship
  // coefficients; the router expands at delivery), all stitched by
  // (stream, global seq) — gap-free over every pushed frame and ordered
  // by the shared monotonic clock.
  const Fixture fx;
  constexpr std::size_t kBatch = 8;
  constexpr std::uint64_t kFrames = 32;
  constexpr std::uint64_t kStreams = 3;
  ScopedTracing tracing;

  std::vector<obs::SpanRecord> spans;
  Collector collector;
  {
    dist::ShardRouter router(test_router_options(2, kBatch),
                             collector.callback());
    router.register_model(1, fx.rec.model());
    for (std::uint64_t f = 0; f < kFrames; ++f) {
      for (std::uint64_t stream = 0; stream < kStreams; ++stream) {
        const numerics::Vector frame = fx.frame(stream, f);
        router.push_frame(
            stream, numerics::ConstVectorView(frame.data(), frame.size()),
            1);
      }
    }
    router.drain();
    spans = router.drain_trace();
  }

  // Interval helper: the [seq, seq + frames) spans of one (stream, stage)
  // must tile [0, kFrames) without a gap.
  const auto coverage = [&](std::uint64_t stream, obs::Stage stage,
                            bool router_side) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
    for (const obs::SpanRecord& span : spans) {
      if (span.stream != stream ||
          span.stage != static_cast<std::uint8_t>(stage)) {
        continue;
      }
      EXPECT_GE(span.end_ns, span.start_ns);
      // Router-side spans carry the router pseudo-shard; engine-side spans
      // carry the worker shard that actually served the frame.
      if (router_side) {
        EXPECT_EQ(span.shard, obs::kRouterShard);
      } else {
        EXPECT_NE(span.shard, obs::kRouterShard);
        EXPECT_LT(span.shard, 2u);
      }
      iv.emplace_back(span.seq, span.seq + span.frames);
    }
    ASSERT_FALSE(iv.empty())
        << "stream " << stream << " has no " << obs::stage_name(stage)
        << " spans";
    std::sort(iv.begin(), iv.end());
    std::uint64_t next = 0;
    for (const auto& [begin, end] : iv) {
      EXPECT_LE(begin, next)
          << "stream " << stream << " " << obs::stage_name(stage)
          << ": gap before seq " << begin;
      next = std::max(next, end);
    }
    EXPECT_EQ(next, kFrames)
        << "stream " << stream << " " << obs::stage_name(stage);
  };
  for (std::uint64_t stream = 0; stream < kStreams; ++stream) {
    coverage(stream, obs::Stage::kRoute, true);
    coverage(stream, obs::Stage::kAck, true);
    coverage(stream, obs::Stage::kIngest, false);
    coverage(stream, obs::Stage::kQueueWait, false);
    coverage(stream, obs::Stage::kSolve, false);
    coverage(stream, obs::Stage::kExpand, true);
    coverage(stream, obs::Stage::kDeliver, false);
  }

  // Per-stream lifecycle order on the first frame, across the process
  // boundary: CLOCK_MONOTONIC is machine-wide, so the worker-side chain
  // must start no earlier than the router's route span, advance through
  // the engine stages in order, and hand over to the router's expansion,
  // which runs inside its ack.
  for (std::uint64_t stream = 0; stream < kStreams; ++stream) {
    const auto first_span = [&](obs::Stage stage) {
      const obs::SpanRecord* found = nullptr;
      for (const obs::SpanRecord& span : spans) {
        if (span.stream != stream || span.seq != 0 ||
            span.stage != static_cast<std::uint8_t>(stage)) {
          continue;
        }
        if (found == nullptr || span.start_ns < found->start_ns) {
          found = &span;
        }
      }
      EXPECT_NE(found, nullptr);
      return found;
    };
    const obs::SpanRecord* route = first_span(obs::Stage::kRoute);
    const obs::SpanRecord* ingest = first_span(obs::Stage::kIngest);
    const obs::SpanRecord* queue = first_span(obs::Stage::kQueueWait);
    const obs::SpanRecord* solve = first_span(obs::Stage::kSolve);
    const obs::SpanRecord* expand = first_span(obs::Stage::kExpand);
    const obs::SpanRecord* deliver = first_span(obs::Stage::kDeliver);
    const obs::SpanRecord* ack = first_span(obs::Stage::kAck);
    ASSERT_TRUE(route && ingest && queue && solve && expand && deliver &&
                ack);
    // The ingest span starts at the router's push timestamp (the origin
    // rides the wire), so the cross-process hop is inside it.
    EXPECT_EQ(ingest->start_ns, route->start_ns);
    EXPECT_LE(ingest->start_ns, queue->start_ns);
    EXPECT_LE(queue->start_ns, solve->start_ns);
    EXPECT_LE(solve->start_ns, deliver->start_ns);
    EXPECT_LE(deliver->start_ns, expand->start_ns);
    EXPECT_LE(ack->start_ns, expand->start_ns);
    EXPECT_LE(expand->end_ns, ack->end_ns);
    // The worker that owns the stream solved it; the router expanded it.
    EXPECT_EQ(solve->shard, deliver->shard);
    EXPECT_EQ(expand->shard, obs::kRouterShard);
  }

  // The same spans render as loadable Chrome trace JSON, one process per
  // shard plus the router.
  const std::string path =
      testing::TempDir() + "/dist_traced_run_trace.json";
  std::remove(path.c_str());
  obs::append_chrome_trace(path, spans);
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string text;
  char chunk[4096];
  std::size_t n;
  while ((n = std::fread(chunk, 1, sizeof chunk, f)) > 0) {
    text.append(chunk, n);
  }
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(text.substr(0, 2), "[\n");
  for (const char* name : {"\"ingest\"", "\"queue_wait\"", "\"solve\"",
                           "\"expand\"", "\"deliver\"", "\"route\"",
                           "\"ack\""}) {
    EXPECT_NE(text.find(name), std::string::npos) << name;
  }
  EXPECT_NE(text.find("\"args\":{\"name\":\"router\"}"), std::string::npos);
  EXPECT_NE(text.find("\"args\":{\"name\":\"shard "), std::string::npos);

  // Untraced control: with tracing off, the same run records nothing.
  obs::set_tracing(false);
  {
    Collector quiet;
    dist::ShardRouter router(test_router_options(2, kBatch),
                             quiet.callback());
    router.register_model(1, fx.rec.model());
    const numerics::Vector frame = fx.frame(9, 0);
    for (std::uint64_t f = 0; f < kBatch; ++f) {
      router.push_frame(
          9, numerics::ConstVectorView(frame.data(), frame.size()), 1);
    }
    router.drain();
    EXPECT_TRUE(router.drain_trace().empty());
  }
}

TEST(DistRouter, ProducerSideValidationFailsFast) {
  const Fixture fx;
  Collector collector;
  dist::ShardRouter router(test_router_options(2, 8), collector.callback());
  const numerics::Vector frame = fx.frame(0, 0);
  const numerics::ConstVectorView view(frame.data(), frame.size());

  // Unknown model: rejected before anything crosses the wire.
  EXPECT_THROW(router.push_frame(0, view, 99), std::invalid_argument);

  router.register_model(1, fx.rec.model());
  // Wrong frame width.
  EXPECT_THROW(router.push_frame(0, numerics::ConstVectorView(frame.data(),
                                                              frame.size() -
                                                                  1),
                                 1),
               std::invalid_argument);
  // Infeasible mask (fewer active sensors than the model order).
  core::SensorBitmask mask(fx.sensors.size(), false);
  for (std::size_t i = 0; i < 3; ++i) mask.set(i, true);
  EXPECT_THROW(router.push_frame(0, view, 1, mask), std::invalid_argument);

  // The cluster still serves after the rejects.
  router.push_frame(0, view, 1);
  router.drain();
  std::lock_guard<std::mutex> lock(collector.mutex);
  EXPECT_EQ(collector.rows[0].size(), 1u);
}

TEST(DistRouter, InvalidOptionsRejectedLoudlyAtConstruction) {
  Collector collector;
  const auto expect_rejected = [&](dist::RouterOptions options) {
    EXPECT_THROW(dist::ShardRouter(std::move(options), collector.callback()),
                 std::invalid_argument);
  };
  auto base = [] { return test_router_options(2, 8); };

  {
    auto o = base();
    o.shard_count = 0;
    expect_rejected(std::move(o));
  }
  {
    auto o = base();
    o.worker_binary.clear();
    expect_rejected(std::move(o));
  }
  {
    auto o = base();
    o.replay_capacity = 0;
    expect_rejected(std::move(o));
  }
  {
    auto o = base();
    o.heartbeat_interval_ms = 0;
    expect_rejected(std::move(o));
  }
  {
    auto o = base();
    o.heartbeat_timeout_ms = -1;
    expect_rejected(std::move(o));
  }
  {
    auto o = base();
    o.connect_timeout_ms = 0;
    expect_rejected(std::move(o));
  }
  {
    // Respawn enabled with a non-positive backoff would spin-respawn.
    auto o = base();
    o.respawn_max_attempts = 2;
    o.respawn_backoff_ms = 0;
    expect_rejected(std::move(o));
  }
}

TEST(DistRouter, ChaosKillOneShardRespawnsAndLosesNothing) {
  const Fixture fx;
  constexpr std::size_t kBatch = 8;
  constexpr std::size_t kWave = 36;
  std::vector<std::pair<std::uint64_t, core::SensorBitmask>> streams;
  for (std::uint64_t s = 0; s < 8; ++s) {
    core::SensorBitmask mask;
    if (s % 3 == 2) {
      mask = core::SensorBitmask::except(fx.sensors.size(),
                                         {s % fx.sensors.size()});
    }
    streams.emplace_back(s, mask);
  }

  Collector collector;
  dist::RouterOptions options = test_router_options(3, kBatch);
  options.respawn_max_attempts = 3;  // self-healing on
  options.respawn_backoff_ms = 10;
  dist::ShardRouter router(std::move(options), collector.callback());
  router.register_model(1, fx.rec.model());

  // Wave 1: open-loop load; a third of the way in, SIGKILL a shard that is
  // actually carrying streams, while frames for it are still in flight.
  std::size_t victim = 0;
  for (std::size_t f = 0; f < kWave; ++f) {
    if (f == kWave / 3) {
      victim = pick_loaded_shard(router);
      router.kill_shard(victim);
    }
    for (const auto& [stream, mask] : streams) {
      const numerics::Vector frame = fx.frame(stream, f);
      router.push_frame(
          stream, numerics::ConstVectorView(frame.data(), frame.size()), 1,
          mask);
    }
  }
  router.drain();

  // Self-healing: the supervisor respawns the victim, re-teaches it the
  // model, and re-inserts it into the ring. Wait on the monotonic respawn
  // counter — alive_count alone could read 3 before the death is noticed.
  ASSERT_TRUE(wait_until([&] {
    return router.stats().router.workers_respawned >= 1 &&
           router.alive_count() == 3;
  })) << "victim never rejoined";

  // Wave 2 lands on the restored ring — the rejoined shard carries its
  // migrated-back streams again.
  push_wave(router, fx, streams, kWave, 2 * kWave);
  router.drain();

  // Zero dropped, duplicated, or out-of-order frames across kill AND
  // rejoin, byte-compared against the single-process golden run.
  const auto golden = golden_run(fx, kBatch, streams, 2 * kWave);
  {
    std::lock_guard<std::mutex> lock(collector.mutex);
    EXPECT_FALSE(collector.order_violated);
    expect_byte_identical(collector.rows, golden);
  }

  const dist::ClusterStats stats = router.stats();
  EXPECT_EQ(router.alive_count(), 3u);
  EXPECT_EQ(stats.router.shard_failures, 1u);
  EXPECT_EQ(stats.router.workers_respawned, 1u);
  EXPECT_EQ(stats.router.respawns_abandoned, 0u);
  EXPECT_GE(stats.router.streams_rehashed, 1u);
  EXPECT_GE(stats.router.streams_migrated_back, 1u);
  EXPECT_EQ(stats.router.results_delivered, streams.size() * 2 * kWave);
  // The rejoined shard is live and served wave-2 traffic (its pre-kill
  // streams hash back to it on the restored ring).
  bool victim_back = false;
  for (const auto& shard : stats.shards) {
    if (shard.shard == victim) {
      victim_back = shard.alive && shard.engine.frames_submitted > 0;
    }
  }
  EXPECT_TRUE(victim_back);
}

TEST(DistRouter, ChaosDoubleFailureBackToBackLosesNothing) {
  const Fixture fx;
  constexpr std::size_t kBatch = 8;
  constexpr std::size_t kFrames = 36;
  std::vector<std::pair<std::uint64_t, core::SensorBitmask>> streams;
  for (std::uint64_t s = 0; s < 10; ++s) {
    streams.emplace_back(s, core::SensorBitmask());
  }

  Collector collector;
  dist::ShardRouter router(test_router_options(4, kBatch),
                           collector.callback());
  router.register_model(1, fx.rec.model());

  // Kill two loaded shards back-to-back mid-traffic: the second failure
  // lands while the first one's rehash/replay may still be in flight, so
  // streams can hop victim-1 -> victim-2 -> survivor.
  for (std::size_t f = 0; f < kFrames; ++f) {
    if (f == kFrames / 3) {
      const std::size_t first = pick_loaded_shard(router);
      router.kill_shard(first);
      const std::size_t second = pick_loaded_shard(router, first);
      router.kill_shard(second);
    }
    for (const auto& [stream, mask] : streams) {
      const numerics::Vector frame = fx.frame(stream, f);
      router.push_frame(
          stream, numerics::ConstVectorView(frame.data(), frame.size()), 1,
          mask);
    }
  }
  router.drain();

  // An idle victim's EOF can lag the drain; wait for both deaths to be
  // booked before asserting on the counters.
  ASSERT_TRUE(wait_until([&] {
    return router.stats().router.shard_failures >= 2;
  })) << "second failure never noticed";

  const auto golden = golden_run(fx, kBatch, streams, kFrames);
  {
    std::lock_guard<std::mutex> lock(collector.mutex);
    EXPECT_FALSE(collector.order_violated);
    expect_byte_identical(collector.rows, golden);
  }

  const dist::ClusterStats stats = router.stats();
  EXPECT_EQ(router.alive_count(), 2u);
  EXPECT_EQ(stats.router.shard_failures, 2u);
  EXPECT_EQ(stats.router.results_delivered, streams.size() * kFrames);
}

TEST(DistRouter, ChaosKillRespawnKillAgainLosesNothing) {
  const Fixture fx;
  constexpr std::size_t kBatch = 8;
  constexpr std::size_t kWave = 12;
  std::vector<std::pair<std::uint64_t, core::SensorBitmask>> streams;
  for (std::uint64_t s = 0; s < 8; ++s) {
    streams.emplace_back(s, core::SensorBitmask());
  }

  Collector collector;
  dist::RouterOptions options = test_router_options(3, kBatch);
  options.respawn_max_attempts = 3;
  options.respawn_backoff_ms = 10;
  dist::ShardRouter router(std::move(options), collector.callback());
  router.register_model(1, fx.rec.model());

  // Wave 1, then kill a loaded shard; its streams fail over.
  push_wave(router, fx, streams, 0, kWave);
  const std::size_t victim = pick_loaded_shard(router);
  router.kill_shard(victim);
  // Wave 2 rides through failover and (eventually) migrate-back. Wait on
  // the monotonic respawn counter, not alive_count — the latter still
  // reads 3 until the death is even noticed.
  push_wave(router, fx, streams, kWave, 2 * kWave);
  ASSERT_TRUE(wait_until([&] {
    return router.stats().router.workers_respawned >= 1 &&
           router.alive_count() == 3;
  })) << "first rejoin never happened";

  // Kill the SAME slot again — its second life. The streams that just
  // migrated back now fail over a second time, exercising the rebase
  // re-anchor on a survivor that has already served them once.
  router.kill_shard(victim);
  push_wave(router, fx, streams, 2 * kWave, 3 * kWave);
  ASSERT_TRUE(wait_until([&] {
    return router.stats().router.workers_respawned >= 2 &&
           router.alive_count() == 3;
  })) << "second rejoin never happened";
  push_wave(router, fx, streams, 3 * kWave, 4 * kWave);
  router.drain();

  const auto golden = golden_run(fx, kBatch, streams, 4 * kWave);
  {
    std::lock_guard<std::mutex> lock(collector.mutex);
    EXPECT_FALSE(collector.order_violated);
    expect_byte_identical(collector.rows, golden);
  }

  const dist::ClusterStats stats = router.stats();
  EXPECT_EQ(router.alive_count(), 3u);
  EXPECT_EQ(stats.router.shard_failures, 2u);
  EXPECT_EQ(stats.router.workers_respawned, 2u);
  EXPECT_EQ(stats.router.respawns_abandoned, 0u);
  EXPECT_EQ(stats.router.results_delivered, streams.size() * 4 * kWave);
}

TEST(DistRouter, SingleShardFullOutageParksFramesUntilRespawn) {
  const Fixture fx;
  constexpr std::size_t kBatch = 4;
  constexpr std::size_t kWave = 8;
  std::vector<std::pair<std::uint64_t, core::SensorBitmask>> streams;
  for (std::uint64_t s = 0; s < 4; ++s) {
    streams.emplace_back(s, core::SensorBitmask());
  }

  Collector collector;
  dist::RouterOptions options = test_router_options(1, kBatch);
  options.respawn_max_attempts = 3;
  options.respawn_backoff_ms = 10;
  dist::ShardRouter router(std::move(options), collector.callback());
  router.register_model(1, fx.rec.model());

  // Route every stream once, then take down the only shard: a full
  // outage with a respawn pending.
  push_wave(router, fx, streams, 0, kWave);
  router.kill_shard(0);

  // Frames of already-routed streams are accepted during the outage —
  // they park in the replay log and replay once the worker rejoins.
  push_wave(router, fx, streams, kWave, 2 * kWave);

  // drain() must ride through the outage: wait for the rejoin, replay,
  // and only return once everything is delivered.
  router.drain();

  const auto golden = golden_run(fx, kBatch, streams, 2 * kWave);
  {
    std::lock_guard<std::mutex> lock(collector.mutex);
    EXPECT_FALSE(collector.order_violated);
    expect_byte_identical(collector.rows, golden);
  }

  const dist::ClusterStats stats = router.stats();
  EXPECT_EQ(router.alive_count(), 1u);
  EXPECT_EQ(stats.router.shard_failures, 1u);
  EXPECT_EQ(stats.router.workers_respawned, 1u);
  EXPECT_EQ(stats.router.results_delivered, streams.size() * 2 * kWave);
}

TEST(DistRouter, WorkerErrorOnRoutedFrameEscalatesToFailover) {
  // A worker that reports kWorkerError for an in-flight frame must be
  // treated as failed: before this fix the router only logged the error,
  // leaking the frame's replay slot — delivery was no longer exactly-once
  // and drain() hung forever on the never-acked frame. drain() returning
  // here IS the regression pin.
  ScopedEnv inject("EIGENMAPS_DIST_INJECT_ERROR_SHARD", "0");
  const Fixture fx;
  constexpr std::size_t kBatch = 4;
  constexpr std::size_t kFrames = 8;
  std::vector<std::pair<std::uint64_t, core::SensorBitmask>> streams;
  for (std::uint64_t s = 0; s < 12; ++s) {
    streams.emplace_back(s, core::SensorBitmask());
  }

  Collector collector;
  dist::ShardRouter router(test_router_options(3, kBatch),
                           collector.callback());
  router.register_model(1, fx.rec.model());
  push_wave(router, fx, streams, 0, kFrames);
  router.drain();  // would hang without the escalation fix

  const auto golden = golden_run(fx, kBatch, streams, kFrames);
  {
    std::lock_guard<std::mutex> lock(collector.mutex);
    EXPECT_FALSE(collector.order_violated);
    expect_byte_identical(collector.rows, golden);
  }

  const dist::ClusterStats stats = router.stats();
  EXPECT_GE(stats.router.worker_errors, 1u);  // the injection fired
  EXPECT_EQ(stats.router.shard_failures, 1u);
  EXPECT_EQ(router.alive_count(), 2u);
  EXPECT_EQ(stats.router.results_delivered, streams.size() * kFrames);
}

TEST(DistRouter, RespawnGivesUpAfterMaxAttempts) {
  // Flap detection: a worker that dies right after its hello on every
  // respawn must not be restarted forever. The die-file knob makes each
  // respawned life exit immediately; the initial lives come up fine
  // because the file does not exist yet.
  const std::string die_file =
      "/tmp/eigenmaps_die_" + std::to_string(::getpid());
  std::remove(die_file.c_str());
  ScopedEnv env("EIGENMAPS_DIST_DIE_FILE", die_file);

  const Fixture fx;
  constexpr std::size_t kBatch = 4;
  constexpr std::size_t kFrames = 8;
  std::vector<std::pair<std::uint64_t, core::SensorBitmask>> streams;
  for (std::uint64_t s = 0; s < 8; ++s) {
    streams.emplace_back(s, core::SensorBitmask());
  }

  Collector collector;
  dist::RouterOptions options = test_router_options(3, kBatch);
  options.respawn_max_attempts = 2;
  options.respawn_backoff_ms = 10;
  dist::ShardRouter router(std::move(options), collector.callback());
  router.register_model(1, fx.rec.model());
  push_wave(router, fx, streams, 0, kFrames / 2);

  // Arm the flap and kill a shard: every respawned life now exits right
  // after its hello, so the supervisor must burn its attempts and give up.
  FILE* flag = std::fopen(die_file.c_str(), "w");
  ASSERT_NE(flag, nullptr);
  std::fclose(flag);
  router.kill_shard(pick_loaded_shard(router));

  ASSERT_TRUE(wait_until([&] {
    return router.stats().router.respawns_abandoned >= 1;
  })) << "supervisor never gave up";

  // The slot stays abandoned and the cluster keeps serving on survivors.
  push_wave(router, fx, streams, kFrames / 2, kFrames);
  router.drain();
  std::remove(die_file.c_str());

  const auto golden = golden_run(fx, kBatch, streams, kFrames);
  {
    std::lock_guard<std::mutex> lock(collector.mutex);
    EXPECT_FALSE(collector.order_violated);
    expect_byte_identical(collector.rows, golden);
  }

  const dist::ClusterStats stats = router.stats();
  EXPECT_EQ(router.alive_count(), 2u);
  EXPECT_EQ(stats.router.respawns_abandoned, 1u);
  EXPECT_EQ(stats.router.workers_respawned, 0u);
  EXPECT_EQ(stats.router.results_delivered, streams.size() * kFrames);
}

TEST(DistRouter, HotSwapBroadcastReachesEveryShard) {
  const Fixture fx;
  Collector collector;
  dist::ShardRouter router(test_router_options(2, 4), collector.callback());
  const std::uint64_t v1 = router.register_model(1, fx.rec.model());

  // A different model under the same id: double the mean map.
  numerics::Vector shifted_mean(fx.basis.cell_count(), 80.0);
  core::Reconstructor swapped(fx.basis, 8, fx.sensors, shifted_mean);
  const std::uint64_t v2 = router.register_model(1, swapped.model());
  EXPECT_GT(v2, v1);

  // Every stream, whatever shard it hashes to, now serves the new model.
  for (std::uint64_t s = 0; s < 4; ++s) {
    const numerics::Vector frame = fx.frame(s, 0);
    router.push_frame(s, numerics::ConstVectorView(frame.data(),
                                                   frame.size()),
                      1);
  }
  router.drain();

  const numerics::Vector frame0 = fx.frame(0, 0);
  numerics::Matrix one(1, frame0.size());
  one.set_row(0, frame0);
  const numerics::Matrix expect = swapped.model()->reconstruct_batch(one);
  std::lock_guard<std::mutex> lock(collector.mutex);
  for (std::uint64_t s = 0; s < 4; ++s) {
    ASSERT_EQ(collector.rows[s].size(), 1u);
  }
  const numerics::Vector& got = collector.rows[0][0];
  EXPECT_EQ(std::memcmp(got.data(), expect.row_data(0),
                        got.size() * sizeof(double)),
            0);
}

TEST(DistRouter, Fp32AndDense64ModelsMatchInProcessServingByteForByte) {
  // Backend parity: the router expands with the registered model object
  // itself, so a routed fp32 model delivers fp32 expansions — byte-equal
  // to an in-process engine serving that same object — and a dense64
  // model dense64 ones. (Shards used to rebuild every model with the
  // environment's default backend, so routed fp32 silently served fp64.)
  const Fixture fx;
  constexpr std::size_t kBatch = 8;
  constexpr std::size_t kFrames = 24;
  core::ExpansionOptions fp32;
  fp32.backend = core::ExpansionBackend::kFp32;
  core::ExpansionOptions dense;
  const core::Reconstructor rec_fp32(fx.basis, 8, fx.sensors, fx.mean, fp32);
  const core::Reconstructor rec_dense(fx.basis, 8, fx.sensors, fx.mean,
                                      dense);
  std::vector<std::pair<std::uint64_t, core::SensorBitmask>> streams;
  for (std::uint64_t s = 0; s < 4; ++s) {
    streams.emplace_back(s, s == 3 ? core::SensorBitmask::except(
                                         fx.sensors.size(), {1})
                                   : core::SensorBitmask());
  }

  std::map<core::ExpansionBackend,
           std::map<std::uint64_t, std::map<std::uint64_t, numerics::Vector>>>
      served;
  for (const core::Reconstructor* rec : {&rec_fp32, &rec_dense}) {
    Collector collector;
    dist::ShardRouter router(test_router_options(2, kBatch),
                             collector.callback());
    router.register_model(1, rec->model());
    push_wave(router, fx, streams, 0, kFrames);
    router.drain();
    const auto golden =
        golden_run(fx, kBatch, streams, kFrames, rec->model());
    std::lock_guard<std::mutex> lock(collector.mutex);
    EXPECT_FALSE(collector.order_violated);
    expect_byte_identical(collector.rows, golden);
    served[rec->model()->expansion_backend()] = collector.rows;

    // The shards rebuilt the caller's backend (their gauges say so).
    const dist::ClusterStats stats = router.stats();
    EXPECT_EQ(stats.aggregate.models.at(1).expansion_backend,
              static_cast<std::uint32_t>(rec->model()->expansion_backend()));
  }
  // The two backends really differ somewhere, so the parity above is not
  // vacuous.
  bool differ = false;
  for (const auto& [stream, rows] : served[core::ExpansionBackend::kFp32]) {
    for (const auto& [seq, row] : rows) {
      const numerics::Vector& other =
          served[core::ExpansionBackend::kDense64].at(stream).at(seq);
      if (std::memcmp(row.data(), other.data(),
                      row.size() * sizeof(double)) != 0) {
        differ = true;
      }
    }
  }
  EXPECT_TRUE(differ);
}

TEST(DistRouter, HotSwapMidTrafficExpandsWithTheGenerationThatSolved) {
  // Generation labeling across a hot swap: shards still hold partial
  // batches bound to v1 when v2 is published, so frames pushed after the
  // swap are solved by v1 and must be expanded with v1 — v1 coefficients
  // through v2's basis would match neither reference. A second swap races
  // a live producer. Afterwards the superseded generations are freed.
  const Fixture fx;
  constexpr std::size_t kBatch = 8;
  constexpr std::uint64_t kStreams = 6;
  // Same sensors and order, different basis (sign-flipped columns) and a
  // mean that differs off the subspace (a checkerboard; an in-span shift
  // would be absorbed by the solve): every version solves to different
  // coefficients, expands through a different operator, and yields
  // different maps.
  const auto variant = [&](double sign, double checker) {
    numerics::Matrix vectors = fx.basis.vectors();
    for (double& v : vectors.storage()) v *= sign;
    const core::MatrixBasis basis{std::move(vectors)};
    numerics::Vector mean(fx.basis.cell_count());
    for (std::size_t i = 0; i < mean.size(); ++i) {
      mean[i] = 40.0 + 0.01 * static_cast<double>(i) +
                (((i / 12) + i) % 2 == 0 ? checker : -checker);
    }
    return std::make_shared<const core::ReconstructionModel>(
        basis, 8, fx.sensors, std::move(mean));
  };
  const std::vector<std::shared_ptr<const core::ReconstructionModel>>
      versions = {variant(1.0, 0.0), variant(-1.0, 3.0),
                  variant(1.0, -3.0)};

  Collector collector;
  dist::ShardRouter router(test_router_options(2, kBatch),
                           collector.callback());
  router.register_model(1, versions[0]);
  const auto push = [&](std::uint64_t first, std::uint64_t last) {
    for (std::uint64_t f = first; f < last; ++f) {
      for (std::uint64_t s = 0; s < kStreams; ++s) {
        const numerics::Vector frame = fx.frame(s, f);
        router.push_frame(
            s, numerics::ConstVectorView(frame.data(), frame.size()), 1);
      }
    }
  };
  push(0, 12);  // one full batch per stream, then 4 frames left pending
  router.register_model(1, versions[1]);
  EXPECT_GE(router.resident_generations(), 1u);
  push(12, 24);  // completes the v1-bound batches, then v2 batches
  std::atomic<bool> producing{true};
  std::thread producer([&] {
    push(24, 64);
    producing = false;
  });
  router.register_model(1, versions[2]);
  producer.join();
  router.drain();
  EXPECT_EQ(router.resident_generations(), 1u);

  // Per-frame references under every version (rows are independent of
  // the batch they were solved in).
  std::set<std::size_t> used;
  std::lock_guard<std::mutex> lock(collector.mutex);
  EXPECT_FALSE(collector.order_violated);
  for (std::uint64_t s = 0; s < kStreams; ++s) {
    ASSERT_EQ(collector.rows[s].size(), 64u) << "stream " << s;
    numerics::Matrix frames(64, fx.sensors.size());
    for (std::size_t f = 0; f < 64; ++f) frames.set_row(f, fx.frame(s, f));
    std::vector<numerics::Matrix> refs;
    for (const auto& model : versions) {
      refs.push_back(model->reconstruct_batch(frames));
    }
    for (std::size_t f = 0; f < 64; ++f) {
      const numerics::Vector& got = collector.rows[s].at(f);
      std::size_t matched = versions.size();
      std::size_t matches = 0;
      for (std::size_t v = 0; v < versions.size(); ++v) {
        if (std::memcmp(got.data(), refs[v].row_data(f),
                        got.size() * sizeof(double)) == 0) {
          matched = v;
          ++matches;
        }
      }
      ASSERT_EQ(matches, 1u)
          << "stream " << s << " frame " << f
          << " matches no version (expanded with the wrong generation) or "
             "the versions are indistinguishable";
      used.insert(matched);
      // Frames 12..15 joined batches bound to v1 before the first swap.
      if (f < 16) {
        EXPECT_EQ(matched, 0u) << "stream " << s << " frame " << f;
      }
    }
  }
  EXPECT_EQ(used.count(0), 1u);
  EXPECT_EQ(used.count(2), 1u);
}

/// A result the router cannot expand — wrong coefficient width or an
/// unknown generation, injected once into whichever shard answers first —
/// must down only that shard: its streams replay onto the survivor, the
/// slot respawns, and every frame is still delivered exactly once, in
/// order, byte-identical to in-process serving.
void run_bad_result_case(const char* mode) {
  const std::string path = "/tmp/eigenmaps_bad_result_" +
                           std::to_string(::getpid()) + "_" + mode;
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(mode, f);
    std::fclose(f);
  }
  ScopedEnv env("EIGENMAPS_DIST_BAD_RESULT_FILE", path);
  const Fixture fx;
  constexpr std::size_t kBatch = 4;
  constexpr std::size_t kFrames = 16;
  std::vector<std::pair<std::uint64_t, core::SensorBitmask>> streams;
  for (std::uint64_t s = 0; s < 6; ++s) {
    streams.emplace_back(s, core::SensorBitmask());
  }

  Collector collector;
  dist::RouterOptions options = test_router_options(2, kBatch);
  options.respawn_max_attempts = 3;
  options.respawn_backoff_ms = 10;
  dist::ShardRouter router(std::move(options), collector.callback());
  router.register_model(1, fx.rec.model());
  push_wave(router, fx, streams, 0, kFrames);
  router.drain();
  ASSERT_TRUE(wait_until([&] { return router.alive_count() == 2; }))
      << "the downed shard never respawned";
  // The worker that fired the fault unlinked the file.
  EXPECT_NE(::access(path.c_str(), F_OK), 0) << "the fault never fired";
  std::remove(path.c_str());

  const auto golden = golden_run(fx, kBatch, streams, kFrames);
  {
    std::lock_guard<std::mutex> lock(collector.mutex);
    EXPECT_FALSE(collector.order_violated);
    expect_byte_identical(collector.rows, golden);
  }
  const dist::ClusterStats stats = router.stats();
  EXPECT_EQ(stats.router.shard_failures, 1u);
  EXPECT_EQ(stats.router.workers_respawned, 1u);
  EXPECT_EQ(stats.router.results_delivered, streams.size() * kFrames);
}

TEST(DistRouter, ResultWithWrongOrderDownsOnlyThatShard) {
  run_bad_result_case("order");
}

TEST(DistRouter, ResultWithUnknownGenerationDownsOnlyThatShard) {
  run_bad_result_case("generation");
}

}  // namespace
