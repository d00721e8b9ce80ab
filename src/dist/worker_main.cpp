// eigenmaps_shard_worker: one shard of the distributed serving cluster.
// Wraps a local ModelRegistry + ReconstructionEngine behind the shard
// protocol (DESIGN.md §12): connects back to the router's Unix socket,
// identifies itself with a hello, then serves register/retire, frame
// submit, flush, stats, drain, and shutdown messages while a background
// thread heartbeats.
//
// Exactly-once bookkeeping, worker side: the router assigns each frame a
// global per-stream seq, but the engine numbers frames locally from 0 per
// stream. The worker keeps per-stream base EPOCHS — (first_local, base)
// spans with global = base + local (modular uint64 arithmetic: base may
// "wrap negative" when a replay re-serves seqs below the push count) —
// and drops any frame whose seq it has already accepted: replay races
// send duplicates by design, and dropping them here by seq inspection is
// what keeps delivery exactly-once without any router/worker consensus.
// A rebase-flagged frame re-anchors the mapping unconditionally (opening
// a new epoch): the router sets it on the first frame after a stream
// reassignment, because a stream can leave this shard (migrate back to a
// respawned worker) and later return with seqs this worker never saw — a
// jump that is only a "gap" when unflagged. Results are labeled with the
// epoch their frames were PUSHED under, never the latest one: a replay
// race can re-anchor while earlier pushes are still queued in the engine,
// and relabeling those would make the router ack frames it never
// delivered.
//
// The engine here delivers coefficients, not maps: a worker only solves,
// and labels each result with the router-assigned generation of the model
// version that solved it (kept per local (id, version)), so the router can
// expand with its own copy of that exact model (protocol v5).
//
// Usage: eigenmaps_shard_worker <socket> <shard> <threads> <batch> <hb_ms>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <signal.h>
#include <unistd.h>

#include "dist/protocol.h"
#include "dist/transport.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "runtime/engine.h"
#include "runtime/registry.h"

namespace {

using namespace eigenmaps;

/// One span of the global<->local seq mapping: engine-locals >= first_local
/// (up to the next epoch) map to global = base + local (mod 2^64).
struct SeqEpoch {
  std::uint64_t first_local = 0;
  std::uint64_t base = 0;
};

struct StreamSeq {
  std::uint64_t expected = 0;  // next global seq this worker will accept
  std::uint64_t pushed = 0;    // frames of this stream pushed to the engine
  /// Base history, appended on every (re-)anchor. Results must be labeled
  /// with the base that was current when their frames were PUSHED, not
  /// when they are delivered: a replay race can re-anchor the mapping
  /// while earlier pushes are still queued inside the engine, and
  /// relabeling those in flight would ack frames the router never
  /// delivered. Spent epochs are pruned as deliveries pass them.
  std::deque<SeqEpoch> epochs;
};

std::uint64_t parse_u64(const char* text, const char* what) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') {
    std::fprintf(stderr, "eigenmaps_shard_worker: bad %s: %s\n", what, text);
    std::exit(2);
  }
  return value;
}

int worker_main(int argc, char** argv) {
  if (argc != 6) {
    std::fprintf(stderr,
                 "usage: eigenmaps_shard_worker <socket> <shard> <threads> "
                 "<batch> <heartbeat_ms>\n");
    return 2;
  }
  // The router may vanish at any moment; writes to a dead socket must
  // surface as kClosed, never as SIGPIPE.
  ::signal(SIGPIPE, SIG_IGN);

  const std::string socket_path = argv[1];
  const auto shard = static_cast<std::uint32_t>(parse_u64(argv[2], "shard"));
  const std::size_t threads = parse_u64(argv[3], "threads");
  const std::size_t batch = parse_u64(argv[4], "batch");
  const auto heartbeat_ms = static_cast<int>(parse_u64(argv[5], "hb_ms"));

  // Every span and event this process records carries the shard id — the
  // Chrome-trace pid and the (shard, index) event identity both key on it.
  obs::set_process_shard(static_cast<std::uint16_t>(shard));

  // Fault-injection knobs for the router's chaos tests — no effect unless
  // the environment sets them.
  //  - EIGENMAPS_DIST_INJECT_ERROR_SHARD=<shard>: this shard reports a
  //    kWorkerError for the first frame it would accept and then wedges
  //    (ignores further submits but keeps heartbeating) — the shape of a
  //    worker whose engine broke while its process stayed up.
  //  - EIGENMAPS_DIST_DIE_FILE=<path>: exit right after the hello when the
  //    file exists — the shape of a worker that flaps on every respawn.
  const char* inject_env = std::getenv("EIGENMAPS_DIST_INJECT_ERROR_SHARD");
  const bool inject_error =
      inject_env != nullptr && parse_u64(inject_env, "inject shard") == shard;
  const char* die_file = std::getenv("EIGENMAPS_DIST_DIE_FILE");
  //  - EIGENMAPS_DIST_BAD_RESULT_FILE=<path>: the first worker (of any
  //    shard, in any life) to send a result while the file exists deletes
  //    it and corrupts that one result — a wrong coefficient width when
  //    the file reads "order", an unknown model generation otherwise. The
  //    unlink makes the fault fire exactly once cluster-wide.
  std::string bad_result_path;
  bool bad_result_order = false;
  if (const char* path = std::getenv("EIGENMAPS_DIST_BAD_RESULT_FILE")) {
    if (std::FILE* f = std::fopen(path, "r")) {
      char mode[16] = {};
      const std::size_t n = std::fread(mode, 1, sizeof mode - 1, f);
      std::fclose(f);
      bad_result_path = path;
      bad_result_order = n >= 5 && std::strncmp(mode, "order", 5) == 0;
    }
  }
  std::atomic<bool> bad_result_armed{!bad_result_path.empty()};

  // Declared before the registry/engine: the engine's result callback
  // sends on this connection from worker threads, so the connection must
  // be destroyed last.
  dist::MessageConnection conn(dist::connect_unix(socket_path));
  {
    std::vector<std::uint8_t> payload;
    dist::HelloMsg hello;
    hello.shard = shard;
    dist::encode_hello(hello, payload);
    if (conn.send(dist::MessageType::kHello, payload) !=
        dist::RecvStatus::kOk) {
      return 1;
    }
  }
  if (die_file != nullptr && ::access(die_file, F_OK) == 0) {
    // After the hello, so the router's respawn supervisor sees a worker
    // that connects and then dies — the hardest flap shape to handle.
    return 3;
  }

  // Per-stream global<->local seq mapping, and the router generation of
  // every registered local (model id, version). The result callback reads
  // both on engine worker threads while the main loop writes them, hence
  // the mutex.
  std::mutex seq_mutex;
  std::map<std::uint64_t, StreamSeq> seqs;
  std::map<std::pair<runtime::ModelId, std::uint64_t>, std::uint64_t>
      generations;

  runtime::ModelRegistry registry;
  runtime::EngineOptions engine_options;
  engine_options.worker_count = threads == 0 ? 0 : threads;
  engine_options.batch_size = batch;
  runtime::ReconstructionEngine engine(
      registry, engine_options,
      [&](std::uint64_t stream, std::uint64_t first_local,
          const runtime::RegisteredModel& served,
          numerics::ConstMatrixView alpha) {
        // Label each row with the base of the epoch its frame was pushed
        // under. A batch can span a re-anchor (frames pushed before and
        // after), so it may have to go out as several result messages —
        // globals are only contiguous within one epoch.
        struct Segment {
          std::uint64_t first_global;
          std::size_t offset;
          std::size_t rows;
        };
        thread_local std::vector<Segment> segments;
        segments.clear();
        std::uint64_t generation = 0;  // 0: unknown to the router
        {
          std::lock_guard<std::mutex> lock(seq_mutex);
          const auto gen = generations.find({served.id, served.version});
          if (gen != generations.end()) generation = gen->second;
          std::deque<SeqEpoch>& epochs = seqs[stream].epochs;
          if (epochs.empty()) epochs.push_back({0, 0});  // unreachable guard
          // The engine delivers each stream's locals in order, so epochs
          // fully behind this batch are spent.
          while (epochs.size() > 1 && epochs[1].first_local <= first_local) {
            epochs.pop_front();
          }
          const std::uint64_t end_local = first_local + alpha.rows();
          std::uint64_t cursor = first_local;
          std::size_t e = 0;
          while (cursor < end_local) {
            const std::uint64_t epoch_end = e + 1 < epochs.size()
                                                ? epochs[e + 1].first_local
                                                : end_local;
            const std::uint64_t seg_end = std::min(epoch_end, end_local);
            segments.push_back(
                {epochs[e].base + cursor,
                 static_cast<std::size_t>(cursor - first_local),
                 static_cast<std::size_t>(seg_end - cursor)});
            cursor = seg_end;
            ++e;
          }
        }
        numerics::ConstMatrixView rows = alpha;
        if (bad_result_armed.load(std::memory_order_relaxed) &&
            bad_result_armed.exchange(false) &&
            ::unlink(bad_result_path.c_str()) == 0) {
          // Injected fault (see EIGENMAPS_DIST_BAD_RESULT_FILE above).
          if (bad_result_order) {
            rows = numerics::ConstMatrixView(alpha.row_data(0), alpha.rows(),
                                             alpha.cols() - 1,
                                             alpha.stride());
          } else {
            generation = ~std::uint64_t{0};
          }
        }
        thread_local std::vector<std::uint8_t> payload;
        for (const Segment& seg : segments) {
          dist::encode_result(stream, seg.first_global,
                              rows.rows_view(seg.offset, seg.rows), payload,
                              generation);
          // A failed send means the router is gone; the main recv loop
          // will see the same and exit.
          conn.send(dist::MessageType::kResult, payload);
        }
      });

  // Heartbeat thread: a liveness tick every interval until shutdown.
  std::mutex hb_mutex;
  std::condition_variable hb_cv;
  bool stopping = false;
  std::thread heartbeat([&] {
    std::uint64_t tick = 0;
    std::vector<std::uint8_t> payload;
    std::unique_lock<std::mutex> lock(hb_mutex);
    while (!stopping) {
      hb_cv.wait_for(lock, std::chrono::milliseconds(heartbeat_ms),
                     [&] { return stopping; });
      if (stopping) break;
      lock.unlock();
      dist::HeartbeatMsg msg;
      msg.tick = tick++;
      dist::encode_heartbeat(msg, payload);
      const auto status = conn.send(dist::MessageType::kHeartbeat, payload);
      lock.lock();
      if (status != dist::RecvStatus::kOk) break;  // router gone
    }
  });

  dist::MessageType type;
  std::vector<std::uint8_t> payload;    // recv buffer, reused
  std::vector<std::uint8_t> reply;      // send buffer, reused
  dist::SubmitFrameMsg frame;           // hot-path decode, buffers reused
  bool wedged = false;                  // injected-error mode tripped
  int exit_code = 0;
  for (;;) {
    dist::RecvStatus status;
    try {
      status = conn.recv(type, payload);
    } catch (const dist::ProtocolError& error) {
      obs::log(obs::LogLevel::kError, "worker", "protocol error: %s",
               error.what());
      exit_code = 1;
      break;
    }
    if (status != dist::RecvStatus::kOk) break;  // router closed: shut down

    // The payload decoders throw ProtocolError on truncated or corrupt
    // bytes; take the same clean log-and-exit path as a bad header rather
    // than letting the exception terminate the worker.
    try {
      if (type == dist::MessageType::kSubmitFrame) {
        if (wedged) continue;  // injected-error mode: black-hole submits
        dist::decode_submit_frame(payload.data(), payload.size(), frame);
        // The first traced frame turns span recording on for the whole
        // process (the router owns the decision; EIGENMAPS_TRACE_OUT never
        // reaches the worker's environment). Spans go back over
        // kTracePull.
        if (frame.traced && !obs::tracing_enabled()) obs::set_tracing(true);
        bool accept = false;
        bool fatal = false;
        std::uint64_t seq_base = 0;
        {
          std::lock_guard<std::mutex> lock(seq_mutex);
          auto [it, fresh] = seqs.try_emplace(frame.stream);
          StreamSeq& seq = it->second;
          if (fresh || frame.rebase) {
            // Anchor (or re-anchor) the global<->local mapping so the
            // NEXT engine push — local index == frames pushed so far —
            // maps to this global seq. On a fresh stream pushed is 0 and
            // this is the plain first-frame anchor; on a rebase it
            // realigns after the stream was away (or after a replay
            // re-serves seqs below the push count — modular arithmetic
            // keeps base + local exact either way). The new base opens a
            // new epoch from the next local onward; frames already pushed
            // keep their old epoch's labels (see the result callback).
            const std::uint64_t base = frame.seq - seq.pushed;
            if (seq.epochs.empty()) {
              seq.epochs.push_back({seq.pushed, base});
            } else if (seq.epochs.back().first_local == seq.pushed) {
              // No pushes since the last anchor: collapse instead of
              // stacking zero-width epochs.
              seq.epochs.back().base = base;
            } else if (seq.epochs.back().base != base) {
              seq.epochs.push_back({seq.pushed, base});
            }
            seq.expected = frame.seq;
          }
          if (frame.seq < seq.expected) {
            // Replay duplicate (the router replayed a frame a racing
            // producer had also sent). Dropping it is the exactly-once half
            // this side owns.
            accept = false;
          } else if (frame.seq > seq.expected) {
            // An unflagged jump is a router-side ordering bug: serving it
            // would mislabel every later frame of the stream. Report it
            // and exit — the engine destructor still drains and delivers
            // the correctly-mapped frames already pushed, and the router
            // re-serves the rest through the failure path.
            dist::WorkerErrorMsg error;
            error.stream = frame.stream;
            error.seq = frame.seq;
            error.text = "sequence gap: expected " +
                         std::to_string(seq.expected);
            dist::encode_worker_error(error, reply);
            conn.send(dist::MessageType::kWorkerError, reply);
            fatal = true;
          } else {
            seq.expected = frame.seq + 1;
            accept = true;
            // The engine numbers this stream's next frame `pushed`
            // locally; spans recorded under base + local stitch with the
            // router's spans for the same global seq (modular arithmetic,
            // same as the epoch bases).
            seq_base = frame.seq - seq.pushed;
          }
        }
        if (accept && inject_error) {
          // Report a serving error for the frame and wedge: the process
          // stays up and keeps heartbeating, but this frame (and all
          // later ones) will never be delivered — exactly the shape the
          // router's worker-error escalation must recover from.
          wedged = true;
          dist::WorkerErrorMsg report;
          report.stream = frame.stream;
          report.seq = frame.seq;
          report.text = "injected worker error";
          dist::encode_worker_error(report, reply);
          conn.send(dist::MessageType::kWorkerError, reply);
          continue;
        }
        if (accept) {
          try {
            // Carry the wire trace context into the engine push: an
            // untraced frame must also set the context (traced = false)
            // once tracing is on, or the engine would treat it as a
            // locally-produced frame and trace it anyway.
            if (obs::tracing_enabled()) {
              obs::FrameContext trace_ctx;
              trace_ctx.active = true;
              trace_ctx.traced = frame.traced;
              trace_ctx.origin_ns = frame.origin_ns;
              trace_ctx.seq_base = seq_base;
              obs::set_frame_context(trace_ctx);
            }
            engine.push_frame(
                frame.stream,
                numerics::ConstVectorView(frame.readings.data(),
                                          frame.readings.size()),
                frame.model, frame.mask);
            obs::clear_frame_context();
            std::lock_guard<std::mutex> lock(seq_mutex);
            ++seqs[frame.stream].pushed;
          } catch (const std::exception& error) {
            obs::clear_frame_context();
            // `expected` already advanced past a frame the engine never
            // took: continuing would shift the seq mapping of everything
            // after it. Report and exit instead — same recovery contract
            // as the gap above.
            dist::WorkerErrorMsg report;
            report.stream = frame.stream;
            report.seq = frame.seq;
            report.text = error.what();
            dist::encode_worker_error(report, reply);
            conn.send(dist::MessageType::kWorkerError, reply);
            fatal = true;
          }
        }
        if (fatal) {
          exit_code = 1;
          break;
        }
        continue;
      }

      switch (type) {
        case dist::MessageType::kRegisterModel: {
          dist::ModelAckMsg ack;
          try {
            const dist::RegisterModelMsg msg =
                dist::decode_register_model(payload.data(), payload.size());
            ack.model = msg.model;
            ack.version = registry.register_model(msg.model,
                                                  dist::build_model(msg));
            // Labeled before this loop pushes another frame, so no batch
            // can bind the new version ahead of its generation.
            std::lock_guard<std::mutex> lock(seq_mutex);
            generations[{msg.model, ack.version}] = msg.generation;
            ack.ok = true;
          } catch (const std::exception& error) {
            ack.ok = false;
            ack.error = error.what();
          }
          dist::encode_model_ack(ack, reply);
          conn.send(dist::MessageType::kModelAck, reply);
          break;
        }
        case dist::MessageType::kRetireModel: {
          const dist::RetireModelMsg msg =
              dist::decode_retire_model(payload.data(), payload.size());
          registry.unregister_model(msg.model);
          break;
        }
        case dist::MessageType::kFlushStream: {
          const dist::FlushStreamMsg msg =
              dist::decode_flush_stream(payload.data(), payload.size());
          engine.flush(msg.stream);
          break;
        }
        case dist::MessageType::kStatsPull: {
          dist::encode_engine_stats(engine.stats(), reply);
          conn.send(dist::MessageType::kStatsReply, reply);
          break;
        }
        case dist::MessageType::kTracePull: {
          dist::encode_trace_reply(obs::drain_spans(), reply);
          conn.send(dist::MessageType::kTraceReply, reply);
          break;
        }
        case dist::MessageType::kDrain: {
          const dist::DrainMsg msg =
              dist::decode_drain(payload.data(), payload.size());
          // drain() returns only after every result callback has completed,
          // i.e. every result is on the wire — socket ordering then puts the
          // done token after them all.
          engine.drain();
          {
            // Nothing is in flight now, so only the registered versions can
            // still solve a batch: forget every superseded generation.
            std::lock_guard<std::mutex> lock(seq_mutex);
            for (auto it = generations.begin(); it != generations.end();) {
              const auto entry = registry.resolve(it->first.first);
              if (!entry || entry->version != it->first.second) {
                it = generations.erase(it);
              } else {
                ++it;
              }
            }
          }
          dist::encode_drain_done(msg, reply);
          conn.send(dist::MessageType::kDrainDone, reply);
          break;
        }
        case dist::MessageType::kShutdown:
          goto done;
        default:
          obs::log(obs::LogLevel::kWarn, "worker",
                   "unexpected message type %u", static_cast<unsigned>(type));
          break;
      }
    } catch (const dist::ProtocolError& error) {
      obs::log(obs::LogLevel::kError, "worker", "protocol error: %s",
               error.what());
      exit_code = 1;
      break;
    }
  }
done:
  {
    std::lock_guard<std::mutex> lock(hb_mutex);
    stopping = true;
  }
  hb_cv.notify_all();
  heartbeat.join();
  // ~ReconstructionEngine drains and joins before `conn` dies.
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) { return worker_main(argc, argv); }
