// Bounded per-stream replay log: the router's half of exactly-once
// delivery. Every submitted frame is appended (readings, mask, model,
// global seq) before it is sent to a shard and erased only when the
// result covering its seq comes back. When a shard dies, the un-acked
// frames of its streams are exactly the ones that may have been lost —
// the router replays them, in seq order, to the stream's new owner
// (DESIGN.md §12).
#ifndef EIGENMAPS_DIST_REPLAY_LOG_H
#define EIGENMAPS_DIST_REPLAY_LOG_H

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <vector>

#include "core/factor_cache.h"
#include "numerics/matrix.h"
#include "runtime/registry.h"

namespace eigenmaps::dist {

/// One logged frame, exactly as it went over the wire (minus the encoding).
struct ReplayFrame {
  std::uint64_t seq = 0;  // router-assigned global per-stream sequence
  runtime::ModelId model = 0;
  /// The router generation of `model` current when the frame was pushed:
  /// while the frame is un-acked it pins that generation (and every later
  /// one of the model) in the router's expansion table.
  std::uint64_t generation = 0;
  core::SensorBitmask mask;
  numerics::Vector readings;
};

/// Thread-safe bounded log of un-acked frames, keyed by stream.
///
/// The bound is the router's back-pressure: acquire_slot() blocks while
/// the un-acked frame count (plus outstanding reservations) is at the
/// bound, so a slow or wedged shard stalls producers instead of growing
/// the log without limit. The two-step acquire_slot() / append() split is
/// deliberate: the capacity wait happens with NO stream lock held, so a
/// producer blocked on back-pressure can never deadlock the failure
/// handler that needs the stream's ingest lock to replay (and whose
/// replays are what free the capacity). fail() releases blocked
/// producers (shutdown path).
class ReplayLog {
 public:
  /// `max_frames` bounds total un-acked frames across all streams; must be
  /// positive (throws std::invalid_argument otherwise).
  explicit ReplayLog(std::size_t max_frames);

  /// Reserves capacity for one frame, blocking while the log is full.
  /// Returns false (without reserving) once fail() was called. Call with
  /// no locks held.
  bool acquire_slot();

  /// Logs one frame under `stream`, consuming one acquire_slot()
  /// reservation; never blocks. Frames of one stream must be appended in
  /// seq order (they are: the router assigns seqs under the stream's
  /// ingest lock). Returns false — logging nothing but still releasing
  /// the reservation — once fail() was called: a producer that won the
  /// capacity race against shutdown must not park a frame in a log nobody
  /// will ever replay.
  bool append(std::uint64_t stream, std::uint64_t seq,
              runtime::ModelId model, const core::SensorBitmask& mask,
              numerics::ConstVectorView readings,
              std::uint64_t generation = 0);

  /// Acknowledges every frame of `stream` with seq < `next_seq` (a result
  /// batch acks a contiguous prefix). Frees bound capacity.
  void ack_before(std::uint64_t stream, std::uint64_t next_seq);

  /// Copies the pending (un-acked) frames of `stream`, in seq order.
  std::vector<ReplayFrame> pending(std::uint64_t stream) const;

  /// Whether `stream` still holds an un-acked frame with exactly this seq.
  /// How the router tells a worker error on an in-flight routed frame
  /// (must escalate: its slot would otherwise leak) from one on a frame
  /// that was already delivered and acked.
  bool contains(std::uint64_t stream, std::uint64_t seq) const;

  /// Streams with at least one pending frame.
  std::vector<std::uint64_t> pending_streams() const;

  /// The oldest push generation among `model`'s un-acked frames, or
  /// UINT64_MAX when none is pending — a superseded generation older than
  /// this can no longer label a result.
  std::uint64_t oldest_generation(runtime::ModelId model) const;

  std::size_t size() const;

  /// Blocks until the log is empty (everything acked) or fail() is called.
  /// Returns whether it emptied.
  bool wait_idle();

  /// Poisons the log: blocked and future acquire_slot()s and append()s
  /// return false, blocked wait_idle()s return. Irreversible; the router's
  /// shutdown path (and the no-capacity-will-ever-return path: every shard
  /// dead with no respawn pending).
  void fail();

 private:
  const std::size_t max_frames_;
  mutable std::mutex mutex_;
  std::condition_variable space_;  // capacity freed or failed
  std::condition_variable idle_;   // emptied or failed
  std::map<std::uint64_t, std::deque<ReplayFrame>> streams_;
  // Un-acked frames per (model, push generation).
  std::map<std::pair<runtime::ModelId, std::uint64_t>, std::size_t> pins_;
  std::size_t total_ = 0;     // frames in the log
  std::size_t reserved_ = 0;  // slots acquired but not yet appended
  bool failed_ = false;
};

}  // namespace eigenmaps::dist

#endif  // EIGENMAPS_DIST_REPLAY_LOG_H
