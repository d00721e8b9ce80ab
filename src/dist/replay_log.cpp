#include "dist/replay_log.h"

#include <limits>
#include <stdexcept>

namespace eigenmaps::dist {

ReplayLog::ReplayLog(std::size_t max_frames) : max_frames_(max_frames) {
  if (max_frames == 0) {
    throw std::invalid_argument(
        "ReplayLog: max_frames must be positive (a zero-capacity log could "
        "never accept a frame)");
  }
}

bool ReplayLog::acquire_slot() {
  std::unique_lock<std::mutex> lock(mutex_);
  space_.wait(lock,
              [&] { return failed_ || total_ + reserved_ < max_frames_; });
  if (failed_) return false;
  ++reserved_;
  return true;
}

bool ReplayLog::append(std::uint64_t stream, std::uint64_t seq,
                       runtime::ModelId model,
                       const core::SensorBitmask& mask,
                       numerics::ConstVectorView readings,
                       std::uint64_t generation) {
  ReplayFrame frame;
  frame.seq = seq;
  frame.model = model;
  frame.generation = generation;
  frame.mask = mask;
  frame.readings.assign(readings.data(), readings.data() + readings.size());
  std::lock_guard<std::mutex> lock(mutex_);
  if (reserved_ > 0) --reserved_;
  if (failed_) {
    // The reservation is released either way; waking capacity waiters here
    // is moot (fail() already released them) but keeps the accounting exact.
    space_.notify_all();
    return false;
  }
  streams_[stream].push_back(std::move(frame));
  ++pins_[{model, generation}];
  ++total_;
  return true;
}

void ReplayLog::ack_before(std::uint64_t stream, std::uint64_t next_seq) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = streams_.find(stream);
  if (it == streams_.end()) return;
  auto& frames = it->second;
  std::size_t dropped = 0;
  while (!frames.empty() && frames.front().seq < next_seq) {
    const auto pin = pins_.find({frames.front().model,
                                 frames.front().generation});
    if (--pin->second == 0) pins_.erase(pin);
    frames.pop_front();
    ++dropped;
  }
  if (frames.empty()) streams_.erase(it);
  if (dropped > 0) {
    total_ -= dropped;
    space_.notify_all();
    if (total_ == 0) idle_.notify_all();
  }
}

std::vector<ReplayFrame> ReplayLog::pending(std::uint64_t stream) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = streams_.find(stream);
  if (it == streams_.end()) return {};
  return std::vector<ReplayFrame>(it->second.begin(), it->second.end());
}

bool ReplayLog::contains(std::uint64_t stream, std::uint64_t seq) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = streams_.find(stream);
  if (it == streams_.end()) return false;
  for (const auto& frame : it->second) {
    if (frame.seq == seq) return true;
    if (frame.seq > seq) break;  // deque is seq-sorted
  }
  return false;
}

std::vector<std::uint64_t> ReplayLog::pending_streams() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::uint64_t> out;
  out.reserve(streams_.size());
  for (const auto& entry : streams_) out.push_back(entry.first);
  return out;
}

std::uint64_t ReplayLog::oldest_generation(runtime::ModelId model) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = pins_.lower_bound({model, 0});
  if (it == pins_.end() || it->first.first != model) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  return it->first.second;
}

std::size_t ReplayLog::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_;
}

bool ReplayLog::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [&] { return failed_ || total_ == 0; });
  return total_ == 0;
}

void ReplayLog::fail() {
  std::lock_guard<std::mutex> lock(mutex_);
  failed_ = true;
  space_.notify_all();
  idle_.notify_all();
}

}  // namespace eigenmaps::dist
