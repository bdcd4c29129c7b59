// The MPMC blocking channel — the BufferQueue FG places between every
// pair of consecutive pipeline stages, and the runtime's only channel.
// The token semantics, the Channel interface, and the SPSC ring the
// queue-hop benchmarks compare against live in core/channel.hpp.
// BufferQueue is legal for any topology: multiple producers, multiple
// consumers, replicas, recycle queues receiving pushes from every stage
// of a pipeline.
#pragma once

#include "core/channel.hpp"

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>

namespace fg {

/// MPMC blocking token queue.  capacity == 0 means unbounded (the default:
/// pipeline buffer pools already bound the number of circulating tokens);
/// a nonzero capacity additionally throttles how far ahead a producer may
/// run, which the ablation benches use.
class BufferQueue final : public Channel {
 public:
  explicit BufferQueue(std::size_t capacity = 0) : capacity_(capacity) {}

  ChannelKind kind() const noexcept override { return ChannelKind::kMpmc; }

  /// Blocking push.  Returns false — with the token *dropped* — once the
  /// queue has been aborted; a worker whose push fails must stop
  /// circulating buffers and unwind (the run is being torn down), never
  /// assume the token arrived.
  ///
  /// `depth_after`, when non-null, receives the occupancy right after
  /// the operation — observed under the lock we already hold, so the
  /// tracing layer's depth samples cost no extra acquisition.
  bool push(Token t, std::size_t* depth_after = nullptr) override {
    std::unique_lock<std::mutex> lock(mutex_);
    not_full_.wait(lock, [&] {
      return aborted_ || capacity_ == 0 || q_.size() < capacity_;
    });
    if (aborted_) return false;
    q_.push_back(t);
    ++pushes_;
    if (q_.size() > peak_) peak_ = q_.size();
    if (depth_after != nullptr) *depth_after = q_.size();
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Blocking pop; returns an abort token once the queue is aborted.
  Token pop(std::size_t* depth_after = nullptr) override {
    std::unique_lock<std::mutex> lock(mutex_);
    not_empty_.wait(lock, [&] { return aborted_ || !q_.empty(); });
    if (aborted_) return Token::abort();
    Token t = q_.front();
    q_.pop_front();
    ++pops_;
    if (depth_after != nullptr) *depth_after = q_.size();
    lock.unlock();
    // An unbounded queue never has push-side waiters — skip the wasted
    // notify on the hot path (bench_buffers measures the win).
    if (capacity_ != 0) not_full_.notify_one();
    return t;
  }

  /// Unconditionally enqueue `t`, ignoring capacity and abort state.
  /// Never blocks.  The runtime uses this during teardown to park
  /// buffers somewhere accountable after a regular push was refused.
  /// Counted in QueueStats::forced, not QueueStats::pushes, which by
  /// contract excludes post-abort pushes.
  void force_push(Token t) override {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      q_.push_back(t);
      ++forced_;
      if (q_.size() > peak_) peak_ = q_.size();
    }
    not_empty_.notify_one();
  }

  /// Visit every resident token (diagnostics; works even after abort,
  /// which leaves residents in place).  `fn` runs under the queue lock —
  /// keep it trivial.
  void for_each_resident(
      const std::function<void(const Token&)>& fn) const override {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Token& t : q_) fn(t);
  }

  /// Wake every waiter and make all subsequent operations no-ops that
  /// report abortion.  Used only for error unwinding.
  void abort() override {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      aborted_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  bool aborted() const override {
    std::lock_guard<std::mutex> lock(mutex_);
    return aborted_;
  }

  std::size_t size() const override {
    std::lock_guard<std::mutex> lock(mutex_);
    return q_.size();
  }

  /// Highest occupancy ever observed (for diagnostics/benches).
  std::size_t peak() const override {
    std::lock_guard<std::mutex> lock(mutex_);
    return peak_;
  }

  /// Snapshot of this queue's counters.
  QueueStats stats() const override {
    std::lock_guard<std::mutex> lock(mutex_);
    return QueueStats{capacity_, pushes_, pops_, peak_, forced_,
                      ChannelKind::kMpmc};
  }

  std::size_t capacity() const noexcept override { return capacity_; }

 private:
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<Token> q_;
  std::size_t capacity_;
  std::size_t peak_{0};
  std::uint64_t pushes_{0};
  std::uint64_t pops_{0};
  std::uint64_t forced_{0};
  bool aborted_{false};
};

}  // namespace fg
