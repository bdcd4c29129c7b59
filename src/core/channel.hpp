// The channel layer: the abstract token conduit FG places between
// consecutive pipeline stages, and its wait-free single-producer /
// single-consumer implementation.
//
// A stage conveys a buffer by pushing into the channel to its successor
// and accepts by popping the channel from its predecessor; an empty pop
// blocks the stage's thread, which is what lets other stages overlap
// work with high-latency operations.
//
// Channels carry *tokens*, not raw buffers, because the termination
// protocol needs two control messages besides data:
//   * caboose — "no more buffers will follow on this pipeline"; it is the
//     last token a pipeline sends through each queue and flushes the
//     stages downstream.
//   * close   — sent *backwards* into a source's recycle queue by a stage
//     that has determined its pipeline is done (e.g. a read stage at EOF).
//
// Two implementations exist:
//   * BufferQueue (core/queue.hpp) — the MPMC mutex/condvar queue, legal
//     for any topology; and
//   * SpscChannel (below) — a bounded wait-free ring, selected by the
//     plan layer only for queues it can prove have exactly one producer
//     worker and one consumer worker (replication and recycle queues
//     fall back to MPMC).
// Both preserve the same token semantics, QueueStats accounting
// (residents == pushes + forced - pops), depth sampling, and the
// for_each_resident teardown audit.
#pragma once

#include "core/buffer.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace fg {

/// What a token means.  kAbort is injected by the graph when a stage
/// throws, so that every blocked worker wakes up and unwinds instead of
/// hanging.
enum class TokenKind : std::uint8_t { kBuffer, kCaboose, kClose, kAbort };

/// One queue element: a kind, the pipeline it concerns, and (for kBuffer)
/// the buffer itself.
struct Token {
  TokenKind kind{TokenKind::kAbort};
  PipelineId pipeline{kNoPipeline};
  Buffer* buffer{nullptr};

  static Token of_buffer(Buffer* b) noexcept {
    return {TokenKind::kBuffer, b->pipeline(), b};
  }
  static Token caboose(PipelineId p) noexcept {
    return {TokenKind::kCaboose, p, nullptr};
  }
  static Token close(PipelineId p) noexcept {
    return {TokenKind::kClose, p, nullptr};
  }
  static Token abort() noexcept {
    return {TokenKind::kAbort, kNoPipeline, nullptr};
  }
};

/// Which implementation services a queue slot (recorded per queue in the
/// stats JSON so a bench artifact can never silently change substrate).
enum class ChannelKind : std::uint8_t { kMpmc, kSpsc };

const char* to_string(ChannelKind k) noexcept;

/// Counters one channel accumulates over a run; snapshot via
/// Channel::stats().  The instrumentation layer folds these into the
/// per-run JSON blob.
struct QueueStats {
  std::size_t capacity{0};      ///< 0 = unbounded
  std::uint64_t pushes{0};      ///< tokens accepted (post-abort pushes excluded)
  std::uint64_t pops{0};        ///< tokens delivered
  std::size_t peak{0};          ///< high-water occupancy
  /// Tokens parked via force_push during teardown.  Kept out of `pushes`
  /// so the pushes/pops reconciliation stays meaningful: residents ==
  /// pushes + forced - pops.
  std::uint64_t forced{0};
  ChannelKind kind{ChannelKind::kMpmc};  ///< which implementation ran it
};

/// Abstract stage-to-stage token conduit.  All implementations share the
/// blocking contract of the original BufferQueue:
///   * push() blocks while full, returns false — token *dropped* — once
///     aborted; a worker whose push fails must stop circulating buffers;
///   * pop() blocks while empty and returns an abort token once aborted;
///   * force_push() never blocks and ignores abort (teardown parking);
///   * abort() wakes every waiter and poisons all subsequent ops.
class Channel {
 public:
  virtual ~Channel() = default;

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  virtual ChannelKind kind() const noexcept = 0;

  /// Blocking push.  `depth_after`, when non-null, receives the occupancy
  /// right after the operation, so the tracing layer's depth samples cost
  /// no extra acquisition.
  virtual bool push(Token t, std::size_t* depth_after = nullptr) = 0;

  /// Blocking pop; returns an abort token once the channel is aborted.
  virtual Token pop(std::size_t* depth_after = nullptr) = 0;

  /// Unconditionally enqueue `t`, ignoring capacity and abort state.
  /// Never blocks.  The runtime uses this during teardown to park
  /// buffers somewhere accountable after a regular push was refused.
  /// Counted in QueueStats::forced, not QueueStats::pushes, which by
  /// contract excludes post-abort pushes.
  virtual void force_push(Token t) = 0;

  /// Visit every resident token (diagnostics; works even after abort,
  /// which leaves residents in place).  `fn` may run under the channel's
  /// lock — keep it trivial.
  virtual void for_each_resident(
      const std::function<void(const Token&)>& fn) const = 0;

  /// Wake every waiter and make all subsequent operations no-ops that
  /// report abortion.  Used only for error unwinding.
  virtual void abort() = 0;
  virtual bool aborted() const = 0;

  virtual std::size_t size() const = 0;
  /// Highest occupancy ever observed (for diagnostics/benches).
  virtual std::size_t peak() const = 0;
  /// Snapshot of this channel's counters.
  virtual QueueStats stats() const = 0;
  /// The *declared* capacity (0 = unbounded), i.e. the plan's throttling
  /// limit — not the size of any backing ring.
  virtual std::size_t capacity() const noexcept = 0;

 protected:
  Channel() = default;
};

/// Bounded wait-free SPSC ring (the FastFlow-style stage hop).
///
/// Exactly one producer worker may push and exactly one consumer worker
/// may pop — the plan layer proves this before selecting
/// the channel.  The hot path is two atomic word accesses per operation:
/// head/tail live on separate cache lines, and each side keeps a cached
/// copy of the opposite index so an uncontended push or pop reads only
/// its own line.  Blocking spins briefly, then registers in a sleeper
/// count and parks on an edge version word via `std::atomic::wait`; the
/// other side notifies only when a sleeper is registered, so steady-state
/// streaming makes no syscalls and takes no locks.
///
/// `bound` is the provable maximum number of simultaneously-resident
/// tokens (the plan sums member pools + cabooses); `declared_capacity`
/// is the user-facing throttle (0 = unbounded).  When the declared
/// capacity is 0 the producer can never actually fill the ring, so the
/// full edge is dead code and pops skip its bookkeeping entirely.
///
/// force_push may be called by *any* thread during teardown; those tokens
/// go to a mutex-guarded overflow side-list (never the ring, which is
/// single-producer), are counted in `forced`, and show up in size() and
/// for_each_resident() like any resident.
class SpscChannel final : public Channel {
 public:
  SpscChannel(std::size_t bound, std::size_t declared_capacity)
      : declared_(declared_capacity) {
    limit_ = declared_capacity == 0
                 ? (bound == 0 ? 1 : bound)
                 : std::min(declared_capacity, bound == 0 ? declared_capacity
                                                          : bound);
    if (limit_ == 0) limit_ = 1;
    // Can the producer ever block?  Only when the declared capacity
    // throttles below the provable resident bound (or the bound is
    // unknown, as in direct unit-test construction).
    bounded_ = declared_capacity != 0 && (bound == 0 || declared_capacity < bound);
    std::size_t cap = 1;
    while (cap < limit_) cap <<= 1;
    ring_.resize(cap);
    mask_ = cap - 1;
  }

  ChannelKind kind() const noexcept override { return ChannelKind::kSpsc; }

  bool push(Token t, std::size_t* depth_after = nullptr) override {
    for (;;) {
      PushResult r = push_once(t, depth_after);
      if (r == PushResult::kAccepted) return true;
      if (r == PushResult::kAborted) return false;
      // Full edge.  Spin first (skipped on single-core machines): a
      // streaming consumer frees a slot within nanoseconds, and staying
      // out of the futex keeps its pops free of notify work (it only
      // notifies a registered sleeper).
      for (int i = spin_iters(); i > 0; --i) {
        spin_pause();
        r = push_once(t, depth_after);
        if (r == PushResult::kAccepted) return true;
        if (r == PushResult::kAborted) return false;
      }
      // Register as the sleeper, then re-check.  The version word is read
      // *before* registration; the flag exchange is a full barrier, so
      // either the consumer's pop sees our registration (and bumps the
      // version, making wait() return) or our re-read of head sees its
      // pop (and we do not sleep).
      const std::uint32_t seen = nonfull_ver_.load(std::memory_order_seq_cst);
      full_waiters_.exchange(1, std::memory_order_seq_cst);
      cached_head_ = head_.load(std::memory_order_acquire);
      const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
      if (!aborted_.load(std::memory_order_acquire) &&
          tail - cached_head_ >= limit_) {
        nonfull_ver_.wait(seen);
      }
      full_waiters_.store(0, std::memory_order_release);
      if (aborted_.load(std::memory_order_acquire)) return false;
    }
  }

  Token pop(std::size_t* depth_after = nullptr) override {
    for (;;) {
      // Abort wins over residual tokens, exactly like the MPMC queue:
      // the residents stay in place for the teardown audit.
      if (aborted_.load(std::memory_order_acquire)) return Token::abort();
      Token t;
      if (try_pop_ring(t, depth_after)) return t;
      // Empty edge.  Spin first — see push() for why.
      for (int i = spin_iters(); i > 0; --i) {
        spin_pause();
        if (aborted_.load(std::memory_order_acquire)) return Token::abort();
        if (try_pop_ring(t, depth_after)) return t;
      }
      // Register as the sleeper, then re-check; same protocol as push().
      const std::uint32_t seen = nonempty_ver_.load(std::memory_order_seq_cst);
      empty_waiters_.exchange(1, std::memory_order_seq_cst);
      const std::uint64_t head = head_.load(std::memory_order_relaxed);
      cached_tail_ = tail_.load(std::memory_order_acquire);
      if (!aborted_.load(std::memory_order_acquire) && head == cached_tail_) {
        nonempty_ver_.wait(seen);
      }
      empty_waiters_.store(0, std::memory_order_release);
    }
  }

  void force_push(Token t) override {
    {
      std::lock_guard<std::mutex> lock(overflow_mutex_);
      overflow_.push_back(t);
    }
    forced_.fetch_add(1, std::memory_order_relaxed);
    nonempty_ver_.fetch_add(1, std::memory_order_seq_cst);
    nonempty_ver_.notify_all();
  }

  void for_each_resident(
      const std::function<void(const Token&)>& fn) const override {
    // Racy-by-design like any stall diagnostic: the audit runs either
    // after the join (quiescent) or from the watchdog during a stall
    // (both sides blocked, their published indices stable).
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    for (std::uint64_t i = head; i != tail; ++i) fn(ring_[i & mask_]);
    std::lock_guard<std::mutex> lock(overflow_mutex_);
    for (const Token& t : overflow_) fn(t);
  }

  void abort() override {
    aborted_.store(true, std::memory_order_seq_cst);
    nonempty_ver_.fetch_add(1, std::memory_order_seq_cst);
    nonfull_ver_.fetch_add(1, std::memory_order_seq_cst);
    nonempty_ver_.notify_all();
    nonfull_ver_.notify_all();
  }

  bool aborted() const override {
    return aborted_.load(std::memory_order_acquire);
  }

  std::size_t size() const override {
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    std::size_t n = static_cast<std::size_t>(tail - head);
    std::lock_guard<std::mutex> lock(overflow_mutex_);
    return n + overflow_.size();
  }

  std::size_t peak() const override {
    return peak_.load(std::memory_order_relaxed);
  }

  QueueStats stats() const override {
    QueueStats s;
    s.capacity = declared_;
    s.pushes = pushes_.load(std::memory_order_relaxed);
    s.pops = pops_.load(std::memory_order_relaxed);
    s.peak = peak_.load(std::memory_order_relaxed);
    s.forced = forced_.load(std::memory_order_relaxed);
    s.kind = ChannelKind::kSpsc;
    return s;
  }

  std::size_t capacity() const noexcept override { return declared_; }

  /// The ring's occupancy limit (declared capacity clamped to the provable
  /// bound); exposed for the plan tests.
  std::size_t ring_limit() const noexcept { return limit_; }

 private:
  enum class PushResult : std::uint8_t { kAccepted, kFull, kAborted };

  /// One push attempt: kFull instead of waiting on the full edge.
  PushResult push_once(Token t, std::size_t* depth_after) {
    if (aborted_.load(std::memory_order_acquire))
      return PushResult::kAborted;
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - cached_head_ >= limit_) {
      cached_head_ = head_.load(std::memory_order_acquire);
      if (tail - cached_head_ >= limit_) return PushResult::kFull;
    }
    ring_[tail & mask_] = t;
    tail_.store(tail + 1, std::memory_order_release);
    // Single-writer counter: a plain store avoids a locked RMW per push.
    pushes_.store(pushes_.load(std::memory_order_relaxed) + 1,
                  std::memory_order_relaxed);
    // Empty-edge wakeup.  The seq_cst fence pairs with the consumer's
    // sleeper registration in pop(): either we see it registered (and
    // notify), or its post-registration tail load sees this push (and it
    // does not sleep) — the classic store/load race is excluded.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    const std::size_t depth = static_cast<std::size_t>(tail + 1 - head);
    if (depth > peak_.load(std::memory_order_relaxed))
      peak_.store(depth, std::memory_order_relaxed);
    if (depth_after != nullptr) *depth_after = depth;
    // Claiming the flag with exchange makes the wakeup once-per-sleep:
    // a woken consumer that has not been scheduled yet (single-core
    // machines) does not cost a futex syscall on every further push.
    if (empty_waiters_.load(std::memory_order_relaxed) != 0 &&
        empty_waiters_.exchange(0, std::memory_order_seq_cst) != 0) {
      nonempty_ver_.fetch_add(1, std::memory_order_seq_cst);
      nonempty_ver_.notify_one();
    }
    return PushResult::kAccepted;
  }

  bool try_pop_ring(Token& out, std::size_t* depth_after) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    if (head == cached_tail_) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      if (head == cached_tail_) return false;
    }
    out = ring_[head & mask_];
    head_.store(head + 1, std::memory_order_release);
    // Single-writer counter, like pushes_ on the producer side.
    pops_.store(pops_.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
    if (depth_after != nullptr)
      *depth_after = static_cast<std::size_t>(cached_tail_ - head - 1);
    // Full-edge wakeup, only when a producer can actually block (declared
    // capacity below the provable bound) AND one is registered asleep.
    // The fence pairs with push()'s sleeper registration: either we see
    // the registration (and notify), or its post-registration head load
    // sees our pop (and it does not sleep).
    if (bounded_) {
      std::atomic_thread_fence(std::memory_order_seq_cst);
      if (full_waiters_.load(std::memory_order_relaxed) != 0 &&
          full_waiters_.exchange(0, std::memory_order_seq_cst) != 0) {
        nonfull_ver_.fetch_add(1, std::memory_order_seq_cst);
        nonfull_ver_.notify_one();
      }
    }
    return true;
  }

  std::size_t declared_;       ///< user-facing capacity (0 = unbounded)
  std::size_t limit_{1};       ///< ring occupancy limit
  bool bounded_{false};        ///< can the producer ever block?
  std::size_t mask_{0};
  std::vector<Token> ring_;

  alignas(64) std::atomic<std::uint64_t> head_{0};  ///< consumer side
  alignas(64) std::uint64_t cached_tail_{0};        ///< consumer's tail cache
  alignas(64) std::atomic<std::uint64_t> tail_{0};  ///< producer side
  alignas(64) std::uint64_t cached_head_{0};        ///< producer's head cache

  // How long a blocked side spins (with a CPU pause per iteration) before
  // registering as a futex sleeper.  Streaming traffic makes the other
  // side's sleeper check a pure cache hit; only a genuinely idle peer
  // pays for the syscall path.  On a single-core machine spinning can
  // only burn the peer's timeslice, so go straight to the futex.
  static int spin_iters() noexcept {
    static const int n = std::thread::hardware_concurrency() > 1 ? 512 : 0;
    return n;
  }

  static void spin_pause() noexcept {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#else
    std::this_thread::yield();
#endif
  }

  alignas(64) std::atomic<std::uint32_t> nonempty_ver_{0};
  std::atomic<std::uint32_t> nonfull_ver_{0};
  std::atomic<std::uint32_t> empty_waiters_{0};
  std::atomic<std::uint32_t> full_waiters_{0};
  std::atomic<bool> aborted_{false};

  std::atomic<std::uint64_t> pushes_{0};
  std::atomic<std::uint64_t> pops_{0};
  std::atomic<std::uint64_t> forced_{0};
  std::atomic<std::size_t> peak_{0};

  mutable std::mutex overflow_mutex_;
  std::deque<Token> overflow_;  ///< force_push parking (teardown only)
};

}  // namespace fg
