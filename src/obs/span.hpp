// Span records and the per-thread ring they are written into.
//
// The whole point of this layer is to measure overlap without perturbing
// it: one shared, locked log would funnel every worker through one mutex,
// which serializes exactly the threads whose concurrency we want to
// observe.  Here each OS thread owns a fixed-size SpanRing; emission is a
// handful of stores into preallocated memory — no lock, no allocation,
// no atomics.  Rings are handed out by an obs::SpanCollector (cold path)
// and read back only after the writing threads have joined, so the
// join's happens-before edge is the only synchronization needed.
//
// Substrate code (pdm::Disk, comm::Fabric) cannot see the pipeline
// runtime, so the current thread's ring is published through a
// thread_local pointer; a ScopedSpan emits into whatever ring is
// ambient, and degrades to a no-op (one TLS load and a branch) when
// tracing is off.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/timer.hpp"

namespace fg::obs {

enum class SpanKind : std::uint8_t {
  kStageWork,         ///< one buffer inside a stage body; value = round
  kAcceptWait,        ///< blocked popping the inbound queue; value = round
  kConveyWait,        ///< blocked pushing the outbound queue; value = round
  kRound,             ///< source emit → sink receipt; value = round
  kDiskRead,          ///< value = bytes, scope = node
  kDiskWrite,         ///< value = bytes, scope = node
  kDiskRetry,         ///< backoff sleep after a transient fault; scope = node
  kFabricSend,        ///< value = bytes, scope = sending node
  kFabricRecv,        ///< value = bytes, scope = receiving node
  kFabricCollective,  ///< barrier/broadcast/alltoall/...; scope = node
  kQueueDepth,        ///< instant sample; scope = queue index, value = depth
};

/// Short stable name used as the Chrome-trace event name.
const char* to_string(SpanKind k) noexcept;

/// One closed interval on one thread's timeline.  32 bytes; times are
/// nanoseconds relative to the owning collector's epoch.
struct SpanRecord {
  std::uint64_t begin_ns;
  std::uint64_t end_ns;
  std::uint64_t value;  ///< kind-defined: round id, bytes, or depth
  std::uint32_t scope;  ///< kind-defined: pipeline, node, or queue index
  SpanKind kind;
};

/// Fixed-capacity single-writer span buffer.  Acts as a flight recorder:
/// when full, new records overwrite the oldest and the overwritten count
/// is reported as `dropped`.  Exactly one thread may call emit(); the
/// collector reads the ring only after that thread has joined, so no
/// field needs to be atomic.
class SpanRing {
 public:
  SpanRing(std::string name, std::size_t capacity, util::TimePoint epoch)
      : name_(std::move(name)), epoch_(epoch) {
    std::size_t cap = 1;
    while (cap < capacity) cap <<= 1;
    buf_.resize(cap);
    mask_ = cap - 1;
  }

  SpanRing(const SpanRing&) = delete;
  SpanRing& operator=(const SpanRing&) = delete;

  /// Hot path: wall-clock conversions plus four stores.
  void emit(SpanKind kind, std::uint32_t scope, std::uint64_t value,
            util::TimePoint begin, util::TimePoint end) noexcept {
    SpanRecord& r = buf_[head_ & mask_];
    r.begin_ns = ns_since_epoch(begin);
    r.end_ns = ns_since_epoch(end);
    r.value = value;
    r.scope = scope;
    r.kind = kind;
    ++head_;
  }

  /// Instantaneous sample (counter track): begin == end.
  void sample(SpanKind kind, std::uint32_t scope, std::uint64_t value,
              util::TimePoint at) noexcept {
    emit(kind, scope, value, at, at);
  }

  const std::string& name() const noexcept { return name_; }
  std::size_t capacity() const noexcept { return buf_.size(); }
  std::uint64_t emitted() const noexcept { return head_; }
  std::uint64_t dropped() const noexcept {
    return head_ > buf_.size() ? head_ - buf_.size() : 0;
  }

  /// Surviving records, oldest first.  Only valid once the writing
  /// thread has joined.
  std::vector<SpanRecord> drain() const {
    std::vector<SpanRecord> out;
    const std::uint64_t n = head_ > buf_.size() ? buf_.size() : head_;
    out.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = head_ - n; i != head_; ++i)
      out.push_back(buf_[i & mask_]);
    return out;
  }

 private:
  std::uint64_t ns_since_epoch(util::TimePoint t) const noexcept {
    const auto d = t - epoch_;
    if (d.count() <= 0) return 0;
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
  }

  std::string name_;
  util::TimePoint epoch_;
  std::vector<SpanRecord> buf_;
  std::size_t mask_{0};
  std::uint64_t head_{0};  // total records ever emitted
};

namespace detail {
/// Ring ambient on the current thread; null when tracing is off.
inline thread_local SpanRing* t_ring = nullptr;
}  // namespace detail

inline SpanRing* current_ring() noexcept { return detail::t_ring; }

/// RAII: publish `ring` as the current thread's span sink for the
/// enclosing scope (a worker loop, a node main).  Restores the previous
/// value on exit so nested runtimes compose.
class RingScope {
 public:
  explicit RingScope(SpanRing* ring) noexcept : prev_(detail::t_ring) {
    detail::t_ring = ring;
  }
  ~RingScope() { detail::t_ring = prev_; }
  RingScope(const RingScope&) = delete;
  RingScope& operator=(const RingScope&) = delete;

 private:
  SpanRing* prev_;
};

/// RAII span over the enclosing scope, emitted into the ambient ring.
/// When no ring is ambient this is one TLS load and a branch — cheap
/// enough to leave in the substrate unconditionally.
class ScopedSpan {
 public:
  ScopedSpan(SpanKind kind, std::uint32_t scope,
             std::uint64_t value = 0) noexcept
      : ring_(detail::t_ring), kind_(kind), scope_(scope), value_(value) {
    if (ring_ != nullptr) begin_ = util::Clock::now();
  }
  ~ScopedSpan() {
    if (ring_ != nullptr)
      ring_->emit(kind_, scope_, value_, begin_, util::Clock::now());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// For sizes known only after the operation (e.g. bytes received).
  void set_value(std::uint64_t v) noexcept { value_ = v; }

 private:
  SpanRing* ring_;
  util::TimePoint begin_{};
  SpanKind kind_;
  std::uint32_t scope_;
  std::uint64_t value_;
};

}  // namespace fg::obs
