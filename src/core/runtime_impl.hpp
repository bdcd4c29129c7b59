// Internal header shared by the runtime layer's translation units
// (runtime.cpp: construction, orchestration, reporting; runtime_loops.cpp:
// the worker loops).  Not installed, not part of the public API — include
// core/runtime.hpp instead.
#pragma once

#include "core/runtime.hpp"
#include "core/stage.hpp"
#include "obs/session.hpp"
#include "util/timer.hpp"

#include <deque>
#include <unordered_map>
#include <unordered_set>

namespace fg {

/// Thrown inside a custom stage's context when the graph aborts; caught
/// by the worker entry so error unwinding does not look like a stage
/// failure.
struct AbortSignal {};

inline util::Duration now_minus(util::TimePoint t0) {
  return util::Clock::now() - t0;
}

/// Per-run, per-worker mutable state: live queue pointers resolved from
/// the plan's indices, the worker's stats, its thread(s), and the
/// source/replica bookkeeping.
struct GraphRuntime::RunWorker {
  std::uint32_t index{0};
  const PlannedWorker* spec{nullptr};

  Channel* in{nullptr};  // all kinds except custom
  std::unordered_map<PipelineId, Channel*> in_by_pid;  // custom only
  std::unordered_map<PipelineId, Channel*> out;  // successor per pid

  StageStats stats;
  std::thread thread;
  std::vector<std::thread> extra_threads;

  // Diagnostic state for the stall watchdog: which queue this worker is
  // currently blocked on (kNoQueue when it is not inside a queue op) and
  // whether it is pushing or popping.  For replicated stages the replicas
  // share these, so the report names *a* blocked replica's queue.
  std::atomic<std::uint32_t> blocked_queue{kNoQueue};
  std::atomic<bool> blocked_push{false};

  struct SrcState {
    std::uint64_t target{0};  // 0 = until closed
    std::uint64_t emitted{0};
    // distinct/parked are read by audit_buffers() while the run is live
    // (the watchdog's stall report), hence atomic.
    std::atomic<std::uint64_t> distinct{0};  // buffers that ever left the pool
    std::atomic<std::uint64_t> parked{0};  // recycles retired after caboose
    bool caboose_sent{false};
  };
  std::unordered_map<PipelineId, SrcState> src;

  // Replicated map stages: `replicas` threads share this worker's queue
  // and this state.
  struct ReplShared {
    std::mutex mutex;
    std::condition_variable cv;
    /// Buffer tokens popped from the shared queue that have reached a
    /// terminal state (conveyed, recycled, or parked).  The caboose gate
    /// compares this against the queue's own pop count — which the queue
    /// bumps atomically with the pop, and which never counts synthesized
    /// abort tokens — so a buffer a sibling has popped but not yet
    /// registered anywhere still holds the caboose back.  (A counter the
    /// replicas bump *after* pop returns would leave a pop-to-register
    /// window the caboose could slip through.)
    std::uint64_t resolved{0};
    std::unordered_map<PipelineId, bool> closed;
    std::size_t active{0};
    bool initialized{false};
  } repl;
};

/// The StageContext handed to custom stages.  Tracks every buffer the
/// stage currently references (accepted-but-not-released, or stashed for
/// a pipeline it has not drained) so unwinding can return them all.
class GraphRuntime::Context final : public StageContext {
 public:
  Context(GraphRuntime& rt, RunWorker& w) : rt_(rt), w_(w) {}

  Buffer* accept(const Pipeline& p) override { return accept_pid(p.id()); }

  Buffer* accept() override {
    if (w_.spec->members.size() != 1) {
      throw std::logic_error(
          "fg::StageContext::accept(): stage '" + w_.spec->stage->name() +
          "' belongs to several pipelines; name the pipeline to accept from");
    }
    return accept_pid(w_.spec->members.front());
  }

  void convey(Buffer* b) override;
  void recycle(Buffer* b) override;
  void close(const Pipeline& p) override;

  bool exhausted(const Pipeline& p) const override {
    return exhausted_.count(p.id()) != 0 && stash_count(p.id()) == 0;
  }

  /// Return every buffer this context still references to its source, so
  /// an unwind strands nothing.
  void park_outstanding();

 private:
  std::size_t stash_count(PipelineId pid) const {
    auto it = stash_.find(pid);
    return it == stash_.end() ? 0 : it->second.size();
  }

  Buffer* accept_pid(PipelineId pid);

  GraphRuntime& rt_;
  RunWorker& w_;
  // Captured at construction, which happens on the worker's own thread
  // after worker_entry published its ring; null when tracing is off.
  obs::SpanRing* const ring_ = obs::current_ring();
  std::unordered_map<PipelineId, std::deque<Buffer*>> stash_;
  std::unordered_set<PipelineId> exhausted_;
  std::unordered_set<Buffer*> held_;
};

}  // namespace fg
