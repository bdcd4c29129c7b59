// The runtime layer: executes one ExecutionPlan.
//
// A GraphRuntime is single-use: it instantiates *fresh* queues and buffer
// pools from the plan, spawns one thread per planned worker (plus
// replicas), runs the source/sink/map/custom loops to completion, and
// joins.  PipelineGraph::run() creates a new runtime per call — that is
// what makes graphs rerunnable: the plan is cached and immutable, all
// mutable state lives here.
//
// Error handling: if any stage throws, the runtime aborts every queue so
// all workers unwind promptly, returns in-flight buffers to their source
// queues (best effort — an aborted queue drops the push, but the pool
// still owns every buffer), and rethrows the first exception from run().
//
// Instrumentation: the loops feed StageStats unconditionally.  When an
// obs::Session is attached, each worker thread additionally writes
// begin/end spans into a private lock-free ring (stage work, accept- and
// convey-waits, queue-depth samples), the sink records round latencies,
// and the rings are merged after the join for Chrome-trace export — the
// hot path touches no lock and allocates nothing.
#pragma once

#include "core/plan.hpp"
#include "core/queue.hpp"
#include "core/stage_stats.hpp"
#include "util/budget.hpp"
#include "util/latency.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace fg::obs {
class Counter;
class Gauge;
class Histogram;
class Session;
class SpanCollector;
}  // namespace fg::obs

namespace fg {

/// Thrown out of run() when the stall watchdog trips: no worker made any
/// queue progress for the configured window.  The message is the full
/// diagnostic — which queue each blocked worker is waiting on, plus the
/// buffer audit — so a wedged pipeline aborts with an explanation instead
/// of deadlocking silently.
struct PipelineStalled : std::runtime_error {
  explicit PipelineStalled(const std::string& report)
      : std::runtime_error(report) {}
};

/// Where one pipeline's buffers are after a run: `pool` were allocated,
/// `in_queues` rest in some queue (the source's recycle queue, normally),
/// `never_emitted` never left the pool.  accounted() == pool means every
/// buffer is safely at rest — the abort-path tests assert this.
struct BufferAudit {
  std::size_t pool{0};
  std::size_t in_queues{0};
  std::size_t never_emitted{0};
  std::size_t parked{0};  ///< retired by the source after its caboose
  std::size_t accounted() const noexcept {
    return in_queues + never_emitted + parked;
  }
};

/// Channel selection policy.  kAuto lets the plan's analysis pick the
/// wait-free SPSC ring where it proved eligibility; kMpmcOnly forces the
/// blocking MPMC queue everywhere (the conformance/ablation setting).
/// kAuto also honours FG_CHANNELS=mpmc from the environment.
enum class ChannelPolicy : std::uint8_t { kAuto, kMpmcOnly };

/// Resolve kAuto against the environment (FG_CHANNELS).
ChannelPolicy resolve_channels(ChannelPolicy p) noexcept;

/// Per-run options, set on PipelineGraph before run().
struct RuntimeOptions {
  ChannelPolicy channels{ChannelPolicy::kAuto};
  /// Buffer-pool byte budget (util/budget.hpp).  When set, every run
  /// charges its pools' full allocation (primary + auxiliary blocks)
  /// against the budget at runtime construction and releases it at
  /// teardown; an overdrawn charge throws util::QuotaExceeded before any
  /// worker thread exists.  This is fgserve's per-job memory quota hook:
  /// all graphs a job builds share the job's budget.  Null = no quota.
  util::ByteBudget* pool_budget{nullptr};
};

class GraphRuntime {
 public:
  /// Materialize channels and pools for `plan`.  The plan must outlive
  /// the runtime; `obs` may be null.  With a session attached the run
  /// contributes spans and metrics to it (see class comment).  `options`
  /// picks the channel policy (kAuto resolves from the environment) and
  /// the pool budget.
  explicit GraphRuntime(const ExecutionPlan& plan, obs::Session* obs = nullptr,
                        RuntimeOptions options = {});
  ~GraphRuntime();

  GraphRuntime(const GraphRuntime&) = delete;
  GraphRuntime& operator=(const GraphRuntime&) = delete;

  /// Spawn workers, execute to completion, join, rethrow the first stage
  /// exception.  Single-use.
  void run();

  /// Arm the stall watchdog: if no worker completes a queue operation for
  /// `window`, the run aborts with PipelineStalled.  Zero (the default)
  /// disables it.  Must be called before run().  Pick a window comfortably
  /// above the longest single stage operation (including modeled I/O).
  void set_watchdog(util::Duration window) noexcept {
    watchdog_window_ = window;
  }

  /// Extra teardown invoked if the watchdog trips, after the queues are
  /// aborted.  Drivers whose stages block in external substrates (the
  /// communication fabric) register an unblocking call here so a stalled
  /// run can actually unwind.
  void set_abort_hook(std::function<void()> hook) {
    abort_hook_ = std::move(hook);
  }

  /// Per-worker timing statistics (labelled from the plan).
  std::vector<StageStats> stats() const;

  /// Per-queue counters, indexed like the plan's queue table.
  std::vector<QueueStats> queue_stats() const;

  /// Per-pipeline buffer whereabouts; meaningful after run() returns or
  /// throws.
  std::vector<BufferAudit> audit_buffers() const;

  double wall_seconds() const noexcept { return wall_seconds_; }

 private:
  struct RunWorker;
  class Context;

  void worker_entry(RunWorker* w);
  void source_loop(RunWorker& w);
  void sink_loop(RunWorker& w);
  void map_loop(RunWorker& w);
  void map_loop_replicated(RunWorker& w);
  void custom_loop(RunWorker& w);

  Channel* source_in(PipelineId pid) const {
    return queues_[plan_->source_in(pid)].get();
  }
  void record_error(std::exception_ptr e);
  void abort_all();
  void park_token(RunWorker& w, Token t);

  /// Queue ops routed through these wrappers publish which queue the
  /// worker is blocked on (for the stall report) and bump the progress
  /// counter the watchdog monitors.
  Token traced_pop(RunWorker& w, Channel* q);
  bool traced_push(RunWorker& w, Channel* q, Token t);
  void watchdog_loop();
  std::string stall_report() const;

  const ExecutionPlan* plan_;
  obs::Session* obs_{nullptr};

  // Observability handles, resolved once at construction (the registry
  // lookup takes a mutex; the hot paths below only dereference).  All
  // null/empty when no session is attached.
  obs::SpanCollector* spans_{nullptr};
  obs::Counter* rounds_counter_{nullptr};
  obs::Histogram* round_latency_{nullptr};
  std::vector<obs::Gauge*> queue_gauges_;  // indexed like queues_

  std::vector<std::unique_ptr<Channel>> queues_;
  // Declared before pools_: the reservation is released only after the
  // buffers it paid for are gone.  (Order is cosmetic — the budget is a
  // counter — but it keeps the accounting story straight.)
  util::BudgetReservation pool_reservation_;
  std::vector<std::vector<std::unique_ptr<Buffer>>> pools_;  // by pipeline
  std::vector<std::unique_ptr<RunWorker>> workers_;
  std::unordered_map<const Channel*, std::uint32_t> queue_index_;

  std::mutex err_mutex_;
  std::exception_ptr first_error_;
  bool ran_{false};
  double wall_seconds_{0.0};

  // Stall watchdog state.
  util::Duration watchdog_window_{util::Duration::zero()};
  std::function<void()> abort_hook_;
  std::atomic<std::uint64_t> progress_{0};
  std::thread watchdog_thread_;
  std::mutex wd_mutex_;
  std::condition_variable wd_cv_;
  bool wd_stop_{false};
};

}  // namespace fg
