// PipelineGraph assembles and executes a set of FG pipelines on one node.
//
// The graph is a thin facade over two layers:
//
//  * plan     (core/plan.hpp)    — ExecutionPlan freezes the pipelines,
//                                  merges virtual groups, validates the
//                                  wiring, and lays out the worker/queue
//                                  topology as immutable data;
//  * runtime  (core/runtime.hpp) — GraphRuntime materializes fresh queues
//                                  and buffer pools from the plan, spawns
//                                  and joins the worker threads, feeds
//                                  StageStats and obs spans, and handles
//                                  abort/unwind.
//
// RunStats, declared here, is the JSON stats export of one run.
//
// The graph detects the three pipeline relationships the paper describes:
//
//  * disjoint pipelines       — no shared stage objects; each runs its own
//                               source, sink, pool, and stage threads;
//  * intersecting pipelines   — a custom stage object added to several
//                               pipelines becomes the *common stage*: one
//                               thread, accepting buffers from named
//                               member pipelines;
//  * virtual pipelines        — a MapStage added to several pipelines with
//                               StageMode::kVirtual: one thread and one
//                               shared inbound queue serve all copies, and
//                               the member pipelines' sources and sinks
//                               are automatically virtualized (merged)
//                               too, so hundreds of pipelines do not
//                               create hundreds of threads.
//
// run() blocks until every pipeline has terminated (fixed round count
// reached, or closed by a stage).  If any stage throws, the runtime aborts
// all queues so every worker unwinds, then run() rethrows the first
// exception.  Graphs are *rerunnable*: each run() executes the cached
// plan on a fresh runtime (new queues, new pools, stats reset), so a
// server can replay the same heavy topology without rebuilding it.
#pragma once

#include "core/pipeline.hpp"
#include "core/plan.hpp"
#include "core/queue.hpp"
#include "core/runtime.hpp"
#include "core/stage.hpp"
#include "core/stage_stats.hpp"
#include "util/retry.hpp"
#include "util/trace.hpp"

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace fg {

/// Everything one completed run reports: per-worker StageStats, per-queue
/// counters, and the run's wall time.  Reset at the start of every run of
/// a rerunnable graph.
struct RunStats {
  std::vector<StageStats> stages;
  std::vector<QueueStats> queues;
  double wall_seconds{0.0};
  std::size_t runs_completed{0};  ///< how many times the graph has run

  // Fault/recovery counters.  The runtime itself does not fill these —
  // the program that owns the disks and the fault injector aggregates them
  // (see fgsort) so one blob describes the whole run.
  util::RetryStats disk_retries;
  std::uint64_t faults_injected{0};

  /// Emit as one JSON object: {"wall_seconds":…,"stages":[…],"queues":[…],
  /// "disk_retries":{…},"faults_injected":…}.
  void write_json(util::JsonWriter& w) const;
};

/// Emit a vector of StageStats as a JSON array (shared by RunStats and
/// the sort programs' aggregated reports).
void write_stage_stats_json(util::JsonWriter& w,
                            const std::vector<StageStats>& stages);

class PipelineGraph {
 public:
  PipelineGraph();
  ~PipelineGraph();

  PipelineGraph(const PipelineGraph&) = delete;
  PipelineGraph& operator=(const PipelineGraph&) = delete;

  /// Create a pipeline with the given configuration.  The returned
  /// reference is stable for the graph's lifetime.
  Pipeline& add_pipeline(PipelineConfig cfg);

  /// Execute all pipelines to completion on a fresh runtime and join.
  /// May be called repeatedly; each run starts from clean queues, pools,
  /// and statistics.  Stage objects must be reusable for reruns (their
  /// captured state is the application's business).
  void run();

  /// The frozen topology; built on first access (after which stages and
  /// pipelines can no longer be added).
  const ExecutionPlan& plan() const;

  /// Number of worker threads run() will create (sources, sinks, stage
  /// workers after virtual-group merging, replicas included).  Valid
  /// before or after run(); the virtual-stage benches assert on this.
  std::size_t planned_threads() const;

  /// Attach an observability session: subsequent runs emit spans into
  /// per-thread lock-free rings (stage work, accept/convey waits, queue
  /// depths) and record round counts/latencies in the session's metrics
  /// registry.  Pass nullptr to detach.  The session must outlive every
  /// run() it observes; several graphs (e.g. one per simulated node) may
  /// share one session.
  void set_observability(obs::Session* session);

  /// Set the options for subsequent runs: the channel policy (kMpmcOnly
  /// forces the blocking MPMC queue even where the plan proved SPSC
  /// eligibility) and the pool budget.  The channel default resolves from
  /// the environment (FG_CHANNELS) so whole suites can be replayed under
  /// either channel kind without code changes.
  void set_runtime_options(RuntimeOptions options);

  /// Arm a stall watchdog on subsequent runs: if no worker completes a
  /// queue operation for `window`, the run aborts with PipelineStalled
  /// (naming each blocked worker and its queue) instead of deadlocking.
  /// Zero disables it.  Pick a window comfortably above the longest
  /// single stage operation, modeled I/O included.
  void set_watchdog(util::Duration window);

  /// Extra teardown the watchdog invokes after aborting the queues, for
  /// stages that block in substrates the runtime cannot see (e.g. a
  /// comm::Fabric — register `[&]{ fabric.abort(); }` so a stalled run
  /// unwinds workers blocked in fabric calls too).
  void set_abort_hook(std::function<void()> hook);

  /// Per-worker timing statistics of the most recent run (partial if it
  /// aborted); empty before the first run.
  std::vector<StageStats> stats() const;

  /// Everything the most recent run reported: stage stats, per-queue
  /// counters, wall time, and the completed-run count.
  RunStats run_stats() const;

  /// Per-pipeline buffer whereabouts after the most recent run; the
  /// abort-path tests assert accounted() == pool for every pipeline.
  std::vector<BufferAudit> audit_buffers() const;

  /// Number of run() calls that completed without throwing.
  std::size_t runs_completed() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace fg
