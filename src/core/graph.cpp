// Thin facade tying the layers together: pipelines are collected here,
// frozen into an ExecutionPlan on first use, and each run() executes the
// cached plan on a fresh GraphRuntime.  All topology logic lives in
// core/plan.cpp; all execution logic lives in core/runtime.cpp.
#include "core/graph.hpp"

#include <stdexcept>
#include <utility>

namespace fg {

struct PipelineGraph::Impl {
  std::vector<std::unique_ptr<Pipeline>> pipelines;
  std::unique_ptr<ExecutionPlan> plan;   // cached after first build
  std::unique_ptr<GraphRuntime> last;    // most recent run (stats live here)
  obs::Session* obs{nullptr};
  std::size_t runs_completed{0};
  util::Duration watchdog_window{util::Duration::zero()};
  std::function<void()> abort_hook;
  RuntimeOptions options;

  ExecutionPlan& ensure_plan() {
    if (!plan) plan = std::make_unique<ExecutionPlan>(pipelines);
    return *plan;
  }
};

PipelineGraph::PipelineGraph() : impl_(std::make_unique<Impl>()) {}
PipelineGraph::~PipelineGraph() = default;

Pipeline& PipelineGraph::add_pipeline(PipelineConfig cfg) {
  if (impl_->plan) {
    throw std::logic_error(
        "fg::PipelineGraph: cannot add pipelines after the topology is built");
  }
  const auto id = static_cast<PipelineId>(impl_->pipelines.size());
  impl_->pipelines.push_back(
      std::unique_ptr<Pipeline>(new Pipeline(id, std::move(cfg))));
  return *impl_->pipelines.back();
}

const ExecutionPlan& PipelineGraph::plan() const {
  return impl_->ensure_plan();
}

std::size_t PipelineGraph::planned_threads() const {
  return impl_->ensure_plan().thread_count();
}

void PipelineGraph::set_observability(obs::Session* session) {
  impl_->obs = session;
}

void PipelineGraph::set_watchdog(util::Duration window) {
  impl_->watchdog_window = window;
}

void PipelineGraph::set_runtime_options(RuntimeOptions options) {
  impl_->options = options;
}

void PipelineGraph::set_abort_hook(std::function<void()> hook) {
  impl_->abort_hook = std::move(hook);
}

void PipelineGraph::run() {
  const ExecutionPlan& plan = impl_->ensure_plan();
  // Fresh queues, pools, and statistics every run; replacing the previous
  // runtime is what resets stats between runs.
  impl_->last =
      std::make_unique<GraphRuntime>(plan, impl_->obs, impl_->options);
  impl_->last->set_watchdog(impl_->watchdog_window);
  if (impl_->abort_hook) impl_->last->set_abort_hook(impl_->abort_hook);
  impl_->last->run();  // on throw, `last` keeps the partial stats
  ++impl_->runs_completed;
}

std::vector<StageStats> PipelineGraph::stats() const {
  return impl_->last ? impl_->last->stats() : std::vector<StageStats>{};
}

RunStats PipelineGraph::run_stats() const {
  RunStats out;
  if (impl_->last) {
    out.stages = impl_->last->stats();
    out.queues = impl_->last->queue_stats();
    out.wall_seconds = impl_->last->wall_seconds();
  }
  out.runs_completed = impl_->runs_completed;
  return out;
}

std::vector<BufferAudit> PipelineGraph::audit_buffers() const {
  return impl_->last ? impl_->last->audit_buffers()
                     : std::vector<BufferAudit>{};
}

std::size_t PipelineGraph::runs_completed() const {
  return impl_->runs_completed;
}

// ---------------------------------------------------------------------------
// JSON export
// ---------------------------------------------------------------------------

void write_stage_stats_json(util::JsonWriter& w,
                            const std::vector<StageStats>& stages) {
  w.begin_array();
  for (const StageStats& s : stages) {
    w.begin_object();
    w.kv("stage", s.stage);
    w.kv("pipelines", s.pipelines);
    w.kv("buffers", s.buffers);
    w.kv("working_s", s.working_seconds());
    w.kv("accept_blocked_s", s.accept_seconds());
    w.kv("convey_blocked_s", s.convey_seconds());
    w.end_object();
  }
  w.end_array();
}

void RunStats::write_json(util::JsonWriter& w) const {
  w.begin_object();
  w.kv("wall_seconds", wall_seconds);
  w.kv("runs_completed", runs_completed);
  w.key("stages");
  write_stage_stats_json(w, stages);
  w.key("queues");
  w.begin_array();
  for (std::size_t i = 0; i < queues.size(); ++i) {
    const QueueStats& q = queues[i];
    w.begin_object();
    w.kv("index", i);
    w.kv("kind", to_string(q.kind));
    w.kv("capacity", q.capacity);
    w.kv("pushes", q.pushes);
    w.kv("pops", q.pops);
    w.kv("peak", q.peak);
    w.kv("forced", q.forced);
    w.end_object();
  }
  w.end_array();
  w.key("disk_retries");
  w.begin_object();
  w.kv("attempts", disk_retries.attempts);
  w.kv("retries", disk_retries.retries);
  w.kv("absorbed", disk_retries.absorbed);
  w.kv("exhausted", disk_retries.exhausted);
  w.end_object();
  w.kv("faults_injected", faults_injected);
  w.end_object();
}

}  // namespace fg
