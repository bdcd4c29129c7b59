// Runtime construction, run orchestration, and reporting.  The worker
// loops live in runtime_loops.cpp; shared state in runtime_impl.hpp.
#include "core/runtime_impl.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

namespace fg {

const char* to_string(ChannelKind k) noexcept {
  switch (k) {
    case ChannelKind::kMpmc: return "mpmc";
    case ChannelKind::kSpsc: return "spsc";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Construction: materialize queues, pools, and workers from the plan
// ---------------------------------------------------------------------------

GraphRuntime::GraphRuntime(const ExecutionPlan& plan, obs::Session* obs,
                           RuntimeOptions options)
    : plan_(&plan), obs_(obs) {
  queues_.reserve(plan.queues().size());
  for (std::uint32_t qi = 0; qi < plan.queues().size(); ++qi) {
    queues_.push_back(
        std::make_unique<BufferQueue>(plan.queues()[qi].capacity));
    queue_index_[queues_.back().get()] = qi;
  }

  if (obs != nullptr) {
    spans_ = &obs->spans();
    rounds_counter_ = &obs->metrics().counter("pipeline.rounds");
    round_latency_ =
        &obs->metrics().histogram("pipeline.round_latency_us");
    queue_gauges_.reserve(queues_.size());
    for (std::uint32_t qi = 0; qi < queues_.size(); ++qi) {
      queue_gauges_.push_back(&obs->metrics().gauge(
          "queue." + std::to_string(qi) + ".depth"));
    }
  }

  // Per-job memory quota: charge the full pool allocation (primary +
  // auxiliary blocks) before any buffer exists.  An overdrawn budget
  // throws util::QuotaExceeded out of the constructor — no threads have
  // been spawned yet, so the failed run needs no unwinding beyond the
  // reservation's own RAII release.
  if (options.pool_budget != nullptr) {
    std::uint64_t total = 0;
    for (const PlannedPool& spec : plan.pools()) {
      total += static_cast<std::uint64_t>(spec.num_buffers) *
               spec.buffer_bytes * (spec.aux ? 2 : 1);
    }
    pool_reservation_ =
        util::BudgetReservation(options.pool_budget, total, "buffer pools");
  }

  pools_.resize(plan.pools().size());
  for (PipelineId pid = 0; pid < plan.pools().size(); ++pid) {
    const PlannedPool& spec = plan.pools()[pid];
    auto& pool = pools_[pid];
    pool.reserve(spec.num_buffers);
    for (std::size_t i = 0; i < spec.num_buffers; ++i) {
      pool.push_back(std::make_unique<Buffer>(spec.buffer_bytes, pid,
                                              spec.aux));
    }
  }

  auto q = [&](QueueIndex i) {
    return i == kNoQueue ? nullptr : queues_[i].get();
  };
  workers_.reserve(plan.workers().size());
  for (std::uint32_t wi = 0; wi < plan.workers().size(); ++wi) {
    const PlannedWorker& spec = plan.workers()[wi];
    auto w = std::make_unique<RunWorker>();
    w->index = wi;
    w->spec = &spec;
    w->in = q(spec.in);
    for (const auto& [pid, qi] : spec.in_by_pid) w->in_by_pid[pid] = q(qi);
    for (const auto& [pid, qi] : spec.out) w->out[pid] = q(qi);
    if (spec.kind == WorkerKind::kSource) {
      for (PipelineId pid : spec.members) {
        // Piecewise init: SrcState holds atomics, so no aggregate copy.
        w->src[pid].target = plan.pools()[pid].rounds;
      }
    }
    if (spec.kind == WorkerKind::kMap)
      w->map_state.active = spec.members.size();
    w->stats.stage = spec.label;
    w->stats.pipelines = spec.pipelines;
    workers_.push_back(std::move(w));
  }
}

GraphRuntime::~GraphRuntime() {
  // run() always joins it, but guard against a runtime destroyed after a
  // construction-time throw in run() itself.
  if (watchdog_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(wd_mutex_);
      wd_stop_ = true;
    }
    wd_cv_.notify_all();
    watchdog_thread_.join();
  }
}

void GraphRuntime::record_error(std::exception_ptr e) {
  std::lock_guard<std::mutex> lock(err_mutex_);
  if (!first_error_) first_error_ = e;
}

void GraphRuntime::abort_all() {
  for (auto& q : queues_) q->abort();
}

// ---------------------------------------------------------------------------
// Traced queue operations and the stall watchdog
// ---------------------------------------------------------------------------

Token GraphRuntime::traced_pop(RunWorker& w, BufferQueue* q) {
  const std::uint32_t qi = queue_index_.at(q);
  w.blocked_queue.store(qi, std::memory_order_relaxed);
  w.blocked_push.store(false, std::memory_order_relaxed);
  obs::SpanRing* const ring = obs::current_ring();
  std::size_t depth = 0;
  const bool sample = ring != nullptr || !queue_gauges_.empty();
  Token t = q->pop(sample ? &depth : nullptr);
  w.blocked_queue.store(kNoQueue, std::memory_order_relaxed);
  progress_.fetch_add(1, std::memory_order_relaxed);
  if (sample && t.kind != TokenKind::kAbort) {
    if (!queue_gauges_.empty())
      queue_gauges_[qi]->set(static_cast<std::int64_t>(depth));
    if (ring != nullptr)
      ring->sample(obs::SpanKind::kQueueDepth, qi, depth, util::Clock::now());
  }
  return t;
}

bool GraphRuntime::traced_push(RunWorker& w, BufferQueue* q, Token t) {
  const std::uint32_t qi = queue_index_.at(q);
  w.blocked_queue.store(qi, std::memory_order_relaxed);
  w.blocked_push.store(true, std::memory_order_relaxed);
  obs::SpanRing* const ring = obs::current_ring();
  std::size_t depth = 0;
  const bool sample = ring != nullptr || !queue_gauges_.empty();
  const bool ok = q->push(t, sample ? &depth : nullptr);
  w.blocked_queue.store(kNoQueue, std::memory_order_relaxed);
  progress_.fetch_add(1, std::memory_order_relaxed);
  if (sample && ok) {
    if (!queue_gauges_.empty())
      queue_gauges_[qi]->set(static_cast<std::int64_t>(depth));
    if (ring != nullptr)
      ring->sample(obs::SpanKind::kQueueDepth, qi, depth, util::Clock::now());
  }
  return ok;
}

std::string GraphRuntime::stall_report() const {
  std::string out = "fg::GraphRuntime: pipeline stalled: no queue progress "
                    "for " +
                    std::to_string(std::chrono::duration_cast<
                                       std::chrono::milliseconds>(
                                       watchdog_window_)
                                       .count()) +
                    " ms\n";
  for (const auto& w : workers_) {
    const std::uint32_t qi = w->blocked_queue.load(std::memory_order_relaxed);
    out += "  worker " + std::to_string(w->index) + " '" + w->spec->label +
           "': ";
    if (qi == kNoQueue) {
      out += "not blocked on a queue (working, or blocked in a stage body)";
    } else {
      out += w->blocked_push.load(std::memory_order_relaxed)
                 ? "blocked pushing to queue "
                 : "blocked popping from queue ";
      out += std::to_string(qi);
      const QueueStats qs = queues_[qi]->stats();
      out += " (depth " + std::to_string(queues_[qi]->size()) + "/" +
             std::to_string(qs.capacity) + ")";
    }
    out += "\n";
  }
  const std::vector<BufferAudit> audit = audit_buffers();
  for (PipelineId pid = 0; pid < audit.size(); ++pid) {
    const BufferAudit& a = audit[pid];
    out += "  pipeline " + std::to_string(pid) + " buffers: pool=" +
           std::to_string(a.pool) + " in_queues=" +
           std::to_string(a.in_queues) + " never_emitted=" +
           std::to_string(a.never_emitted) + " parked=" +
           std::to_string(a.parked) + " in_flight=" +
           std::to_string(a.pool - std::min(a.pool, a.accounted())) + "\n";
  }
  return out;
}

void GraphRuntime::watchdog_loop() {
  std::uint64_t last = progress_.load(std::memory_order_relaxed);
  util::TimePoint last_change = util::Clock::now();
  // Poll at a quarter of the window: fine enough that a stall is caught
  // within ~1.25 windows, coarse enough to be free.
  const util::Duration tick =
      std::max<util::Duration>(watchdog_window_ / 4,
                               std::chrono::milliseconds(1));
  std::unique_lock<std::mutex> lock(wd_mutex_);
  for (;;) {
    wd_cv_.wait_for(lock, tick, [&] { return wd_stop_; });
    if (wd_stop_) return;
    const std::uint64_t cur = progress_.load(std::memory_order_relaxed);
    const util::TimePoint now = util::Clock::now();
    if (cur != last) {
      last = cur;
      last_change = now;
      continue;
    }
    if (now - last_change >= watchdog_window_) {
      record_error(std::make_exception_ptr(PipelineStalled(stall_report())));
      abort_all();
      if (abort_hook_) abort_hook_();
      return;  // one shot; the abort unwinds every worker
    }
  }
}

void GraphRuntime::worker_entry(RunWorker* w) {
  // Each OS thread gets its own span ring (replicas of one worker get
  // one each — the ring is single-writer by construction) and publishes
  // it thread-locally so the substrates (disk, fabric) can emit into the
  // same track without plumbing.
  obs::SpanRing* ring = nullptr;
  if (spans_ != nullptr) ring = &spans_->acquire(w->spec->label);
  obs::RingScope ambient(ring);
  try {
    switch (w->spec->kind) {
      case WorkerKind::kSource: source_loop(*w); break;
      case WorkerKind::kSink: sink_loop(*w); break;
      case WorkerKind::kMap: map_loop(*w); break;
      case WorkerKind::kCustom: custom_loop(*w); break;
    }
  } catch (const AbortSignal&) {
    // unwinding after another worker's failure: nothing to record
  } catch (...) {
    record_error(std::current_exception());
    abort_all();
    // Queue aborts cannot wake siblings blocked in external substrates
    // (e.g. a fabric recv); the hook tears those down too.
    if (abort_hook_) abort_hook_();
  }
}

// ---------------------------------------------------------------------------
// Run orchestration and reporting
// ---------------------------------------------------------------------------

void GraphRuntime::run() {
  if (ran_) {
    throw std::logic_error(
        "fg::GraphRuntime: a runtime executes its plan exactly once "
        "(PipelineGraph::run creates a fresh one per run)");
  }
  ran_ = true;
  util::Stopwatch sw;
  if (watchdog_window_ > util::Duration::zero()) {
    watchdog_thread_ = std::thread([this] { watchdog_loop(); });
  }
  // One OS thread per planned worker, plus one per extra replica.
  for (auto& w : workers_) {
    RunWorker* raw = w.get();
    w->thread = std::thread([this, raw] { worker_entry(raw); });
    for (std::size_t i = 1; i < w->spec->replicas; ++i) {
      w->extra_threads.emplace_back([this, raw] { worker_entry(raw); });
    }
  }
  for (auto& w : workers_) {
    w->thread.join();
    for (auto& t : w->extra_threads) t.join();
  }
  if (watchdog_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(wd_mutex_);
      wd_stop_ = true;
    }
    wd_cv_.notify_all();
    watchdog_thread_.join();
  }
  wall_seconds_ = sw.elapsed_seconds();
  if (first_error_) std::rethrow_exception(first_error_);
}

std::vector<StageStats> GraphRuntime::stats() const {
  std::vector<StageStats> out;
  out.reserve(workers_.size());
  for (const auto& w : workers_) out.push_back(w->stats);
  return out;
}

std::vector<QueueStats> GraphRuntime::queue_stats() const {
  std::vector<QueueStats> out;
  out.reserve(queues_.size());
  for (const auto& q : queues_) out.push_back(q->stats());
  return out;
}

std::vector<BufferAudit> GraphRuntime::audit_buffers() const {
  std::vector<BufferAudit> out(pools_.size());
  for (PipelineId pid = 0; pid < pools_.size(); ++pid) {
    out[pid].pool = pools_[pid].size();
  }
  for (const auto& w : workers_) {
    for (const auto& [pid, st] : w->src) {
      const auto distinct = st.distinct.load(std::memory_order_relaxed);
      out[pid].never_emitted +=
          static_cast<std::size_t>(pools_[pid].size() - distinct);
      out[pid].parked +=
          static_cast<std::size_t>(st.parked.load(std::memory_order_relaxed));
    }
  }
  for (const auto& q : queues_) {
    q->for_each_resident([&](const Token& t) {
      if (t.kind == TokenKind::kBuffer && t.pipeline < out.size()) {
        out[t.pipeline].in_queues += 1;
      }
    });
  }
  return out;
}

}  // namespace fg
