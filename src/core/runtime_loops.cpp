// The worker loops: one function per WorkerKind, executed on the
// runtime's threads.  Construction, orchestration, and reporting live in
// runtime.cpp; the shared per-worker state in runtime_impl.hpp.
#include "core/runtime_impl.hpp"

#include <stdexcept>

namespace fg {

// Recycle a buffer token to its source.  Falls back to force_push during
// teardown (an aborted queue refuses regular pushes) so every buffer
// stays accountable — nothing rests "nowhere" after an abort.
void GraphRuntime::park_token(RunWorker& w, Token t) {
  BufferQueue* q = source_in(t.pipeline);
  if (!traced_push(w, q, t)) q->force_push(t);
}

Token GraphRuntime::timed_accept(RunWorker& w, BufferQueue* q,
                                 StageStats& stats, util::TimePoint* done) {
  const auto t0 = util::Clock::now();
  Token t = traced_pop(w, q);
  const auto t1 = util::Clock::now();
  stats.accept_blocked += t1 - t0;
  // Aborts and the replicas' poison pills carry no pipeline: no span.
  obs::SpanRing* const ring = obs::current_ring();
  if (ring != nullptr && t.pipeline != kNoPipeline) {
    ring->emit(obs::SpanKind::kAcceptWait, t.pipeline,
               t.buffer != nullptr ? t.buffer->round() : 0, t0, t1);
  }
  if (done != nullptr) *done = t1;
  return t;
}

bool GraphRuntime::timed_convey(RunWorker& w, BufferQueue* q, Token t,
                                StageStats& stats, bool birth) {
  // Read before the push: once it succeeds the buffer is downstream
  // property and may be recycled (and re-stamped) before the span emit.
  const std::uint64_t round = t.buffer->round();
  const auto t0 = util::Clock::now();
  if (birth) t.buffer->set_emitted_at(t0);  // read by the sink
  const bool ok = traced_push(w, q, t);
  const auto t1 = util::Clock::now();
  stats.convey_blocked += t1 - t0;
  obs::SpanRing* const ring = obs::current_ring();
  if (ring != nullptr)
    ring->emit(obs::SpanKind::kConveyWait, t.pipeline, round, t0, t1);
  return ok;
}

void GraphRuntime::source_loop(RunWorker& w) {
  std::size_t active = w.spec->members.size();

  // Emits return false once the run is being torn down.
  auto emit_buffer = [&](PipelineId pid, Buffer* b) {
    auto& st = w.src[pid];
    b->set_round(st.emitted++);
    b->set_size(0);
    b->set_tag(0);
    if (!timed_convey(w, w.out.at(pid), Token::of_buffer(b), w.stats,
                      /*birth=*/true)) {
      st.parked += 1;  // token dropped by the aborted queue
      return false;
    }
    ++w.stats.buffers;
    return true;
  };
  auto send_caboose = [&](PipelineId pid) {
    auto& st = w.src[pid];
    st.caboose_sent = true;
    --active;
    traced_push(w, w.out.at(pid), Token::caboose(pid));
  };
  auto finish_if_done = [&](PipelineId pid) {
    auto& st = w.src[pid];
    if (!st.caboose_sent && st.target != 0 && st.emitted >= st.target) {
      send_caboose(pid);
    }
  };

  // Initial emission: inject each pipeline's pool (bounded by its round
  // target, if any).
  for (PipelineId pid : w.spec->members) {
    auto& st = w.src[pid];
    for (auto& ub : pools_[pid]) {
      if (st.target != 0 && st.emitted >= st.target) break;
      ++st.distinct;
      if (!emit_buffer(pid, ub.get())) return;
    }
    finish_if_done(pid);
  }

  while (active > 0) {
    Token t = timed_accept(w, w.in, w.stats);
    switch (t.kind) {
      case TokenKind::kAbort:
        return;
      case TokenKind::kClose: {
        if (!w.src[t.pipeline].caboose_sent) send_caboose(t.pipeline);
        break;
      }
      case TokenKind::kBuffer: {
        auto& st = w.src[t.pipeline];
        if (st.caboose_sent) {
          // Pipeline done; the buffer retires to the pool.
          st.parked += 1;
          break;
        }
        if (!emit_buffer(t.pipeline, t.buffer)) return;
        finish_if_done(t.pipeline);
        break;
      }
      case TokenKind::kCaboose:
        break;  // not expected on a recycle queue; ignore
    }
  }
}

void GraphRuntime::sink_loop(RunWorker& w) {
  obs::SpanRing* const ring = obs::current_ring();
  std::size_t active = w.spec->members.size();
  for (;;) {
    util::TimePoint arrived;
    Token t = timed_accept(w, w.in, w.stats, &arrived);
    switch (t.kind) {
      case TokenKind::kAbort:
        return;
      case TokenKind::kCaboose:
        if (--active == 0) return;
        break;
      case TokenKind::kBuffer:
        ++w.stats.buffers;
        // The buffer reaching the sink closes its round: count it and
        // measure the source→sink latency the paper's Figure 8 plots.
        if (rounds_counter_ != nullptr) {
          rounds_counter_->add(1);
          const util::TimePoint emitted = t.buffer->emitted_at();
          if (round_latency_ != nullptr && arrived >= emitted) {
            round_latency_->record(static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::microseconds>(
                    arrived - emitted)
                    .count()));
          }
          if (ring != nullptr && arrived >= emitted) {
            ring->emit(obs::SpanKind::kRound, t.pipeline, t.buffer->round(),
                       emitted, arrived);
          }
        }
        park_token(w, t);  // recycle to the source
        break;
      case TokenKind::kClose:
        break;  // not expected
    }
  }
}

void GraphRuntime::map_loop(RunWorker& w) {
  // A map stage runs on one thread, or on `replicas` threads that share
  // its queue and `w.map_state`.  Each thread has its own ambient ring
  // (attached in worker_entry), so span emission needs no cross-replica
  // coordination.
  obs::SpanRing* const ring = obs::current_ring();
  auto* stage = static_cast<MapStage*>(w.spec->stage);
  auto& shared = w.map_state;
  const auto resolve = [&] {
    {
      std::lock_guard<std::mutex> lock(shared.mutex);
      ++shared.resolved;
    }
    shared.cv.notify_all();
  };

  // Each thread counts into `local` and folds it into w.stats on every
  // exit path, a throwing stage included.
  StageStats local;
  struct MergeStats {
    RunWorker& w;
    const StageStats& local;
    ~MergeStats() {
      std::lock_guard<std::mutex> lock(w.map_state.mutex);
      w.stats.buffers += local.buffers;
      w.stats.working += local.working;
      w.stats.accept_blocked += local.accept_blocked;
      w.stats.convey_blocked += local.convey_blocked;
    }
  } merge{w, local};

  for (;;) {
    Token t = timed_accept(w, w.in, local);
    switch (t.kind) {
      case TokenKind::kAbort:
        return;
      case TokenKind::kClose:
        // Poison pill from the thread that forwarded the last caboose.
        return;
      case TokenKind::kCaboose: {
        const PipelineId pid = t.pipeline;
        // The caboose may overtake buffers other replicas have already
        // popped; it must leave this stage last.  Gate on the queue's own
        // pop count (bumped atomically with each pop, aborts excluded):
        // every token popped before this caboose — even a buffer a
        // sibling has not yet registered anywhere — must resolve first.
        const std::uint64_t target = w.in->stats().pops - 1;
        {
          std::unique_lock<std::mutex> lock(shared.mutex);
          shared.cv.wait(lock, [&] { return shared.resolved >= target; });
        }
        const auto tw = util::Clock::now();
        stage->flush(pid);
        const auto tw1 = util::Clock::now();
        local.working += tw1 - tw;
        if (ring != nullptr)
          ring->emit(obs::SpanKind::kStageWork, pid, 0, tw, tw1);
        traced_push(w, w.out.at(pid), t);
        bool last;
        {
          std::lock_guard<std::mutex> lock(shared.mutex);
          ++shared.resolved;
          last = --shared.active == 0;
        }
        shared.cv.notify_all();
        if (last) {
          for (std::size_t i = 1; i < w.spec->replicas; ++i) {
            traced_push(w, w.in, Token::close(kNoPipeline));
          }
          return;
        }
        break;
      }
      case TokenKind::kBuffer: {
        const PipelineId pid = t.pipeline;
        bool closed;
        {
          std::lock_guard<std::mutex> lock(shared.mutex);
          closed = shared.closed[pid];
        }
        if (closed) {
          // The stage already declared this pipeline finished; hand
          // leftover upstream buffers straight back to the source.
          park_token(w, t);
          resolve();
          break;
        }
        const auto tw = util::Clock::now();
        StageAction action;
        try {
          action = stage->apply(*t.buffer);
        } catch (...) {
          // Return the in-flight buffer before unwinding so nothing is
          // stranded outside a queue.
          park_token(w, t);
          resolve();
          throw;
        }
        const auto tw1 = util::Clock::now();
        local.working += tw1 - tw;
        if (ring != nullptr) {
          ring->emit(obs::SpanKind::kStageWork, pid, t.buffer->round(), tw,
                     tw1);
        }
        ++local.buffers;
        const bool conveys = action == StageAction::kConvey ||
                             action == StageAction::kConveyAndClose;
        const bool closes = action == StageAction::kConveyAndClose ||
                            action == StageAction::kRecycleAndClose;
        // A recycled buffer, or one an aborted queue refused, goes back to
        // its source so it stays accountable.
        if (!conveys || !timed_convey(w, w.out.at(pid), t, local)) {
          park_token(w, t);
        }
        if (closes) {
          bool first_close;
          {
            std::lock_guard<std::mutex> lock(shared.mutex);
            first_close = !shared.closed[pid];
            shared.closed[pid] = true;
          }
          // A refused push means teardown is underway; the source is
          // unwinding anyway, and the kAbort token ends this loop next.
          if (first_close) traced_push(w, source_in(pid), Token::close(pid));
        }
        resolve();
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Custom-stage context
// ---------------------------------------------------------------------------

void GraphRuntime::Context::convey(Buffer* b) {
  auto it = w_.out.find(b->pipeline());
  if (it == w_.out.end()) {
    throw std::logic_error(
        "fg::StageContext::convey: buffer belongs to a pipeline that stage "
        "'" + w_.spec->stage->name() + "' is not a member of (buffers "
        "cannot jump between pipelines)");
  }
  held_.erase(b);
  if (!rt_.timed_convey(w_, it->second, Token::of_buffer(b), w_.stats)) {
    rt_.park_token(w_, Token::of_buffer(b));
    throw AbortSignal{};
  }
}

void GraphRuntime::Context::recycle(Buffer* b) {
  held_.erase(b);
  rt_.park_token(w_, Token::of_buffer(b));
}

void GraphRuntime::Context::close(const Pipeline& p) {
  // An aborted queue refuses the close token; treat that like a refused
  // convey — unwind through AbortSignal (custom_loop parks everything this
  // context still holds) instead of dropping the token silently.
  if (!rt_.traced_push(w_, rt_.source_in(p.id()), Token::close(p.id()))) {
    throw AbortSignal{};
  }
}

void GraphRuntime::Context::park_outstanding() {
  for (Buffer* b : held_) {
    rt_.park_token(w_, Token::of_buffer(b));
  }
  held_.clear();
  for (auto& [pid, dq] : stash_) {
    while (!dq.empty()) {
      rt_.park_token(w_, Token::of_buffer(dq.front()));
      dq.pop_front();
    }
  }
}

Buffer* GraphRuntime::Context::accept_pid(PipelineId pid) {
  auto sit = stash_.find(pid);
  if (sit != stash_.end() && !sit->second.empty()) {
    Buffer* b = sit->second.front();
    sit->second.pop_front();
    held_.insert(b);
    return b;
  }
  if (exhausted_.count(pid)) return nullptr;
  auto qit = w_.in_by_pid.find(pid);
  if (qit == w_.in_by_pid.end()) {
    throw std::logic_error(
        "fg::StageContext::accept: stage '" + w_.spec->stage->name() +
        "' is not a member of that pipeline");
  }
  BufferQueue* q = qit->second;
  for (;;) {
    Token t = rt_.timed_accept(w_, q, w_.stats);
    switch (t.kind) {
      case TokenKind::kAbort:
        throw AbortSignal{};
      case TokenKind::kCaboose:
        exhausted_.insert(t.pipeline);
        if (t.pipeline == pid) return nullptr;
        break;
      case TokenKind::kBuffer:
        if (t.pipeline == pid) {
          held_.insert(t.buffer);
          return t.buffer;
        }
        ++w_.stats.buffers;  // counted when stashed, not when re-served
        stash_[t.pipeline].push_back(t.buffer);
        break;
      case TokenKind::kClose:
        break;  // not expected
    }
  }
}

void GraphRuntime::custom_loop(RunWorker& w) {
  Context ctx(*this, w);
  const auto t0 = util::Clock::now();
  try {
    w.spec->stage->run(ctx);
  } catch (const AbortSignal&) {
    ctx.park_outstanding();
    return;
  } catch (...) {
    ctx.park_outstanding();
    throw;
  }
  // Working time = wall time minus time spent blocked in accept/convey.
  w.stats.working +=
      now_minus(t0) - w.stats.accept_blocked - w.stats.convey_blocked;
  ctx.park_outstanding();
  // Flush: every outbound port gets this stage's caboose.
  for (PipelineId pid : w.spec->members) {
    auto it = w.out.find(pid);
    if (it != w.out.end()) traced_push(w, it->second, Token::caboose(pid));
  }
}

}  // namespace fg
