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
  Channel* q = source_in(t.pipeline);
  if (!traced_push(w, q, t)) q->force_push(t);
}

void GraphRuntime::source_loop(RunWorker& w) {
  obs::SpanRing* const ring = obs::current_ring();
  std::size_t active = w.spec->members.size();

  // Emits return false once the run is being torn down.
  auto emit_buffer = [&](PipelineId pid, Buffer* b) {
    auto& st = w.src[pid];
    // Capture the round id now: once the push succeeds the buffer is
    // downstream property and may be recycled (and re-stamped) before
    // the span emit below runs.
    const std::uint64_t round = st.emitted;
    b->set_round(st.emitted++);
    b->set_size(0);
    b->set_tag(0);
    Channel* q = w.out.at(pid);
    const auto t0 = util::Clock::now();
    b->set_emitted_at(t0);  // the round's birth timestamp, read by the sink
    const bool ok = traced_push(w, q, Token::of_buffer(b));
    const auto t1 = util::Clock::now();
    w.stats.convey_blocked += t1 - t0;
    if (ring != nullptr)
      ring->emit(obs::SpanKind::kConveyWait, pid, round, t0, t1);
    if (!ok) {
      w.src[pid].parked += 1;  // token dropped by the aborted queue
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
    const auto t0 = util::Clock::now();
    Token t = traced_pop(w, w.in);
    const auto t1 = util::Clock::now();
    w.stats.accept_blocked += t1 - t0;
    if (ring != nullptr && t.kind != TokenKind::kAbort) {
      ring->emit(obs::SpanKind::kAcceptWait, t.pipeline,
                 t.buffer != nullptr ? t.buffer->round() : 0, t0, t1);
    }
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
    const auto t0 = util::Clock::now();
    Token t = traced_pop(w, w.in);
    const auto t1 = util::Clock::now();
    w.stats.accept_blocked += t1 - t0;
    if (ring != nullptr && t.kind != TokenKind::kAbort) {
      ring->emit(obs::SpanKind::kAcceptWait, t.pipeline,
                 t.buffer != nullptr ? t.buffer->round() : 0, t0, t1);
    }
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
          if (round_latency_ != nullptr && t1 >= emitted) {
            round_latency_->record(static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::microseconds>(
                    t1 - emitted)
                    .count()));
          }
          if (ring != nullptr && t1 >= emitted) {
            ring->emit(obs::SpanKind::kRound, t.pipeline, t.buffer->round(),
                       emitted, t1);
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
  obs::SpanRing* const ring = obs::current_ring();
  auto* stage = static_cast<MapStage*>(w.spec->stage);
  std::size_t active = w.spec->members.size();
  std::unordered_map<PipelineId, bool> closed;
  for (PipelineId pid : w.spec->members) closed[pid] = false;

  for (;;) {
    const auto t0 = util::Clock::now();
    Token t = traced_pop(w, w.in);
    const auto t1 = util::Clock::now();
    w.stats.accept_blocked += t1 - t0;
    if (ring != nullptr && t.kind != TokenKind::kAbort) {
      ring->emit(obs::SpanKind::kAcceptWait, t.pipeline,
                 t.buffer != nullptr ? t.buffer->round() : 0, t0, t1);
    }
    switch (t.kind) {
      case TokenKind::kAbort:
        return;
      case TokenKind::kCaboose: {
        const auto tw = util::Clock::now();
        stage->flush(t.pipeline);
        const auto tw1 = util::Clock::now();
        w.stats.working += tw1 - tw;
        if (ring != nullptr)
          ring->emit(obs::SpanKind::kStageWork, t.pipeline, 0, tw, tw1);
        traced_push(w, w.out.at(t.pipeline), t);
        if (--active == 0) return;
        break;
      }
      case TokenKind::kBuffer: {
        const PipelineId pid = t.pipeline;
        if (closed[pid]) {
          // The stage already declared this pipeline finished; hand
          // leftover upstream buffers straight back to the source.
          park_token(w, t);
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
          throw;
        }
        const auto tw1 = util::Clock::now();
        w.stats.working += tw1 - tw;
        // Buffer fields must not be read after a successful push — the
        // buffer can recycle and be re-stamped by the source meanwhile.
        const std::uint64_t round = t.buffer->round();
        if (ring != nullptr) {
          ring->emit(obs::SpanKind::kStageWork, pid, round, tw, tw1);
        }
        ++w.stats.buffers;
        const bool conveys = action == StageAction::kConvey ||
                             action == StageAction::kConveyAndClose;
        const bool closes = action == StageAction::kConveyAndClose ||
                            action == StageAction::kRecycleAndClose;
        if (conveys) {
          Channel* q = w.out.at(pid);
          const auto tc = util::Clock::now();
          const bool ok = traced_push(w, q, t);
          const auto tc1 = util::Clock::now();
          w.stats.convey_blocked += tc1 - tc;
          if (ring != nullptr) {
            ring->emit(obs::SpanKind::kConveyWait, pid, round, tc, tc1);
          }
          if (!ok) park_token(w, t);  // teardown: keep the buffer accountable
        } else {
          park_token(w, t);
        }
        if (closes) {
          closed[pid] = true;
          // A refused push means teardown is underway; the source is
          // unwinding anyway, and the kAbort token ends this loop next.
          traced_push(w, source_in(pid), Token::close(pid));
        }
        break;
      }
      case TokenKind::kClose:
        break;  // not expected between stages
    }
  }
}

void GraphRuntime::map_loop_replicated(RunWorker& w) {
  // Each replica thread has its own ambient ring (attached in
  // worker_entry), so span emission needs no cross-replica coordination.
  obs::SpanRing* const ring = obs::current_ring();
  auto* stage = static_cast<MapStage*>(w.spec->stage);
  auto& shared = w.repl;
  {
    std::lock_guard<std::mutex> lock(shared.mutex);
    if (!shared.initialized) {
      shared.active = w.spec->members.size();
      for (PipelineId pid : w.spec->members) {
        shared.closed[pid] = false;
      }
      shared.initialized = true;
    }
  }

  StageStats local;  // merged into w.stats at exit
  const auto merge_stats = [&] {
    std::lock_guard<std::mutex> lock(shared.mutex);
    w.stats.buffers += local.buffers;
    w.stats.working += local.working;
    w.stats.accept_blocked += local.accept_blocked;
    w.stats.convey_blocked += local.convey_blocked;
  };

  for (;;) {
    const auto t0 = util::Clock::now();
    Token t = traced_pop(w, w.in);
    const auto t1 = util::Clock::now();
    local.accept_blocked += t1 - t0;
    if (ring != nullptr && t.kind != TokenKind::kAbort &&
        t.kind != TokenKind::kClose) {
      ring->emit(obs::SpanKind::kAcceptWait, t.pipeline,
                 t.buffer != nullptr ? t.buffer->round() : 0, t0, t1);
    }
    switch (t.kind) {
      case TokenKind::kAbort:
        merge_stats();
        return;
      case TokenKind::kClose:
        // Poison pill from the replica that handled the last caboose.
        merge_stats();
        return;
      case TokenKind::kCaboose: {
        const PipelineId pid = t.pipeline;
        // The caboose may overtake buffers other replicas have already
        // popped; it must leave this stage last.  Gate on the queue's own
        // pop count (bumped atomically with each pop, aborts excluded):
        // every buffer popped before this caboose — even one a sibling
        // has not yet registered anywhere — must resolve first.
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
          last = --shared.active == 0;
        }
        if (last) {
          for (std::size_t i = 1; i < w.spec->replicas; ++i) {
            traced_push(w, w.in, Token::close(kNoPipeline));
          }
          merge_stats();
          return;
        }
        break;
      }
      case TokenKind::kBuffer: {
        const PipelineId pid = t.pipeline;
        {
          std::lock_guard<std::mutex> lock(shared.mutex);
          if (shared.closed[pid]) {
            park_token(w, t);
            ++shared.resolved;
            shared.cv.notify_all();
            break;
          }
        }
        const auto tw = util::Clock::now();
        StageAction action;
        try {
          action = stage->apply(*t.buffer);
        } catch (...) {
          park_token(w, t);
          {
            std::lock_guard<std::mutex> lock(shared.mutex);
            ++shared.resolved;
          }
          shared.cv.notify_all();
          merge_stats();
          throw;
        }
        const auto tw1 = util::Clock::now();
        local.working += tw1 - tw;
        // As in map_loop: no buffer-field reads after a successful push.
        const std::uint64_t round = t.buffer->round();
        if (ring != nullptr) {
          ring->emit(obs::SpanKind::kStageWork, pid, round, tw, tw1);
        }
        ++local.buffers;
        const bool conveys = action == StageAction::kConvey ||
                             action == StageAction::kConveyAndClose;
        const bool closes = action == StageAction::kConveyAndClose ||
                            action == StageAction::kRecycleAndClose;
        if (conveys) {
          Channel* q = w.out.at(pid);
          const auto tc = util::Clock::now();
          const bool ok = traced_push(w, q, t);
          const auto tc1 = util::Clock::now();
          local.convey_blocked += tc1 - tc;
          if (ring != nullptr) {
            ring->emit(obs::SpanKind::kConveyWait, pid, round, tc, tc1);
          }
          if (!ok) park_token(w, t);
        } else {
          park_token(w, t);
        }
        if (closes) {
          bool first_close;
          {
            std::lock_guard<std::mutex> lock(shared.mutex);
            first_close = !shared.closed[pid];
            shared.closed[pid] = true;
          }
          if (first_close) traced_push(w, source_in(pid), Token::close(pid));
        }
        {
          std::lock_guard<std::mutex> lock(shared.mutex);
          ++shared.resolved;
        }
        shared.cv.notify_all();
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
  // Capture before the push: a conveyed buffer may be recycled and
  // re-stamped by the source before the span emit below runs.
  const PipelineId pid = b->pipeline();
  const std::uint64_t round = b->round();
  const auto t0 = util::Clock::now();
  const bool ok = rt_.traced_push(w_, it->second, Token::of_buffer(b));
  const auto t1 = util::Clock::now();
  w_.stats.convey_blocked += t1 - t0;
  if (ring_ != nullptr) {
    ring_->emit(obs::SpanKind::kConveyWait, pid, round, t0, t1);
  }
  if (!ok) {
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
  Channel* q = qit->second;
  for (;;) {
    const auto t0 = util::Clock::now();
    Token t = rt_.traced_pop(w_, q);
    const auto t1 = util::Clock::now();
    w_.stats.accept_blocked += t1 - t0;
    if (ring_ != nullptr && t.kind != TokenKind::kAbort) {
      ring_->emit(obs::SpanKind::kAcceptWait, t.pipeline,
                  t.buffer != nullptr ? t.buffer->round() : 0, t0, t1);
    }
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
