// The task-parallel executor backend: stage bodies run as resumable
// tasks on a fixed pool of workers with Chase–Lev work-stealing deques.
//
// Each planned source/sink/map worker becomes one task (one per replica
// for replicated maps); custom stages keep their blocking StageContext
// contract and run on dedicated threads exactly as under the
// thread-per-stage backend.  A task that cannot make progress — its
// accept would block on an empty channel, its convey on a full one, a
// replica gating a caboose on in-flight siblings — parks instead of
// sleeping a thread, and is re-enqueued by the QueueNotifier hook when
// the channel (or sibling) it waits on moves.
//
// Wakeup protocol (lost-wakeup-free): a task's state is a small atomic
// machine {Parked, Ready, Running, RunningNotified, Done}.  A notifier
// CASes Parked→Ready (and enqueues) or Running→RunningNotified; the
// runner's yield path CASes Running→Parked, and when that fails the wake
// that raced in is honoured by re-enqueueing.  All transitions are
// seq_cst RMWs on the same atomic, so the task's plain fields are
// handed between pool threads with proper happens-before — a task is a
// single logical thread of execution that merely migrates.
//
// Worker sleep uses an epoch counter + sleeper count (with a timed-wait
// backstop), so an idle pool makes no progress-sapping spins while a
// burst of wakes never strands a worker.
#include "core/runtime_impl.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <stdexcept>
#include <string>
#include <thread>

namespace fg {

class TaskExecutor final : public Executor, public QueueNotifier {
 public:
  TaskExecutor(GraphRuntime& rt, std::size_t workers);
  ~TaskExecutor() override { rt_.notifier_ = nullptr; }

  void execute() override;
  const char* name() const noexcept override { return "tasks"; }

  // QueueNotifier — called from pool threads (inside traced_try_* ops),
  // custom-stage threads, and the watchdog's abort path.
  void on_push(std::uint32_t qi) override {
    for (Task* t : consumers_of_[qi]) wake(t);
  }
  void on_pop(std::uint32_t qi) override {
    // Only a bounded channel can have a producer parked on the full edge.
    if (rt_.queues_[qi]->capacity() == 0) return;
    for (Task* t : producers_of_[qi]) wake(t);
  }
  void on_abort() override {
    for (auto& t : tasks_) wake(t.get());
    signal();
  }

 private:
  enum class TaskState : int {
    kParked,           ///< waiting for a wake; not in any deque
    kReady,            ///< enqueued in exactly one deque (or the injector)
    kRunning,          ///< resume() in progress on some pool thread
    kRunningNotified,  ///< a wake arrived mid-resume; re-enqueue on yield
    kDone,
  };
  /// What one resume() slice decided.
  enum class Step : int {
    kYield,     ///< cannot progress until woken — park
    kRunnable,  ///< budget exhausted but runnable — straight back in line
    kDone,
  };
  static constexpr int kResumeBudget = 128;  // tokens handled per slice

  struct Task;
  struct SourceTask;
  struct SinkTask;
  struct MapTask;
  struct ReplMapTask;

  /// Fixed-capacity Chase–Lev work-stealing deque (Lê et al. memory
  /// orders).  Capacity is a power of two ≥ ntasks+1 and every task has
  /// at most one live entry (only a transition *into* kReady enqueues),
  /// so the ring can never overflow and needs no growth path.
  class WorkDeque {
   public:
    explicit WorkDeque(std::size_t cap_pow2)
        : mask_(cap_pow2 - 1), slots_(cap_pow2) {}

    void push(Task* t) {  // owner only
      const std::int64_t b = bottom_.load(std::memory_order_relaxed);
      slots_[static_cast<std::size_t>(b) & mask_].store(
          t, std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_release);
      bottom_.store(b + 1, std::memory_order_relaxed);
    }

    Task* pop() {  // owner only
      const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
      bottom_.store(b, std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      std::int64_t t = top_.load(std::memory_order_relaxed);
      if (t <= b) {
        Task* task = slots_[static_cast<std::size_t>(b) & mask_].load(
            std::memory_order_relaxed);
        if (t == b) {
          // Last element: race the thieves for it.
          if (!top_.compare_exchange_strong(t, t + 1,
                                            std::memory_order_seq_cst,
                                            std::memory_order_relaxed)) {
            task = nullptr;
          }
          bottom_.store(b + 1, std::memory_order_relaxed);
        }
        return task;
      }
      bottom_.store(b + 1, std::memory_order_relaxed);
      return nullptr;
    }

    Task* steal() {  // any thread
      std::int64_t t = top_.load(std::memory_order_acquire);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      const std::int64_t b = bottom_.load(std::memory_order_acquire);
      if (t >= b) return nullptr;
      Task* task = slots_[static_cast<std::size_t>(t) & mask_].load(
          std::memory_order_relaxed);
      if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
        return nullptr;
      }
      return task;
    }

   private:
    std::size_t mask_;
    std::vector<std::atomic<Task*>> slots_;
    alignas(64) std::atomic<std::int64_t> top_{0};
    alignas(64) std::atomic<std::int64_t> bottom_{0};
  };

  void wake(Task* t);
  void wake_worker_tasks(std::uint32_t windex) {
    auto it = tasks_of_worker_.find(windex);
    if (it == tasks_of_worker_.end()) return;
    for (Task* t : it->second) wake(t);
  }
  void enqueue(Task* t);
  void signal();
  Task* find_work(std::size_t wid);
  void run_task(Task* t, obs::SpanRing* wring);
  void worker_main(std::size_t wid);

  std::size_t nworkers_;
  std::vector<std::unique_ptr<Task>> tasks_;
  std::vector<std::vector<Task*>> consumers_of_;  // by queue index
  std::vector<std::vector<Task*>> producers_of_;  // by queue index
  std::unordered_map<std::uint32_t, std::vector<Task*>> tasks_of_worker_;
  std::vector<GraphRuntime::RunWorker*> custom_;

  std::vector<std::unique_ptr<WorkDeque>> deques_;
  std::mutex injector_mutex_;
  std::deque<Task*> injector_;  // wakes arriving from non-pool threads

  std::atomic<std::size_t> remaining_{0};
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<int> sleepers_{0};
  std::mutex sleep_mutex_;
  std::condition_variable sleep_cv_;

  obs::Counter* resumes_{nullptr};
  obs::Counter* steals_{nullptr};

  static thread_local TaskExecutor* tls_ex_;
  static thread_local std::size_t tls_wid_;
};

thread_local TaskExecutor* TaskExecutor::tls_ex_ = nullptr;
thread_local std::size_t TaskExecutor::tls_wid_ = 0;

// ---------------------------------------------------------------------------
// Task base: the per-slice polling helpers shared by every stage kind
// ---------------------------------------------------------------------------

struct TaskExecutor::Task {
  TaskExecutor& ex;
  GraphRuntime& rt;
  GraphRuntime::RunWorker& w;
  std::atomic<TaskState> state{TaskState::kReady};

  // Stage-labeled span ring, matching the track the blocking backend
  // gives this worker.  A task runs on one pool thread at a time and
  // migration goes through the state machine's seq_cst RMWs, so the
  // ring keeps its single-logical-writer contract.
  obs::SpanRing* ring{nullptr};
  std::uint64_t slices{0};  // per-task kTaskSlice sequence

  // Accept-wait bookkeeping: t0 latches at the first attempt, so the
  // AcceptWait span and accept_blocked cover the same interval the
  // blocking backend measures around its pop.
  bool waiting{false};
  util::TimePoint wait_t0{};

  Task(TaskExecutor& e, GraphRuntime::RunWorker& rw)
      : ex(e), rt(e.rt_), w(rw) {}
  virtual ~Task() = default;
  virtual Step resume(int& budget) = 0;

  void begin_wait() {
    if (!waiting) {
      waiting = true;
      wait_t0 = util::Clock::now();
    }
  }

  /// Non-blocking pop with the stall-report diagnostics the blocking
  /// traced_pop publishes; false means the caller must yield.
  bool poll_pop(Channel* q, Token& t) {
    begin_wait();
    if (rt.traced_try_pop(w, q, t)) {
      waiting = false;
      w.blocked_queue.store(kNoQueue, std::memory_order_relaxed);
      return true;
    }
    w.blocked_queue.store(rt.queue_index_.at(q), std::memory_order_relaxed);
    w.blocked_push.store(false, std::memory_order_relaxed);
    return false;
  }

  /// Non-blocking push, same diagnostics; kFull means the caller must
  /// yield and retry the *same* prepared token later.
  PushResult poll_push(Channel* q, Token t) {
    const PushResult r = rt.traced_try_push(w, q, t);
    if (r == PushResult::kFull) {
      w.blocked_queue.store(rt.queue_index_.at(q), std::memory_order_relaxed);
      w.blocked_push.store(true, std::memory_order_relaxed);
      return r;
    }
    w.blocked_queue.store(kNoQueue, std::memory_order_relaxed);
    return r;
  }
};

// ---------------------------------------------------------------------------
// Source: initial pool emission, then the recycle loop — the resumable
// counterpart of GraphRuntime::source_loop.
// ---------------------------------------------------------------------------

struct TaskExecutor::SourceTask final : Task {
  std::size_t active;
  std::size_t member{0};  // initial-emission cursor: pipeline …
  std::size_t pool{0};    // … and position within its pool
  bool init_done{false};

  // One prepared-but-unsent token at a time; stamping happens exactly
  // once at prepare so a retried push never re-stamps the buffer.
  bool pending{false};
  bool pending_caboose{false};
  Token ptok{};
  PipelineId ppid{kNoPipeline};
  std::uint64_t pround{0};
  util::TimePoint pt0{};

  SourceTask(TaskExecutor& e, GraphRuntime::RunWorker& rw)
      : Task(e, rw), active(rw.spec->members.size()) {}

  void prepare_buffer(PipelineId pid, Buffer* b) {
    auto& st = w.src[pid];
    pround = st.emitted;
    b->set_round(st.emitted++);
    b->set_size(0);
    b->set_tag(0);
    pt0 = util::Clock::now();
    b->set_emitted_at(pt0);  // the round's birth timestamp, read by the sink
    ptok = Token::of_buffer(b);
    ppid = pid;
    pending = true;
    pending_caboose = false;
  }

  void prepare_caboose(PipelineId pid) {
    // Flags flip at prepare time, exactly when the blocking path flips
    // them (before its push).
    w.src[pid].caboose_sent = true;
    --active;
    ptok = Token::caboose(pid);
    ppid = pid;
    pending = true;
    pending_caboose = true;
  }

  void finish_if_done(PipelineId pid) {
    auto& st = w.src[pid];
    if (!st.caboose_sent && st.target != 0 && st.emitted >= st.target)
      prepare_caboose(pid);
  }

  Step resume(int& budget) override {
    obs::SpanRing* const ring = obs::current_ring();
    for (;;) {
      if (pending) {
        Channel* q = w.out.at(ppid);
        const PushResult r = poll_push(q, ptok);
        if (r == PushResult::kFull) return Step::kYield;
        pending = false;
        if (pending_caboose) {
          // As in the blocking path, the caboose's push result is
          // ignored: an aborted queue drops control tokens harmlessly.
          continue;
        }
        const auto t1 = util::Clock::now();
        w.stats.convey_blocked += t1 - pt0;
        if (ring != nullptr)
          ring->emit(obs::SpanKind::kConveyWait, ppid, pround, pt0, t1);
        if (r == PushResult::kAborted) {
          w.src[ppid].parked += 1;  // token dropped by the aborted queue
          return Step::kDone;
        }
        ++w.stats.buffers;
        finish_if_done(ppid);
        continue;
      }

      if (!init_done) {
        // Inject each pipeline's pool (bounded by its round target).
        if (--budget < 0) return Step::kRunnable;
        if (member >= w.spec->members.size()) {
          init_done = true;
          continue;
        }
        const PipelineId pid = w.spec->members[member];
        auto& st = w.src[pid];
        auto& pl = rt.pools_[pid];
        if (pool < pl.size() &&
            !(st.target != 0 && st.emitted >= st.target)) {
          ++st.distinct;
          prepare_buffer(pid, pl[pool].get());
          ++pool;
          continue;
        }
        finish_if_done(pid);
        ++member;
        pool = 0;
        continue;
      }

      if (active == 0) return Step::kDone;
      if (--budget < 0) return Step::kRunnable;
      Token t;
      if (!poll_pop(w.in, t)) return Step::kYield;
      const auto t1 = util::Clock::now();
      w.stats.accept_blocked += t1 - wait_t0;
      if (ring != nullptr && t.kind != TokenKind::kAbort) {
        ring->emit(obs::SpanKind::kAcceptWait, t.pipeline,
                   t.buffer != nullptr ? t.buffer->round() : 0, wait_t0, t1);
      }
      switch (t.kind) {
        case TokenKind::kAbort:
          return Step::kDone;
        case TokenKind::kClose:
          if (!w.src[t.pipeline].caboose_sent) prepare_caboose(t.pipeline);
          break;
        case TokenKind::kBuffer: {
          auto& st = w.src[t.pipeline];
          if (st.caboose_sent) {
            st.parked += 1;  // pipeline done; the buffer retires to the pool
            break;
          }
          prepare_buffer(t.pipeline, t.buffer);
          break;
        }
        case TokenKind::kCaboose:
          break;  // not expected on a recycle queue; ignore
      }
    }
  }
};

// ---------------------------------------------------------------------------
// Sink — the resumable counterpart of GraphRuntime::sink_loop.
// ---------------------------------------------------------------------------

struct TaskExecutor::SinkTask final : Task {
  std::size_t active;

  SinkTask(TaskExecutor& e, GraphRuntime::RunWorker& rw)
      : Task(e, rw), active(rw.spec->members.size()) {}

  Step resume(int& budget) override {
    obs::SpanRing* const ring = obs::current_ring();
    for (;;) {
      if (--budget < 0) return Step::kRunnable;
      Token t;
      if (!poll_pop(w.in, t)) return Step::kYield;
      const auto t1 = util::Clock::now();
      w.stats.accept_blocked += t1 - wait_t0;
      if (ring != nullptr && t.kind != TokenKind::kAbort) {
        ring->emit(obs::SpanKind::kAcceptWait, t.pipeline,
                   t.buffer != nullptr ? t.buffer->round() : 0, wait_t0, t1);
      }
      switch (t.kind) {
        case TokenKind::kAbort:
          return Step::kDone;
        case TokenKind::kCaboose:
          if (--active == 0) return Step::kDone;
          break;
        case TokenKind::kBuffer:
          ++w.stats.buffers;
          // The buffer reaching the sink closes its round: count it and
          // measure the source→sink latency (buffer fields are read
          // before the recycle push can re-stamp them).
          if (rt.rounds_counter_ != nullptr) {
            rt.rounds_counter_->add(1);
            const util::TimePoint emitted = t.buffer->emitted_at();
            if (rt.round_latency_ != nullptr && t1 >= emitted) {
              rt.round_latency_->record(static_cast<std::uint64_t>(
                  std::chrono::duration_cast<std::chrono::microseconds>(
                      t1 - emitted)
                      .count()));
            }
            if (ring != nullptr && t1 >= emitted) {
              ring->emit(obs::SpanKind::kRound, t.pipeline, t.buffer->round(),
                         emitted, t1);
            }
          }
          // Recycle queues are unbounded by plan construction, so this
          // blocking push can never stall a pool thread.
          rt.park_token(w, t);
          break;
        case TokenKind::kClose:
          break;  // not expected
      }
    }
  }
};

// ---------------------------------------------------------------------------
// Map (single-threaded) — the resumable counterpart of map_loop.
// ---------------------------------------------------------------------------

struct TaskExecutor::MapTask final : Task {
  MapStage* stage;
  std::size_t active;
  std::unordered_map<PipelineId, bool> closed;

  bool pending{false};
  bool pending_caboose{false};
  bool close_after{false};
  Token ptok{};
  PipelineId ppid{kNoPipeline};
  std::uint64_t pround{0};
  util::TimePoint pt0{};

  MapTask(TaskExecutor& e, GraphRuntime::RunWorker& rw)
      : Task(e, rw),
        stage(static_cast<MapStage*>(rw.spec->stage)),
        active(rw.spec->members.size()) {
    for (PipelineId pid : rw.spec->members) closed[pid] = false;
  }

  void do_close(PipelineId pid) {
    closed[pid] = true;
    // A refused push means teardown is underway; the kAbort token ends
    // this task on its next pop.  source_in is unbounded: never blocks.
    rt.traced_push(w, rt.source_in(pid), Token::close(pid));
  }

  Step resume(int& budget) override {
    obs::SpanRing* const ring = obs::current_ring();
    for (;;) {
      if (pending) {
        Channel* q = w.out.at(ppid);
        const PushResult r = poll_push(q, ptok);
        if (r == PushResult::kFull) return Step::kYield;
        pending = false;
        if (pending_caboose) {
          if (--active == 0) return Step::kDone;
          continue;
        }
        const auto t1 = util::Clock::now();
        w.stats.convey_blocked += t1 - pt0;
        if (ring != nullptr)
          ring->emit(obs::SpanKind::kConveyWait, ppid, pround, pt0, t1);
        // Teardown: keep the buffer accountable.
        if (r == PushResult::kAborted) rt.park_token(w, ptok);
        if (close_after) do_close(ppid);
        continue;
      }

      if (--budget < 0) return Step::kRunnable;
      Token t;
      if (!poll_pop(w.in, t)) return Step::kYield;
      const auto t1 = util::Clock::now();
      w.stats.accept_blocked += t1 - wait_t0;
      if (ring != nullptr && t.kind != TokenKind::kAbort) {
        ring->emit(obs::SpanKind::kAcceptWait, t.pipeline,
                   t.buffer != nullptr ? t.buffer->round() : 0, wait_t0, t1);
      }
      switch (t.kind) {
        case TokenKind::kAbort:
          return Step::kDone;
        case TokenKind::kCaboose: {
          const auto tw = util::Clock::now();
          stage->flush(t.pipeline);
          const auto tw1 = util::Clock::now();
          w.stats.working += tw1 - tw;
          if (ring != nullptr)
            ring->emit(obs::SpanKind::kStageWork, t.pipeline, 0, tw, tw1);
          ptok = t;
          ppid = t.pipeline;
          pending = true;
          pending_caboose = true;
          close_after = false;
          break;
        }
        case TokenKind::kBuffer: {
          const PipelineId pid = t.pipeline;
          if (closed[pid]) {
            // The stage already declared this pipeline finished; hand
            // leftover upstream buffers straight back to the source.
            rt.park_token(w, t);
            break;
          }
          const auto tw = util::Clock::now();
          StageAction action;
          try {
            action = stage->apply(*t.buffer);
          } catch (...) {
            // Return the in-flight buffer before unwinding so nothing is
            // stranded; the pool runner records the error and aborts.
            rt.park_token(w, t);
            throw;
          }
          const auto tw1 = util::Clock::now();
          w.stats.working += tw1 - tw;
          // No buffer-field reads after a successful push — the buffer
          // can recycle and be re-stamped by the source meanwhile.
          const std::uint64_t round = t.buffer->round();
          if (ring != nullptr)
            ring->emit(obs::SpanKind::kStageWork, pid, round, tw, tw1);
          ++w.stats.buffers;
          const bool conveys = action == StageAction::kConvey ||
                               action == StageAction::kConveyAndClose;
          const bool closes = action == StageAction::kConveyAndClose ||
                              action == StageAction::kRecycleAndClose;
          if (conveys) {
            ptok = t;
            ppid = pid;
            pround = round;
            pt0 = util::Clock::now();
            pending = true;
            pending_caboose = false;
            close_after = closes;
          } else {
            rt.park_token(w, t);
            if (closes) do_close(pid);
          }
          break;
        }
        case TokenKind::kClose:
          break;  // not expected between stages
      }
    }
  }
};

// ---------------------------------------------------------------------------
// Replicated map: R tasks share one RunWorker's queue and ReplShared
// state — the resumable counterpart of map_loop_replicated.  Instead of
// the blocking backend's poison-pill close tokens, the replica that
// forwards the last caboose sets ReplShared::done and wakes its
// siblings; the caboose gate parks the task and is reopened by
// whichever sibling resolves the last outstanding popped buffer.
// ---------------------------------------------------------------------------

struct TaskExecutor::ReplMapTask final : Task {
  MapStage* stage;
  StageStats local;  // merged into w.stats exactly once at exit
  bool merged{false};

  bool pending{false};
  bool pending_caboose{false};
  bool close_after{false};
  Token ptok{};
  PipelineId ppid{kNoPipeline};
  std::uint64_t pround{0};
  util::TimePoint pt0{};

  bool have_caboose{false};
  PipelineId caboose_pid{kNoPipeline};
  std::uint64_t caboose_target{0};

  ReplMapTask(TaskExecutor& e, GraphRuntime::RunWorker& rw)
      : Task(e, rw), stage(static_cast<MapStage*>(rw.spec->stage)) {
    auto& shared = rw.repl;
    std::lock_guard<std::mutex> lock(shared.mutex);
    if (!shared.initialized) {
      shared.active = rw.spec->members.size();
      for (PipelineId pid : rw.spec->members) {
        shared.closed[pid] = false;
      }
      shared.initialized = true;
    }
  }

  void merge_stats() {
    if (merged) return;
    merged = true;
    std::lock_guard<std::mutex> lock(w.repl.mutex);
    w.stats.buffers += local.buffers;
    w.stats.working += local.working;
    w.stats.accept_blocked += local.accept_blocked;
    w.stats.convey_blocked += local.convey_blocked;
  }

  Step finish() {
    merge_stats();
    return Step::kDone;
  }

  Step resume(int& budget) override {
    obs::SpanRing* const ring = obs::current_ring();
    auto& shared = w.repl;
    for (;;) {
      if (pending) {
        Channel* q = w.out.at(ppid);
        const PushResult r = poll_push(q, ptok);
        if (r == PushResult::kFull) return Step::kYield;
        pending = false;
        if (pending_caboose) {
          bool last;
          {
            std::lock_guard<std::mutex> lock(shared.mutex);
            last = --shared.active == 0;
            if (last) shared.done = true;
          }
          if (last) {
            // Siblings parked on the now-quiet queue must observe done.
            ex.wake_worker_tasks(w.index);
            return finish();
          }
          continue;
        }
        const auto t1 = util::Clock::now();
        local.convey_blocked += t1 - pt0;
        if (ring != nullptr)
          ring->emit(obs::SpanKind::kConveyWait, ppid, pround, pt0, t1);
        if (r == PushResult::kAborted) rt.park_token(w, ptok);
        if (close_after) {
          bool first_close;
          {
            std::lock_guard<std::mutex> lock(shared.mutex);
            first_close = !shared.closed[ppid];
            shared.closed[ppid] = true;
          }
          if (first_close)
            rt.traced_push(w, rt.source_in(ppid), Token::close(ppid));
        }
        {
          std::lock_guard<std::mutex> lock(shared.mutex);
          ++shared.resolved;
        }
        // A sibling may be gating this pipeline's caboose on us.
        ex.wake_worker_tasks(w.index);
        continue;
      }

      if (have_caboose) {
        // The caboose may overtake buffers other replicas have already
        // popped; it must leave this stage last.  caboose_target was
        // captured from the queue's own pop count when the caboose was
        // popped, so even a buffer a sibling has popped but not yet
        // registered anywhere holds the caboose back.
        {
          std::lock_guard<std::mutex> lock(shared.mutex);
          if (shared.resolved < caboose_target) return Step::kYield;
        }
        const auto tw = util::Clock::now();
        stage->flush(caboose_pid);
        const auto tw1 = util::Clock::now();
        local.working += tw1 - tw;
        if (ring != nullptr)
          ring->emit(obs::SpanKind::kStageWork, caboose_pid, 0, tw, tw1);
        ptok = Token::caboose(caboose_pid);
        ppid = caboose_pid;
        pending = true;
        pending_caboose = true;
        close_after = false;
        have_caboose = false;
        continue;
      }

      if (--budget < 0) return Step::kRunnable;
      Token t;
      if (!poll_pop(w.in, t)) {
        bool done;
        {
          std::lock_guard<std::mutex> lock(shared.mutex);
          done = shared.done;
        }
        // finish() merges stats under the same mutex — call it unlocked.
        if (done) return finish();
        return Step::kYield;
      }
      const auto t1 = util::Clock::now();
      local.accept_blocked += t1 - wait_t0;
      if (ring != nullptr && t.kind != TokenKind::kAbort &&
          t.kind != TokenKind::kClose) {
        ring->emit(obs::SpanKind::kAcceptWait, t.pipeline,
                   t.buffer != nullptr ? t.buffer->round() : 0, wait_t0, t1);
      }
      switch (t.kind) {
        case TokenKind::kAbort:
          return finish();
        case TokenKind::kClose:
          // Parity with the blocking backend's poison pill.
          return finish();
        case TokenKind::kCaboose:
          have_caboose = true;
          caboose_pid = t.pipeline;
          // Every buffer popped before this caboose (the queue counts
          // pops atomically with the pop, aborts excluded) must reach a
          // terminal state before the caboose may be forwarded.
          caboose_target = w.in->stats().pops - 1;
          break;
        case TokenKind::kBuffer: {
          const PipelineId pid = t.pipeline;
          bool was_closed;
          {
            std::lock_guard<std::mutex> lock(shared.mutex);
            was_closed = shared.closed[pid];
          }
          if (was_closed) {
            rt.park_token(w, t);
            {
              std::lock_guard<std::mutex> lock(shared.mutex);
              ++shared.resolved;
            }
            ex.wake_worker_tasks(w.index);
            break;
          }
          const auto tw = util::Clock::now();
          StageAction action;
          try {
            action = stage->apply(*t.buffer);
          } catch (...) {
            rt.park_token(w, t);
            {
              std::lock_guard<std::mutex> lock(shared.mutex);
              ++shared.resolved;
            }
            ex.wake_worker_tasks(w.index);
            merge_stats();
            throw;
          }
          const auto tw1 = util::Clock::now();
          local.working += tw1 - tw;
          const std::uint64_t round = t.buffer->round();
          if (ring != nullptr)
            ring->emit(obs::SpanKind::kStageWork, pid, round, tw, tw1);
          ++local.buffers;
          const bool conveys = action == StageAction::kConvey ||
                               action == StageAction::kConveyAndClose;
          const bool closes = action == StageAction::kConveyAndClose ||
                              action == StageAction::kRecycleAndClose;
          if (conveys) {
            // resolved is not bumped until the convey resolves, so a
            // sibling's caboose cannot overtake this buffer.
            ptok = t;
            ppid = pid;
            pround = round;
            pt0 = util::Clock::now();
            pending = true;
            pending_caboose = false;
            close_after = closes;
          } else {
            rt.park_token(w, t);
            if (closes) {
              bool first_close;
              {
                std::lock_guard<std::mutex> lock(shared.mutex);
                first_close = !shared.closed[pid];
                shared.closed[pid] = true;
              }
              if (first_close)
                rt.traced_push(w, rt.source_in(pid), Token::close(pid));
            }
            {
              std::lock_guard<std::mutex> lock(shared.mutex);
              ++shared.resolved;
            }
            ex.wake_worker_tasks(w.index);
          }
          break;
        }
      }
    }
  }
};

// ---------------------------------------------------------------------------
// Executor proper
// ---------------------------------------------------------------------------

TaskExecutor::TaskExecutor(GraphRuntime& rt, std::size_t workers)
    : Executor(rt), nworkers_(workers == 0 ? 2 : workers) {
  consumers_of_.resize(rt.queues_.size());
  producers_of_.resize(rt.queues_.size());
  for (auto& uw : rt.workers_) {
    GraphRuntime::RunWorker* w = uw.get();
    if (w->spec->kind == WorkerKind::kCustom) {
      custom_.push_back(w);
      continue;
    }
    const bool replicated =
        w->spec->kind == WorkerKind::kMap && w->spec->replicas > 1;
    const std::size_t n = replicated ? w->spec->replicas : 1;
    for (std::size_t i = 0; i < n; ++i) {
      std::unique_ptr<Task> t;
      switch (w->spec->kind) {
        case WorkerKind::kSource:
          t = std::make_unique<SourceTask>(*this, *w);
          break;
        case WorkerKind::kSink:
          t = std::make_unique<SinkTask>(*this, *w);
          break;
        case WorkerKind::kMap:
          if (replicated) {
            t = std::make_unique<ReplMapTask>(*this, *w);
          } else {
            t = std::make_unique<MapTask>(*this, *w);
          }
          break;
        case WorkerKind::kCustom:
          break;  // unreachable
      }
      Task* raw = t.get();
      // Mirror the blocking backend's track layout: every task (each
      // replica included) emits into a ring named after its stage, so
      // traces and the analyzer see identical tracks under both
      // executors regardless of which pool thread runs a slice.
      if (rt.spans_ != nullptr) raw->ring = &rt.spans_->acquire(w->spec->label);
      tasks_.push_back(std::move(t));
      tasks_of_worker_[w->index].push_back(raw);
      if (w->in != nullptr)
        consumers_of_[rt.queue_index_.at(w->in)].push_back(raw);
      for (const auto& [pid, q] : w->out) {
        auto& v = producers_of_[rt.queue_index_.at(q)];
        if (std::find(v.begin(), v.end(), raw) == v.end()) v.push_back(raw);
      }
    }
  }
  std::size_t cap = 1;
  while (cap < tasks_.size() + 1) cap <<= 1;
  deques_.reserve(nworkers_);
  for (std::size_t i = 0; i < nworkers_; ++i)
    deques_.push_back(std::make_unique<WorkDeque>(cap));
  remaining_.store(tasks_.size(), std::memory_order_relaxed);
  if (rt.obs_ != nullptr) {
    resumes_ = &rt.obs_->metrics().counter("executor.task_resumes");
    steals_ = &rt.obs_->metrics().counter("executor.task_steals");
  }
  // Install the wakeup hook before the watchdog can possibly fire.
  rt.notifier_ = this;
}

void TaskExecutor::wake(Task* t) {
  for (;;) {
    TaskState s = t->state.load(std::memory_order_acquire);
    if (s == TaskState::kParked) {
      if (t->state.compare_exchange_weak(s, TaskState::kReady)) {
        enqueue(t);
        return;
      }
    } else if (s == TaskState::kRunning) {
      if (t->state.compare_exchange_weak(s, TaskState::kRunningNotified))
        return;
    } else {
      return;  // Ready, RunningNotified, Done: a wake is already pending
    }
  }
}

void TaskExecutor::enqueue(Task* t) {
  if (tls_ex_ == this) {
    deques_[tls_wid_]->push(t);
  } else {
    std::lock_guard<std::mutex> lock(injector_mutex_);
    injector_.push_back(t);
  }
  signal();
}

void TaskExecutor::signal() {
  epoch_.fetch_add(1, std::memory_order_seq_cst);
  if (sleepers_.load(std::memory_order_seq_cst) > 0) {
    // Empty critical section: serializes with the sleeper's predicate
    // check so the notify below cannot slot between check and wait.
    { std::lock_guard<std::mutex> lock(sleep_mutex_); }
    sleep_cv_.notify_all();
  }
}

TaskExecutor::Task* TaskExecutor::find_work(std::size_t wid) {
  if (Task* t = deques_[wid]->pop()) return t;
  {
    std::lock_guard<std::mutex> lock(injector_mutex_);
    if (!injector_.empty()) {
      Task* t = injector_.front();
      injector_.pop_front();
      return t;
    }
  }
  for (std::size_t k = 1; k < nworkers_; ++k) {
    if (Task* t = deques_[(wid + k) % nworkers_]->steal()) {
      if (steals_ != nullptr) steals_->add(1);
      return t;
    }
  }
  return nullptr;
}

void TaskExecutor::run_task(Task* t, obs::SpanRing* wring) {
  TaskState expected = TaskState::kReady;
  if (!t->state.compare_exchange_strong(expected, TaskState::kRunning))
    return;  // defensive: a task has at most one deque entry
  if (resumes_ != nullptr) resumes_->add(1);
  // Stage spans (work/waits/queue samples) go to the task's own
  // stage-labeled ring, wherever the slice runs.
  obs::RingScope ambient(t->ring);
  const util::TimePoint t0 =
      wring != nullptr ? util::Clock::now() : util::TimePoint{};
  int budget = kResumeBudget;
  Step s;
  try {
    s = t->resume(budget);
  } catch (const AbortSignal&) {
    s = Step::kDone;  // unwinding after another worker's failure
  } catch (...) {
    rt_.record_error(std::current_exception());
    rt_.abort_all();
    if (rt_.abort_hook_) rt_.abort_hook_();
    s = Step::kDone;
  }
  if (wring != nullptr) {
    wring->emit(obs::SpanKind::kTaskSlice, t->w.index, t->slices++, t0,
                util::Clock::now());
  }
  switch (s) {
    case Step::kDone:
      t->state.store(TaskState::kDone, std::memory_order_seq_cst);
      if (remaining_.fetch_sub(1, std::memory_order_seq_cst) == 1)
        signal();  // last task: wake sleepers so the pool can exit
      break;
    case Step::kRunnable:
      t->state.store(TaskState::kReady, std::memory_order_seq_cst);
      enqueue(t);
      break;
    case Step::kYield: {
      TaskState e = TaskState::kRunning;
      if (!t->state.compare_exchange_strong(e, TaskState::kParked)) {
        // A wake raced in while the task ran (RunningNotified) — honour
        // it by going straight back in line instead of parking.
        t->state.store(TaskState::kReady, std::memory_order_seq_cst);
        enqueue(t);
      }
      break;
    }
  }
}

void TaskExecutor::worker_main(std::size_t wid) {
  tls_ex_ = this;
  tls_wid_ = wid;
  // Opt-in scheduling view: with task_spans on, each pool thread also
  // records one kTaskSlice per resume into its own "tasks:wN" track.
  // Off by default so the trace's track layout (and the analyzer's
  // per-stage aggregation) is identical under both executors.
  obs::SpanRing* wring = nullptr;
  if (rt_.task_spans_ && rt_.spans_ != nullptr)
    wring = &rt_.spans_->acquire("tasks:w" + std::to_string(wid));
  while (remaining_.load(std::memory_order_acquire) > 0) {
    if (Task* t = find_work(wid)) {
      run_task(t, wring);
      continue;
    }
    const std::uint64_t seen = epoch_.load(std::memory_order_seq_cst);
    if (Task* t = find_work(wid)) {
      run_task(t, wring);
      continue;
    }
    if (remaining_.load(std::memory_order_acquire) == 0) break;
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    {
      std::unique_lock<std::mutex> lock(sleep_mutex_);
      // The timed backstop bounds any wakeup hole the epoch protocol
      // cannot see (e.g. a steal target publishing between our scans).
      sleep_cv_.wait_for(lock, std::chrono::milliseconds(10), [&] {
        return epoch_.load(std::memory_order_relaxed) != seen ||
               remaining_.load(std::memory_order_relaxed) == 0;
      });
    }
    sleepers_.fetch_sub(1, std::memory_order_seq_cst);
  }
  tls_ex_ = nullptr;
}

void TaskExecutor::execute() {
  // Seed the deques round-robin before any pool thread exists; the
  // handoff synchronizes via thread creation.
  std::size_t i = 0;
  for (auto& t : tasks_) deques_[i++ % nworkers_]->push(t.get());

  // Custom stages block in their StageContext; they keep dedicated
  // threads, exactly as under the thread-per-stage backend.
  for (GraphRuntime::RunWorker* w : custom_) {
    GraphRuntime* rt = &rt_;
    w->thread = std::thread([rt, w] { rt->worker_entry(w); });
    for (std::size_t r = 1; r < w->spec->replicas; ++r)
      w->extra_threads.emplace_back([rt, w] { rt->worker_entry(w); });
  }

  std::vector<std::thread> pool;
  const std::size_t n = tasks_.empty() ? 0 : nworkers_;
  pool.reserve(n);
  for (std::size_t wid = 0; wid < n; ++wid)
    pool.emplace_back([this, wid] { worker_main(wid); });
  for (auto& th : pool) th.join();
  for (GraphRuntime::RunWorker* w : custom_) {
    if (w->thread.joinable()) w->thread.join();
    for (auto& t : w->extra_threads)
      if (t.joinable()) t.join();
  }
}

std::unique_ptr<Executor> make_task_executor(GraphRuntime& rt,
                                             std::size_t workers) {
  return std::make_unique<TaskExecutor>(rt, workers);
}

}  // namespace fg
