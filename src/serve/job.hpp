// One fgserve job: the spec the client sent, its state machine, its
// containment (per-job fault injector, per-job byte budgets, per-job
// workspace), and the runner that executes it.
//
// State machine:
//
//   QUEUED ──────────────> RUNNING ───────> COMPLETED
//     │  (runner picks up)    │                (verified output)
//     │                       ├─────────────> FAILED
//     │  (cancel / client     │   (threw: injected fault, quota,
//     │   death while queued) │    watchdog, checksum mismatch)
//     └──────> CANCELLED <────┘
//                  (cancel / client death / drain deadline while running)
//
// Isolation contract: everything a job touches is job-owned — its fault
// injector, its ByteBudgets, its Workspace directory, its SimCluster,
// its pipeline graphs — so a job can only fail itself.  The runner
// executes run_job() under a catch-all; whatever the job throws becomes
// its FAILED result, and the buffer audit after teardown checks that the
// aborted graphs parked every buffer.
#pragma once

#include "serve/protocol.hpp"
#include "util/budget.hpp"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <mutex>
#include <string>

namespace fg::serve {

/// Shared-state handle for one job.  The server owns Jobs via
/// shared_ptr: the admission queue, the owning connection, and the
/// runner all hold references.
class Job {
 public:
  Job(std::uint32_t id, JobSpec spec, std::uint64_t owner_conn)
      : id_(id), spec_(std::move(spec)), owner_conn_(owner_conn) {}

  std::uint32_t id() const noexcept { return id_; }
  const JobSpec& spec() const noexcept { return spec_; }
  std::uint64_t owner_conn() const noexcept { return owner_conn_; }

  JobState state() const noexcept {
    return state_.load(std::memory_order_acquire);
  }
  void set_state(JobState s) noexcept {
    state_.store(s, std::memory_order_release);
  }
  bool terminal() const noexcept {
    const JobState s = state();
    return s == JobState::kCompleted || s == JobState::kFailed ||
           s == JobState::kCancelled;
  }

  /// Ask the job to stop: sets the cancel flag (stage bodies poll it)
  /// and fires the abort hook (unblocks fabric calls / queue waits).
  /// `why` is reported in the result of a job that dies to this request.
  /// Safe to call at any time, from any thread, repeatedly.
  void request_cancel(const std::string& why) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (cancel_reason_.empty()) cancel_reason_ = why;
    }
    cancel_.store(true, std::memory_order_release);
    fire_abort();
  }
  bool cancel_requested() const noexcept {
    return cancel_.load(std::memory_order_acquire);
  }
  std::string cancel_reason() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return cancel_reason_;
  }

  /// Abort-side channel, distinct from cancel: the stall watchdog also
  /// fires it (via the graph abort hook) so a stalled stage blocked on
  /// this flag unwinds without the job being "cancelled".
  void request_abort() noexcept { abort_.store(true, std::memory_order_release); }
  bool abort_requested() const noexcept {
    return abort_.load(std::memory_order_acquire) || cancel_requested();
  }

  /// The runner installs the substrate-specific unblocking call (e.g.
  /// `fabric.abort()`) while the job runs, and clears it on the way out.
  void set_abort_hook(std::function<void()> hook) {
    std::lock_guard<std::mutex> lock(mutex_);
    abort_hook_ = std::move(hook);
    if (cancel_.load(std::memory_order_acquire)) fire_abort_locked();
  }
  void clear_abort_hook() {
    std::lock_guard<std::mutex> lock(mutex_);
    abort_hook_ = nullptr;
  }

  // Timing, written by the server/runner in sequence.
  std::chrono::steady_clock::time_point admitted_at{};
  std::chrono::steady_clock::time_point started_at{};

 private:
  void fire_abort() {
    std::lock_guard<std::mutex> lock(mutex_);
    fire_abort_locked();
  }
  void fire_abort_locked() {
    abort_.store(true, std::memory_order_release);
    if (abort_hook_) abort_hook_();
  }

  const std::uint32_t id_;
  const JobSpec spec_;
  const std::uint64_t owner_conn_;
  std::atomic<JobState> state_{JobState::kQueued};
  std::atomic<bool> cancel_{false};
  std::atomic<bool> abort_{false};
  mutable std::mutex mutex_;
  std::string cancel_reason_;
  std::function<void()> abort_hook_;
};

/// Server-side execution limits a job runs under (resolved from the
/// server options + the spec's own requests, clamped down).
struct JobLimits {
  std::uint64_t pool_quota_bytes{0};  ///< 0 = unlimited
  std::uint64_t disk_quota_bytes{0};  ///< 0 = unlimited
  std::uint32_t watchdog_ms{10'000};
  std::filesystem::path root;  ///< parent dir for the job's workspace
};

/// Execute `job` to a terminal state and return its result.  Never
/// throws: every failure mode (injected fault, quota, watchdog stall,
/// cancel, checksum mismatch, bad spec) is folded into the result.  The
/// workspace directory is created under limits.root and removed again
/// before returning.
JobResult run_job(Job& job, const JobLimits& limits);

}  // namespace fg::serve
