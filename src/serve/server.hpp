// The fgserve server: a persistent, fault-isolated, multi-tenant pipeline
// service.
//
// Architecture — four kinds of thread, meeting only at small locked
// structures:
//
//   accept thread     one; accepts clients, spawns a reader per
//                     connection, reaps finished readers
//   reader threads    one per live connection; parse frames, answer
//                     admission/status/stats synchronously, detect
//                     client death (EOF without BYE)
//   runner threads    a fixed pool of `max_running` slots; pop admitted
//                     jobs from the queue, execute them via run_job()
//                     (never throws), push the RESULT to the owner
//   caller threads    request_drain()/wait()/stats_json() from main or a
//                     signal-watcher
//
// Admission control: SUBMIT is answered immediately.  A job is admitted
// only when the bounded queue has room; otherwise the client gets
// REJECTED("busy") — load shedding, not backpressure, so a storm of
// submissions cannot wedge the server or starve running jobs.  During a
// drain every SUBMIT gets REJECTED("draining").
//
// Fault isolation: runners call run_job(), which folds every failure
// mode (injected fault, quota breach, watchdog stall, cancel, checksum
// mismatch) into a JobResult; the runner thread itself cannot die to a
// job.  Each job's graphs, budgets, injector, and workspace are job-
// owned, so one tenant's crash, stall, or overdraw cannot touch another
// tenant's run — the serve_test suite and the chaos soak assert exactly
// this.
//
// Graceful drain: request_drain() stops admission; wait() lets running
// and already-queued jobs finish until the drain deadline, then cancels
// stragglers, delivers their CANCELLED results, closes every socket, and
// joins every thread.  wait() returning 0 is the contract the SIGTERM
// path relies on.
#pragma once

#include "obs/registry.hpp"
#include "serve/job.hpp"
#include "serve/protocol.hpp"

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace fg::serve {

struct ServerOptions {
  /// TCP port to listen on (loopback); 0 picks an ephemeral port, read
  /// it back via port() — the tests' pattern.
  std::uint16_t port{0};

  /// Concurrent job slots (runner threads sharing the machine).
  int max_running{2};
  /// Bound on the admission queue; a SUBMIT beyond it is shed with
  /// REJECTED("busy").
  int max_queued{8};

  /// Per-job quota ceilings (0 = unlimited); a job's own request can
  /// narrow but never widen these.
  std::uint64_t pool_quota_bytes{64ull << 20};
  std::uint64_t disk_quota_bytes{256ull << 20};

  /// Default stall watchdog per job (ms); jobs may only tighten it.
  std::uint32_t watchdog_ms{10'000};

  /// Parent directory for per-job workspaces; empty = system temp.
  std::filesystem::path root;

  /// How long wait() lets jobs finish after request_drain() before
  /// cancelling them.
  std::uint32_t drain_deadline_ms{10'000};
};

class Server {
 public:
  explicit Server(ServerOptions opts);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind, listen, and spawn the accept + runner threads.  Throws
  /// std::system_error on bind failure.
  void start();

  /// The bound port (after start()).
  std::uint16_t port() const noexcept { return port_; }

  /// Stop admitting jobs.  Idempotent, callable from any thread (it is
  /// NOT async-signal-safe — signal handlers should set a flag a watcher
  /// thread turns into this call).
  void request_drain();

  /// Drain to completion: wait for running and queued jobs up to the
  /// drain deadline, cancel stragglers, deliver their results, tear all
  /// threads down.  Returns 0 on a clean drain (the process exit code).
  /// Implies request_drain().
  int wait();

  /// Server-wide metrics snapshot as JSON (the STATS payload):
  /// {"draining":...,"queue_depth":...,"running":...,"slots":...,
  ///  "registry":{counters,gauges,histograms}}.
  std::string stats_json() const;

  obs::Registry& registry() noexcept { return registry_; }

  /// Live job counts, for tests and the drain log line.
  std::size_t queued_jobs() const;
  std::size_t running_jobs() const;

 private:
  struct Connection;

  void accept_loop();
  void reader_loop(std::shared_ptr<Connection> conn);
  void runner_loop(int slot);
  void handle_submit(Connection& conn, const Frame& f);
  void handle_cancel(const Frame& f);
  void handle_status(Connection& conn, const Frame& f);
  void on_client_gone(Connection& conn, bool orderly);
  void deliver_result(const std::shared_ptr<Job>& job, const JobResult& r);
  void reap_connections(bool all);
  std::shared_ptr<Job> find_job(std::uint32_t id) const;

  ServerOptions opts_;
  JobLimits limits_;
  std::uint16_t port_{0};
  int listen_fd_{-1};

  obs::Registry registry_;

  mutable std::mutex mutex_;  // queue_, jobs_, draining_, running_
  std::condition_variable cv_;          // runners wait here
  std::condition_variable drained_cv_;  // wait() waits here
  std::deque<std::shared_ptr<Job>> queue_;
  std::map<std::uint32_t, std::shared_ptr<Job>> jobs_;
  std::uint32_t next_job_id_{1};
  int running_{0};
  bool draining_{false};
  bool stopping_{false};

  mutable std::mutex conn_mutex_;
  std::map<std::uint64_t, std::shared_ptr<Connection>> conns_;
  std::uint64_t next_conn_id_{1};

  std::thread accept_thread_;
  std::vector<std::thread> runners_;
  bool started_{false};
  bool joined_{false};
};

}  // namespace fg::serve
