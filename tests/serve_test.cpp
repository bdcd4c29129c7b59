// fgserve in-process tests: an ephemeral-port Server plus the
// synchronous Client, pinning down the service guarantees the design
// doc promises:
//
//  * admission control sheds load — a full queue answers REJECTED
//    ("busy") instead of wedging the server;
//  * quotas are enforced at allocation time — an overdrawing job FAILS
//    alone while a concurrent frugal job completes;
//  * the watchdog isolates a stalled tenant — the stalled job FAILS
//    with full buffer custody while a healthy neighbour finishes;
//  * a client that dies without BYE has its unfinished jobs cancelled;
//  * drain stops admission, finishes (or cancels) admitted work,
//    delivers every result, and wait() returns 0.
//
// Everything here runs over real loopback sockets — the same code path
// tools/fgserve wires to SIGTERM — so these are protocol tests too.
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/json.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

namespace fg::serve {
namespace {

ServerOptions quick_opts() {
  ServerOptions o;
  o.port = 0;  // ephemeral: tests read it back via port()
  o.max_running = 2;
  o.max_queued = 8;
  o.watchdog_ms = 30'000;  // generous: sanitizer builds are slow
  o.drain_deadline_ms = 20'000;
  return o;
}

JobSpec quick_pipeline(std::uint64_t seed = 1) {
  JobSpec s;
  s.kind = "pipeline";
  s.stages = 3;
  s.rounds = 16;
  s.buffer_bytes = 4096;
  s.num_buffers = 4;
  s.seed = seed;
  return s;
}

/// A job that makes no progress until aborted: the misbehaving tenant.
JobSpec stalling_pipeline() {
  JobSpec s = quick_pipeline();
  s.stall_stage = 1;
  return s;
}

std::string job_state(Client& c, std::uint32_t id) {
  const util::Json j = util::Json::parse(c.status(id));
  return j.at("state").string();
}

/// Poll STATUS until the job reports `want` (or the deadline passes).
bool wait_for_state(Client& c, std::uint32_t id, const std::string& want,
                    int timeout_ms = 20'000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (job_state(c, id) == want) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

// -- wire-format round trips ------------------------------------------------

TEST(ServeProtocol, JobSpecRoundTrips) {
  JobSpec s;
  s.kind = "sort";
  s.records = 12'345;
  s.record_bytes = 32;
  s.nodes = 3;
  s.seed = 99;
  s.stages = 5;
  s.rounds = 77;
  s.buffer_bytes = 8192;
  s.num_buffers = 6;
  s.work_us = 250;
  s.stall_stage = 2;
  s.fault_spec = "disk.read.error=nth:5";
  s.watchdog_ms = 1234;
  s.pool_quota_bytes = 1 << 20;
  s.disk_quota_bytes = 2 << 20;

  const JobSpec back = JobSpec::from_json(util::Json::parse(s.to_json()));
  EXPECT_EQ(back.kind, s.kind);
  EXPECT_EQ(back.records, s.records);
  EXPECT_EQ(back.record_bytes, s.record_bytes);
  EXPECT_EQ(back.nodes, s.nodes);
  EXPECT_EQ(back.seed, s.seed);
  EXPECT_EQ(back.stages, s.stages);
  EXPECT_EQ(back.rounds, s.rounds);
  EXPECT_EQ(back.buffer_bytes, s.buffer_bytes);
  EXPECT_EQ(back.num_buffers, s.num_buffers);
  EXPECT_EQ(back.work_us, s.work_us);
  EXPECT_EQ(back.stall_stage, s.stall_stage);
  EXPECT_EQ(back.fault_spec, s.fault_spec);
  EXPECT_EQ(back.watchdog_ms, s.watchdog_ms);
  EXPECT_EQ(back.pool_quota_bytes, s.pool_quota_bytes);
  EXPECT_EQ(back.disk_quota_bytes, s.disk_quota_bytes);
}

TEST(ServeProtocol, JobResultRoundTrips) {
  JobResult r;
  r.id = 7;
  r.kind = "permute";
  r.state = JobState::kFailed;
  r.error = "fg::fault: injected failure";
  r.verified = false;
  r.audit_ok = true;
  r.records = 4096;
  r.seconds = 1.5;
  r.queue_seconds = 0.25;

  const JobResult back = JobResult::from_json(util::Json::parse(r.to_json()));
  EXPECT_EQ(back.id, r.id);
  EXPECT_EQ(back.kind, r.kind);
  EXPECT_EQ(back.state, r.state);
  EXPECT_EQ(back.error, r.error);
  EXPECT_EQ(back.verified, r.verified);
  EXPECT_EQ(back.audit_ok, r.audit_ok);
  EXPECT_EQ(back.records, r.records);
  EXPECT_DOUBLE_EQ(back.seconds, r.seconds);
  EXPECT_DOUBLE_EQ(back.queue_seconds, r.queue_seconds);
}

TEST(ServeProtocol, SpecValidationRejectsGarbage) {
  EXPECT_THROW(
      JobSpec::from_json(util::Json::parse(R"({"kind":"warez"})")),
      std::invalid_argument);
  EXPECT_THROW(
      JobSpec::from_json(
          util::Json::parse(R"({"kind":"pipeline","stages":0})")),
      std::invalid_argument);
  EXPECT_THROW(
      JobSpec::from_json(
          util::Json::parse(R"({"kind":"sort","nodes":400})")),
      std::invalid_argument);
  // Regression (satellite): values were narrowed before the range check,
  // so these wrapped into range (record_bytes to 16, nodes to 1, stages
  // to 3, work_us to 0, watchdog_ms to 5 ms), and stall_stage went
  // through an unchecked double-to-int conversion (2.5 became 2, 1e300
  // undefined behaviour).
  for (const char* spec :
       {R"({"kind":"sort","record_bytes":4294967312})",
        R"({"kind":"sort","nodes":4294967297})",
        R"({"kind":"pipeline","stages":4294967299})",
        R"({"kind":"pipeline","work_us":4294967296})",
        R"({"kind":"pipeline","watchdog_ms":4294967301})",
        R"({"kind":"pipeline","stall_stage":2.5})",
        R"({"kind":"pipeline","stall_stage":1e300})"}) {
    EXPECT_THROW(JobSpec::from_json(util::Json::parse(spec)),
                 std::invalid_argument)
        << spec;
  }
  // Unknown keys are forward-compatible noise, not errors.
  EXPECT_NO_THROW(JobSpec::from_json(
      util::Json::parse(R"({"kind":"pipeline","future_knob":1})")));
}

// -- the happy path ---------------------------------------------------------

TEST(ServeTest, PipelineJobCompletesVerified) {
  Server server(quick_opts());
  server.start();

  Client c;
  c.connect(server.port());
  const Client::Submit sub = c.submit(quick_pipeline());
  ASSERT_TRUE(sub.accepted) << sub.reason;

  const JobResult r = c.wait(sub.id);
  EXPECT_EQ(r.state, JobState::kCompleted) << r.error;
  EXPECT_TRUE(r.verified);
  EXPECT_TRUE(r.audit_ok);
  EXPECT_EQ(r.records, 16u);
  c.bye();

  EXPECT_EQ(server.wait(), 0);
  EXPECT_EQ(server.registry().counter_value("serve.jobs.completed"), 1u);
}

TEST(ServeTest, SortAndPermuteKindsServeAndVerify) {
  Server server(quick_opts());
  server.start();

  Client c;
  c.connect(server.port());
  JobSpec sort_spec;
  sort_spec.kind = "sort";
  sort_spec.records = 4096;
  sort_spec.nodes = 2;
  JobSpec perm_spec = sort_spec;
  perm_spec.kind = "permute";

  const Client::Submit s1 = c.submit(sort_spec);
  const Client::Submit s2 = c.submit(perm_spec);
  ASSERT_TRUE(s1.accepted) << s1.reason;
  ASSERT_TRUE(s2.accepted) << s2.reason;

  const JobResult r1 = c.wait(s1.id);
  const JobResult r2 = c.wait(s2.id);
  EXPECT_EQ(r1.state, JobState::kCompleted) << r1.error;
  EXPECT_TRUE(r1.verified);
  EXPECT_EQ(r1.records, 4096u);
  EXPECT_EQ(r2.state, JobState::kCompleted) << r2.error;
  EXPECT_TRUE(r2.verified);
  c.bye();
  EXPECT_EQ(server.wait(), 0);
}

TEST(ServeTest, JobsAtTheSpecLimitsComplete) {
  // Job graphs run one thread per stage: a 64-stage pipeline job runs 66
  // threads (its stages plus source and sink), and a 16-node sort job
  // runs a thread per stage on every node.  Both are the largest specs
  // the protocol accepts.
  Server server(quick_opts());
  server.start();

  Client c;
  c.connect(server.port());
  JobSpec deep = quick_pipeline(5);
  deep.stages = 64;
  deep.rounds = 8;
  deep.buffer_bytes = 256;
  JobSpec wide;
  wide.kind = "sort";
  wide.records = 16384;
  wide.nodes = 16;

  const Client::Submit s1 = c.submit(deep);
  const Client::Submit s2 = c.submit(wide);
  ASSERT_TRUE(s1.accepted) << s1.reason;
  ASSERT_TRUE(s2.accepted) << s2.reason;

  const JobResult r1 = c.wait(s1.id);
  const JobResult r2 = c.wait(s2.id);
  EXPECT_EQ(r1.state, JobState::kCompleted) << r1.error;
  EXPECT_TRUE(r1.verified);
  EXPECT_TRUE(r1.audit_ok);
  EXPECT_EQ(r1.records, 8u);
  EXPECT_EQ(r2.state, JobState::kCompleted) << r2.error;
  EXPECT_TRUE(r2.verified);
  EXPECT_TRUE(r2.audit_ok);
  EXPECT_EQ(r2.records, 16384u);
  c.bye();
  EXPECT_EQ(server.wait(), 0);
}

// -- admission control ------------------------------------------------------

TEST(ServeTest, FullQueueShedsWithBusy) {
  ServerOptions opts = quick_opts();
  opts.max_running = 1;
  opts.max_queued = 1;
  Server server(opts);
  server.start();

  Client c;
  c.connect(server.port());

  // Occupy the only slot with a job that cannot finish on its own, and
  // wait until it is RUNNING so the queue state below is deterministic.
  const Client::Submit running = c.submit(stalling_pipeline());
  ASSERT_TRUE(running.accepted);
  ASSERT_TRUE(wait_for_state(c, running.id, "RUNNING"));

  // Fill the one queue slot.
  const Client::Submit queued = c.submit(stalling_pipeline());
  ASSERT_TRUE(queued.accepted);

  // The queue is full: this one must be shed, not queued or blocked.
  const Client::Submit shed = c.submit(quick_pipeline());
  EXPECT_FALSE(shed.accepted);
  EXPECT_EQ(shed.reason, "busy");
  EXPECT_GE(server.registry().counter_value("serve.jobs.rejected.busy"), 1u);

  // Cancel both stalled jobs; both results must still be delivered.
  c.cancel(running.id);
  c.cancel(queued.id);
  EXPECT_EQ(c.wait(running.id).state, JobState::kCancelled);
  EXPECT_EQ(c.wait(queued.id).state, JobState::kCancelled);
  c.bye();
  EXPECT_EQ(server.wait(), 0);
}

// -- per-job budgets --------------------------------------------------------

TEST(ServeTest, QuotaOverdrawFailsOnlyTheGreedyJob) {
  ServerOptions opts = quick_opts();
  opts.pool_quota_bytes = 256 * 1024;  // server-wide per-job ceiling
  Server server(opts);
  server.start();

  Client c;
  c.connect(server.port());

  // 16 x 64 KiB = 1 MiB of buffer pool against a 256 KiB quota: the
  // allocation itself must throw, before any stage runs.
  JobSpec greedy = quick_pipeline();
  greedy.buffer_bytes = 64 * 1024;
  greedy.num_buffers = 16;

  const Client::Submit g = c.submit(greedy);
  const Client::Submit h = c.submit(quick_pipeline());
  ASSERT_TRUE(g.accepted);
  ASSERT_TRUE(h.accepted);

  const JobResult rg = c.wait(g.id);
  EXPECT_EQ(rg.state, JobState::kFailed);
  EXPECT_NE(rg.error.find("exceeded"), std::string::npos) << rg.error;
  EXPECT_FALSE(rg.verified);

  // The frugal neighbour is untouched by the neighbour's overdraw.
  const JobResult rh = c.wait(h.id);
  EXPECT_EQ(rh.state, JobState::kCompleted) << rh.error;
  EXPECT_TRUE(rh.verified);
  c.bye();
  EXPECT_EQ(server.wait(), 0);
  EXPECT_EQ(server.registry().counter_value("serve.jobs.failed"), 1u);
  EXPECT_EQ(server.registry().counter_value("serve.jobs.completed"), 1u);
  EXPECT_EQ(server.registry().counter_value("serve.audit.failures"), 0u);
}

TEST(ServeTest, JobQuotaRequestClampsDownNotUp) {
  ServerOptions opts = quick_opts();
  opts.pool_quota_bytes = 256 * 1024;
  Server server(opts);
  server.start();

  Client c;
  c.connect(server.port());

  // Asking for a *bigger* quota than the server allows must not widen
  // the ceiling: the overdraw still fails.
  JobSpec greedy = quick_pipeline();
  greedy.buffer_bytes = 64 * 1024;
  greedy.num_buffers = 16;
  greedy.pool_quota_bytes = 1ull << 30;

  const Client::Submit g = c.submit(greedy);
  ASSERT_TRUE(g.accepted);
  const JobResult rg = c.wait(g.id);
  EXPECT_EQ(rg.state, JobState::kFailed);
  EXPECT_NE(rg.error.find("exceeded"), std::string::npos) << rg.error;
  c.bye();
  EXPECT_EQ(server.wait(), 0);
}

// -- watchdog isolation -----------------------------------------------------

TEST(ServeTest, WatchdogFailsStalledJobHealthyNeighbourFinishes) {
  ServerOptions opts = quick_opts();
  opts.max_running = 2;
  Server server(opts);
  server.start();

  Client c;
  c.connect(server.port());

  // The stalled tenant tightens its own watchdog (down-only) so the
  // test does not sit through the server's generous default.
  JobSpec stalled = stalling_pipeline();
  stalled.watchdog_ms = 500;

  const Client::Submit s = c.submit(stalled);
  const Client::Submit h = c.submit(quick_pipeline());
  ASSERT_TRUE(s.accepted);
  ASSERT_TRUE(h.accepted);

  const JobResult rh = c.wait(h.id);
  EXPECT_EQ(rh.state, JobState::kCompleted) << rh.error;
  EXPECT_TRUE(rh.verified);

  const JobResult rs = c.wait(s.id);
  EXPECT_EQ(rs.state, JobState::kFailed) << rs.error;
  // Custody survives the abortive teardown: every buffer accounted.
  EXPECT_TRUE(rs.audit_ok);

  // The server is still serving after diagnosing the stall.
  const Client::Submit again = c.submit(quick_pipeline());
  ASSERT_TRUE(again.accepted);
  EXPECT_EQ(c.wait(again.id).state, JobState::kCompleted);
  c.bye();
  EXPECT_EQ(server.wait(), 0);
  EXPECT_EQ(server.registry().counter_value("serve.audit.failures"), 0u);
}

// -- fault isolation --------------------------------------------------------

TEST(ServeTest, InjectedFaultIsContainedToItsJob) {
  Server server(quick_opts());
  server.start();

  Client c;
  c.connect(server.port());

  JobSpec faulty = quick_pipeline();
  faulty.fault_spec = "stage.throw=once:2";

  const Client::Submit f = c.submit(faulty);
  const Client::Submit h = c.submit(quick_pipeline(7));
  ASSERT_TRUE(f.accepted);
  ASSERT_TRUE(h.accepted);

  const JobResult rf = c.wait(f.id);
  EXPECT_EQ(rf.state, JobState::kFailed);
  EXPECT_NE(rf.error.find("injected"), std::string::npos) << rf.error;
  EXPECT_TRUE(rf.audit_ok);

  const JobResult rh = c.wait(h.id);
  EXPECT_EQ(rh.state, JobState::kCompleted) << rh.error;
  EXPECT_TRUE(rh.verified);
  c.bye();
  EXPECT_EQ(server.wait(), 0);
  EXPECT_EQ(server.registry().counter_value("serve.audit.failures"), 0u);
}

// -- client death -----------------------------------------------------------

TEST(ServeTest, ClientDeathCancelsItsOrphanedJobs) {
  Server server(quick_opts());
  server.start();

  Client doomed;
  doomed.connect(server.port());
  const Client::Submit sub = doomed.submit(stalling_pipeline());
  ASSERT_TRUE(sub.accepted);

  // A second, surviving client watches the orphan from outside.
  Client watcher;
  watcher.connect(server.port());
  ASSERT_TRUE(wait_for_state(watcher, sub.id, "RUNNING"));

  doomed.abrupt_close();  // no BYE: the server must treat this as death

  EXPECT_TRUE(wait_for_state(watcher, sub.id, "CANCELLED"));
  EXPECT_GE(server.registry().counter_value("serve.clients.died"), 1u);

  // The watcher's own traffic is unaffected by the neighbour's death.
  const Client::Submit mine = watcher.submit(quick_pipeline());
  ASSERT_TRUE(mine.accepted);
  EXPECT_EQ(watcher.wait(mine.id).state, JobState::kCompleted);
  watcher.bye();
  EXPECT_EQ(server.wait(), 0);
  EXPECT_GE(server.registry().counter_value("serve.jobs.cancelled"), 1u);
}

TEST(ServeTest, ByeDoesNotCancelJobs) {
  Server server(quick_opts());
  server.start();

  Client c;
  c.connect(server.port());
  const Client::Submit sub = c.submit(quick_pipeline());
  ASSERT_TRUE(sub.accepted);
  c.bye();  // orderly: the job keeps running, we just won't hear it

  Client watcher;
  watcher.connect(server.port());
  EXPECT_TRUE(wait_for_state(watcher, sub.id, "COMPLETED"));
  EXPECT_EQ(server.registry().counter_value("serve.clients.died"), 0u);
  watcher.bye();
  EXPECT_EQ(server.wait(), 0);
}

// -- graceful drain ---------------------------------------------------------

TEST(ServeTest, DrainStopsAdmissionFinishesAdmittedWorkAndExitsZero) {
  Server server(quick_opts());
  server.start();

  Client c;
  c.connect(server.port());
  const Client::Submit a = c.submit(quick_pipeline(1));
  const Client::Submit b = c.submit(quick_pipeline(2));
  ASSERT_TRUE(a.accepted);
  ASSERT_TRUE(b.accepted);

  server.request_drain();

  // Admission is closed the moment the drain starts...
  const Client::Submit late = c.submit(quick_pipeline(3));
  EXPECT_FALSE(late.accepted);
  EXPECT_EQ(late.reason, "draining");

  // ...but the admitted jobs still run to completion and their results
  // are still delivered before the sockets close.
  EXPECT_EQ(c.wait(a.id).state, JobState::kCompleted);
  EXPECT_EQ(c.wait(b.id).state, JobState::kCompleted);
  c.bye();

  EXPECT_EQ(server.wait(), 0);
  EXPECT_EQ(server.registry().counter_value("serve.jobs.completed"), 2u);
  EXPECT_GE(server.registry().counter_value("serve.jobs.rejected.draining"),
            1u);
}

TEST(ServeTest, DrainDeadlineCancelsStragglersAndStillExitsZero) {
  ServerOptions opts = quick_opts();
  opts.drain_deadline_ms = 300;  // the stalled job will blow through this
  Server server(opts);
  server.start();

  Client c;
  c.connect(server.port());
  const Client::Submit sub = c.submit(stalling_pipeline());
  ASSERT_TRUE(sub.accepted);
  ASSERT_TRUE(wait_for_state(c, sub.id, "RUNNING"));

  // Drain with a job that will never finish on its own: the deadline
  // must cancel it, deliver the CANCELLED result, and exit clean.
  EXPECT_EQ(server.wait(), 0);
  EXPECT_EQ(server.registry().counter_value("serve.jobs.cancelled"), 1u);
}

// -- server-wide stats ------------------------------------------------------

TEST(ServeTest, StatsSnapshotIsWellFormedJson) {
  Server server(quick_opts());
  server.start();

  Client c;
  c.connect(server.port());
  const Client::Submit sub = c.submit(quick_pipeline());
  ASSERT_TRUE(sub.accepted);
  (void)c.wait(sub.id);

  const util::Json j = util::Json::parse(c.stats());
  EXPECT_TRUE(j.at("draining").is_bool());
  EXPECT_TRUE(j.at("queue_depth").is_number());
  EXPECT_TRUE(j.at("running").is_number());
  EXPECT_TRUE(j.at("slots").is_number());
  const util::Json& reg = j.at("registry");
  EXPECT_NE(reg.find("counters"), nullptr);
  EXPECT_EQ(reg.at("counters").at("serve.jobs.completed").u64(), 1u);
  c.bye();
  EXPECT_EQ(server.wait(), 0);
}

}  // namespace
}  // namespace fg::serve
