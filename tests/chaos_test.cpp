// Chaos tests: the sorting programs and the pipeline runtime under
// seeded fault injection.  Three behaviours are pinned down:
//
//  * transient faults are absorbed — dsort/csort still produce sorted
//    output and the retry counters show work was redone;
//  * permanent faults abort cleanly — the run throws within the watchdog
//    window and every pipeline buffer is accounted for;
//  * a stalled pipeline is diagnosed — the watchdog names the blocked
//    workers and their queues instead of letting the run hang.
//
// Every test derives its schedule from one seed so a failure is
// replayable: FG_CHAOS_SEED=<n> reruns the whole binary under a
// different (still deterministic) schedule; the CI soak loops over ten.
#include "comm/cluster.hpp"
#include "core/fg.hpp"
#include "pdm/workspace.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "sort/csort.hpp"
#include "sort/dataset.hpp"
#include "sort/dsort.hpp"
#include "util/fault.hpp"
#include "util/retry.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace fg {
namespace {

std::uint64_t chaos_seed() {
  if (const char* s = std::getenv("FG_CHAOS_SEED")) {
    return std::strtoull(s, nullptr, 10);
  }
  return 42;
}

sort::SortConfig small_sort_config() {
  sort::SortConfig cfg;
  cfg.nodes = 4;
  cfg.records = 8000;
  cfg.record_bytes = 16;
  cfg.block_records = 64;
  cfg.buffer_records = 256;
  cfg.num_buffers = 3;
  cfg.merge_buffer_records = 64;
  cfg.merge_num_buffers = 2;
  cfg.out_buffer_records = 256;
  cfg.oversample = 32;
  cfg.seed = chaos_seed();
  // Generous: the window only has to beat a genuine hang, and the suite
  // runs under sanitizers.
  cfg.watchdog_ms = 60000;
  return cfg;
}

/// Arm the classic transient schedule on every substrate of a run.
void arm_transient(fault::Injector& inj) {
  inj.arm(fault::kDiskReadError, fault::Rule::every_nth(5));
  inj.arm(fault::kDiskWriteError, fault::Rule::every_nth(7));
  inj.arm(fault::kDiskReadShort, fault::Rule::every_nth(11));
  inj.arm(fault::kDiskWriteShort, fault::Rule::every_nth(13));
  inj.arm(fault::kFabricDelay, fault::Rule::with_probability(0.05));
}

// Disk-fault chaos runs on both backends: the absorb/abort/custody
// guarantees must hold with and without the spindle.
class ChaosSort : public ::testing::TestWithParam<const char*> {
 protected:
  pdm::DiskBackend backend() const {
    return pdm::parse_disk_backend(GetParam());
  }
};

INSTANTIATE_TEST_SUITE_P(Backends, ChaosSort,
                         ::testing::Values("stdio", "native"),
                         [](const ::testing::TestParamInfo<const char*>& i) {
                           return std::string(i.param);
                         });

// -- transient faults are absorbed ------------------------------------------

TEST_P(ChaosSort, DsortTransientFaultsAbsorbed) {
  sort::SortConfig cfg = small_sort_config();
  pdm::Workspace ws(cfg.nodes, util::LatencyModel::free(), backend());
  comm::SimCluster cluster(cfg.nodes);
  sort::generate_input(ws, cfg);

  fault::Injector inj(cfg.seed);
  arm_transient(inj);
  ws.set_fault_injector(&inj);
  ws.set_retry_policy(util::RetryPolicy::standard(8, cfg.seed));
  cluster.fabric().set_fault_injector(&inj);

  const sort::SortResult r = sort::run_dsort(cluster, ws, cfg);
  ws.set_fault_injector(nullptr);
  cluster.fabric().set_fault_injector(nullptr);

  EXPECT_EQ(r.records, cfg.records);
  const sort::VerifyResult v = sort::verify_output(ws, cfg);
  EXPECT_TRUE(v.sorted);
  EXPECT_TRUE(v.permutation);

  const util::RetryStats rs = ws.total_retry_stats();
  EXPECT_GT(inj.total_fired(), 0u);
  EXPECT_GT(rs.absorbed, 0u) << "no fault ever needed a retry";
  EXPECT_EQ(rs.exhausted, 0u);
}

TEST_P(ChaosSort, CsortTransientFaultsAbsorbed) {
  sort::SortConfig cfg = small_sort_config();
  cfg.records = sort::csort_compatible_records(cfg.records, cfg.nodes,
                                               cfg.block_records);
  pdm::Workspace ws(cfg.nodes, util::LatencyModel::free(), backend());
  comm::SimCluster cluster(cfg.nodes);
  sort::generate_input(ws, cfg);

  fault::Injector inj(cfg.seed);
  arm_transient(inj);
  ws.set_fault_injector(&inj);
  ws.set_retry_policy(util::RetryPolicy::standard(8, cfg.seed));
  cluster.fabric().set_fault_injector(&inj);

  const sort::SortResult r = sort::run_csort(cluster, ws, cfg);
  ws.set_fault_injector(nullptr);
  cluster.fabric().set_fault_injector(nullptr);

  EXPECT_EQ(r.records, cfg.records);
  EXPECT_TRUE(sort::verify_output(ws, cfg).ok());
  const util::RetryStats rs = ws.total_retry_stats();
  EXPECT_GT(rs.absorbed, 0u);
  EXPECT_EQ(rs.exhausted, 0u);
}

// -- permanent faults abort cleanly -----------------------------------------

TEST_P(ChaosSort, DsortPermanentFaultAbortsRun) {
  sort::SortConfig cfg = small_sort_config();
  pdm::Workspace ws(cfg.nodes, util::LatencyModel::free(), backend());
  comm::SimCluster cluster(cfg.nodes);
  sort::generate_input(ws, cfg);

  fault::Injector inj(cfg.seed);
  // Let the run get going, then fail every write on every disk, forever:
  // no retry budget survives that.
  inj.arm(fault::kDiskWriteError, fault::Rule::always_after(20));
  ws.set_fault_injector(&inj);
  ws.set_retry_policy(util::RetryPolicy::standard(3, cfg.seed));
  cluster.fabric().set_fault_injector(&inj);

  // The run throws (instead of hanging: the graph's abort hook tears down
  // the fabric so workers blocked in collectives unwind too) and the
  // exhausted counter records the failed operation.
  EXPECT_THROW(sort::run_dsort(cluster, ws, cfg), fault::TransientError);
  EXPECT_GT(ws.total_retry_stats().exhausted, 0u);
}

// csort's write stages issue many positioned writes per round; a write
// that exhausts its retries there must fail the run the same way.
TEST_P(ChaosSort, CsortPermanentFaultAbortsRun) {
  sort::SortConfig cfg = small_sort_config();
  cfg.records = sort::csort_compatible_records(cfg.records, cfg.nodes,
                                               cfg.block_records);
  pdm::Workspace ws(cfg.nodes, util::LatencyModel::free(), backend());
  comm::SimCluster cluster(cfg.nodes);
  sort::generate_input(ws, cfg);

  fault::Injector inj(cfg.seed);
  inj.arm(fault::kDiskWriteError, fault::Rule::always_after(20));
  ws.set_fault_injector(&inj);
  ws.set_retry_policy(util::RetryPolicy::standard(3, cfg.seed));
  cluster.fabric().set_fault_injector(&inj);

  EXPECT_THROW(sort::run_csort(cluster, ws, cfg), fault::TransientError);
  EXPECT_GT(ws.total_retry_stats().exhausted, 0u);
}

TEST_P(ChaosSort, PermanentDiskFaultPreservesBufferCustody) {
  pdm::Workspace ws(1, util::LatencyModel::free(), backend());
  pdm::Disk& disk = ws.disk(0);
  pdm::File f = disk.create("victim");
  std::vector<std::byte> payload(4096, std::byte{0x5a});
  disk.write(f, 0, payload);

  fault::Injector inj(chaos_seed());
  inj.arm(fault::kDiskReadError, fault::Rule::always_after(2));
  disk.set_fault_injector(&inj, 0);
  disk.set_retry_policy(util::RetryPolicy::standard(2, chaos_seed()));

  PipelineGraph g;
  PipelineConfig pc;
  pc.name = "reader";
  pc.num_buffers = 3;
  pc.buffer_bytes = 256;
  pc.rounds = 16;
  auto& p = g.add_pipeline(pc);
  MapStage read("read", [&](Buffer& b) {
    disk.read(f, b.round() * 256, b.data().first(256));
    b.set_size(256);
    return StageAction::kConvey;
  });
  p.add_stage(read);

  EXPECT_THROW(g.run(), fault::TransientError);
  for (const BufferAudit& a : g.audit_buffers()) {
    EXPECT_EQ(a.accounted(), a.pool);
  }
  disk.set_fault_injector(nullptr, 0);
}

TEST(Chaos, InjectedStageThrowPreservesCustody) {
  fault::Injector inj(chaos_seed());
  inj.arm(fault::kStageThrow, fault::Rule::one_shot(5));

  PipelineGraph g;
  PipelineConfig pc;
  pc.name = "wrapped";
  pc.num_buffers = 3;
  pc.buffer_bytes = 64;
  pc.rounds = 40;
  auto& p = g.add_pipeline(pc);
  // The test-stage wrapper: the stage body itself stays oblivious.
  MapStage work("work", fault::guarded(inj, fault::kStageThrow, -1,
                                       [](Buffer&) {
                                         return StageAction::kConvey;
                                       }));
  p.add_stage(work);

  EXPECT_THROW(g.run(), fault::InjectedFault);
  EXPECT_EQ(inj.site_stats(fault::kStageThrow).fired, 1u);
  for (const BufferAudit& a : g.audit_buffers()) {
    EXPECT_EQ(a.accounted(), a.pool);
  }
}

// -- the stall watchdog -----------------------------------------------------

/// A custom stage that accepts buffers and never lets go: once the pool
/// is drained, the whole pipeline is wedged — source starved, stage
/// blocked in accept — exactly the deadlock the watchdog exists to name.
struct HoardStage final : Stage {
  HoardStage() : Stage("hoard") {}
  void run(StageContext& ctx) override {
    while (ctx.accept() != nullptr) {
      // keep it; the runtime reclaims custody when the run aborts
    }
  }
};

TEST(Chaos, WatchdogNamesStalledWorkers) {
  PipelineGraph g;
  PipelineConfig pc;
  pc.name = "wedged";
  pc.num_buffers = 3;
  pc.buffer_bytes = 64;
  pc.rounds = 100;
  auto& p = g.add_pipeline(pc);
  HoardStage hoard;
  p.add_stage(hoard);
  g.set_watchdog(std::chrono::milliseconds(400));

  try {
    g.run();
    FAIL() << "expected PipelineStalled";
  } catch (const PipelineStalled& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("blocked"), std::string::npos) << what;
    EXPECT_NE(what.find("queue"), std::string::npos) << what;
  }
  // The hoarded buffers were parked during unwind: full custody.
  for (const BufferAudit& a : g.audit_buffers()) {
    EXPECT_EQ(a.accounted(), a.pool);
  }
}

TEST(Chaos, WatchdogStaysQuietOnHealthyRuns) {
  PipelineGraph g;
  PipelineConfig pc;
  pc.name = "healthy";
  pc.num_buffers = 2;
  pc.buffer_bytes = 64;
  pc.rounds = 200;
  auto& p = g.add_pipeline(pc);
  int seen = 0;
  MapStage count("count", [&](Buffer&) {
    ++seen;
    return StageAction::kConvey;
  });
  p.add_stage(count);
  g.set_watchdog(std::chrono::seconds(30));
  EXPECT_NO_THROW(g.run());
  EXPECT_EQ(seen, 200);
}

// -- node crash -------------------------------------------------------------

TEST(ChaosCluster, NodeCrashUnwindsSurvivors) {
  const int p = 4;
  comm::SimCluster cluster(p);
  fault::Injector inj(chaos_seed());
  inj.arm(fault::kFabricCrash, fault::Rule::one_shot(1).on_node(2));
  cluster.fabric().set_fault_injector(&inj);

  std::atomic<int> unwound{0};
  try {
    cluster.run([&](comm::NodeId me) {
      try {
        for (int round = 0; round < 1000; ++round) {
          cluster.fabric().barrier(me);
        }
      } catch (...) {
        ++unwound;
        throw;
      }
    });
    FAIL() << "expected FabricNodeCrashed";
  } catch (const comm::FabricNodeCrashed& e) {
    EXPECT_EQ(e.node, 2);
  }
  // No node hung: the crashed node threw, the others were aborted awake.
  EXPECT_EQ(unwound.load(), p);
  EXPECT_TRUE(cluster.fabric().crashed(2));
  EXPECT_FALSE(cluster.fabric().crashed(0));
}

// -- real-mesh chaos: the multi-process fabrics under fabric faults ---------

/// One rank of a real in-process mesh (tcp or shm): its fabric, its
/// cluster, and an orderly shutdown hook — the type-erased view the
/// parameterized tests drive.
struct MeshRank {
  std::unique_ptr<comm::Fabric> fabric;
  std::unique_ptr<comm::Cluster> cluster;
  std::function<void()> shutdown;
};

std::vector<MeshRank> make_mesh(const std::string& kind, int p) {
  std::vector<MeshRank> mesh(static_cast<std::size_t>(p));
  if (kind == "tcp") {
    std::vector<comm::TcpFabric*> fabs;
    for (int r = 0; r < p; ++r) {
      auto f = std::make_unique<comm::TcpFabric>(p, r, 0);
      fabs.push_back(f.get());
      mesh[static_cast<std::size_t>(r)].fabric = std::move(f);
    }
    std::vector<comm::TcpEndpoint> eps;
    for (int r = 0; r < p; ++r) {
      eps.push_back({"127.0.0.1", fabs[static_cast<std::size_t>(r)]
                                      ->listen_port()});
    }
    std::vector<std::thread> conn;
    for (int r = 0; r < p; ++r) {
      conn.emplace_back(
          [&, r] { fabs[static_cast<std::size_t>(r)]->connect(eps); });
    }
    for (auto& t : conn) t.join();
    for (int r = 0; r < p; ++r) {
      comm::TcpFabric* f = fabs[static_cast<std::size_t>(r)];
      mesh[static_cast<std::size_t>(r)].cluster =
          std::make_unique<comm::TcpCluster>(*f);
      mesh[static_cast<std::size_t>(r)].shutdown = [f] { f->shutdown(); };
    }
  } else {
    const auto seg = comm::ShmSegment::create(p);
    for (int r = 0; r < p; ++r) {
      auto f = std::make_unique<comm::ShmFabric>(seg, r);
      mesh[static_cast<std::size_t>(r)].cluster =
          std::make_unique<comm::ShmCluster>(*f);
      mesh[static_cast<std::size_t>(r)].shutdown = [fp = f.get()] {
        fp->shutdown();
      };
      mesh[static_cast<std::size_t>(r)].fabric = std::move(f);
    }
  }
  return mesh;
}

// The ChaosSort suite soaks faults over SimCluster; this one drives the
// two real mesh backends, where delivery crosses rings or sockets and
// abort propagation is a protocol, not a shared flag.
class ChaosFabricMesh : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    if (std::string(GetParam()) == "shm" && !comm::ShmFabric::available()) {
      GTEST_SKIP() << "shared-memory segments unavailable (FG_NO_SHM set?)";
    }
  }
};

INSTANTIATE_TEST_SUITE_P(Backends, ChaosFabricMesh,
                         ::testing::Values("tcp", "shm"),
                         [](const ::testing::TestParamInfo<const char*>& i) {
                           return std::string(i.param);
                         });

// Transient delay spikes on every rank's sends must be absorbed: dsort
// still produces verified output over the real mesh.
TEST_P(ChaosFabricMesh, DsortDelaySpikesAbsorbed) {
  sort::SortConfig cfg = small_sort_config();
  const int p = cfg.nodes;
  const auto root = std::filesystem::temp_directory_path() /
                    (std::string("fg_chaos_mesh_") + GetParam());
  std::filesystem::remove_all(root);

  std::vector<MeshRank> mesh = make_mesh(GetParam(), p);
  // One injector per rank (each process of a real run owns its own), all
  // derived from the one chaos seed so a failure replays.
  std::vector<std::unique_ptr<fault::Injector>> injs;
  for (int r = 0; r < p; ++r) {
    injs.push_back(std::make_unique<fault::Injector>(
        chaos_seed() + static_cast<std::uint64_t>(r)));
    injs.back()->arm(fault::kFabricDelay, fault::Rule::with_probability(0.1));
    comm::Fabric& f = *mesh[static_cast<std::size_t>(r)].fabric;
    f.set_fault_injector(injs.back().get());
    f.set_delay_spike(std::chrono::milliseconds(2));
    f.set_recv_deadline(std::chrono::seconds(120));
  }

  std::vector<std::thread> ranks;
  std::vector<std::string> errors(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    ranks.emplace_back([&, r] {
      try {
        pdm::Workspace ws(root, p, util::LatencyModel::free());
        ws.keep();
        sort::generate_node_input(ws, cfg, r);
        sort::run_dsort(*mesh[static_cast<std::size_t>(r)].cluster, ws, cfg);
      } catch (const std::exception& e) {
        errors[static_cast<std::size_t>(r)] = e.what();
      }
    });
  }
  for (auto& t : ranks) t.join();
  for (int r = 0; r < p; ++r) {
    EXPECT_TRUE(errors[static_cast<std::size_t>(r)].empty())
        << "rank " << r << ": " << errors[static_cast<std::size_t>(r)];
  }

  std::uint64_t fired = 0;
  for (int r = 0; r < p; ++r) {
    comm::Fabric& f = *mesh[static_cast<std::size_t>(r)].fabric;
    f.set_fault_injector(nullptr);
    fired += injs[static_cast<std::size_t>(r)]->total_fired();
  }
  EXPECT_GT(fired, 0u) << "the schedule never delayed anything";

  {
    pdm::Workspace ws(root, p, util::LatencyModel::free());
    ws.keep();
    const sort::VerifyResult v = sort::verify_output(ws, cfg);
    EXPECT_TRUE(v.sorted);
    EXPECT_TRUE(v.permutation);
    EXPECT_EQ(v.records, cfg.records);
  }
  for (auto& m : mesh) m.shutdown();
  std::filesystem::remove_all(root);
}

// An injected crash on one rank must unwind every rank of the real mesh:
// over tcp that is the abort broadcast, over shm the segment abort word.
TEST_P(ChaosFabricMesh, InjectedCrashUnwindsEveryRank) {
  sort::SortConfig cfg = small_sort_config();
  const int p = cfg.nodes;
  const auto root = std::filesystem::temp_directory_path() /
                    (std::string("fg_chaos_mesh_crash_") + GetParam());
  std::filesystem::remove_all(root);

  std::vector<MeshRank> mesh = make_mesh(GetParam(), p);
  fault::Injector inj(chaos_seed());
  inj.arm(fault::kFabricCrash, fault::Rule::one_shot(5).on_node(2));
  for (int r = 0; r < p; ++r) {
    comm::Fabric& f = *mesh[static_cast<std::size_t>(r)].fabric;
    f.set_recv_deadline(std::chrono::seconds(120));
  }
  mesh[2].fabric->set_fault_injector(&inj);

  std::vector<std::thread> ranks;
  std::vector<char> unwound(static_cast<std::size_t>(p), 0);
  for (int r = 0; r < p; ++r) {
    ranks.emplace_back([&, r] {
      try {
        pdm::Workspace ws(root, p, util::LatencyModel::free());
        ws.keep();
        sort::generate_node_input(ws, cfg, r);
        sort::run_dsort(*mesh[static_cast<std::size_t>(r)].cluster, ws, cfg);
      } catch (const std::exception&) {
        unwound[static_cast<std::size_t>(r)] = 1;
      }
    });
  }
  for (auto& t : ranks) t.join();
  mesh[2].fabric->set_fault_injector(nullptr);
  for (int r = 0; r < p; ++r) {
    EXPECT_TRUE(unwound[static_cast<std::size_t>(r)]) << "rank " << r;
    EXPECT_TRUE(mesh[static_cast<std::size_t>(r)].fabric->aborted())
        << "rank " << r;
  }
  for (auto& m : mesh) m.shutdown();
  std::filesystem::remove_all(root);
}

// -- channel chaos ---------------------------------------------------------

namespace {

/// Sum the per-queue reconciliation over a finished (or aborted) run:
/// every queue must satisfy residents == pushes + forced - pops, where
/// residents can never be negative, and the buffer tokens among those
/// residents are exactly what audit_buffers() counted as in_queues.
void expect_queues_reconcile(const PipelineGraph& g, bool clean_run) {
  std::uint64_t residents = 0;
  for (const QueueStats& q : g.run_stats().queues) {
    ASSERT_GE(q.pushes + q.forced, q.pops);
    residents += q.pushes + q.forced - q.pops;
  }
  std::size_t in_queues = 0;
  for (const BufferAudit& a : g.audit_buffers()) in_queues += a.in_queues;
  // Non-buffer tokens (cabooses, closes, aborts) may also be resident
  // after an abortive teardown, so the buffer count is a lower bound.
  // On a clean run every resident is a buffer — the ones the sink
  // recycled after the source retired — so the two counts must agree.
  EXPECT_LE(in_queues, residents);
  if (clean_run) {
    EXPECT_EQ(residents, in_queues);
  }
}

PipelineConfig chain_config(std::uint64_t rounds) {
  PipelineConfig pc;
  pc.name = "chain";
  pc.num_buffers = 3;
  pc.buffer_bytes = 64;
  pc.rounds = rounds;
  pc.queue_capacity = 2;  // bounded: producers block on a full queue
  return pc;
}

}  // namespace

TEST(ChaosExecutor, StageFaultOnBoundedChainReconciles) {
  fault::Injector inj(chaos_seed() + 1);
  inj.arm(fault::kStageThrow, fault::Rule::one_shot(11));

  PipelineGraph g;
  auto& p = g.add_pipeline(chain_config(200));
  MapStage a("a", [](Buffer&) { return StageAction::kConvey; });
  MapStage boom("boom", fault::guarded(inj, fault::kStageThrow, -1,
                                       [](Buffer&) {
                                         return StageAction::kConvey;
                                       }));
  p.add_stage(a);
  p.add_stage(boom);
  g.set_watchdog(std::chrono::seconds(30));

  EXPECT_THROW(g.run(), fault::InjectedFault);
  for (const BufferAudit& au : g.audit_buffers()) {
    EXPECT_EQ(au.accounted(), au.pool);
  }
  expect_queues_reconcile(g, false);
}

TEST(ChaosExecutor, HealthyRunLeavesEveryQueueEmpty) {
  // The exact reconciliation (residents == pushes + forced - pops == 0)
  // on the success path.
  PipelineGraph g;
  auto& p = g.add_pipeline(chain_config(300));
  std::atomic<int> n{0};
  MapStage a("a", [](Buffer&) { return StageAction::kConvey; });
  MapStage b("b", [&](Buffer&) {
    ++n;
    return StageAction::kConvey;
  });
  p.add_stage(a);
  p.add_stage(b);
  g.run();
  EXPECT_EQ(n.load(), 300);
  expect_queues_reconcile(g, true);
}

// -- the serving layer under tenant chaos -----------------------------------

// Soak fgserve's isolation boundary: faulting, stalling, and cancelled
// tenants interleave with healthy ones on a shared two-slot pool, plus
// one client that dies mid-job.  The server must classify every outcome
// correctly, keep full buffer custody (zero audit failures), and still
// drain to a clean exit — under TSan this is also the data-race soak
// for the whole serve stack.
TEST(ChaosServe, FaultingTenantsSoakOnSharedPool) {
  serve::ServerOptions opts;
  opts.port = 0;
  opts.max_running = 2;
  opts.max_queued = 16;
  opts.watchdog_ms = 60'000;
  opts.drain_deadline_ms = 60'000;
  serve::Server server(opts);
  server.start();

  util::SplitMix64 rng(chaos_seed());
  serve::Client c;
  c.connect(server.port());

  auto spec_for = [&](int i) {
    serve::JobSpec s;
    s.kind = "pipeline";
    s.stages = 4;
    s.rounds = 24;
    s.buffer_bytes = 4096;
    s.num_buffers = 4;
    s.seed = (rng.next() & ((1ull << 53) - 1)) | 1;
    switch (i % 4) {
      case 1:  // a tenant whose stage throws mid-run
        s.fault_spec = "stage.throw=once:" + std::to_string(3 + i % 5);
        break;
      case 3:  // a tenant that wedges and gets cancelled below
        s.stall_stage = 2;
        break;
      default:  // healthy
        break;
    }
    return s;
  };

  constexpr int kJobs = 16;
  std::vector<serve::Client::Submit> subs;
  for (int i = 0; i < kJobs; ++i) {
    serve::Client::Submit sub = c.submit(spec_for(i));
    ASSERT_TRUE(sub.accepted) << sub.reason;
    subs.push_back(sub);
    if (i % 4 == 3) c.cancel(sub.id);  // the staller never finishes alone
  }

  // One extra tenant on its own connection dies without BYE while its
  // stalled job runs; the server must cancel the orphan.
  serve::Client doomed;
  doomed.connect(server.port());
  serve::JobSpec orphan_spec = spec_for(3);
  const serve::Client::Submit orphan = doomed.submit(orphan_spec);
  ASSERT_TRUE(orphan.accepted);
  doomed.abrupt_close();

  int completed = 0, failed = 0, cancelled = 0;
  for (int i = 0; i < kJobs; ++i) {
    const serve::JobResult r = c.wait(subs[static_cast<std::size_t>(i)].id);
    EXPECT_TRUE(r.audit_ok) << "job " << r.id << " leaked buffers";
    switch (i % 4) {
      case 1:
        EXPECT_EQ(r.state, serve::JobState::kFailed) << r.error;
        ++failed;
        break;
      case 3:
        EXPECT_EQ(r.state, serve::JobState::kCancelled);
        ++cancelled;
        break;
      default:
        EXPECT_EQ(r.state, serve::JobState::kCompleted) << r.error;
        EXPECT_TRUE(r.verified);
        ++completed;
        break;
    }
  }
  EXPECT_EQ(completed, 8);
  EXPECT_EQ(failed, 4);
  EXPECT_EQ(cancelled, 4);
  c.bye();

  // Clean drain despite everything above; the orphan was cancelled too.
  EXPECT_EQ(server.wait(), 0);
  EXPECT_EQ(server.registry().counter_value("serve.audit.failures"), 0u);
  EXPECT_GE(server.registry().counter_value("serve.clients.died"), 1u);
  EXPECT_GE(server.registry().counter_value("serve.jobs.cancelled"), 5u);
}

// -- determinism and the spec grammar ---------------------------------------

TEST(ChaosInjector, SeededFiringIsReproducible) {
  auto pattern = [](std::uint64_t seed) {
    fault::Injector inj(seed);
    inj.arm("site", fault::Rule::with_probability(0.3));
    std::vector<bool> fired;
    for (int i = 0; i < 400; ++i) fired.push_back(inj.fire("site"));
    return fired;
  };
  EXPECT_EQ(pattern(7), pattern(7));
  EXPECT_NE(pattern(7), pattern(8));
}

TEST(ChaosInjector, SpecGrammarRoundTrips) {
  fault::Injector inj(1);
  fault::apply_spec(inj,
                    "disk.read.error=nth:40x3;"
                    "fabric.crash=once:25@3;"
                    "disk.write.error=always+200");
  for (int op = 1; op <= 200; ++op) {
    const bool expect = (op % 40 == 0) && op <= 120;  // x3 caps at op 120
    EXPECT_EQ(inj.fire(fault::kDiskReadError), expect) << "op " << op;
  }
  for (int op = 1; op <= 30; ++op) {
    EXPECT_EQ(inj.fire(fault::kFabricCrash, 3), op == 25);
    EXPECT_FALSE(inj.fire(fault::kFabricCrash, 1));  // other nodes exempt
  }
  for (int op = 1; op <= 210; ++op) {
    EXPECT_EQ(inj.fire(fault::kDiskWriteError), op > 200);
  }

  fault::Injector bad(1);
  EXPECT_THROW(fault::apply_spec(bad, "no-equals-sign"),
               std::invalid_argument);
  EXPECT_THROW(fault::apply_spec(bad, "site=nth:"), std::invalid_argument);
  EXPECT_THROW(fault::apply_spec(bad, "site=p:nope"), std::invalid_argument);
  // Hostile numbers: signs, whitespace, overflow, NaN, and node ids that
  // do not fit an int (which used to wrap to another node, or to every
  // node).
  for (const char* spec :
       {"site=nth:-1", "site=nth: 5", "site=nth:99999999999999999999999",
        "site=p:nan", "site=p:-nan", "site=once@4294967297",
        "site=always@2147483648"}) {
    EXPECT_THROW(fault::apply_spec(bad, spec), std::invalid_argument) << spec;
  }
  EXPECT_NO_THROW(fault::apply_spec(bad, "site=always@2147483647"));
}

}  // namespace
}  // namespace fg
