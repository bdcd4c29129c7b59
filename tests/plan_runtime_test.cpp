// Tests for the plan / runtime / instrumentation split: plan inspection,
// rerunnable graphs, clean abort paths (every buffer accounted for), the
// event-hook layer, and the JSON stats export.
#include "core/fg.hpp"
#include "util/trace.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

namespace fg {
namespace {

PipelineConfig small_config(std::string name, std::uint64_t rounds,
                            std::size_t buffers = 3) {
  PipelineConfig cfg;
  cfg.name = std::move(name);
  cfg.num_buffers = buffers;
  cfg.buffer_bytes = 256;
  cfg.rounds = rounds;
  return cfg;
}

// ---------------------------------------------------------------------------
// Plan inspection
// ---------------------------------------------------------------------------

TEST(Plan, ThreadCountMatchesPlannedThreads) {
  PipelineGraph g;
  auto& p = g.add_pipeline(small_config("p", 4));
  MapStage a("a", [](Buffer&) { return StageAction::kConvey; });
  MapStage b("b", [](Buffer&) { return StageAction::kConvey; });
  p.add_stage(a);
  p.add_stage_replicated(b, 3);

  const ExecutionPlan& plan = g.plan();
  std::size_t threads = 0;
  for (const auto& w : plan.workers()) threads += w.replicas;
  EXPECT_EQ(threads, plan.thread_count());
  EXPECT_EQ(g.planned_threads(), plan.thread_count());
  // source + a + b(x3) + sink
  EXPECT_EQ(plan.thread_count(), 6u);
  EXPECT_EQ(plan.workers().size(), 4u);
}

TEST(Plan, DescribesTopologyAsData) {
  PipelineGraph g;
  auto& p = g.add_pipeline(small_config("p", 2));
  MapStage a("a", [](Buffer&) { return StageAction::kConvey; });
  p.add_stage(a);
  const ExecutionPlan& plan = g.plan();

  ASSERT_EQ(plan.pipeline_count(), 1u);
  EXPECT_EQ(plan.pools()[0].num_buffers, 3u);
  EXPECT_EQ(plan.pools()[0].buffer_bytes, 256u);
  EXPECT_EQ(plan.pools()[0].rounds, 2u);

  int sources = 0, sinks = 0, maps = 0;
  for (const auto& w : plan.workers()) {
    sources += w.kind == WorkerKind::kSource;
    sinks += w.kind == WorkerKind::kSink;
    maps += w.kind == WorkerKind::kMap;
    // Every worker's outbound edges reference valid queue slots.
    for (const auto& [pid, qi] : w.out) {
      EXPECT_LT(qi, plan.queues().size());
      EXPECT_TRUE(w.has_member(pid));
    }
  }
  EXPECT_EQ(sources, 1);
  EXPECT_EQ(sinks, 1);
  EXPECT_EQ(maps, 1);
  // source in-queue + a's in-queue + sink's in-queue
  EXPECT_EQ(plan.queues().size(), 3u);
  EXPECT_LT(plan.source_in(0), plan.queues().size());
  EXPECT_EQ(plan.workers()[plan.source_worker(0)].kind, WorkerKind::kSource);
}

TEST(Plan, FreezingIsSticky) {
  PipelineGraph g;
  auto& p = g.add_pipeline(small_config("p", 1));
  MapStage a("a", [](Buffer&) { return StageAction::kConvey; });
  p.add_stage(a);
  (void)g.plan();
  MapStage late("late", [](Buffer&) { return StageAction::kConvey; });
  EXPECT_THROW(p.add_stage(late), std::logic_error);
  EXPECT_THROW(g.add_pipeline(small_config("q", 1)), std::logic_error);
}

// ---------------------------------------------------------------------------
// Channel-kind analysis: which queues the plan proves SPSC-eligible
// ---------------------------------------------------------------------------

TEST(Plan, LinearChainQueuesAreSpscExceptRecycle) {
  // source -> a -> b -> sink: every hop has exactly one single-threaded
  // producer worker and one single-threaded consumer worker, so every
  // queue but the source's recycle queue (multi-producer: sink recycles,
  // stages close) gets the wait-free ring.
  PipelineGraph g;
  auto& p = g.add_pipeline(small_config("p", 4));
  MapStage a("a", [](Buffer&) { return StageAction::kConvey; });
  MapStage b("b", [](Buffer&) { return StageAction::kConvey; });
  p.add_stage(a);
  p.add_stage(b);
  const ExecutionPlan& plan = g.plan();
  const QueueIndex recycle = plan.source_in(0);
  for (QueueIndex qi = 0; qi < plan.queues().size(); ++qi) {
    const PlannedQueue& q = plan.queues()[qi];
    if (qi == recycle) {
      EXPECT_EQ(q.kind, ChannelKind::kMpmc);
    } else {
      EXPECT_EQ(q.kind, ChannelKind::kSpsc);
      // The provable resident bound covers the whole feeding pool plus
      // its caboose — the ring can hold every token that can ever rest.
      EXPECT_GE(q.spsc_bound, 3u + 1u);
    }
  }
}

TEST(Plan, ReplicatedStageDemotesItsQueuesToMpmc) {
  // tagger -> work(x4) -> sink: work's inbound queue has 4 consumer
  // threads and the sink's inbound has 4 producers — both MPMC.
  PipelineGraph g;
  auto& p = g.add_pipeline(small_config("p", 4));
  MapStage tag("tag", [](Buffer&) { return StageAction::kConvey; });
  MapStage work("work", [](Buffer&) { return StageAction::kConvey; });
  p.add_stage(tag);
  p.add_stage_replicated(work, 4);
  const ExecutionPlan& plan = g.plan();
  std::size_t spsc = 0, mpmc = 0;
  for (const PlannedWorker& w : plan.workers()) {
    if (w.label == "work") {
      EXPECT_EQ(plan.queues()[w.in].kind, ChannelKind::kMpmc);
      for (const auto& [pid, qi] : w.out) {
        EXPECT_EQ(plan.queues()[qi].kind, ChannelKind::kMpmc);
      }
    }
    if (w.label == "tag") {
      // One single-threaded producer (source side) feeding one
      // single-threaded consumer: still eligible.
      EXPECT_EQ(plan.queues()[w.in].kind, ChannelKind::kSpsc);
    }
  }
  for (const PlannedQueue& q : plan.queues()) {
    spsc += q.kind == ChannelKind::kSpsc;
    mpmc += q.kind == ChannelKind::kMpmc;
  }
  EXPECT_EQ(spsc, 1u);  // only source -> tag
  EXPECT_EQ(mpmc, 3u);  // work's in, sink's in, recycle
}

TEST(Plan, VirtualWorkerQueuesStayEligible) {
  // Two pipelines sharing one virtual stage thread: each queue still has
  // exactly one producer worker and one consumer worker (the shared
  // worker appears once, whatever its member count), so the hops around
  // the virtual stage stay SPSC.
  PipelineGraph g;
  auto& pa = g.add_pipeline(small_config("a", 3));
  auto& pb = g.add_pipeline(small_config("b", 3));
  MapStage shared("shared", [](Buffer&) { return StageAction::kConvey; });
  pa.add_stage(shared, StageMode::kVirtual);
  pb.add_stage(shared, StageMode::kVirtual);
  const ExecutionPlan& plan = g.plan();
  for (QueueIndex qi = 0; qi < plan.queues().size(); ++qi) {
    const bool recycle = qi == plan.source_in(0) || qi == plan.source_in(1);
    EXPECT_EQ(plan.queues()[qi].kind,
              recycle ? ChannelKind::kMpmc : ChannelKind::kSpsc);
  }
}

TEST(Plan, RuntimeHonoursPlannedKindsAndMpmcOverride) {
  PipelineGraph g;
  auto& p = g.add_pipeline(small_config("p", 6));
  MapStage a("a", [](Buffer&) { return StageAction::kConvey; });
  p.add_stage(a);
  g.run();
  std::size_t spsc = 0;
  for (const QueueStats& q : g.run_stats().queues) {
    spsc += q.kind == ChannelKind::kSpsc;
  }
  if (std::getenv("FG_CHANNELS") == nullptr) {
    EXPECT_EQ(spsc, 2u);
  }

  // The conformance/ablation setting: force the blocking queue
  // everywhere regardless of what the plan proved.
  PipelineGraph g2;
  auto& p2 = g2.add_pipeline(small_config("p", 6));
  MapStage a2("a", [](Buffer&) { return StageAction::kConvey; });
  p2.add_stage(a2);
  RuntimeOptions opt;
  opt.channels = ChannelPolicy::kMpmcOnly;
  g2.set_runtime_options(opt);
  g2.run();
  for (const QueueStats& q : g2.run_stats().queues) {
    EXPECT_EQ(q.kind, ChannelKind::kMpmc);
  }
}

// ---------------------------------------------------------------------------
// Rerunnable graphs
// ---------------------------------------------------------------------------

TEST(Rerun, SameGraphTwiceIdenticalResultsAndFreshStats) {
  PipelineGraph g;
  auto& p = g.add_pipeline(small_config("p", 25, 2));
  std::vector<std::uint64_t> rounds;
  MapStage fill("fill", [&](Buffer& b) {
    b.set_size(8);
    b.as<std::uint64_t>()[0] = b.round();
    return StageAction::kConvey;
  });
  MapStage drain("drain", [&](Buffer& b) {
    rounds.push_back(b.as<std::uint64_t>()[0]);
    return StageAction::kConvey;
  });
  p.add_stage(fill);
  p.add_stage(drain);

  g.run();
  const std::vector<std::uint64_t> first = rounds;
  rounds.clear();
  g.run();
  EXPECT_EQ(rounds, first);  // identical results
  EXPECT_EQ(g.runs_completed(), 2u);
  for (const auto& st : g.stats()) {
    EXPECT_EQ(st.buffers, 25u);  // stats reset between runs
  }
}

TEST(Rerun, CustomStageGraphReruns) {
  PipelineGraph g;
  auto& p = g.add_pipeline(small_config("p", 0));
  struct Gen final : Stage {
    explicit Gen(Pipeline& p) : Stage("gen"), pipe(&p) {}
    Pipeline* pipe;
    int emitted = 0;
    void run(StageContext& ctx) override {
      for (;;) {
        Buffer* b = ctx.accept();
        if (!b) return;
        if (emitted % 7 == 6) {
          ++emitted;
          ctx.recycle(b);
          ctx.close(*pipe);
          return;
        }
        b->set_size(4);
        b->as<int>()[0] = emitted++;
        ctx.convey(b);
      }
    }
  } gen(p);
  std::atomic<int> got{0};
  MapStage collect("collect", [&](Buffer&) {
    ++got;
    return StageAction::kConvey;
  });
  p.add_stage(gen);
  p.add_stage(collect);
  g.run();
  EXPECT_EQ(got.load(), 6);
  gen.emitted = 0;  // stage state is the application's to reset
  g.run();
  EXPECT_EQ(got.load(), 12);
}

// ---------------------------------------------------------------------------
// Abort path
// ---------------------------------------------------------------------------

TEST(Abort, AllBuffersReturnToPools) {
  PipelineGraph g;
  auto& p = g.add_pipeline(small_config("p", 100, 4));
  MapStage boom("boom", [](Buffer& b) -> StageAction {
    if (b.round() == 7) throw std::runtime_error("stage failure");
    return StageAction::kConvey;
  });
  MapStage after("after", [](Buffer&) { return StageAction::kConvey; });
  p.add_stage(boom);
  p.add_stage(after);
  EXPECT_THROW(g.run(), std::runtime_error);

  // Unwinding parks every buffer somewhere accountable: resting in a
  // queue, retired by the source, or never emitted.  Nothing is stranded
  // in a worker's hands.
  for (const BufferAudit& a : g.audit_buffers()) {
    EXPECT_EQ(a.accounted(), a.pool);
  }
}

TEST(Abort, CustomStageUnwindReturnsHeldBuffers) {
  PipelineGraph g;
  auto& pa = g.add_pipeline(small_config("a", 0, 3));
  auto& pb = g.add_pipeline(small_config("b", 0, 3));
  // The common stage accepts from both pipelines, holds a's buffer while
  // accepting from b, then fails: both held and stashed buffers must be
  // returned on unwind.
  struct Common final : Stage {
    Common(Pipeline& a, Pipeline& b) : Stage("common"), pa(&a), pb(&b) {}
    Pipeline* pa;
    Pipeline* pb;
    void run(StageContext& ctx) override {
      Buffer* x = ctx.accept(*pa);
      Buffer* y = ctx.accept(*pb);
      (void)x;
      (void)y;
      throw std::runtime_error("common stage failure");
    }
  } common(pa, pb);
  pa.add_stage(common);
  pb.add_stage(common);
  EXPECT_THROW(g.run(), std::runtime_error);
  for (const BufferAudit& a : g.audit_buffers()) {
    EXPECT_EQ(a.accounted(), a.pool);
  }
}

TEST(Abort, GraphIsRerunnableAfterAbort) {
  PipelineGraph g;
  auto& p = g.add_pipeline(small_config("p", 30, 3));
  bool fail = true;
  std::atomic<int> ok_rounds{0};
  MapStage s("s", [&](Buffer& b) -> StageAction {
    if (fail && b.round() == 5) throw std::runtime_error("boom");
    ++ok_rounds;
    return StageAction::kConvey;
  });
  p.add_stage(s);
  EXPECT_THROW(g.run(), std::runtime_error);
  EXPECT_EQ(g.runs_completed(), 0u);

  fail = false;
  ok_rounds = 0;
  g.run();  // fresh queues and pools: the abort left no poison behind
  EXPECT_EQ(ok_rounds.load(), 30);
  EXPECT_EQ(g.runs_completed(), 1u);
  for (const BufferAudit& a : g.audit_buffers()) {
    EXPECT_EQ(a.accounted(), a.pool);
  }
}

// ---------------------------------------------------------------------------
// Instrumentation
// ---------------------------------------------------------------------------

TEST(Events, QueueStatsBalanceOnCleanRun) {
  PipelineGraph g;
  auto& p = g.add_pipeline(small_config("p", 10));
  MapStage s("s", [](Buffer&) { return StageAction::kConvey; });
  p.add_stage(s);
  g.run();
  const RunStats rs = g.run_stats();
  EXPECT_EQ(rs.runs_completed, 1u);
  EXPECT_GT(rs.wall_seconds, 0.0);
  ASSERT_FALSE(rs.queues.empty());
  std::uint64_t pushes = 0, pops = 0;
  for (const QueueStats& q : rs.queues) {
    pushes += q.pushes;
    pops += q.pops;
    EXPECT_GE(q.pushes, q.pops);
  }
  EXPECT_GT(pushes, 0u);
  // Residents (buffers resting in the source's recycle queue at exit)
  // account for the difference.
  std::size_t resting = 0;
  for (const BufferAudit& a : g.audit_buffers()) resting += a.in_queues;
  EXPECT_EQ(pushes - pops, resting);
}

TEST(Events, RunStatsJsonIsWellFormed) {
  PipelineGraph g;
  auto& p = g.add_pipeline(small_config("p", 3));
  MapStage s("s", [](Buffer&) { return StageAction::kConvey; });
  p.add_stage(s);
  g.run();

  util::JsonWriter w;
  g.run_stats().write_json(w);
  ASSERT_TRUE(w.complete());
  const std::string& blob = w.str();
  EXPECT_NE(blob.find("\"wall_seconds\":"), std::string::npos);
  EXPECT_NE(blob.find("\"stages\":["), std::string::npos);
  EXPECT_NE(blob.find("\"queues\":["), std::string::npos);
  EXPECT_NE(blob.find("\"stage\":\"source\""), std::string::npos);
  EXPECT_NE(blob.find("\"stage\":\"s\""), std::string::npos);
}

TEST(Json, WriterEscapesAndNests) {
  util::JsonWriter w;
  w.begin_object();
  w.key("s");
  w.value(std::string_view("a\"b\\c\nd"));
  w.key("n");
  w.value(std::uint64_t{42});
  w.key("f");
  w.value(1.5);
  w.key("arr");
  w.begin_array();
  w.value(true);
  w.null();
  w.end_array();
  w.end_object();
  EXPECT_EQ(w.str(), "{\"s\":\"a\\\"b\\\\c\\nd\",\"n\":42,\"f\":1.5,"
                     "\"arr\":[true,null]}");
}

TEST(Json, WriterRejectsMisuse) {
  util::JsonWriter w;
  w.begin_object();
  EXPECT_THROW(w.value(1), std::logic_error);  // value without key
  EXPECT_THROW(w.end_array(), std::logic_error);
  EXPECT_THROW(w.str(), std::logic_error);  // incomplete
}

}  // namespace
}  // namespace fg
