// Tests for replicated stages: several threads servicing one stage's
// queue (FG's multicore feature).  Replication trades round ordering for
// parallelism, so these tests use order-insensitive stages and check
// completeness, speedup of blocking work, termination, and validation.
#include "core/fg.hpp"
#include "exec_param.hpp"
#include "util/timer.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <mutex>
#include <thread>

namespace fg {
namespace {

PipelineConfig cfg_of(std::uint64_t rounds, std::size_t buffers = 8) {
  PipelineConfig c;
  c.name = "p";
  c.buffer_bytes = 64;
  c.num_buffers = buffers;
  c.rounds = rounds;
  return c;
}

// Every test replays under both channel policies, {auto,mpmc}.
using ReplicatedP = test::WithChannels;
INSTANTIATE_TEST_SUITE_P(Channels, ReplicatedP,
                         ::testing::ValuesIn(test::kChannelMatrix),
                         test::channel_param_name);

TEST_P(ReplicatedP, ProcessesEveryBufferExactlyOnce) {
  PipelineGraph g;
  auto& p = g.add_pipeline(cfg_of(500));
  std::mutex m;
  std::set<std::uint64_t> seen;
  MapStage tagger("tag", [](Buffer& b) {
    b.set_size(8);
    b.as<std::uint64_t>()[0] = b.round();
    return StageAction::kConvey;
  });
  MapStage worker("work", [&](Buffer& b) {
    std::lock_guard<std::mutex> lock(m);
    EXPECT_TRUE(seen.insert(b.as<std::uint64_t>()[0]).second);
    return StageAction::kConvey;
  });
  p.add_stage(tagger);
  p.add_stage_replicated(worker, 4);
  g.run();
  EXPECT_EQ(seen.size(), 500u);
}

TEST_P(ReplicatedP, PlannedThreadsCountReplicas) {
  PipelineGraph g;
  auto& p = g.add_pipeline(cfg_of(1));
  MapStage s("s", [](Buffer&) { return StageAction::kConvey; });
  p.add_stage_replicated(s, 5);
  // source + 5 replicas + sink
  EXPECT_EQ(g.planned_threads(), 7u);
}

TEST_P(ReplicatedP, BlockingWorkOverlapsAcrossReplicas) {
  // A stage sleeping 10 ms per buffer, 32 rounds: serial floor is 320 ms;
  // with 4 replicas and a deep pool it must take well under half that.
  PipelineGraph g;
  auto& p = g.add_pipeline(cfg_of(32, 8));
  MapStage slow("slow", [](Buffer&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    return StageAction::kConvey;
  });
  p.add_stage_replicated(slow, 4);
  util::Stopwatch sw;
  g.run();
  EXPECT_LT(sw.elapsed_seconds(), 0.55 * 0.320);
}

TEST_P(ReplicatedP, SingleReplicaBehavesNormally) {
  PipelineGraph g;
  auto& p = g.add_pipeline(cfg_of(20));
  std::atomic<int> n{0};
  MapStage s("s", [&](Buffer&) {
    ++n;
    return StageAction::kConvey;
  });
  p.add_stage_replicated(s, 1);
  g.run();
  EXPECT_EQ(n.load(), 20);
}

TEST_P(ReplicatedP, DownstreamSeesAllBuffersBeforeCaboose) {
  // The caboose must not overtake buffers still in flight in other
  // replicas: the downstream count at flush time must be complete.
  for (int iter = 0; iter < 10; ++iter) {
    PipelineGraph g;
    auto& p = g.add_pipeline(cfg_of(64));
    std::atomic<int> downstream{0};
    int at_flush = -1;
    MapStage fan("fan", [](Buffer&) { return StageAction::kConvey; });
    MapStage count(
        "count",
        [&](Buffer&) {
          ++downstream;
          return StageAction::kConvey;
        },
        [&](PipelineId) { at_flush = downstream.load(); });
    p.add_stage_replicated(fan, 4);
    p.add_stage(count);
    g.run();
    ASSERT_EQ(at_flush, 64);
  }
}

TEST_P(ReplicatedP, CloseFromReplicaStopsPipeline) {
  PipelineGraph g;
  auto& p = g.add_pipeline(cfg_of(0));
  std::atomic<int> emitted{0};
  MapStage gen("gen", [&](Buffer&) {
    // Several replicas race to increment; once past the limit, close.
    if (emitted.fetch_add(1) >= 50) return StageAction::kRecycleAndClose;
    return StageAction::kConvey;
  });
  std::atomic<int> got{0};
  MapStage count("count", [&](Buffer&) {
    ++got;
    return StageAction::kConvey;
  });
  p.add_stage_replicated(gen, 3);
  p.add_stage(count);
  g.run();
  EXPECT_GE(got.load(), 50);
  EXPECT_LE(got.load(), 60);  // a few in-flight extras are inherent
}

TEST_P(ReplicatedP, FlushRunsOncePerPipeline) {
  PipelineGraph g;
  auto& p = g.add_pipeline(cfg_of(40));
  std::atomic<int> flushes{0};
  MapStage s(
      "s", [](Buffer&) { return StageAction::kConvey; },
      [&](PipelineId) { ++flushes; });
  p.add_stage_replicated(s, 6);
  g.run();
  EXPECT_EQ(flushes.load(), 1);
}

TEST_P(ReplicatedP, StatsAggregateAcrossReplicas) {
  PipelineGraph g;
  auto& p = g.add_pipeline(cfg_of(100));
  MapStage s("rep", [](Buffer&) { return StageAction::kConvey; });
  p.add_stage_replicated(s, 4);
  g.run();
  for (const auto& st : g.stats()) {
    if (st.stage == "rep") {
      EXPECT_EQ(st.buffers, 100u);
    }
  }
}

TEST_P(ReplicatedP, ExceptionInReplicaAborts) {
  PipelineGraph g;
  auto& p = g.add_pipeline(cfg_of(100));
  MapStage s("boom", [](Buffer& b) -> StageAction {
    if (b.round() == 10) throw std::runtime_error("replica died");
    return StageAction::kConvey;
  });
  p.add_stage_replicated(s, 3);
  EXPECT_THROW(g.run(), std::runtime_error);
}

TEST_P(ReplicatedP, ZeroReplicasRejected) {
  PipelineGraph g;
  auto& p = g.add_pipeline(cfg_of(1));
  MapStage s("s", [](Buffer&) { return StageAction::kConvey; });
  EXPECT_THROW(p.add_stage_replicated(s, 0), std::logic_error);
}

TEST_P(ReplicatedP, MultiplePipelinesRejected) {
  PipelineGraph g;
  auto& pa = g.add_pipeline(cfg_of(1));
  auto& pb = g.add_pipeline(cfg_of(1));
  MapStage s("s", [](Buffer&) { return StageAction::kConvey; });
  pa.add_stage_replicated(s, 2);
  pb.add_stage(s);
  EXPECT_THROW(g.run(), std::logic_error);
}

TEST_P(ReplicatedP, TwoReplicatedStagesInOnePipeline) {
  PipelineGraph g;
  auto& p = g.add_pipeline(cfg_of(200));
  std::atomic<int> a{0}, b{0};
  MapStage sa("a", [&](Buffer&) {
    ++a;
    return StageAction::kConvey;
  });
  MapStage sb("b", [&](Buffer&) {
    ++b;
    return StageAction::kConvey;
  });
  p.add_stage_replicated(sa, 3);
  p.add_stage_replicated(sb, 2);
  g.run();
  EXPECT_EQ(a.load(), 200);
  EXPECT_EQ(b.load(), 200);
}

}  // namespace
}  // namespace fg
