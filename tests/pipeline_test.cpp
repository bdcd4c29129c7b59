// Tests for single linear pipelines: round counting, buffer recycling,
// dynamic termination via close, the auxiliary-buffer feature, flush
// hooks, stage statistics, error propagation, and API misuse checks.
#include "core/fg.hpp"
#include "exec_param.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <set>
#include <thread>
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

// Every test replays under both channel policies, {auto,mpmc}.
using PipelineP = test::WithChannels;
INSTANTIATE_TEST_SUITE_P(Channels, PipelineP,
                         ::testing::ValuesIn(test::kChannelMatrix),
                         test::channel_param_name);

TEST_P(PipelineP, FixedRoundsDeliverEveryRound) {
  PipelineGraph g;
  auto& p = g.add_pipeline(small_config("p", 20));
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
  ASSERT_EQ(rounds.size(), 20u);
  for (std::uint64_t i = 0; i < 20; ++i) EXPECT_EQ(rounds[i], i);
}

TEST_P(PipelineP, RoundsExceedBufferPool) {
  // 100 rounds through a pool of 2 buffers: recycling must reuse them.
  PipelineGraph g;
  auto& p = g.add_pipeline(small_config("p", 100, 2));
  std::set<Buffer*> distinct;
  int count = 0;
  MapStage s("s", [&](Buffer& b) {
    distinct.insert(&b);
    ++count;
    return StageAction::kConvey;
  });
  p.add_stage(s);
  g.run();
  EXPECT_EQ(count, 100);
  EXPECT_EQ(distinct.size(), 2u);
}

TEST_P(PipelineP, SourceEmitsEmptyBuffers) {
  PipelineGraph g;
  auto& p = g.add_pipeline(small_config("p", 5));
  MapStage s("s", [&](Buffer& b) {
    EXPECT_EQ(b.size(), 0u);
    EXPECT_EQ(b.tag(), 0u);
    return StageAction::kConvey;
  });
  p.add_stage(s);
  g.run();
}

TEST_P(PipelineP, DynamicCloseStopsSource) {
  PipelineGraph g;
  auto& p = g.add_pipeline(small_config("p", 0));
  int produced = 0, seen = 0;
  MapStage gen("gen", [&](Buffer&) {
    if (produced == 13) return StageAction::kRecycleAndClose;
    ++produced;
    return StageAction::kConvey;
  });
  MapStage count("count", [&](Buffer&) {
    ++seen;
    return StageAction::kConvey;
  });
  p.add_stage(gen);
  p.add_stage(count);
  g.run();
  EXPECT_EQ(seen, 13);
}

TEST_P(PipelineP, ConveyAndCloseDeliversLastBuffer) {
  PipelineGraph g;
  auto& p = g.add_pipeline(small_config("p", 0));
  int produced = 0;
  std::vector<int> seen;
  MapStage gen("gen", [&](Buffer& b) {
    b.set_size(4);
    b.as<int>()[0] = produced;
    if (++produced == 5) return StageAction::kConveyAndClose;
    return StageAction::kConvey;
  });
  MapStage sink2("collect", [&](Buffer& b) {
    seen.push_back(b.as<int>()[0]);
    return StageAction::kConvey;
  });
  p.add_stage(gen);
  p.add_stage(sink2);
  g.run();
  ASSERT_EQ(seen.size(), 5u);
  EXPECT_EQ(seen.back(), 4);
}

TEST_P(PipelineP, MidPipelineRecycleSkipsDownstream) {
  PipelineGraph g;
  auto& p = g.add_pipeline(small_config("p", 10));
  int downstream = 0;
  MapStage filter("filter", [&](Buffer& b) {
    // Drop odd rounds: recycle them straight back to the source.
    return (b.round() % 2 == 1) ? StageAction::kRecycle : StageAction::kConvey;
  });
  MapStage count("count", [&](Buffer&) {
    ++downstream;
    return StageAction::kConvey;
  });
  p.add_stage(filter);
  p.add_stage(count);
  g.run();
  EXPECT_EQ(downstream, 5);
}

TEST_P(PipelineP, AuxBuffersAvailableWhenConfigured) {
  PipelineGraph g;
  auto cfg = small_config("p", 3);
  cfg.aux_buffers = true;
  auto& p = g.add_pipeline(cfg);
  MapStage s("s", [&](Buffer& b) {
    EXPECT_TRUE(b.has_aux());
    b.set_size(8);
    b.aux()[0] = std::byte{9};
    b.swap_aux();
    EXPECT_EQ(b.data()[0], std::byte{9});
    return StageAction::kConvey;
  });
  p.add_stage(s);
  g.run();
}

TEST_P(PipelineP, FlushHookRunsOncePerPipeline) {
  PipelineGraph g;
  auto& p = g.add_pipeline(small_config("p", 4));
  std::atomic<int> flushes{0};
  MapStage s(
      "s", [](Buffer&) { return StageAction::kConvey; },
      [&](PipelineId) { ++flushes; });
  p.add_stage(s);
  g.run();
  EXPECT_EQ(flushes.load(), 1);
}

TEST_P(PipelineP, FlushSeesAllBuffersFirst) {
  PipelineGraph g;
  auto& p = g.add_pipeline(small_config("p", 7));
  int buffers_at_flush = -1;
  int buffers = 0;
  MapStage s(
      "s",
      [&](Buffer&) {
        ++buffers;
        return StageAction::kConvey;
      },
      [&](PipelineId) { buffers_at_flush = buffers; });
  p.add_stage(s);
  g.run();
  EXPECT_EQ(buffers_at_flush, 7);
}

TEST_P(PipelineP, TagTravelsWithBuffer) {
  PipelineGraph g;
  auto& p = g.add_pipeline(small_config("p", 6));
  std::vector<std::uint64_t> tags;
  MapStage set("set", [&](Buffer& b) {
    b.set_tag(b.round() * 11);
    return StageAction::kConvey;
  });
  MapStage get("get", [&](Buffer& b) {
    tags.push_back(b.tag());
    return StageAction::kConvey;
  });
  p.add_stage(set);
  p.add_stage(get);
  g.run();
  ASSERT_EQ(tags.size(), 6u);
  EXPECT_EQ(tags[5], 55u);
}

TEST_P(PipelineP, StatsCountBuffersPerStage) {
  PipelineGraph g;
  auto& p = g.add_pipeline(small_config("p", 12));
  MapStage a("a", [](Buffer&) { return StageAction::kConvey; });
  MapStage b("b", [](Buffer&) { return StageAction::kConvey; });
  p.add_stage(a);
  p.add_stage(b);
  g.run();
  bool saw_a = false, saw_b = false, saw_source = false, saw_sink = false;
  for (const auto& s : g.stats()) {
    if (s.stage == "a") {
      saw_a = true;
      EXPECT_EQ(s.buffers, 12u);
    } else if (s.stage == "b") {
      saw_b = true;
      EXPECT_EQ(s.buffers, 12u);
    } else if (s.stage == "source") {
      saw_source = true;
      EXPECT_EQ(s.buffers, 12u);
    } else if (s.stage == "sink") {
      saw_sink = true;
      EXPECT_EQ(s.buffers, 12u);
    }
  }
  EXPECT_TRUE(saw_a && saw_b && saw_source && saw_sink);
}

TEST_P(PipelineP, SlowStageAccumulatesWorkTime) {
  PipelineGraph g;
  auto& p = g.add_pipeline(small_config("p", 5));
  MapStage slow("slow", [](Buffer&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    return StageAction::kConvey;
  });
  p.add_stage(slow);
  g.run();
  for (const auto& s : g.stats()) {
    if (s.stage == "slow") {
      EXPECT_GE(s.working_seconds(), 0.02);
    }
    if (s.stage == "sink") {
      EXPECT_GE(s.accept_seconds(), 0.01);
    }
  }
}

TEST_P(PipelineP, StageExceptionPropagatesAndUnwinds) {
  PipelineGraph g;
  auto& p = g.add_pipeline(small_config("p", 100));
  MapStage boom("boom", [](Buffer& b) -> StageAction {
    if (b.round() == 3) throw std::runtime_error("stage failure");
    return StageAction::kConvey;
  });
  MapStage after("after", [](Buffer&) { return StageAction::kConvey; });
  p.add_stage(boom);
  p.add_stage(after);
  EXPECT_THROW(g.run(), std::runtime_error);
}

TEST_P(PipelineP, RunIsRepeatable) {
  // Graphs execute a cached plan on a fresh runtime per run(): same
  // results every time, stats reset in between.
  PipelineGraph g;
  auto& p = g.add_pipeline(small_config("p", 6));
  int seen = 0;
  MapStage s("s", [&](Buffer&) {
    ++seen;
    return StageAction::kConvey;
  });
  p.add_stage(s);
  g.run();
  EXPECT_EQ(seen, 6);
  g.run();
  EXPECT_EQ(seen, 12);
  EXPECT_EQ(g.runs_completed(), 2u);
  for (const auto& st : g.stats()) {
    EXPECT_EQ(st.buffers, 6u);  // second run's stats, not a running total
  }
}

TEST_P(PipelineP, EmptyGraphRejected) {
  PipelineGraph g;
  EXPECT_THROW(g.run(), std::logic_error);
}

TEST_P(PipelineP, PipelineWithoutStagesRejected) {
  PipelineGraph g;
  g.add_pipeline(small_config("p", 1));
  EXPECT_THROW(g.run(), std::logic_error);
}

TEST_P(PipelineP, DuplicateStageInOnePipelineRejected) {
  PipelineGraph g;
  auto& p = g.add_pipeline(small_config("p", 1));
  MapStage s("s", [](Buffer&) { return StageAction::kConvey; });
  p.add_stage(s);
  EXPECT_THROW(p.add_stage(s), std::logic_error);
}

TEST_P(PipelineP, AddStageAfterBuildRejected) {
  PipelineGraph g;
  auto& p = g.add_pipeline(small_config("p", 1));
  MapStage s("s", [](Buffer&) { return StageAction::kConvey; });
  p.add_stage(s);
  (void)g.planned_threads();  // forces topology build
  MapStage late("late", [](Buffer&) { return StageAction::kConvey; });
  EXPECT_THROW(p.add_stage(late), std::logic_error);
  EXPECT_THROW(g.add_pipeline(small_config("q", 1)), std::logic_error);
}

TEST_P(PipelineP, ZeroBuffersRejected) {
  PipelineGraph g;
  auto cfg = small_config("p", 1);
  cfg.num_buffers = 0;
  auto& p = g.add_pipeline(cfg);
  MapStage s("s", [](Buffer&) { return StageAction::kConvey; });
  p.add_stage(s);
  EXPECT_THROW(g.run(), std::logic_error);
}

TEST_P(PipelineP, MapStageRunDirectCallRejected) {
  MapStage s("s", [](Buffer&) { return StageAction::kConvey; });
  // MapStages are driven by the framework loop; calling run() directly is
  // a programming error.
  struct NullCtx final : StageContext {
    Buffer* accept(const Pipeline&) override { return nullptr; }
    Buffer* accept() override { return nullptr; }
    void convey(Buffer*) override {}
    void recycle(Buffer*) override {}
    void close(const Pipeline&) override {}
    bool exhausted(const Pipeline&) const override { return true; }
  } ctx;
  EXPECT_THROW(s.run(ctx), std::logic_error);
}

TEST_P(PipelineP, PlannedThreadsForLinearPipeline) {
  PipelineGraph g;
  auto& p = g.add_pipeline(small_config("p", 1));
  MapStage a("a", [](Buffer&) { return StageAction::kConvey; });
  MapStage b("b", [](Buffer&) { return StageAction::kConvey; });
  p.add_stage(a);
  p.add_stage(b);
  // source + a + b + sink
  EXPECT_EQ(g.planned_threads(), 4u);
}

TEST_P(PipelineP, BoundedQueuesStillComplete) {
  PipelineGraph g;
  auto cfg = small_config("p", 50, 4);
  cfg.queue_capacity = 1;
  auto& p = g.add_pipeline(cfg);
  int n = 0;
  MapStage a("a", [](Buffer&) { return StageAction::kConvey; });
  MapStage b("b", [&](Buffer&) {
    ++n;
    return StageAction::kConvey;
  });
  p.add_stage(a);
  p.add_stage(b);
  g.run();
  EXPECT_EQ(n, 50);
}

TEST_P(PipelineP, CustomStageSinglePipeline) {
  // A custom stage in a single pipeline: full control over accept/convey.
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
        if (emitted == 9) {
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
  std::vector<int> got;
  MapStage collect("collect", [&](Buffer& b) {
    got.push_back(b.as<int>()[0]);
    return StageAction::kConvey;
  });
  p.add_stage(gen);
  p.add_stage(collect);
  g.run();
  ASSERT_EQ(got.size(), 9u);
  EXPECT_EQ(got.back(), 8);
}

}  // namespace
}  // namespace fg
