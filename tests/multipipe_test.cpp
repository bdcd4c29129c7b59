// Tests for the paper's FG extensions: multiple disjoint pipelines,
// multiple intersecting pipelines (common stage), and virtual stages /
// virtual pipelines (shared threads and queues).
#include "core/fg.hpp"
#include "exec_param.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace fg {
namespace {

PipelineConfig cfg_of(std::string name, std::size_t buffer_bytes,
                      std::size_t buffers, std::uint64_t rounds) {
  PipelineConfig c;
  c.name = std::move(name);
  c.buffer_bytes = buffer_bytes;
  c.num_buffers = buffers;
  c.rounds = rounds;
  return c;
}

// Every suite replays under both channel policies, {auto,mpmc}.
using DisjointP = test::WithChannels;
using IntersectingP = test::WithChannels;
using VirtualP = test::WithChannels;
INSTANTIATE_TEST_SUITE_P(Channels, DisjointP,
                         ::testing::ValuesIn(test::kChannelMatrix),
                         test::channel_param_name);
INSTANTIATE_TEST_SUITE_P(Channels, IntersectingP,
                         ::testing::ValuesIn(test::kChannelMatrix),
                         test::channel_param_name);
INSTANTIATE_TEST_SUITE_P(Channels, VirtualP,
                         ::testing::ValuesIn(test::kChannelMatrix),
                         test::channel_param_name);

// ---------------------------------------------------------------------------
// Disjoint pipelines
// ---------------------------------------------------------------------------

TEST_P(DisjointP, TwoPipelinesRunIndependently) {
  PipelineGraph g;
  auto& pa = g.add_pipeline(cfg_of("a", 64, 2, 10));
  auto& pb = g.add_pipeline(cfg_of("b", 128, 3, 25));
  std::atomic<int> na{0}, nb{0};
  MapStage sa("sa", [&](Buffer& b) {
    EXPECT_EQ(b.capacity(), 64u);
    ++na;
    return StageAction::kConvey;
  });
  MapStage sb("sb", [&](Buffer& b) {
    EXPECT_EQ(b.capacity(), 128u);
    ++nb;
    return StageAction::kConvey;
  });
  pa.add_stage(sa);
  pb.add_stage(sb);
  g.run();
  EXPECT_EQ(na.load(), 10);
  EXPECT_EQ(nb.load(), 25);
}

TEST_P(DisjointP, EachPipelineHasOwnSourceSinkAndPool) {
  PipelineGraph g;
  auto& pa = g.add_pipeline(cfg_of("a", 64, 2, 1));
  auto& pb = g.add_pipeline(cfg_of("b", 64, 2, 1));
  MapStage sa("sa", [](Buffer&) { return StageAction::kConvey; });
  MapStage sb("sb", [](Buffer&) { return StageAction::kConvey; });
  pa.add_stage(sa);
  pb.add_stage(sb);
  // 2 sources + 2 sinks + 2 stages
  EXPECT_EQ(g.planned_threads(), 6u);
  g.run();
  int sources = 0, sinks = 0;
  for (const auto& s : g.stats()) {
    sources += s.stage == "source";
    sinks += s.stage == "sink";
  }
  EXPECT_EQ(sources, 2);
  EXPECT_EQ(sinks, 2);
}

TEST_P(DisjointP, PipelinesProgressAtDifferentRates) {
  // The fast pipeline must not wait for the slow one — its buffers finish
  // long before the slow pipeline's rounds complete.
  PipelineGraph g;
  auto& fast = g.add_pipeline(cfg_of("fast", 64, 2, 50));
  auto& slow = g.add_pipeline(cfg_of("slow", 64, 2, 5));
  std::atomic<int> fast_done{0};
  int fast_count_at_first_slow = -1;
  MapStage sf("fast-stage", [&](Buffer&) {
    ++fast_done;
    return StageAction::kConvey;
  });
  MapStage ss("slow-stage", [&](Buffer& b) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    if (b.round() == 0) fast_count_at_first_slow = fast_done.load();
    return StageAction::kConvey;
  });
  fast.add_stage(sf);
  slow.add_stage(ss);
  g.run();
  EXPECT_EQ(fast_done.load(), 50);
  // By the end of the slow pipeline's first buffer, the fast pipeline
  // should have made progress (asynchrony).
  EXPECT_GE(fast_count_at_first_slow, 1);
}

// ---------------------------------------------------------------------------
// Intersecting pipelines (common stage)
// ---------------------------------------------------------------------------

/// A merge common stage over `k` vertical pipelines of ints, emitting
/// into a horizontal pipeline.
struct TestMerge final : Stage {
  std::vector<Pipeline*> vert;
  Pipeline* horiz;
  TestMerge(std::vector<Pipeline*> v, Pipeline& h)
      : Stage("merge"), vert(std::move(v)), horiz(&h) {}

  void run(StageContext& ctx) override {
    struct Cur {
      Buffer* b{nullptr};
      std::size_t i{0};
    };
    std::vector<Cur> cur(vert.size());
    for (std::size_t v = 0; v < vert.size(); ++v) {
      cur[v] = {ctx.accept(*vert[v]), 0};
    }
    Buffer* out = ctx.accept(*horiz);
    std::size_t oi = 0;
    const std::size_t ocap = out->capacity() / sizeof(int);
    for (;;) {
      int best = -1;
      for (std::size_t v = 0; v < vert.size(); ++v) {
        if (!cur[v].b) continue;
        if (best < 0 || cur[v].b->as<int>()[cur[v].i] <
                            cur[static_cast<std::size_t>(best)]
                                .b->as<int>()[cur[static_cast<std::size_t>(best)].i]) {
          best = static_cast<int>(v);
        }
      }
      if (best < 0) break;
      auto& c = cur[static_cast<std::size_t>(best)];
      out->capacity_as<int>()[oi++] = c.b->as<int>()[c.i++];
      if (c.i == c.b->as<int>().size()) {
        ctx.convey(c.b);
        c = {ctx.accept(*vert[static_cast<std::size_t>(best)]), 0};
      }
      if (oi == ocap) {
        out->set_size(oi * sizeof(int));
        ctx.convey(out);
        out = ctx.accept(*horiz);
        oi = 0;
      }
    }
    if (oi) {
      out->set_size(oi * sizeof(int));
      ctx.convey(out);
    } else {
      ctx.recycle(out);
    }
    ctx.close(*horiz);
  }
};

/// Builds the Figure-5 structure over `k` runs of `len` ints each and
/// returns the merged output.
std::vector<int> run_merge_graph(int k, int len, bool virtual_reads,
                                 std::size_t* threads_out = nullptr) {
  PipelineGraph g;
  std::vector<std::vector<int>> runs(static_cast<std::size_t>(k));
  for (int v = 0; v < k; ++v) {
    for (int i = 0; i < len; ++i) {
      runs[static_cast<std::size_t>(v)].push_back(i * k + v);
    }
  }
  std::vector<std::size_t> pos(static_cast<std::size_t>(k), 0);
  auto read_fn = [&](Buffer& b) {
    auto& r = runs[b.pipeline()];
    auto& p = pos[b.pipeline()];
    if (p >= r.size()) return StageAction::kRecycleAndClose;
    const std::size_t n = std::min<std::size_t>(4, r.size() - p);
    b.set_size(n * sizeof(int));
    for (std::size_t i = 0; i < n; ++i) b.as<int>()[i] = r[p + i];
    p += n;
    return StageAction::kConvey;
  };
  // One shared virtual stage, or one stage object per pipeline: sharing a
  // non-virtual MapStage across pipelines is (correctly) rejected.
  MapStage vread("vread", read_fn);
  std::vector<std::unique_ptr<MapStage>> readers;

  std::vector<Pipeline*> vert;
  for (int v = 0; v < k; ++v) {
    auto& pv = g.add_pipeline(
        cfg_of("v" + std::to_string(v), 4 * sizeof(int), 2, 0));
    if (virtual_reads) {
      pv.add_stage(vread, StageMode::kVirtual);
    } else {
      readers.push_back(
          std::make_unique<MapStage>("vread" + std::to_string(v), read_fn));
      pv.add_stage(*readers.back());
    }
    vert.push_back(&pv);
  }
  auto& ph = g.add_pipeline(cfg_of("h", 16 * sizeof(int), 2, 0));
  TestMerge merge(vert, ph);
  for (auto* pv : vert) pv->add_stage(merge);
  ph.add_stage(merge);
  std::vector<int> out;
  MapStage collect("collect", [&](Buffer& b) {
    for (int x : b.as<int>()) out.push_back(x);
    return StageAction::kConvey;
  });
  ph.add_stage(collect);
  if (threads_out) *threads_out = g.planned_threads();
  g.run();
  return out;
}

TEST_P(IntersectingP, MergeProducesSortedUnion) {
  const auto out = run_merge_graph(4, 32, true);
  ASSERT_EQ(out.size(), 4u * 32u);
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i));
  }
}

TEST_P(IntersectingP, SingleVerticalPipeline) {
  const auto out = run_merge_graph(1, 10, false);
  ASSERT_EQ(out.size(), 10u);
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
}

TEST_P(IntersectingP, ZeroLengthRuns) {
  const auto out = run_merge_graph(3, 0, true);
  EXPECT_TRUE(out.empty());
}

TEST_P(IntersectingP, UnevenRunsViaDifferentChunking) {
  // Runs of equal length but vertical buffers drain at data-dependent
  // rates; the merged output must still be the sorted union.
  const auto out = run_merge_graph(7, 23, true);
  ASSERT_EQ(out.size(), 7u * 23u);
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
}

TEST_P(IntersectingP, CommonStageMustBeCustom) {
  PipelineGraph g;
  auto& pa = g.add_pipeline(cfg_of("a", 64, 2, 1));
  auto& pb = g.add_pipeline(cfg_of("b", 64, 2, 1));
  MapStage shared("shared", [](Buffer&) { return StageAction::kConvey; });
  pa.add_stage(shared);            // not virtual
  pb.add_stage(shared);            // shared by two pipelines
  EXPECT_THROW(g.run(), std::logic_error);
}

TEST_P(IntersectingP, BuffersCannotJumpPipelines) {
  PipelineGraph g;
  auto& pa = g.add_pipeline(cfg_of("a", 64, 2, 0));
  auto& pb = g.add_pipeline(cfg_of("b", 64, 2, 0));
  struct BadStage final : Stage {
    Pipeline *a, *b;
    BadStage(Pipeline& pa_, Pipeline& pb_) : Stage("bad"), a(&pa_), b(&pb_) {}
    void run(StageContext& ctx) override {
      Buffer* buf = ctx.accept(*a);
      ASSERT_NE(buf, nullptr);
      // Close pipeline b without ever touching its buffers, then try to
      // convey a's buffer — legal.  The illegal move is exercised by
      // accept() on a pipeline we're not in, checked below via logic_error
      // from convey on a foreign buffer in another test; here we validate
      // the accept-side check.
      ctx.convey(buf);
      ctx.close(*a);
      ctx.close(*b);
      // Drain b so the graph can finish.
      while (Buffer* x = ctx.accept(*b)) ctx.recycle(x);
    }
  } bad(pa, pb);
  pa.add_stage(bad);
  pb.add_stage(bad);
  EXPECT_NO_THROW(g.run());
}

TEST_P(IntersectingP, AcceptOnForeignPipelineThrows) {
  PipelineGraph g;
  auto& pa = g.add_pipeline(cfg_of("a", 64, 2, 1));
  auto& pb = g.add_pipeline(cfg_of("b", 64, 2, 1));
  struct Probe final : Stage {
    Pipeline *mine, *foreign;
    Probe(Pipeline& m, Pipeline& f) : Stage("probe"), mine(&m), foreign(&f) {}
    void run(StageContext& ctx) override {
      EXPECT_THROW(ctx.accept(*foreign), std::logic_error);
      while (Buffer* b = ctx.accept(*mine)) ctx.convey(b);
    }
  } probe(pa, pb);
  pa.add_stage(probe);
  MapStage sb("sb", [](Buffer&) { return StageAction::kConvey; });
  pb.add_stage(sb);
  g.run();
}

// ---------------------------------------------------------------------------
// Virtual stages and pipelines
// ---------------------------------------------------------------------------

TEST_P(VirtualP, SharedThreadForManyPipelines) {
  std::size_t threads = 0;
  const int k = 50;
  const auto out = run_merge_graph(k, 8, true, &threads);
  EXPECT_EQ(out.size(), static_cast<std::size_t>(k) * 8);
  // One virtual source, one virtual read, one virtual sink, merge,
  // horizontal source, collect, horizontal sink: 7 threads total instead
  // of ~4*k+4.
  EXPECT_EQ(threads, 7u);
}

TEST_P(VirtualP, NonVirtualUsesManyThreads) {
  std::size_t threads = 0;
  const int k = 5;
  const auto out = run_merge_graph(k, 8, false, &threads);
  EXPECT_EQ(out.size(), static_cast<std::size_t>(k) * 8);
  // Each vertical pipeline has its own source, read, sink (3k), plus
  // merge + horizontal source, collect, sink.
  EXPECT_EQ(threads, 3u * k + 4u);
}

TEST_P(VirtualP, VirtualStageMustBeMapStage) {
  PipelineGraph g;
  auto& pa = g.add_pipeline(cfg_of("a", 64, 2, 1));
  auto& pb = g.add_pipeline(cfg_of("b", 64, 2, 1));
  struct Custom final : Stage {
    using Stage::Stage;
    void run(StageContext&) override {}
  } c("c");
  pa.add_stage(c, StageMode::kVirtual);
  pb.add_stage(c, StageMode::kVirtual);
  EXPECT_THROW(g.run(), std::logic_error);
}

TEST_P(VirtualP, PerPipelineCloseIsIndependent) {
  // Three virtual pipelines with different data lengths: each must close
  // when its own data runs out, without stopping the others.
  PipelineGraph g;
  const std::size_t lens[3] = {3, 9, 6};
  std::size_t pos[3] = {0, 0, 0};
  std::atomic<int> total{0};
  MapStage gen("gen", [&](Buffer& b) {
    auto& p = pos[b.pipeline()];
    if (p >= lens[b.pipeline()]) return StageAction::kRecycleAndClose;
    ++p;
    return StageAction::kConvey;
  });
  MapStage count("count", [&](Buffer&) {
    ++total;
    return StageAction::kConvey;
  });
  for (int i = 0; i < 3; ++i) {
    auto& p = g.add_pipeline(cfg_of("p" + std::to_string(i), 64, 2, 0));
    p.add_stage(gen, StageMode::kVirtual);
    p.add_stage(count, StageMode::kVirtual);
  }
  g.run();
  EXPECT_EQ(total.load(), 3 + 9 + 6);
  // gen+count virtual (2 threads) + merged source + merged sink.
  EXPECT_EQ(g.planned_threads(), 4u);
}

TEST_P(VirtualP, SingleVirtualStageActsAsNormal) {
  PipelineGraph g;
  auto& p = g.add_pipeline(cfg_of("p", 64, 2, 4));
  int n = 0;
  MapStage s("s", [&](Buffer&) {
    ++n;
    return StageAction::kConvey;
  });
  p.add_stage(s, StageMode::kVirtual);
  g.run();
  EXPECT_EQ(n, 4);
}

TEST_P(VirtualP, StatsAggregateAcrossMembers) {
  PipelineGraph g;
  MapStage s("vstage", [](Buffer&) { return StageAction::kConvey; });
  for (int i = 0; i < 4; ++i) {
    auto& p = g.add_pipeline(cfg_of("p" + std::to_string(i), 64, 2, 5));
    p.add_stage(s, StageMode::kVirtual);
  }
  g.run();
  for (const auto& st : g.stats()) {
    if (st.stage == "vstage") {
      EXPECT_EQ(st.buffers, 20u);
      // Member list mentions all four pipelines.
      EXPECT_NE(st.pipelines.find("p0"), std::string::npos);
      EXPECT_NE(st.pipelines.find("p3"), std::string::npos);
    }
  }
}

TEST_P(VirtualP, MixedVirtualAndNormalSharingRejected) {
  PipelineGraph g;
  auto& pa = g.add_pipeline(cfg_of("a", 64, 2, 1));
  auto& pb = g.add_pipeline(cfg_of("b", 64, 2, 1));
  MapStage s("s", [](Buffer&) { return StageAction::kConvey; });
  pa.add_stage(s, StageMode::kVirtual);
  pb.add_stage(s, StageMode::kNormal);
  EXPECT_THROW(g.run(), std::logic_error);
}

TEST_P(VirtualP, HundredsOfPipelinesFewThreads) {
  PipelineGraph g;
  const int k = 300;
  std::vector<std::size_t> pos(static_cast<std::size_t>(k), 0);
  std::atomic<std::uint64_t> sum{0};
  MapStage gen("gen", [&](Buffer& b) {
    auto& p = pos[b.pipeline()];
    if (p >= 4) return StageAction::kRecycleAndClose;
    ++p;
    b.set_size(8);
    b.as<std::uint64_t>()[0] = b.pipeline();
    return StageAction::kConvey;
  });
  MapStage acc("acc", [&](Buffer& b) {
    sum += b.as<std::uint64_t>()[0];
    return StageAction::kConvey;
  });
  for (int i = 0; i < k; ++i) {
    auto& p = g.add_pipeline(cfg_of("p" + std::to_string(i), 64, 1, 0));
    p.add_stage(gen, StageMode::kVirtual);
    p.add_stage(acc, StageMode::kVirtual);
  }
  EXPECT_EQ(g.planned_threads(), 4u);
  g.run();
  // Each pipeline id contributes 4 times.
  std::uint64_t expect = 0;
  for (int i = 0; i < k; ++i) expect += 4ull * static_cast<std::uint64_t>(i);
  EXPECT_EQ(sum.load(), expect);
}

}  // namespace
}  // namespace fg
