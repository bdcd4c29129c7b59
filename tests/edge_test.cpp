// Edge-case coverage across modules: context API misuse, queue stats,
// custom-stage statistics, fabric corner cases, kernel extremes, and
// sort-driver boundary shapes that the main suites don't reach.
#include "comm/cluster.hpp"
#include "core/fg.hpp"
#include "sort/csort.hpp"
#include "sort/dataset.hpp"
#include "sort/dsort.hpp"
#include "sort/kernels.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

namespace fg {
namespace {

PipelineConfig small(std::string name, std::uint64_t rounds) {
  PipelineConfig c;
  c.name = std::move(name);
  c.buffer_bytes = 64;
  c.num_buffers = 2;
  c.rounds = rounds;
  return c;
}

TEST(ContextEdge, BareAcceptAmbiguousForMultiPipelineStage) {
  PipelineGraph g;
  auto& pa = g.add_pipeline(small("a", 1));
  auto& pb = g.add_pipeline(small("b", 1));
  struct Probe final : Stage {
    Pipeline *a, *b;
    Probe(Pipeline& pa_, Pipeline& pb_) : Stage("probe"), a(&pa_), b(&pb_) {}
    void run(StageContext& ctx) override {
      EXPECT_THROW(ctx.accept(), std::logic_error);  // which pipeline?
      while (Buffer* x = ctx.accept(*a)) ctx.convey(x);
      while (Buffer* x = ctx.accept(*b)) ctx.convey(x);
    }
  } probe(pa, pb);
  pa.add_stage(probe);
  pb.add_stage(probe);
  g.run();
}

TEST(ContextEdge, ExhaustedReflectsCabooseAndStash) {
  PipelineGraph g;
  auto& pa = g.add_pipeline(small("a", 2));
  auto& pb = g.add_pipeline(small("b", 1));
  struct Probe final : Stage {
    Pipeline *a, *b;
    Probe(Pipeline& pa_, Pipeline& pb_) : Stage("probe"), a(&pa_), b(&pb_) {}
    void run(StageContext& ctx) override {
      EXPECT_FALSE(ctx.exhausted(*a));
      // Drain b fully first; a's buffers arriving meanwhile get stashed.
      while (Buffer* x = ctx.accept(*b)) ctx.convey(x);
      EXPECT_TRUE(ctx.exhausted(*b));
      int a_count = 0;
      while (Buffer* x = ctx.accept(*a)) {
        ++a_count;
        ctx.convey(x);
      }
      EXPECT_EQ(a_count, 2);
      EXPECT_TRUE(ctx.exhausted(*a));
    }
  } probe(pa, pb);
  pa.add_stage(probe);
  pb.add_stage(probe);
  g.run();
}

TEST(ContextEdge, CustomStageStatsCountStashedBuffers) {
  PipelineGraph g;
  auto& pa = g.add_pipeline(small("a", 5));
  struct Consume final : Stage {
    Pipeline* a;
    explicit Consume(Pipeline& pa_) : Stage("consume"), a(&pa_) {}
    void run(StageContext& ctx) override {
      while (Buffer* x = ctx.accept(*a)) ctx.convey(x);
    }
  } consume(pa);
  pa.add_stage(consume);
  g.run();
  for (const auto& s : g.stats()) {
    if (s.stage == "consume") {
      EXPECT_GE(s.working_seconds(), 0.0);
    }
    if (s.stage == "source") {
      EXPECT_EQ(s.buffers, 5u);
    }
  }
}

TEST(QueueEdge, PeakReflectsBackpressure) {
  PipelineGraph g;
  auto cfg = small("p", 30);
  cfg.num_buffers = 6;
  auto& p = g.add_pipeline(cfg);
  MapStage fast("fast", [](Buffer&) { return StageAction::kConvey; });
  MapStage slow("slow", [](Buffer&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    return StageAction::kConvey;
  });
  p.add_stage(fast);
  p.add_stage(slow);
  g.run();  // queue into `slow` must have filled with most of the pool
  SUCCEED();
}

TEST(FabricEdge, ProbeRespectsTagAndSource) {
  comm::SimFabric f(3);
  std::byte x{1};
  f.send(1, 0, 7, {&x, 1});
  EXPECT_TRUE(f.probe(0, 1, 7));
  EXPECT_TRUE(f.probe(0, comm::kAnySource, comm::kAnyTag));
  EXPECT_FALSE(f.probe(0, 2, 7));
  EXPECT_FALSE(f.probe(0, 1, 8));
}

TEST(FabricEdge, ZeroByteMessages) {
  comm::SimFabric f(2);
  f.send(0, 1, 3, {});
  std::vector<std::byte> buf(1);
  const auto r = f.recv(1, 0, 3, buf);
  EXPECT_EQ(r.bytes, 0u);
}

TEST(FabricEdge, StatsAccumulateAcrossCollectives) {
  comm::SimCluster c(3);
  c.run([&](comm::NodeId me) {
    c.fabric().barrier(me);
    (void)c.fabric().allgather_u64(me, 1);
  });
  std::uint64_t sent = 0;
  for (int n = 0; n < 3; ++n) sent += c.fabric().stats(n).messages_sent;
  EXPECT_GT(sent, 0u);
}

TEST(KernelEdge, PartitionAllBelowFirstSplitter) {
  std::vector<std::byte> data(10 * 16);
  for (int i = 0; i < 10; ++i) {
    sort::set_key(data.data() + i * 16, 5);
    sort::set_uid(data.data() + i * 16, static_cast<std::uint64_t>(i));
  }
  std::vector<sort::ExtKey> spl{{100, 0}, {200, 0}};
  std::vector<std::byte> out(data.size());
  const auto counts = sort::partition_records(data, 16, spl, out);
  EXPECT_EQ(counts[0], 10u);
  EXPECT_EQ(counts[1], 0u);
  EXPECT_EQ(counts[2], 0u);
}

TEST(KernelEdge, PartitionAllAboveLastSplitter) {
  std::vector<std::byte> data(4 * 16);
  for (int i = 0; i < 4; ++i) {
    sort::set_key(data.data() + i * 16, ~0ULL);
    sort::set_uid(data.data() + i * 16, static_cast<std::uint64_t>(i));
  }
  std::vector<sort::ExtKey> spl{{1, ~0ULL}};
  std::vector<std::byte> out(data.size());
  const auto counts = sort::partition_records(data, 16, spl, out);
  EXPECT_EQ(counts[0], 0u);
  EXPECT_EQ(counts[1], 4u);
}

TEST(KernelEdge, SortMaxAndMinKeys) {
  std::vector<std::byte> data(3 * 16);
  const std::uint64_t keys[3] = {~0ULL, 0, 1ULL << 63};
  for (int i = 0; i < 3; ++i) {
    sort::set_key(data.data() + i * 16, keys[i]);
    sort::set_uid(data.data() + i * 16, static_cast<std::uint64_t>(i));
  }
  std::vector<std::byte> scratch(data.size());
  sort::sort_records(data, 16, scratch);
  EXPECT_EQ(sort::key_of(data.data()), 0u);
  EXPECT_EQ(sort::key_of(data.data() + 32), ~0ULL);
}

TEST(GeometryEdge, ChooserPrefersEnoughRounds) {
  // Each pass runs one round per column a node owns, so the chooser takes
  // the most columns columnsort allows at its N: the next multiple of P
  // that divides N breaks r >= 2(s-1)^2 or the block alignment.
  for (int p : {2, 4, 16}) {
    const auto g = sort::CsortGeometry::choose(1 << 21, p, 1024);
    EXPECT_NO_THROW(g.validate(p));
    const std::uint64_t n = g.records();
    for (std::uint64_t s = g.s + static_cast<std::uint64_t>(p); s <= n;
         s += static_cast<std::uint64_t>(p)) {
      if (n % s != 0 || (n / s) % 1024 != 0) continue;
      EXPECT_THROW((sort::CsortGeometry{n / s, s}).validate(p),
                   std::invalid_argument)
          << "P=" << p << ": s=" << s << " is valid, more than " << g.s;
    }
  }
}

TEST(SortEdge, SixteenNodesQuick) {
  sort::SortConfig cfg;
  cfg.nodes = 16;
  cfg.records = 16000;
  cfg.block_records = 25;
  cfg.buffer_records = 125;
  cfg.merge_buffer_records = 50;
  cfg.out_buffer_records = 125;
  cfg.oversample = 16;
  pdm::Workspace ws(cfg.nodes);
  comm::SimCluster cluster(cfg.nodes);
  sort::generate_input(ws, cfg);
  sort::run_dsort(cluster, ws, cfg);
  EXPECT_TRUE(sort::verify_output(ws, cfg).ok());
}

TEST(SortEdge, SingleRecord) {
  sort::SortConfig cfg;
  cfg.nodes = 2;
  cfg.records = 1;
  cfg.block_records = 4;
  cfg.buffer_records = 8;
  cfg.merge_buffer_records = 4;
  cfg.out_buffer_records = 8;
  cfg.oversample = 4;
  pdm::Workspace ws(cfg.nodes);
  comm::SimCluster cluster(cfg.nodes);
  sort::generate_input(ws, cfg);
  sort::run_dsort(cluster, ws, cfg);
  const auto v = sort::verify_output(ws, cfg);
  EXPECT_TRUE(v.ok());
  EXPECT_EQ(v.records, 1u);
}

TEST(SortEdge, CsortWithLargeRecordsTinyMatrix) {
  sort::SortConfig cfg;
  cfg.nodes = 2;
  cfg.record_bytes = 128;
  cfg.csort_r = 18;
  cfg.csort_s = 2;
  cfg.records = 36;
  cfg.block_records = 3;
  cfg.oversample = 4;
  pdm::Workspace ws(cfg.nodes);
  comm::SimCluster cluster(cfg.nodes);
  sort::generate_input(ws, cfg);
  sort::run_csort(cluster, ws, cfg);
  EXPECT_TRUE(sort::verify_output(ws, cfg).ok());
}

}  // namespace
}  // namespace fg
