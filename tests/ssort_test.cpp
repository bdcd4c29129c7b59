// Tests for ssort, the synchronous (no-pipeline) distribution sort used
// as the overlap baseline: it must be exactly as correct as dsort on the
// same sweep, and byte-identical in output.
#include "comm/cluster.hpp"
#include "sort/dataset.hpp"
#include "sort/dsort.hpp"
#include "sort/ssort.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

namespace fg::sort {
namespace {

SortConfig small_config() {
  SortConfig cfg;
  cfg.nodes = 4;
  cfg.records = 8000;
  cfg.record_bytes = 16;
  cfg.block_records = 64;
  cfg.buffer_records = 256;
  cfg.merge_buffer_records = 64;
  cfg.out_buffer_records = 256;
  cfg.oversample = 32;
  return cfg;
}

VerifyResult sort_and_verify(const SortConfig& cfg) {
  pdm::Workspace ws(cfg.nodes);
  comm::SimCluster cluster(cfg.nodes);
  generate_input(ws, cfg);
  const SortResult r = run_ssort(cluster, ws, cfg);
  EXPECT_EQ(r.records, cfg.records);
  EXPECT_EQ(r.times.passes.size(), 2u);
  return verify_output(ws, cfg);
}

using Params = std::tuple<int, std::uint32_t, Distribution>;
class SsortSweep : public ::testing::TestWithParam<Params> {};

INSTANTIATE_TEST_SUITE_P(
    Matrix, SsortSweep,
    ::testing::Combine(::testing::Values(1, 3, 4),
                       ::testing::Values(16u, 64u),
                       ::testing::Values(Distribution::kUniform,
                                         Distribution::kAllEqual,
                                         Distribution::kPoisson,
                                         Distribution::kNodeClustered)));

TEST_P(SsortSweep, SortsCorrectly) {
  const auto [nodes, rec, dist] = GetParam();
  SortConfig cfg = small_config();
  cfg.nodes = nodes;
  cfg.record_bytes = rec;
  cfg.dist = dist;
  EXPECT_TRUE(sort_and_verify(cfg).ok());
}

TEST(Ssort, OddShapes) {
  SortConfig cfg = small_config();
  cfg.records = 7919;
  cfg.block_records = 61;
  cfg.nodes = 3;
  EXPECT_TRUE(sort_and_verify(cfg).ok());
  cfg = small_config();
  cfg.records = 5;
  cfg.nodes = 4;
  cfg.block_records = 2;
  EXPECT_TRUE(sort_and_verify(cfg).ok());
}

// Both programs merge by extended key, a total order, so identical input
// gives byte-identical striped output even where keys repeat.
class SsortMatchesDsort
    : public ::testing::TestWithParam<
          std::tuple<std::uint32_t, Distribution>> {};

INSTANTIATE_TEST_SUITE_P(
    Matrix, SsortMatchesDsort,
    ::testing::Combine(::testing::Values(16u, 64u),
                       ::testing::Values(Distribution::kUniform,
                                         Distribution::kAllEqual,
                                         Distribution::kPoisson)));

TEST_P(SsortMatchesDsort, ByteIdenticalOutput) {
  const auto [rec, dist] = GetParam();
  SortConfig cfg = small_config();
  cfg.record_bytes = rec;
  cfg.dist = dist;
  pdm::Workspace ws_a(cfg.nodes), ws_b(cfg.nodes);
  comm::SimCluster ca(cfg.nodes), cb(cfg.nodes);
  generate_input(ws_a, cfg);
  generate_input(ws_b, cfg);
  run_dsort(ca, ws_a, cfg);
  run_ssort(cb, ws_b, cfg);
  EXPECT_TRUE(verify_output(ws_a, cfg).ok());
  EXPECT_TRUE(verify_output(ws_b, cfg).ok());
  const auto layout = layout_of(cfg);
  for (int n = 0; n < cfg.nodes; ++n) {
    pdm::File fa = ws_a.disk(n).open(cfg.output_name);
    pdm::File fb = ws_b.disk(n).open(cfg.output_name);
    const std::uint64_t bytes =
        layout.node_records(n, cfg.records) * cfg.record_bytes;
    std::vector<std::byte> a(bytes), b(bytes);
    ws_a.disk(n).read(fa, 0, a);
    ws_b.disk(n).read(fb, 0, b);
    std::size_t mismatched_records = 0;
    for (std::uint64_t i = 0; i < bytes; i += cfg.record_bytes) {
      mismatched_records += !std::equal(a.begin() + i, a.begin() + i + rec,
                                        b.begin() + i);
    }
    EXPECT_EQ(mismatched_records, 0u) << "node " << n;
  }
}

}  // namespace
}  // namespace fg::sort
