// End-to-end tests for csort (the columnsort baseline) and its geometry
// chooser, plus dsort-vs-csort agreement on identical inputs.
#include "comm/cluster.hpp"
#include "sort/csort.hpp"
#include "sort/dataset.hpp"
#include "sort/dsort.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

namespace fg::sort {
namespace {

SortConfig config_for(int nodes, std::uint64_t target, std::uint32_t rec,
                      std::uint32_t block, Distribution dist) {
  SortConfig cfg;
  cfg.nodes = nodes;
  cfg.records = csort_compatible_records(target, nodes, block);
  cfg.record_bytes = rec;
  cfg.block_records = block;
  cfg.num_buffers = 3;
  cfg.buffer_records = 256;
  cfg.oversample = 32;
  cfg.dist = dist;
  return cfg;
}

VerifyResult sort_and_verify(const SortConfig& cfg) {
  pdm::Workspace ws(cfg.nodes);
  comm::SimCluster cluster(cfg.nodes);
  generate_input(ws, cfg);
  const SortResult r = run_csort(cluster, ws, cfg);
  EXPECT_EQ(r.records, cfg.records);
  EXPECT_EQ(r.times.passes.size(), 3u);  // three passes, as the paper says
  EXPECT_EQ(r.times.sampling, 0.0);      // csort needs no preprocessing
  return verify_output(ws, cfg);
}

// -- geometry ---------------------------------------------------------------

TEST(Geometry, ValidatesConstraints) {
  CsortGeometry ok{200, 4};
  EXPECT_NO_THROW(ok.validate(4));
  EXPECT_THROW((CsortGeometry{0, 4}).validate(4), std::invalid_argument);
  EXPECT_THROW((CsortGeometry{200, 6}).validate(4), std::invalid_argument);  // s % P
  EXPECT_THROW((CsortGeometry{202, 4}).validate(4), std::invalid_argument);  // r % s
  EXPECT_THROW((CsortGeometry{12, 4}).validate(4), std::invalid_argument);   // r >= 2(s-1)^2
}

class GeometrySweep
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

INSTANTIATE_TEST_SUITE_P(Sweep, GeometrySweep,
                         ::testing::Combine(::testing::Values(1, 2, 4, 8, 16),
                                            ::testing::Values(1000ull, 50000ull,
                                                              1000000ull)));

TEST_P(GeometrySweep, ChosenGeometryIsValidAndNearTarget) {
  const auto [p, target] = GetParam();
  const CsortGeometry g = CsortGeometry::choose(target, p, 8);
  EXPECT_NO_THROW(g.validate(p));
  EXPECT_EQ(g.r % 8, 0u);
  // Within a factor of 2 of the target (small targets are dominated by
  // the r >= 2(s-1)^2 floor).
  EXPECT_LE(g.records(), std::max<std::uint64_t>(2 * target, 4096 * static_cast<std::uint64_t>(p)));
}

TEST(Geometry, CompatibleRecordsRoundTrips) {
  const std::uint64_t n = csort_compatible_records(30000, 4, 16);
  const CsortGeometry g = CsortGeometry::choose(30000, 4, 16);
  EXPECT_EQ(n, g.records());
}

// -- end-to-end sweeps --------------------------------------------------------

using Params = std::tuple<int, std::uint32_t, Distribution>;
class CsortSweep : public ::testing::TestWithParam<Params> {};

INSTANTIATE_TEST_SUITE_P(
    Matrix, CsortSweep,
    ::testing::Combine(::testing::Values(1, 2, 4),
                       ::testing::Values(16u, 64u),
                       ::testing::Values(Distribution::kUniform,
                                         Distribution::kAllEqual,
                                         Distribution::kNormal,
                                         Distribution::kPoisson)));

TEST_P(CsortSweep, SortsCorrectly) {
  const auto [nodes, rec, dist] = GetParam();
  const SortConfig cfg = config_for(nodes, 20000, rec, 8, dist);
  const VerifyResult v = sort_and_verify(cfg);
  EXPECT_TRUE(v.sorted);
  EXPECT_TRUE(v.permutation);
}

TEST(Csort, ObliviousToUnbalancedDistributions) {
  for (Distribution d : {Distribution::kSorted, Distribution::kReversed}) {
    const SortConfig cfg = config_for(4, 20000, 16, 8, d);
    EXPECT_TRUE(sort_and_verify(cfg).ok()) << to_string(d);
  }
}

TEST(Csort, ExplicitGeometryHonored) {
  SortConfig cfg = config_for(2, 0, 16, 4, Distribution::kUniform);
  cfg.csort_r = 64;
  cfg.csort_s = 4;
  cfg.records = 256;
  EXPECT_TRUE(sort_and_verify(cfg).ok());
}

TEST(Csort, GeometryMismatchRejected) {
  SortConfig cfg = config_for(2, 10000, 16, 4, Distribution::kUniform);
  cfg.csort_r = 64;
  cfg.csort_s = 4;  // 256 != cfg.records
  pdm::Workspace ws(cfg.nodes);
  comm::SimCluster cluster(cfg.nodes);
  EXPECT_THROW(run_csort(cluster, ws, cfg), std::invalid_argument);
}

TEST(Csort, BlockMustDivideRows) {
  SortConfig cfg = config_for(2, 0, 16, 4, Distribution::kUniform);
  cfg.csort_r = 66;  // not a multiple of block 4
  cfg.csort_s = 4;
  cfg.records = 264;
  pdm::Workspace ws(cfg.nodes);
  comm::SimCluster cluster(cfg.nodes);
  EXPECT_THROW(run_csort(cluster, ws, cfg), std::invalid_argument);
}

TEST(Csort, SingleColumnPerNode) {
  // cpn = 1: a single round per pass; the pipeline degenerates but must
  // still be correct.
  SortConfig cfg = config_for(2, 0, 16, 2, Distribution::kUniform);
  cfg.csort_r = 50;
  cfg.csort_s = 2;
  cfg.records = 100;
  EXPECT_TRUE(sort_and_verify(cfg).ok());
}

TEST(Csort, ManyRoundsPerNode) {
  SortConfig cfg = config_for(2, 0, 16, 2, Distribution::kNormal);
  cfg.csort_r = 392;  // s=8 -> 2(s-1)^2 = 98 <= 392, r % s == 0
  cfg.csort_s = 8;
  cfg.records = 392 * 8;
  EXPECT_TRUE(sort_and_verify(cfg).ok());
}

// Identical input sorted by both programs must produce byte-identical
// striped output: every sort and merge in both orders records by extended
// key, a total order, so even records with equal keys land in one place.
class CsortAgreesWithDsort
    : public ::testing::TestWithParam<
          std::tuple<std::uint32_t, Distribution>> {};

INSTANTIATE_TEST_SUITE_P(
    Matrix, CsortAgreesWithDsort,
    ::testing::Combine(::testing::Values(16u, 64u),
                       ::testing::Values(Distribution::kUniform,
                                         Distribution::kAllEqual,
                                         Distribution::kPoisson)));

TEST_P(CsortAgreesWithDsort, ByteIdenticalOutput) {
  const auto [rec, dist] = GetParam();
  SortConfig cfg = config_for(4, 15000, rec, 8, dist);
  pdm::Workspace ws_a(cfg.nodes), ws_b(cfg.nodes);
  comm::SimCluster ca(cfg.nodes), cb(cfg.nodes);
  generate_input(ws_a, cfg);
  generate_input(ws_b, cfg);
  run_dsort(ca, ws_a, cfg);
  run_csort(cb, ws_b, cfg);
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
