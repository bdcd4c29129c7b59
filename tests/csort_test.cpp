// End-to-end tests for csort (the columnsort baseline) and its geometry
// chooser, plus dsort-vs-csort agreement on identical inputs.
#include "comm/cluster.hpp"
#include "sort/csort.hpp"
#include "sort/dataset.hpp"
#include "sort/dsort.hpp"
#include "util/budget.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

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

TEST(Geometry, PinnedGeometries) {
  struct Pin {
    int p;
    std::uint64_t records, block, r, s;
  };
  for (const Pin& pin : {
           // Figure 8(a), every Section VI cell, fgbench's paper-fig8.
           Pin{16, 2097152, 4096, 32768, 64},
           // Figure 8(b) (64 B).
           Pin{16, 524288, 1024, 8192, 64},
           // fgbench's native-16b and shm-64b.
           Pin{4, 16777216, 4096, 131072, 128},
           Pin{4, 4194304, 1024, 32768, 128},
           // A small target: s = 4 is valid at N = 4096.
           Pin{1, 4096, 1024, 1024, 4},
       }) {
    const CsortGeometry g =
        CsortGeometry::choose(pin.records, pin.p, pin.block);
    EXPECT_EQ(g.r, pin.r) << "P=" << pin.p << " N=" << pin.records;
    EXPECT_EQ(g.s, pin.s) << "P=" << pin.p << " N=" << pin.records;
  }
}

// The chooser's rule: at the N it picks, no valid geometry has more
// columns.  Checked by brute force over every divisor of N.
class GeometryRule
    : public ::testing::TestWithParam<
          std::tuple<int, std::uint64_t, std::uint64_t>> {};

INSTANTIATE_TEST_SUITE_P(Sweep, GeometryRule,
                         ::testing::Combine(::testing::Values(1, 2, 4, 8, 16),
                                            ::testing::Values(1000ull, 50000ull,
                                                              1000000ull),
                                            ::testing::Values(1ull, 8ull,
                                                              1024ull,
                                                              4096ull)));

TEST_P(GeometryRule, MostColumnsAtTheChosenRecordCount) {
  const auto [p, target, block] = GetParam();
  const CsortGeometry g = CsortGeometry::choose(target, p, block);
  EXPECT_NO_THROW(g.validate(p));
  EXPECT_EQ(g.r % block, 0u);
  const std::uint64_t n = g.records();
  for (std::uint64_t s = g.s + 1; s <= n; ++s) {
    if (n % s != 0 || (n / s) % block != 0) continue;
    EXPECT_THROW((CsortGeometry{n / s, s}).validate(p), std::invalid_argument)
        << "r=" << n / s << " s=" << s << " beats s=" << g.s;
  }
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

TEST(Csort, PoolsFitInOneInput) {
  // Each pass streams a node's columns through a pool of default depth,
  // so the pools follow the column, not the stripe: four nodes sorting
  // 16 MiB (r = 16,384) need about 12.6 MB of pool buffers in their
  // largest pass, pass 3, whose buffers hold 3r/2 records.  The budget
  // throws util::QuotaExceeded if a pass's pools would overdraw it.
  SortConfig cfg;
  cfg.nodes = 4;
  cfg.records = 1 << 20;
  cfg.block_records = 1024;
  ASSERT_EQ(csort_compatible_records(cfg.records, cfg.nodes,
                                     cfg.block_records),
            cfg.records);
  util::ByteBudget budget("csort pools", cfg.records * cfg.record_bytes);
  cfg.runtime.pool_budget = &budget;
  EXPECT_TRUE(sort_and_verify(cfg).ok());
  EXPECT_EQ(budget.used(), 0u);  // every pass released its pools
}

/// Bytes each node receives in pass 3's round `t`, replaying the
/// communicate stage's routing: column j's merged run M_j covers global
/// records [j*r - r/2, j*r + r/2) (from 0 in the first column, to s*r in
/// the last) and goes out as within-block chunks of [u64 gstart][u32
/// count][records], after a P x u64 size header.
std::vector<std::uint64_t> pass3_received(const CsortGeometry& geom, int p,
                                          std::uint32_t rec,
                                          std::uint32_t block,
                                          std::uint64_t t) {
  const pdm::StripeLayout layout(p, rec, block);
  const std::uint64_t half = geom.r / 2;
  std::vector<std::uint64_t> got(static_cast<std::size_t>(p),
                                 static_cast<std::uint64_t>(p) * 8);
  for (int me = 0; me < p; ++me) {
    const std::uint64_t j = t * static_cast<std::uint64_t>(p) +
                            static_cast<std::uint64_t>(me);
    const std::uint64_t lo = j == 0 ? 0 : j * geom.r - half;
    const std::uint64_t hi =
        j == geom.s - 1 ? geom.s * geom.r : j * geom.r + half;
    for (std::uint64_t g = lo; g < hi;) {
      const std::uint64_t c = std::min(layout.run_within_block(g), hi - g);
      got[static_cast<std::size_t>(layout.node_of(g))] += 12 + c * rec;
      g += c;
    }
  }
  return got;
}

TEST(Csort, Pass3BufferHoldsEveryRound) {
  // Every round of every node, for every striping block that divides r
  // (run_csort's requirement), whether or not it divides r/P.
  struct Case {
    int p;
    std::uint64_t r, s;
  };
  for (const Case c : {Case{1, 8, 2}, Case{2, 64, 4}, Case{3, 60, 6},
                       Case{4, 104, 8}, Case{4, 16384, 64},
                       Case{16, 464, 16}}) {
    const CsortGeometry geom{c.r, c.s};
    ASSERT_NO_THROW(geom.validate(c.p));
    for (std::uint64_t block = 1; block <= c.r; ++block) {
      if (c.r % block != 0) continue;
      for (const std::uint32_t rec : {16u, 64u}) {
        const std::size_t cap =
            csort_pass3_buffer_bytes(geom, c.p, rec, block);
        EXPECT_GE(cap, (c.r + c.r / 2) * rec);  // M_j of the last column
        std::uint64_t worst = 0;
        for (std::uint64_t t = 0; t < c.s / static_cast<std::uint64_t>(c.p);
             ++t) {
          for (const std::uint64_t got : pass3_received(
                   geom, c.p, rec, static_cast<std::uint32_t>(block), t)) {
            worst = std::max(worst, got);
          }
        }
        EXPECT_LE(worst, cap) << "P=" << c.p << " r=" << c.r
                              << " block=" << block << " rec=" << rec;
      }
    }
  }
  // The 16 MiB four-node run above: M_j, not the receive, sets the size.
  EXPECT_EQ(csort_pass3_buffer_bytes({16384, 64}, 4, 16, 1024),
            16384u * 3 / 2 * 16);
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
