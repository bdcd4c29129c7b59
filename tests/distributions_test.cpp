// Tests for workload synthesis: determinism, distribution shapes, record
// materialization, and dataset generation/verification plumbing.
#include "sort/dataset.hpp"
#include "sort/distributions.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

namespace fg::sort {
namespace {

TEST(Distributions, Names) {
  EXPECT_EQ(to_string(Distribution::kUniform), "Uniform random");
  EXPECT_EQ(to_string(Distribution::kAllEqual), "All equal");
  EXPECT_EQ(to_string(Distribution::kNormal), "Std normal");
  EXPECT_EQ(to_string(Distribution::kPoisson), "Poisson");
}

class DistParam : public ::testing::TestWithParam<Distribution> {};

INSTANTIATE_TEST_SUITE_P(All, DistParam,
                         ::testing::Values(Distribution::kUniform,
                                           Distribution::kAllEqual,
                                           Distribution::kNormal,
                                           Distribution::kPoisson,
                                           Distribution::kSorted,
                                           Distribution::kReversed));

TEST_P(DistParam, KeyIsDeterministic) {
  for (std::uint64_t g : {0ull, 1ull, 999ull}) {
    EXPECT_EQ(key_for(GetParam(), 7, g, 1000), key_for(GetParam(), 7, g, 1000));
  }
}

TEST_P(DistParam, SeedChangesKeysUnlessDegenerate) {
  const Distribution d = GetParam();
  if (d == Distribution::kAllEqual || d == Distribution::kSorted ||
      d == Distribution::kReversed) {
    GTEST_SKIP() << "seed-independent by design";
  }
  int diff = 0;
  for (std::uint64_t g = 0; g < 64; ++g) {
    diff += key_for(d, 1, g, 64) != key_for(d, 2, g, 64);
  }
  EXPECT_GT(diff, 32);
}

TEST_P(DistParam, MakeRecordSetsUidAndKey) {
  std::vector<std::byte> rec(64);
  make_record(GetParam(), 5, 123, 1000, rec);
  EXPECT_EQ(uid_of(rec.data()), 123u);
  EXPECT_EQ(key_of(rec.data()), key_for(GetParam(), 5, 123, 1000));
}

TEST_P(DistParam, PayloadDeterministic) {
  std::vector<std::byte> a(64), b(64);
  make_record(GetParam(), 5, 42, 100, a);
  make_record(GetParam(), 5, 42, 100, b);
  EXPECT_EQ(a, b);
}

TEST(Distributions, UniformSpreadsAcrossRange) {
  double sum = 0.0;
  for (std::uint64_t g = 0; g < 5000; ++g) {
    sum += static_cast<double>(key_for(Distribution::kUniform, 1, g, 5000)) /
           1.8446744073709552e19;
  }
  EXPECT_NEAR(sum / 5000, 0.5, 0.02);
}

TEST(Distributions, AllEqualIsConstant) {
  const std::uint64_t k = key_for(Distribution::kAllEqual, 1, 0, 10);
  for (std::uint64_t g = 1; g < 100; ++g) {
    EXPECT_EQ(key_for(Distribution::kAllEqual, 9, g, 100), k);
  }
}

TEST(Distributions, PoissonKeysAreSmallAndDuplicated) {
  std::map<std::uint64_t, int> counts;
  for (std::uint64_t g = 0; g < 2000; ++g) {
    const std::uint64_t k = key_for(Distribution::kPoisson, 1, g, 2000);
    EXPECT_LT(k, 20u);  // lambda=1: tail is tiny
    ++counts[k];
  }
  // Around 37% zeros for Poisson(1).
  EXPECT_GT(counts[0], 500);
  EXPECT_LT(counts[0], 1000);
}

TEST(Distributions, NormalIsCentered) {
  double sum = 0.0;
  for (std::uint64_t g = 0; g < 5000; ++g) {
    sum += static_cast<double>(key_for(Distribution::kNormal, 1, g, 5000));
  }
  // Centered near 2^63.
  EXPECT_NEAR(sum / 5000 / 9.223372036854776e18, 1.0, 0.05);
}

TEST(Distributions, SortedAndReversedAreMonotone) {
  for (std::uint64_t g = 1; g < 100; ++g) {
    EXPECT_GT(key_for(Distribution::kSorted, 1, g, 100),
              key_for(Distribution::kSorted, 1, g - 1, 100));
    EXPECT_LT(key_for(Distribution::kReversed, 1, g, 100),
              key_for(Distribution::kReversed, 1, g - 1, 100));
  }
}

TEST(Distributions, RecordTooSmallRejected) {
  std::vector<std::byte> rec(8);
  EXPECT_THROW(make_record(Distribution::kUniform, 1, 0, 10, rec),
               std::invalid_argument);
}

TEST(Dataset, ExpectedFingerprintIsStable) {
  SortConfig cfg;
  cfg.records = 500;
  cfg.nodes = 2;
  EXPECT_EQ(expected_fingerprint(cfg), expected_fingerprint(cfg));
  SortConfig other = cfg;
  other.seed = 99;
  EXPECT_NE(expected_fingerprint(cfg), expected_fingerprint(other));
}

TEST(Dataset, GenerateWritesStripedShares) {
  SortConfig cfg;
  cfg.nodes = 3;
  cfg.records = 1000;
  cfg.record_bytes = 16;
  cfg.block_records = 32;
  pdm::Workspace ws(cfg.nodes);
  generate_input(ws, cfg);
  const auto layout = layout_of(cfg);
  for (int n = 0; n < cfg.nodes; ++n) {
    pdm::File f = ws.disk(n).open(cfg.input_name);
    EXPECT_EQ(ws.disk(n).size(f),
              layout.node_records(n, cfg.records) * cfg.record_bytes);
  }
}

TEST(Dataset, GeneratedRecordsMatchFormula) {
  SortConfig cfg;
  cfg.nodes = 2;
  cfg.records = 100;
  cfg.block_records = 8;
  pdm::Workspace ws(cfg.nodes);
  generate_input(ws, cfg);
  // Global record 17 is in block 2 -> node 0, local block 1, offset 1.
  pdm::File f = ws.disk(0).open(cfg.input_name);
  std::vector<std::byte> rec(16);
  ws.disk(0).read(f, layout_of(cfg).local_byte_offset(17), rec);
  EXPECT_EQ(uid_of(rec.data()), 17u);
  EXPECT_EQ(key_of(rec.data()), key_for(cfg.dist, cfg.seed, 17, cfg.records));
}

TEST(Dataset, VerifyDetectsMissingOutput) {
  SortConfig cfg;
  cfg.nodes = 2;
  cfg.records = 64;
  pdm::Workspace ws(cfg.nodes);
  const VerifyResult v = verify_output(ws, cfg);
  EXPECT_FALSE(v.ok());
}

TEST(Dataset, VerifyAcceptsHandSortedOutput) {
  // Build a correct striped output by sorting all records in memory.
  SortConfig cfg;
  cfg.nodes = 2;
  cfg.records = 200;
  cfg.block_records = 16;
  cfg.dist = Distribution::kUniform;
  pdm::Workspace ws(cfg.nodes);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> items;  // (key, uid)
  for (std::uint64_t g = 0; g < cfg.records; ++g) {
    items.emplace_back(key_for(cfg.dist, cfg.seed, g, cfg.records), g);
  }
  std::sort(items.begin(), items.end());
  const auto layout = layout_of(cfg);
  {
    // Scoped so the handles close (and stdio flushes) before verifying.
    std::vector<pdm::File> files;
    for (int n = 0; n < cfg.nodes; ++n) {
      files.push_back(ws.disk(n).create(cfg.output_name));
    }
    std::vector<std::byte> rec(cfg.record_bytes);
    for (std::uint64_t pos = 0; pos < items.size(); ++pos) {
      make_record(cfg.dist, cfg.seed, items[pos].second, cfg.records, rec);
      const int node = layout.node_of(pos);
      ws.disk(node).write(files[static_cast<std::size_t>(node)],
                          layout.local_byte_offset(pos), rec);
    }
  }
  const VerifyResult v = verify_output(ws, cfg);
  EXPECT_TRUE(v.sorted);
  EXPECT_TRUE(v.permutation);
  EXPECT_EQ(v.records, cfg.records);
}

TEST(Dataset, VerifyDetectsUnsortedOutput) {
  SortConfig cfg;
  cfg.nodes = 1;
  cfg.records = 50;
  cfg.block_records = 10;
  pdm::Workspace ws(1);
  // Output = input order (a permutation, but not sorted for uniform keys).
  {
    pdm::File f = ws.disk(0).create(cfg.output_name);
    std::vector<std::byte> rec(cfg.record_bytes);
    for (std::uint64_t g = 0; g < cfg.records; ++g) {
      make_record(cfg.dist, cfg.seed, g, cfg.records, rec);
      ws.disk(0).write(f, g * cfg.record_bytes, rec);
    }
  }
  const VerifyResult v = verify_output(ws, cfg);
  EXPECT_FALSE(v.sorted);
  EXPECT_TRUE(v.permutation);
}

/// All-equal records (64 bytes, so with payload), generated in input
/// order and then put in extended-key order: the order every program
/// writes.
std::vector<std::vector<std::byte>> all_equal_in_ext_key_order(
    const SortConfig& cfg) {
  std::vector<std::vector<std::byte>> recs;
  for (std::uint64_t g = 0; g < cfg.records; ++g) {
    recs.emplace_back(cfg.record_bytes);
    make_record(cfg.dist, cfg.seed, g, cfg.records, recs.back());
  }
  std::sort(recs.begin(), recs.end(), [](const auto& a, const auto& b) {
    return ext_key_of(a.data()) < ext_key_of(b.data());
  });
  return recs;
}

void write_output(pdm::Workspace& ws, const SortConfig& cfg,
                  const std::vector<std::vector<std::byte>>& recs) {
  pdm::File f = ws.disk(0).create(cfg.output_name);
  for (std::uint64_t i = 0; i < recs.size(); ++i) {
    ws.disk(0).write(f, i * cfg.record_bytes, recs[i]);
  }
}

SortConfig all_equal_config() {
  SortConfig cfg;
  cfg.nodes = 1;
  cfg.records = 50;
  cfg.block_records = 10;
  cfg.record_bytes = 64;
  cfg.dist = Distribution::kAllEqual;
  return cfg;
}

TEST(Dataset, VerifyDetectsCorruption) {
  const SortConfig cfg = all_equal_config();
  pdm::Workspace ws(1);
  auto recs = all_equal_in_ext_key_order(cfg);
  recs[30][20] ^= std::byte{1};  // corrupt one payload byte
  write_output(ws, cfg, recs);
  const VerifyResult v = verify_output(ws, cfg);
  EXPECT_TRUE(v.sorted);
  EXPECT_FALSE(v.permutation);
}

TEST(Dataset, VerifyChecksTieOrderOfEqualKeys) {
  // Every key is equal, so only the tie order (mix64 of the uid) can be
  // wrong: swap two neighbours and the output is no longer sorted.
  const SortConfig cfg = all_equal_config();
  pdm::Workspace ws(1);
  auto recs = all_equal_in_ext_key_order(cfg);
  write_output(ws, cfg, recs);
  EXPECT_TRUE(verify_output(ws, cfg).ok());
  std::swap(recs[20], recs[21]);
  write_output(ws, cfg, recs);
  const VerifyResult v = verify_output(ws, cfg);
  EXPECT_FALSE(v.sorted);
  EXPECT_TRUE(v.permutation);
}

}  // namespace
}  // namespace fg::sort
