// Tests for the in-memory record kernels: sorting, partitioning by
// extended-key splitters, k-way merging, and strided gather.
#include "sort/kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace fg::sort {
namespace {

/// Build a flat byte array of records with given keys (uids sequential).
std::vector<std::byte> make_records(const std::vector<std::uint64_t>& keys,
                                    std::uint32_t rec_bytes,
                                    std::uint64_t uid_base = 0) {
  std::vector<std::byte> data(keys.size() * rec_bytes);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    std::byte* p = data.data() + i * rec_bytes;
    set_key(p, keys[i]);
    set_uid(p, uid_base + i);
    for (std::uint32_t b = 16; b < rec_bytes; ++b) {
      p[b] = static_cast<std::byte>((i + b) & 0xff);
    }
  }
  return data;
}

std::vector<std::uint64_t> keys_of(std::span<const std::byte> data,
                                   std::uint32_t rec) {
  std::vector<std::uint64_t> k;
  for (std::size_t i = 0; i < data.size() / rec; ++i) {
    k.push_back(key_of(data.data() + i * rec));
  }
  return k;
}

class KernelsParam : public ::testing::TestWithParam<std::uint32_t> {};

INSTANTIATE_TEST_SUITE_P(RecordSizes, KernelsParam,
                         ::testing::Values(16u, 32u, 64u, 128u));

TEST_P(KernelsParam, SortOrdersByKey) {
  const std::uint32_t rec = GetParam();
  util::Xoshiro256 rng(1);
  std::vector<std::uint64_t> keys(500);
  for (auto& k : keys) k = rng.below(100);
  auto data = make_records(keys, rec);
  std::vector<std::byte> scratch(data.size());
  sort_records(data, rec, scratch);
  EXPECT_TRUE(is_sorted_records(data, rec));
  auto sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(keys_of(data, rec), sorted);
}

TEST_P(KernelsParam, SortPreservesRecordsIntact) {
  const std::uint32_t rec = GetParam();
  util::Xoshiro256 rng(2);
  std::vector<std::uint64_t> keys(200);
  for (auto& k : keys) k = rng.next();
  auto data = make_records(keys, rec);
  std::uint64_t sum_before = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    sum_before += record_fingerprint({data.data() + i * rec, rec});
  }
  std::vector<std::byte> scratch(data.size());
  sort_records(data, rec, scratch);
  std::uint64_t sum_after = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    sum_after += record_fingerprint({data.data() + i * rec, rec});
  }
  EXPECT_EQ(sum_before, sum_after);
}

// -- k-way merge against the sort_records oracle ---------------------------

enum class KeyMix {
  kUniform,
  kAllEqual,
  kSmallRange,
  kMaxHeavy,
  kMiddleByte,  // only key byte 3 varies
  kZeroBytes,   // every other key byte is zero
};

std::uint64_t draw_key(KeyMix mix, util::Xoshiro256& rng) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  switch (mix) {
    case KeyMix::kUniform: return rng.next();
    case KeyMix::kAllEqual: return 7;
    case KeyMix::kSmallRange: return rng.below(4);
    case KeyMix::kMaxHeavy:
      return rng.below(2) == 0 ? kMax : kMax - rng.below(3);
    case KeyMix::kMiddleByte: return 0xabcd000000000000 | rng.below(256) << 24;
    case KeyMix::kZeroBytes: return rng.next() & 0xff00ff00ff00ff00;
  }
  return 0;
}

/// `k` sorted runs of uneven lengths, every third one empty, with uids
/// unique across all runs (so the extended-key order is total).
std::vector<std::vector<std::byte>> make_sorted_runs(std::size_t k,
                                                     std::uint32_t rec,
                                                     KeyMix mix,
                                                     std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::vector<std::byte>> runs(k);
  std::uint64_t uid = 0;
  for (std::size_t v = 0; v < k; ++v) {
    const std::size_t n = v % 3 == 2 ? 0 : 1 + rng.below(k > 100 ? 24 : 300);
    std::vector<std::uint64_t> keys(n);
    for (auto& key : keys) key = draw_key(mix, rng);
    runs[v] = make_records(keys, rec, uid);
    uid += n;
    std::vector<std::byte> scratch(runs[v].size());
    sort_records(runs[v], rec, scratch);
  }
  return runs;
}

/// sort_records of the concatenated runs: the oracle both merge entry
/// points must match byte for byte.
std::vector<std::byte> oracle(const std::vector<std::vector<std::byte>>& runs,
                              std::uint32_t rec) {
  std::vector<std::byte> all;
  for (const auto& r : runs) all.insert(all.end(), r.begin(), r.end());
  std::vector<std::byte> scratch(all.size());
  sort_records(all, rec, scratch);
  return all;
}

std::vector<std::span<const std::byte>> spans_of(
    const std::vector<std::vector<std::byte>>& runs) {
  return {runs.begin(), runs.end()};
}

/// The streaming form, fed blocks of random sizes and drained into output
/// windows of random sizes.
std::vector<std::byte> stream_merge(
    const std::vector<std::vector<std::byte>>& runs, std::uint32_t rec,
    std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::size_t total = 0;
  for (const auto& r : runs) total += r.size();
  std::vector<std::byte> out(total);
  std::vector<std::size_t> fed(runs.size(), 0);
  MultiwayMerger m(runs.size(), rec);
  std::size_t at = 0;
  while (!m.done()) {
    const std::size_t v = m.dry();
    if (v != MultiwayMerger::kNone) {
      const std::size_t left = (runs[v].size() - fed[v]) / rec;
      const std::size_t n =
          left == 0 ? 0 : 1 + rng.below(std::min<std::size_t>(left, 40));
      m.feed(v, std::span(runs[v]).subspan(fed[v], n * rec));
      fed[v] += n * rec;
      continue;
    }
    const std::size_t window =
        std::min<std::size_t>((total - at) / rec, 1 + rng.below(64)) * rec;
    const std::size_t wrote = m.merge(std::span(out).subspan(at, window));
    EXPECT_GT(wrote, 0u) << "a merge with no dry run must make progress";
    if (wrote == 0) break;
    at += wrote;
  }
  EXPECT_EQ(at, total);
  return out;
}

TEST_P(KernelsParam, MultiwayMergeMatchesSortOracle) {
  const std::uint32_t rec = GetParam();
  for (const std::size_t k : {1u, 2u, 3u, 16u, 257u}) {
    for (const KeyMix mix : {KeyMix::kUniform, KeyMix::kAllEqual,
                             KeyMix::kSmallRange, KeyMix::kMaxHeavy}) {
      const int m = static_cast<int>(mix);
      const auto runs = make_sorted_runs(k, rec, mix, 100 * k + m);
      const auto expected = oracle(runs, rec);
      std::vector<std::byte> out(expected.size());
      multiway_merge(spans_of(runs), rec, out);
      EXPECT_EQ(out, expected) << "one-shot, k=" << k << " mix=" << m;
      EXPECT_EQ(stream_merge(runs, rec, k), expected)
          << "streaming, k=" << k << " mix=" << m;
    }
  }
}

TEST_P(KernelsParam, MergeRecordsIsTwoRunMultiwayMerge) {
  const std::uint32_t rec = GetParam();
  for (const KeyMix mix : {KeyMix::kSmallRange, KeyMix::kMaxHeavy}) {
    const auto runs = make_sorted_runs(2, rec, mix, 5);
    std::vector<std::byte> out(runs[0].size() + runs[1].size());
    merge_records(runs[0], runs[1], rec, out);
    EXPECT_EQ(out, oracle(runs, rec));
  }
}

// -- sort_records against a std::sort reference ----------------------------

/// Indices std::sorted by extended key, then gathered: what sort_records
/// must produce byte for byte.
std::vector<std::byte> std_sort_reference(std::span<const std::byte> data,
                                          std::uint32_t rec) {
  const std::size_t n = data.size() / rec;
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return ext_key_of(data.data() + a * rec) <
           ext_key_of(data.data() + b * rec);
  });
  std::vector<std::byte> out(data.size());
  for (std::size_t i = 0; i < n; ++i) {
    std::memcpy(out.data() + i * rec, data.data() + idx[i] * rec, rec);
  }
  return out;
}

TEST_P(KernelsParam, SortMatchesStdSortReference) {
  const std::uint32_t rec = GetParam();
  // Both sides of the small-bucket cutoff, and sizes that split twice.
  for (const std::size_t n :
       {0u, 1u, 2u, 63u, 64u, 65u, 300u, 4096u, 16384u, 70000u}) {
    for (const KeyMix mix :
         {KeyMix::kUniform, KeyMix::kAllEqual, KeyMix::kSmallRange,
          KeyMix::kMaxHeavy, KeyMix::kMiddleByte, KeyMix::kZeroBytes}) {
      const int m = static_cast<int>(mix);
      util::Xoshiro256 rng(1000 * n + m);
      std::vector<std::uint64_t> keys(n);
      for (auto& k : keys) k = draw_key(mix, rng);
      auto data = make_records(keys, rec);
      const auto expected = std_sort_reference(data, rec);
      std::vector<std::byte> scratch(data.size());
      sort_records(data, rec, scratch);
      EXPECT_EQ(data, expected) << "n=" << n << " mix=" << m;
    }
  }
}

TEST(Kernels, MultiwayMergeOfNoRunsIsDone) {
  MultiwayMerger m(0, 16);
  EXPECT_TRUE(m.done());
  EXPECT_EQ(m.dry(), MultiwayMerger::kNone);
  std::vector<std::byte> out(32);
  EXPECT_EQ(m.merge(out), 0u);
  multiway_merge({}, 16, out);
}

TEST(Kernels, MultiwayMergerRejectsProtocolErrors) {
  auto run = make_records({1, 2, 3}, 16);
  MultiwayMerger m(2, 16);
  EXPECT_THROW(m.feed(1, run), std::logic_error);  // run 0 is dry first
  m.feed(0, run);
  EXPECT_THROW(m.feed(1, std::span(run).first(8)), std::invalid_argument);
  m.feed(1, {});
  std::vector<std::byte> odd(24);
  EXPECT_THROW(m.merge(odd), std::invalid_argument);
  EXPECT_THROW(MultiwayMerger(2, 8), std::invalid_argument);
  std::vector<std::byte> small(16);
  EXPECT_THROW(merge_records(run, run, 16, small), std::invalid_argument);
}

TEST_P(KernelsParam, SortIsDeterministicUnderEqualKeys) {
  const std::uint32_t rec = GetParam();
  std::vector<std::uint64_t> keys(100, 42);  // all equal
  auto a = make_records(keys, rec);
  auto b = a;
  std::vector<std::byte> scratch(a.size());
  sort_records(a, rec, scratch);
  sort_records(b, rec, scratch);
  EXPECT_EQ(a, b);
  // Ties broken by mix64(uid): uids must be a permutation.
  std::vector<std::uint64_t> uids;
  for (std::size_t i = 0; i < keys.size(); ++i) uids.push_back(uid_of(a.data() + i * rec));
  std::sort(uids.begin(), uids.end());
  for (std::size_t i = 0; i < uids.size(); ++i) EXPECT_EQ(uids[i], i);
}

TEST(Kernels, SortEmptyAndSingle) {
  std::vector<std::byte> empty;
  std::vector<std::byte> scratch(16);
  sort_records(empty, 16, scratch);
  auto one = make_records({5}, 16);
  sort_records(one, 16, scratch);
  EXPECT_EQ(key_of(one.data()), 5u);
}

TEST(Kernels, SortRejectsBadArguments) {
  std::vector<std::byte> data(32);
  std::vector<std::byte> scratch(32);
  EXPECT_THROW(sort_records(data, 8, scratch), std::invalid_argument);
  std::vector<std::byte> odd(30);
  EXPECT_THROW(sort_records(odd, 16, scratch), std::invalid_argument);
  std::vector<std::byte> wide(64 * 4);
  std::vector<std::byte> small_scratch(16);
  EXPECT_THROW(sort_records(wide, 64, small_scratch), std::invalid_argument);
  std::vector<std::byte> narrow(16 * 4);
  EXPECT_THROW(sort_records(narrow, 16, small_scratch), std::invalid_argument);
}

TEST(Kernels, PartitionOfRespectsBounds) {
  std::vector<ExtKey> splitters{{10, 0}, {20, 0}, {30, 0}};
  EXPECT_EQ(partition_of({5, 0}, splitters), 0u);
  EXPECT_EQ(partition_of({10, 0}, splitters), 0u);   // equal to splitter stays left
  EXPECT_EQ(partition_of({10, 1}, splitters), 1u);   // tie broken by extension
  EXPECT_EQ(partition_of({25, 0}, splitters), 2u);
  EXPECT_EQ(partition_of({99, 0}, splitters), 3u);
}

TEST(Kernels, PartitionRecordsGroupsContiguously) {
  util::Xoshiro256 rng(3);
  std::vector<std::uint64_t> keys(300);
  for (auto& k : keys) k = rng.below(1000);
  auto data = make_records(keys, 16);
  std::vector<ExtKey> splitters{{250, ~0ULL}, {500, ~0ULL}, {750, ~0ULL}};
  std::vector<std::byte> out(data.size());
  const auto counts = partition_records(data, 16, splitters, out);
  ASSERT_EQ(counts.size(), 4u);
  std::uint64_t total = 0;
  std::size_t idx = 0;
  for (std::size_t g = 0; g < 4; ++g) {
    for (std::uint32_t i = 0; i < counts[g]; ++i, ++idx) {
      const ExtKey k = ext_key_of(out.data() + idx * 16);
      EXPECT_EQ(partition_of(k, splitters), g);
    }
    total += counts[g];
  }
  EXPECT_EQ(total, keys.size());
}

TEST(Kernels, PartitionIsStableWithinGroups) {
  // Records of the same group keep their input order (stable partition).
  std::vector<std::uint64_t> keys{5, 15, 6, 16, 7, 17};
  auto data = make_records(keys, 16);
  std::vector<ExtKey> splitters{{10, ~0ULL}};
  std::vector<std::byte> out(data.size());
  const auto counts = partition_records(data, 16, splitters, out);
  EXPECT_EQ(counts[0], 3u);
  EXPECT_EQ(counts[1], 3u);
  EXPECT_EQ(key_of(out.data()), 5u);
  EXPECT_EQ(key_of(out.data() + 16), 6u);
  EXPECT_EQ(key_of(out.data() + 32), 7u);
  EXPECT_EQ(key_of(out.data() + 48), 15u);
}

TEST(Kernels, PartitionWithNoSplittersIsIdentity) {
  auto data = make_records({3, 1, 2}, 16);
  std::vector<std::byte> out(data.size());
  const auto counts = partition_records(data, 16, {}, out);
  ASSERT_EQ(counts.size(), 1u);
  EXPECT_EQ(counts[0], 3u);
  EXPECT_EQ(out, data);
}

TEST(Kernels, MergeInterleavesSortedRuns) {
  auto a = make_records({1, 3, 5, 7}, 16, 0);
  auto b = make_records({2, 4, 6}, 16, 100);
  std::vector<std::byte> out(a.size() + b.size());
  merge_records(a, b, 16, out);
  EXPECT_EQ(keys_of(out, 16), (std::vector<std::uint64_t>{1, 2, 3, 4, 5, 6, 7}));
}

TEST(Kernels, MergeHandlesEmptySides) {
  auto a = make_records({1, 2}, 16);
  std::vector<std::byte> empty;
  std::vector<std::byte> out(a.size());
  merge_records(a, empty, 16, out);
  EXPECT_EQ(keys_of(out, 16), (std::vector<std::uint64_t>{1, 2}));
  merge_records(empty, a, 16, out);
  EXPECT_EQ(keys_of(out, 16), (std::vector<std::uint64_t>{1, 2}));
}

TEST(Kernels, MergeWithDuplicatesKeepsAll) {
  auto a = make_records({1, 2, 2, 9}, 16, 0);
  auto b = make_records({2, 2, 3}, 16, 50);
  std::vector<std::byte> out(a.size() + b.size());
  merge_records(a, b, 16, out);
  EXPECT_TRUE(is_sorted_records(out, 16));
  EXPECT_EQ(out.size() / 16, 7u);
}

TEST(Kernels, GatherStridedPicksPositions) {
  auto data = make_records({100, 101, 102, 103, 104, 105, 106, 107, 108, 109,
                            110, 111}, 32);
  std::vector<std::byte> packed(5 * 32, std::byte{0xee});
  // Positions 1, 4, 7, 10 into the first four of five slots.
  gather_strided(data, 32, 1, 3, 4, packed);
  EXPECT_EQ(keys_of(std::span(packed).first(4 * 32), 32),
            (std::vector<std::uint64_t>{101, 104, 107, 110}));
  EXPECT_TRUE(std::equal(packed.begin() + 32, packed.begin() + 64,
                         data.begin() + 4 * 32));  // payload moves too
  EXPECT_EQ(packed.back(), std::byte{0xee});        // slot 5 untouched
  // The last position read may be the last record.
  gather_strided(data, 32, 2, 3, 4, packed);
  EXPECT_EQ(keys_of(std::span(packed).first(4 * 32), 32),
            (std::vector<std::uint64_t>{102, 105, 108, 111}));
}

TEST(Kernels, GatherStridedRejectsOutOfBounds) {
  auto data = make_records({0, 1, 2, 3, 4, 5, 6, 7}, 16);
  std::vector<std::byte> out(8 * 16);
  EXPECT_THROW(gather_strided(data, 16, 1, 3, 4, out),  // record 10 of 8
               std::invalid_argument);
  EXPECT_THROW(gather_strided(data, 16, 8, 1, 1, out), std::invalid_argument);
  EXPECT_THROW(gather_strided(data, 16, 0, std::size_t{1} << 62, 2, out),
               std::invalid_argument);  // the offset would wrap
  std::vector<std::byte> small(2 * 16);
  EXPECT_THROW(gather_strided(data, 16, 0, 2, 3, small), std::invalid_argument);
  EXPECT_NO_THROW(gather_strided(data, 16, 1, 3, 3, std::span(out).first(48)));
}

TEST(Kernels, IsSortedRecords) {
  auto sorted = make_records({1, 2, 2, 3}, 16);
  EXPECT_TRUE(is_sorted_records(sorted, 16));
  auto unsorted = make_records({2, 1}, 16);
  EXPECT_FALSE(is_sorted_records(unsorted, 16));
  std::vector<std::byte> empty;
  EXPECT_TRUE(is_sorted_records(empty, 16));
}

TEST(Record, KeyUidAccessors) {
  std::vector<std::byte> rec(16);
  set_key(rec.data(), 0x1122334455667788ULL);
  set_uid(rec.data(), 99);
  EXPECT_EQ(key_of(rec.data()), 0x1122334455667788ULL);
  EXPECT_EQ(uid_of(rec.data()), 99u);
}

TEST(Record, ExtKeyOrdering) {
  EXPECT_LT((ExtKey{1, 5}), (ExtKey{2, 0}));
  EXPECT_LT((ExtKey{1, 5}), (ExtKey{1, 6}));
  EXPECT_EQ((ExtKey{1, 5}), (ExtKey{1, 5}));
}

TEST(Record, FingerprintSensitiveToEveryByte) {
  std::vector<std::byte> rec(64, std::byte{0});
  const std::uint64_t base = record_fingerprint(rec);
  for (std::size_t i = 0; i < rec.size(); i += 7) {
    auto copy = rec;
    copy[i] = std::byte{1};
    EXPECT_NE(record_fingerprint(copy), base) << "byte " << i;
  }
}

TEST(Record, RecordSpanViews) {
  auto data = make_records({10, 20, 30}, 32);
  RecordSpan rs(data, 32);
  EXPECT_EQ(rs.count(), 3u);
  EXPECT_EQ(rs.key(1), 20u);
  EXPECT_EQ(rs.ext_key(2).key, 30u);
  rs.record(0)[0] = std::byte{0xff};
  EXPECT_EQ(data[0], std::byte{0xff});
}

}  // namespace
}  // namespace fg::sort
