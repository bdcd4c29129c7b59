// In-memory record kernels used by the pipeline stages: sorting a buffer
// of records, partitioning by splitters, the k-way merge every merge in
// the sort programs goes through, and the strided gather csort's shuffle
// needs.  All kernels are synchronous, CPU-only, and operate on raw byte
// ranges so the same code serves 16- and 64-byte records (or any size
// >= 16).
#pragma once

#include "sort/record.hpp"

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace fg::sort {

/// Sort `n = data.size()/rec_bytes` records in place by extended key (the
/// sort key, ties broken by mix64 of the uid, so the result is
/// deterministic).  An MSD radix sort on the key's bytes, top byte first:
/// a byte every record shares is skipped without moving data, and buckets
/// of at most 64 records, and records with equal keys, finish with
/// std::sort.  16-byte records are sorted directly; wider ones as
/// (extended key, index) pairs and then gathered, so each moves once.
/// `scratch` must be at least data.size() bytes for every record size
/// (throws std::invalid_argument otherwise): it is the radix sort's
/// scatter target for 16-byte records and the gather target for wider ones.
void sort_records(std::span<std::byte> data, std::uint32_t rec_bytes,
                  std::span<std::byte> scratch);

/// Stable-partition records into `splitters.size() + 1` groups by
/// extended key: group i gets records with splitter[i-1] < ext <=
/// splitter[i] (in the usual upper-bound sense), so a record lands in
/// group partition_of(its extended key).  `splitters` must be sorted.
/// The search runs without branches over the splitters' 64-bit keys and
/// reads a record's tie word only when its key equals a splitter's.
/// Writes the permuted records to `out` (same size as data) and returns
/// the record count per group.
std::vector<std::uint32_t> partition_records(
    std::span<const std::byte> data, std::uint32_t rec_bytes,
    std::span<const ExtKey> splitters, std::span<std::byte> out);

/// Partition index (0..splitters.size()) a record with extended key `k`
/// belongs to: the number of splitters strictly less than `k`.  A plain
/// binary search, and the reference partition_records is tested against.
std::size_t partition_of(const ExtKey& k, std::span<const ExtKey> splitters);

/// Streaming k-way merge of sorted runs: a loser tree ordered by extended
/// key, the total order `sort_records` produces, so merging sorted pieces
/// of a buffer yields the bytes sorting the whole buffer would.
///
/// Runs arrive as sequences of sorted blocks, which the merger reads in
/// place.  While `dry()` names a run, the caller feeds that run its next
/// block, or an empty one to end it.  Otherwise `merge()` copies records
/// into `out` until `out` is full or the block the last record came from
/// is used up; that run is then `dry()`.  A new merger reports runs 0, 1,
/// ..., k-1 dry in turn, so the first k feeds are each run's first block.
///
/// Each time a run's record is taken, the merger prefetches that run's
/// block a fixed two cache lines ahead: at high fan-in a run comes round
/// only every k records, too rarely for the hardware prefetcher.
class MultiwayMerger {
 public:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  MultiwayMerger(std::size_t runs, std::uint32_t rec_bytes);

  /// The run that must be fed before `merge` can continue, or kNone.
  std::size_t dry() const noexcept { return dry_; }
  /// True once every run has ended: only then does an ended run win.
  bool done() const noexcept {
    return dry_ == kNone && cur_[win_.run].pos == nullptr;
  }

  /// Give run `v` (which must be `dry()`) its next sorted block.  The
  /// merger reads it in place until `v` is next reported dry, so the block
  /// must stay valid until then.
  void feed(std::size_t v, std::span<const std::byte> block);

  /// Merge into `out` (a whole number of records); returns the bytes
  /// written.  Writes nothing while a run is dry or once all have ended.
  std::size_t merge(std::span<std::byte> out);

 private:
  struct Node {  // a run's head record in the tree: its key and run index
    std::uint64_t key;
    std::uint64_t run;
  };
  struct Cursor {  // unread part of a run's block; nullptr once ended
    const std::byte* pos;
    const std::byte* end;
  };

  Node head(std::size_t v) const noexcept;
  bool tie_less(std::uint64_t a, std::uint64_t b) const noexcept;
  Node replay(Node cand) noexcept;
  void build();
  template <std::uint32_t R>
  std::size_t merge_loop(std::byte* out, std::byte* out_end) noexcept;

  std::uint32_t rec_;
  std::size_t runs_;
  std::size_t leaves_;       // runs rounded up to a power of two
  std::vector<Node> tree_;   // tree_[n], 1 <= n < leaves_: loser at node n
  std::vector<Cursor> cur_;  // one per leaf; padding leaves are ended
  Node win_{};               // the current winner, not stored in tree_
  std::size_t dry_;
  bool built_{false};        // every run has had its first block
};

/// One-shot k-way merge of sorted in-memory runs into `out` (sized for all
/// of them), ordered by extended key.
void multiway_merge(std::span<const std::span<const std::byte>> runs,
                    std::uint32_t rec_bytes, std::span<std::byte> out);

/// Merge two sorted record ranges into `out` (sized for both); the
/// two-run case of `multiway_merge`.
void merge_records(std::span<const std::byte> a, std::span<const std::byte> b,
                   std::uint32_t rec_bytes, std::span<std::byte> out);

/// Gather records at positions start, start+stride, ... from `in` into a
/// contiguous prefix of `out` (`count` records).  Throws
/// std::invalid_argument if either range is too small.
void gather_strided(std::span<const std::byte> in, std::uint32_t rec_bytes,
                    std::size_t start, std::size_t stride, std::size_t count,
                    std::span<std::byte> out);

/// True if the records are sorted by key (non-decreasing).
bool is_sorted_records(std::span<const std::byte> data,
                       std::uint32_t rec_bytes);

}  // namespace fg::sort
