#include "sort/kernels.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <utility>

namespace fg::sort {

namespace {

/// 16-byte records are exactly (key, uid) pairs; sort them directly.
struct Rec16 {
  std::uint64_t key;
  std::uint64_t uid;
};
static_assert(sizeof(Rec16) == 16);

bool operator<(const Rec16& a, const Rec16& b) noexcept {
  if (a.key != b.key) return a.key < b.key;
  return util::mix64(a.uid) < util::mix64(b.uid);
}

void check_args(std::size_t bytes, std::uint32_t rec_bytes) {
  if (rec_bytes < kMinRecordBytes) {
    throw std::invalid_argument("fg::sort: record size must be >= 16 bytes");
  }
  if (bytes % rec_bytes != 0) {
    throw std::invalid_argument(
        "fg::sort: byte range is not a whole number of records");
  }
}

/// Buckets this small finish with a comparison sort.
constexpr std::size_t kSmallBucket = 64;

/// MSD radix sort of a[0, n) by the 64-bit key(x), splitting on key byte
/// `byte` (7 is the top) and then the bytes below it.  A byte every item
/// shares is skipped without moving data.  Buckets of at most
/// kSmallBucket items, and items whose whole key is equal, finish with
/// std::sort under `less`, which must order by key first; so the result
/// is what std::sort under `less` gives.  `tmp` holds at least n items.
template <class T, class Key, class Less>
void msd_radix(T* a, T* tmp, std::size_t n, int byte, Key key, Less less) {
  if (n <= kSmallBucket) {
    std::sort(a, a + n, less);
    return;
  }
  int shift = 0;
  auto digit = [&](const T& x) { return (key(x) >> shift) & 0xff; };
  std::array<std::size_t, 256> count{};
  for (; byte >= 0; --byte) {
    shift = 8 * byte;
    for (std::size_t i = 0; i < n; ++i) ++count[digit(a[i])];
    if (count[digit(a[0])] != n) break;
    count[digit(a[0])] = 0;  // every item shares this byte: nothing moves
  }
  if (byte < 0) {
    std::sort(a, a + n, less);
    return;
  }
  // Scatter by this byte; count[b] becomes the end of bucket b.
  std::size_t at = 0;
  for (std::size_t& c : count) at += std::exchange(c, at);
  for (std::size_t i = 0; i < n; ++i) tmp[count[digit(a[i])]++] = a[i];
  std::copy(tmp, tmp + n, a);
  std::size_t begin = 0;
  for (const std::size_t end : count) {
    if (end - begin > 1) {
      msd_radix(a + begin, tmp + begin, end - begin, byte - 1, key, less);
    }
    begin = end;
  }
}

}  // namespace

void sort_records(std::span<std::byte> data, std::uint32_t rec_bytes,
                  std::span<std::byte> scratch) {
  check_args(data.size(), rec_bytes);
  if (scratch.size() < data.size()) {
    throw std::invalid_argument("fg::sort::sort_records: scratch too small");
  }
  const std::size_t n = data.size() / rec_bytes;
  if (n <= 1) return;

  if (rec_bytes == sizeof(Rec16)) {
    msd_radix(reinterpret_cast<Rec16*>(data.data()),
              reinterpret_cast<Rec16*>(scratch.data()), n, 7,
              [](const Rec16& r) { return r.key; }, std::less<Rec16>{});
    return;
  }

  // Key-index sort, then one gather pass: wide records move exactly once.
  struct KeyIdx {
    ExtKey key;
    std::uint32_t idx;
  };
  std::vector<KeyIdx> order(n);
  for (std::size_t i = 0; i < n; ++i) {
    order[i] = {ext_key_of(data.data() + i * rec_bytes),
                static_cast<std::uint32_t>(i)};
  }
  std::vector<KeyIdx> tmp(n);
  msd_radix(order.data(), tmp.data(), n, 7,
            [](const KeyIdx& k) { return k.key.key; },
            [](const KeyIdx& a, const KeyIdx& b) { return a.key < b.key; });
  for (std::size_t i = 0; i < n; ++i) {
    std::memcpy(scratch.data() + i * rec_bytes,
                data.data() + std::size_t{order[i].idx} * rec_bytes,
                rec_bytes);
  }
  std::memcpy(data.data(), scratch.data(), n * rec_bytes);
}

std::size_t partition_of(const ExtKey& k, std::span<const ExtKey> splitters) {
  // Number of splitters < k == index of the first splitter >= k.
  return static_cast<std::size_t>(
      std::lower_bound(splitters.begin(), splitters.end(), k) -
      splitters.begin());
}

std::vector<std::uint32_t> partition_records(
    std::span<const std::byte> data, std::uint32_t rec_bytes,
    std::span<const ExtKey> splitters, std::span<std::byte> out) {
  check_args(data.size(), rec_bytes);
  if (out.size() < data.size()) {
    throw std::invalid_argument("fg::sort::partition_records: out too small");
  }
  const std::size_t n = data.size() / rec_bytes;
  const std::size_t groups = splitters.size() + 1;

  std::vector<std::uint32_t> counts(groups, 0);
  std::vector<std::uint32_t> group_of(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto g = static_cast<std::uint32_t>(
        partition_of(ext_key_of(data.data() + i * rec_bytes), splitters));
    group_of[i] = g;
    ++counts[g];
  }
  std::vector<std::uint64_t> cursor(groups, 0);
  std::uint64_t acc = 0;
  for (std::size_t g = 0; g < groups; ++g) {
    cursor[g] = acc;
    acc += counts[g];
  }
  for (std::size_t i = 0; i < n; ++i) {
    std::memcpy(out.data() + cursor[group_of[i]]++ * rec_bytes,
                data.data() + i * rec_bytes, rec_bytes);
  }
  return counts;
}

MultiwayMerger::MultiwayMerger(std::size_t runs, std::uint32_t rec_bytes)
    : rec_(rec_bytes),
      runs_(runs),
      leaves_(std::bit_ceil(std::max<std::size_t>(runs, 1))),
      tree_(leaves_),
      cur_(leaves_, Cursor{nullptr, nullptr}),
      dry_(runs == 0 ? kNone : 0) {
  check_args(0, rec_bytes);
}

/// Run v's head record as a tree entry; an ended run's key is the
/// UINT64_MAX sentinel.
MultiwayMerger::Node MultiwayMerger::head(std::size_t v) const noexcept {
  const std::byte* p = cur_[v].pos;
  return Node{p != nullptr ? key_of(p) : ~std::uint64_t{0}, v};
}

/// Order of two runs whose head keys are equal: by the extension, then by
/// run index; an ended run follows every live one, including a live one
/// whose key is UINT64_MAX.
bool MultiwayMerger::tie_less(std::uint64_t a, std::uint64_t b) const noexcept {
  const std::byte* pa = cur_[a].pos;
  const std::byte* pb = cur_[b].pos;
  if (pa == nullptr || pb == nullptr) {
    return pb == nullptr && (pa != nullptr || a < b);
  }
  const std::uint64_t ta = util::mix64(uid_of(pa));
  const std::uint64_t tb = util::mix64(uid_of(pb));
  return ta != tb ? ta < tb : a < b;
}

/// Play `cand`, the new head of the last winner's run, up that run's path:
/// at each node the smaller of the candidate and the stored loser moves
/// on, and the one that reaches the root is the new winner.  The step
/// compiles to selects; only equal keys take a branch.
inline MultiwayMerger::Node MultiwayMerger::replay(Node cand) noexcept {
  Node* const tree = tree_.data();
  for (std::size_t n = (leaves_ + cand.run) >> 1; n > 0; n >>= 1) {
    const Node e = tree[n];
    bool swap;
    if (e.key == cand.key) [[unlikely]] {
      swap = tie_less(e.run, cand.run);
    } else {
      swap = e.key < cand.key;
    }
    const std::uint64_t mask = 0 - static_cast<std::uint64_t>(swap);
    const std::uint64_t dk = (e.key ^ cand.key) & mask;
    const std::uint64_t dr = (e.run ^ cand.run) & mask;
    tree[n] = Node{e.key ^ dk, e.run ^ dr};
    cand.key ^= dk;
    cand.run ^= dr;
  }
  return cand;
}

void MultiwayMerger::build() {
  auto less = [this](const Node& a, const Node& b) {
    return a.key != b.key ? a.key < b.key : tie_less(a.run, b.run);
  };
  std::vector<Node> win(2 * leaves_);
  for (std::size_t v = 0; v < leaves_; ++v) win[leaves_ + v] = head(v);
  for (std::size_t n = leaves_ - 1; n > 0; --n) {
    const Node& a = win[2 * n];
    const Node& b = win[2 * n + 1];
    const bool b_wins = less(b, a);
    win[n] = b_wins ? b : a;
    tree_[n] = b_wins ? a : b;
  }
  win_ = win[1];
  built_ = true;
}

void MultiwayMerger::feed(std::size_t v, std::span<const std::byte> block) {
  if (v != dry_) {
    throw std::logic_error(
        "fg::sort::MultiwayMerger: fed a run that is not dry");
  }
  check_args(block.size(), rec_);
  cur_[v] = block.empty() ? Cursor{nullptr, nullptr}
                          : Cursor{block.data(), block.data() + block.size()};
  if (built_) {
    dry_ = kNone;
    win_ = replay(head(v));
  } else if (v + 1 < runs_) {
    dry_ = v + 1;
  } else {
    dry_ = kNone;
    build();
  }
}

template <std::uint32_t R>
std::size_t MultiwayMerger::merge_loop(std::byte* out,
                                       std::byte* out_end) noexcept {
  const std::size_t rec = R != 0 ? R : rec_;
  Cursor* const cur = cur_.data();
  Node win = win_;
  std::byte* o = out;
  while (o != out_end) {
    Cursor& c = cur[win.run];
    const std::byte* p = c.pos;
    std::memcpy(o, p, rec);
    o += rec;
    p += rec;
    c.pos = p;
    if (p == c.end) {
      dry_ = win.run;
      break;
    }
    win = replay(Node{key_of(p), win.run});
  }
  win_ = win;
  return static_cast<std::size_t>(o - out);
}

std::size_t MultiwayMerger::merge(std::span<std::byte> out) {
  check_args(out.size(), rec_);
  if (dry_ != kNone || done()) return 0;
  std::byte* const o = out.data();
  std::byte* const e = o + out.size();
  // Fixed-size copies of the paper's two record sizes inline to moves.
  switch (rec_) {
    case 16: return merge_loop<16>(o, e);
    case 64: return merge_loop<64>(o, e);
    default: return merge_loop<0>(o, e);
  }
}

void multiway_merge(std::span<const std::span<const std::byte>> runs,
                    std::uint32_t rec_bytes, std::span<std::byte> out) {
  std::size_t total = 0;
  for (const auto& r : runs) {
    check_args(r.size(), rec_bytes);
    total += r.size();
  }
  if (out.size() < total) {
    throw std::invalid_argument("fg::sort::multiway_merge: out too small");
  }
  MultiwayMerger m(runs.size(), rec_bytes);
  for (const auto& r : runs) m.feed(m.dry(), r);
  std::size_t at = 0;
  while (!m.done()) {
    if (m.dry() != MultiwayMerger::kNone) {
      m.feed(m.dry(), {});  // each run is one block
    } else {
      at += m.merge(out.subspan(at, total - at));
    }
  }
}

void merge_records(std::span<const std::byte> a, std::span<const std::byte> b,
                   std::uint32_t rec_bytes, std::span<std::byte> out) {
  const std::span<const std::byte> runs[] = {a, b};
  multiway_merge(runs, rec_bytes, out);
}

void gather_strided(std::span<const std::byte> in, std::uint32_t rec_bytes,
                    std::size_t start, std::size_t stride, std::size_t count,
                    std::span<std::byte> out) {
  check_args(in.size(), rec_bytes);
  if (count == 0) return;
  // The last record read is start + (count-1)*stride; check it without
  // letting the product wrap.
  const std::size_t in_records = in.size() / rec_bytes;
  if (start >= in_records ||
      (count > 1 && stride > (in_records - 1 - start) / (count - 1)) ||
      out.size() / rec_bytes < count) {
    throw std::invalid_argument(
        "fg::sort::gather_strided: range exceeds the input or output");
  }
  for (std::size_t i = 0; i < count; ++i) {
    std::memcpy(out.data() + i * rec_bytes,
                in.data() + (start + i * stride) * rec_bytes, rec_bytes);
  }
}

bool is_sorted_records(std::span<const std::byte> data,
                       std::uint32_t rec_bytes) {
  check_args(data.size(), rec_bytes);
  const std::size_t n = data.size() / rec_bytes;
  for (std::size_t i = 1; i < n; ++i) {
    if (key_of(data.data() + i * rec_bytes) <
        key_of(data.data() + (i - 1) * rec_bytes)) {
      return false;
    }
  }
  return true;
}

}  // namespace fg::sort
