#include "comm/shm_fabric.hpp"

#include "util/log.hpp"

#include <fcntl.h>
#include <linux/futex.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <climits>
#include <cstdlib>
#include <cstring>

#ifndef MFD_CLOEXEC
#define MFD_CLOEXEC 0x0001U
#endif

namespace fg::comm {

namespace {

// "FGM1": segment magic.
constexpr std::uint32_t kSegMagic = 0x314D4746u;
constexpr std::uint32_t kSegVersion = 1;
constexpr std::size_t kCacheLine = 64;

// Bound on every futex wait: blocked senders/receivers re-check abort,
// bye, and shutdown state at least this often, so a wake lost to a dying
// process costs one quantum, not a hang.
constexpr std::chrono::milliseconds kWaitQuantum{50};

// ---- segment layout ------------------------------------------------------
//
//   [0, 64)              SegHeader
//   [64, 64 + P*64)      RankStatus, one cacheline per rank
//   [.., +64)            abort word (own cacheline)
//   [rings .. end)       P*(P-1) rings, one per ordered pair (s, d)
//
// Ring: RingHeader (head and tail each a futex word on its own cacheline)
// followed by ring_slots slots; slot = SlotHeader cacheline + payload.
// head/tail are free-running u32 counters; slot index = counter % slots.

struct SegHeader {
  std::uint32_t magic;
  std::uint32_t version;
  std::uint32_t nodes;
  std::uint32_t ring_slots;
  std::uint64_t slot_bytes;
  std::uint64_t ring_stride;
  std::uint64_t total_bytes;
};

struct RankStatus {
  std::uint64_t heartbeat;  // bumped by the owner's monitor thread
  std::uint32_t attached;   // owner mapped the segment and joined the run
  std::uint32_t bye;        // owner left in an orderly shutdown
};

struct SlotHeader {
  std::int32_t tag;
  std::uint32_t first;      // 1 = first chunk of a message
  std::uint64_t msg_bytes;  // total message size (valid on first chunk)
  std::uint64_t chunk_bytes;
  std::uint64_t delay_ns;   // injected delay the receiver applies
};

static_assert(sizeof(SegHeader) <= kCacheLine);
static_assert(sizeof(RankStatus) <= kCacheLine);
static_assert(sizeof(SlotHeader) <= kCacheLine);

constexpr std::size_t kRingHeaderBytes = 2 * kCacheLine;
constexpr std::size_t kRankStatusOff = kCacheLine;

std::size_t abort_off(int nodes) {
  return kRankStatusOff + static_cast<std::size_t>(nodes) * kCacheLine;
}
std::size_t rings_off(int nodes) { return abort_off(nodes) + kCacheLine; }

std::size_t slot_stride(std::size_t slot_bytes) {
  return kCacheLine + slot_bytes;  // slot_bytes is a multiple of 64
}

/// Rings are stored for ordered pairs only; a rank never talks to itself
/// through the segment.
std::size_t ring_index(int src, int dst, int nodes) {
  return static_cast<std::size_t>(src) * static_cast<std::size_t>(nodes - 1) +
         static_cast<std::size_t>(dst > src ? dst - 1 : dst);
}

std::uint32_t* head_word(std::byte* ring) {
  return reinterpret_cast<std::uint32_t*>(ring);
}
std::uint32_t* tail_word(std::byte* ring) {
  return reinterpret_cast<std::uint32_t*>(ring + kCacheLine);
}

std::byte* slot_at(std::byte* ring, std::uint32_t slots,
                   std::size_t slot_bytes, std::uint32_t counter) {
  return ring + kRingHeaderBytes +
         static_cast<std::size_t>(counter % slots) * slot_stride(slot_bytes);
}

// All cross-process shared words go through atomic_ref: the layout keeps
// them cacheline-aligned, and TSan sees the acquire/release pairing that
// orders slot payloads against head/tail publication.
std::atomic_ref<std::uint32_t> aref32(std::uint32_t* p) {
  return std::atomic_ref<std::uint32_t>(*p);
}
std::atomic_ref<std::uint64_t> aref64(std::uint64_t* p) {
  return std::atomic_ref<std::uint64_t>(*p);
}

long sys_futex(std::uint32_t* uaddr, int op, std::uint32_t val,
               const timespec* timeout) {
  return ::syscall(SYS_futex, uaddr, op, val, timeout, nullptr, 0);
}

/// Cross-process (non-PRIVATE) wait: returns when *uaddr != expected, on
/// a wake, a signal, or after `timeout`.  Spurious returns are fine —
/// every caller re-checks state in a loop.
void futex_wait(std::uint32_t* uaddr, std::uint32_t expected,
                std::chrono::milliseconds timeout) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(timeout.count() / 1000);
  ts.tv_nsec = static_cast<long>((timeout.count() % 1000) * 1'000'000);
  sys_futex(uaddr, FUTEX_WAIT, expected, &ts);
}

void futex_wake_all(std::uint32_t* uaddr) {
  sys_futex(uaddr, FUTEX_WAKE, INT_MAX, nullptr);
}

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error("fg::comm::ShmSegment: " + what + ": " +
                           std::strerror(errno));
}

SegHeader read_header(const std::byte* base) {
  SegHeader h;
  std::memcpy(&h, base, sizeof h);
  return h;
}

}  // namespace

// ---- ShmSegment ----------------------------------------------------------

bool ShmSegment::available() {
  if (const char* env = std::getenv("FG_NO_SHM"); env && *env) return false;
  const int fd = static_cast<int>(
      ::syscall(SYS_memfd_create, "fg-shm-probe", MFD_CLOEXEC));
  if (fd < 0) return false;
  ::close(fd);
  return true;
}

std::shared_ptr<ShmSegment> ShmSegment::create(int nodes,
                                               ShmSegmentOptions options) {
  if (nodes <= 0) {
    throw std::invalid_argument(
        "fg::comm::ShmSegment::create: cluster size must be positive");
  }
  if (options.ring_slots < 2) {
    throw std::invalid_argument(
        "fg::comm::ShmSegment::create: need at least 2 ring slots");
  }
  if (options.slot_bytes == 0 || options.slot_bytes % kCacheLine != 0) {
    throw std::invalid_argument(
        "fg::comm::ShmSegment::create: slot_bytes must be a positive "
        "multiple of 64");
  }
  const std::size_t stride =
      kRingHeaderBytes + options.ring_slots * slot_stride(options.slot_bytes);
  const std::size_t rings =
      static_cast<std::size_t>(nodes) * static_cast<std::size_t>(nodes - 1);
  const std::size_t total = rings_off(nodes) + rings * stride;

  const int fd = static_cast<int>(
      ::syscall(SYS_memfd_create, "fg-shm-fabric", MFD_CLOEXEC));
  if (fd < 0) throw_errno("memfd_create");
  if (::ftruncate(fd, static_cast<off_t>(total)) < 0) {
    const int e = errno;
    ::close(fd);
    errno = e;
    throw_errno("ftruncate");
  }
  void* base =
      ::mmap(nullptr, total, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  if (base == MAP_FAILED) {
    const int e = errno;
    ::close(fd);
    errno = e;
    throw_errno("mmap");
  }
  // ftruncate zero-filled the mapping; only the header needs writing.
  const SegHeader h{kSegMagic,
                    kSegVersion,
                    static_cast<std::uint32_t>(nodes),
                    options.ring_slots,
                    options.slot_bytes,
                    stride,
                    total};
  std::memcpy(base, &h, sizeof h);

  auto seg = std::shared_ptr<ShmSegment>(new ShmSegment);
  seg->base_ = static_cast<std::byte*>(base);
  seg->bytes_ = total;
  seg->fd_ = fd;
  return seg;
}

std::shared_ptr<ShmSegment> ShmSegment::attach(int fd) {
  const int own = ::fcntl(fd, F_DUPFD_CLOEXEC, 0);
  if (own < 0) throw_errno("dup of segment fd");
  struct stat st{};
  if (::fstat(own, &st) < 0) {
    const int e = errno;
    ::close(own);
    errno = e;
    throw_errno("fstat");
  }
  const auto total = static_cast<std::size_t>(st.st_size);
  if (total < sizeof(SegHeader)) {
    ::close(own);
    throw std::invalid_argument(
        "fg::comm::ShmSegment::attach: fd does not hold an FG segment "
        "(too small)");
  }
  void* base = ::mmap(nullptr, total, PROT_READ | PROT_WRITE, MAP_SHARED,
                      own, 0);
  if (base == MAP_FAILED) {
    const int e = errno;
    ::close(own);
    errno = e;
    throw_errno("mmap");
  }
  const SegHeader h = read_header(static_cast<const std::byte*>(base));
  if (h.magic != kSegMagic || h.version != kSegVersion ||
      h.total_bytes != total || h.nodes == 0 || h.ring_slots < 2 ||
      h.slot_bytes == 0) {
    ::munmap(base, total);
    ::close(own);
    throw std::invalid_argument(
        "fg::comm::ShmSegment::attach: fd does not hold an FG segment "
        "(bad header)");
  }
  auto seg = std::shared_ptr<ShmSegment>(new ShmSegment);
  seg->base_ = static_cast<std::byte*>(base);
  seg->bytes_ = total;
  seg->fd_ = own;
  return seg;
}

ShmSegment::~ShmSegment() {
  if (base_ != nullptr) ::munmap(base_, bytes_);
  if (fd_ >= 0) ::close(fd_);
}

int ShmSegment::nodes() const noexcept {
  return static_cast<int>(read_header(base_).nodes);
}
std::uint32_t ShmSegment::ring_slots() const noexcept {
  return read_header(base_).ring_slots;
}
std::size_t ShmSegment::slot_bytes() const noexcept {
  return static_cast<std::size_t>(read_header(base_).slot_bytes);
}

std::byte* ShmSegment::ring(int src, int dst) const {
  const SegHeader h = read_header(base_);
  return base_ + rings_off(static_cast<int>(h.nodes)) +
         ring_index(src, dst, static_cast<int>(h.nodes)) * h.ring_stride;
}

static RankStatus* status_at(std::byte* base, int rank) {
  return reinterpret_cast<RankStatus*>(base + kRankStatusOff +
                                       static_cast<std::size_t>(rank) *
                                           kCacheLine);
}

bool ShmSegment::claim_rank(int rank) {
  RankStatus* s = status_at(base_, rank);
  aref64(&s->heartbeat).store(1, std::memory_order_relaxed);
  return aref32(&s->attached).exchange(1, std::memory_order_acq_rel) == 0;
}
void ShmSegment::set_bye(int rank) {
  aref32(&status_at(base_, rank)->bye).store(1, std::memory_order_release);
}
bool ShmSegment::rank_attached(int rank) const {
  return aref32(&status_at(base_, rank)->attached)
             .load(std::memory_order_acquire) != 0;
}
bool ShmSegment::rank_bye(int rank) const {
  return aref32(&status_at(base_, rank)->bye)
             .load(std::memory_order_acquire) != 0;
}
void ShmSegment::bump_heartbeat(int rank) {
  aref64(&status_at(base_, rank)->heartbeat)
      .fetch_add(1, std::memory_order_relaxed);
}
std::uint64_t ShmSegment::heartbeat(int rank) const {
  return aref64(&status_at(base_, rank)->heartbeat)
      .load(std::memory_order_relaxed);
}

// The abort word packs flag and origin into one u32 (0 = healthy, rank+1
// = aborted) so the origin is published atomically with the flag.
bool ShmSegment::raise_abort(int rank) {
  auto* word = reinterpret_cast<std::uint32_t*>(
      base_ + abort_off(static_cast<int>(read_header(base_).nodes)));
  std::uint32_t expected = 0;
  return aref32(word).compare_exchange_strong(
      expected, static_cast<std::uint32_t>(rank) + 1,
      std::memory_order_acq_rel);
}
bool ShmSegment::abort_raised() const {
  auto* word = reinterpret_cast<std::uint32_t*>(
      base_ + abort_off(static_cast<int>(read_header(base_).nodes)));
  return aref32(word).load(std::memory_order_acquire) != 0;
}
int ShmSegment::abort_rank() const {
  auto* word = reinterpret_cast<std::uint32_t*>(
      base_ + abort_off(static_cast<int>(read_header(base_).nodes)));
  return static_cast<int>(aref32(word).load(std::memory_order_acquire)) - 1;
}

// ---- ShmFabric -----------------------------------------------------------

ShmFabric::ShmFabric(std::shared_ptr<ShmSegment> segment, NodeId rank,
                     ShmFabricOptions options)
    : Fabric(segment ? segment->nodes() : 0),
      seg_(std::move(segment)),
      rank_(rank),
      options_(options),
      mailbox_(rank) {
  check_node(rank, "ShmFabric");
  if (!seg_->claim_rank(rank)) {
    throw std::invalid_argument(
        "fg::comm::ShmFabric: rank " + std::to_string(rank) +
        " is already attached to this segment");
  }
  // Spent receive payloads flow back into the frame pool; installed
  // before any receiver thread runs.
  mailbox_.set_recycler(
      [this](std::vector<std::byte>&& v) { pool_.release(std::move(v)); });

  peers_.reserve(static_cast<std::size_t>(size()));
  for (NodeId n = 0; n < size(); ++n) {
    peers_.push_back(std::make_unique<PeerState>());
    if (n == rank_) continue;
    peers_.back()->out_ring = seg_->ring(rank_, n);
    peers_.back()->in_ring = seg_->ring(n, rank_);
  }
  monitor_ = std::thread([this] { monitor_loop(); });
  for (NodeId n = 0; n < size(); ++n) {
    if (n == rank_) continue;
    PeerState& p = *peers_[static_cast<std::size_t>(n)];
    p.receiver = std::thread([this, n] { receiver_loop(n); });
  }
}

ShmFabric::~ShmFabric() { shutdown(); }

void ShmFabric::require_local(NodeId n, const char* what) const {
  if (n != rank_) {
    throw std::logic_error(std::string("fg::comm::ShmFabric::") + what +
                           ": this process hosts rank " +
                           std::to_string(rank_) + ", not rank " +
                           std::to_string(n));
  }
}

std::uint32_t ShmFabric::claim_slot(NodeId dst, std::byte* ring) {
  // Only this rank writes head (serialized by the peer's send_mutex), so
  // a relaxed read is our own last value.
  const std::uint32_t h = aref32(head_word(ring)).load(std::memory_order_relaxed);
  const std::uint32_t slots = seg_->ring_slots();
  for (;;) {
    if (aborted()) throw FabricAborted{};
    const std::uint32_t t =
        aref32(tail_word(ring)).load(std::memory_order_acquire);
    if (h - t < slots) return h;
    if (seg_->rank_bye(dst)) {
      // The ring is full and its consumer left for good: the peer is gone
      // mid-run with traffic still addressed to it.  Cluster failure.
      abort();
      throw FabricAborted{};
    }
    futex_wait(tail_word(ring), t, kWaitQuantum);
  }
}

void ShmFabric::send_message(NodeId src, NodeId dst, int tag,
                             std::span<const std::byte> data,
                             util::Duration extra_delay) {
  require_local(src, "send");
  if (dst == rank_) {
    // Same-process delivery never touches the segment: the payload moves
    // into the mailbox as an owned vector and back out through the pool
    // recycler — one copy in, pointer swaps from there on.
    std::vector<std::byte> payload = pool_.acquire(data.size());
    if (!data.empty()) std::memcpy(payload.data(), data.data(), data.size());
    mailbox_.deposit(src, tag, std::move(payload),
                     util::Clock::now() + extra_delay);
    return;
  }
  const auto delay_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(extra_delay)
          .count());
  const std::size_t cap = seg_->slot_bytes();
  const std::uint32_t slots = seg_->ring_slots();
  PeerState& p = *peers_[static_cast<std::size_t>(dst)];
  std::lock_guard<std::mutex> lock(p.send_mutex);
  std::size_t off = 0;
  bool first = true;
  // Chunks of one message occupy consecutive slots (the send lock keeps
  // concurrent senders from interleaving), so the receiver reassembles by
  // position alone.
  do {
    const std::size_t chunk = std::min(cap, data.size() - off);
    const std::uint32_t head = claim_slot(dst, p.out_ring);
    std::byte* slot = slot_at(p.out_ring, slots, cap, head);
    const SlotHeader sh{tag, first ? 1u : 0u,
                        static_cast<std::uint64_t>(data.size()),
                        static_cast<std::uint64_t>(chunk), delay_ns};
    std::memcpy(slot, &sh, sizeof sh);
    if (chunk != 0) std::memcpy(slot + kCacheLine, data.data() + off, chunk);
    // Publish: the release store orders the slot bytes before the head
    // bump; the wake lifts the receiver out of its futex wait.
    aref32(head_word(p.out_ring)).store(head + 1, std::memory_order_release);
    futex_wake_all(head_word(p.out_ring));
    off += chunk;
    first = false;
  } while (off < data.size());
}

void ShmFabric::receiver_loop(NodeId peer) {
  PeerState& p = *peers_[static_cast<std::size_t>(peer)];
  std::byte* ring = p.in_ring;
  const std::size_t cap = seg_->slot_bytes();
  const std::uint32_t slots = seg_->ring_slots();

  std::vector<std::byte> pending;  // message being reassembled
  std::size_t pending_off = 0;
  std::size_t pending_len = 0;
  int pending_tag = 0;
  std::uint64_t pending_delay = 0;
  bool assembling = false;

  for (;;) {
    // Only this thread writes tail; relaxed read is our own last value.
    const std::uint32_t t =
        aref32(tail_word(ring)).load(std::memory_order_relaxed);
    const std::uint32_t h =
        aref32(head_word(ring)).load(std::memory_order_acquire);
    if (h == t) {
      if (shutting_down_.load(std::memory_order_relaxed) || aborted()) return;
      if (seg_->rank_bye(peer)) return;  // ring drained and the peer left
      futex_wait(head_word(ring), h, kWaitQuantum);
      continue;
    }
    const std::byte* slot = slot_at(ring, slots, cap, t);
    SlotHeader sh;
    std::memcpy(&sh, slot, sizeof sh);
    // A first chunk while a message is mid-assembly (or a continuation
    // with none pending, or an oversized chunk) means the ring protocol
    // is broken — a stomped segment has no resync point, like a corrupt
    // TCP stream.
    if (sh.chunk_bytes > cap || (sh.first != 0) == assembling) {
      abort_from_peer("rank " + std::to_string(peer) +
                          ": shared segment ring corrupt",
                      /*warn=*/true, /*raise=*/true);
      return;
    }
    if (sh.first != 0) {
      if (sh.msg_bytes > kMaxMessageBytes) {
        abort_from_peer("rank " + std::to_string(peer) +
                            ": shared segment ring corrupt: message declares " +
                            std::to_string(sh.msg_bytes) + " bytes, over the " +
                            std::to_string(kMaxMessageBytes) + "-byte limit",
                        /*warn=*/true, /*raise=*/true);
        return;
      }
      pending = pool_.acquire(sh.msg_bytes);
      pending_off = 0;
      pending_len = static_cast<std::size_t>(sh.msg_bytes);
      pending_tag = sh.tag;
      pending_delay = sh.delay_ns;
      assembling = true;
    }
    if (pending_off + sh.chunk_bytes > pending_len) {
      abort_from_peer("rank " + std::to_string(peer) +
                          ": shared segment ring corrupt",
                      /*warn=*/true, /*raise=*/true);
      return;
    }
    if (sh.chunk_bytes != 0) {
      std::memcpy(pending.data() + pending_off, slot + kCacheLine,
                  static_cast<std::size_t>(sh.chunk_bytes));
    }
    pending_off += static_cast<std::size_t>(sh.chunk_bytes);
    // Release the slot back to the sender before matching: the store
    // orders our reads of the slot before the tail bump.
    aref32(tail_word(ring)).store(t + 1, std::memory_order_release);
    futex_wake_all(tail_word(ring));
    if (pending_off == pending_len) {
      assembling = false;
      const util::TimePoint deliver_at =
          util::Clock::now() +
          std::chrono::duration_cast<util::Duration>(
              std::chrono::nanoseconds(pending_delay));
      mailbox_.deposit(peer, pending_tag, std::move(pending), deliver_at);
      pending = std::vector<std::byte>{};
    }
  }
}

void ShmFabric::monitor_loop() {
  const int count = size();
  std::vector<std::uint64_t> last_beat(static_cast<std::size_t>(count), 0);
  std::vector<util::TimePoint> last_change(static_cast<std::size_t>(count),
                                           util::Clock::now());
  while (!shutting_down_.load(std::memory_order_relaxed) && !aborted()) {
    seg_->bump_heartbeat(rank_);
    if (seg_->abort_raised()) {
      // A deliberate abort word is orderly teardown, not a failure here.
      abort_from_peer("rank " + std::to_string(seg_->abort_rank()) +
                          " raised the segment abort word",
                      /*warn=*/false, /*raise=*/false);
      return;
    }
    const util::TimePoint now = util::Clock::now();
    for (NodeId n = 0; n < count; ++n) {
      if (n == rank_ || !seg_->rank_attached(n) || seg_->rank_bye(n)) continue;
      const std::uint64_t beat = seg_->heartbeat(n);
      const auto i = static_cast<std::size_t>(n);
      if (beat != last_beat[i]) {
        last_beat[i] = beat;
        last_change[i] = now;
      } else if (now - last_change[i] > options_.heartbeat_timeout) {
        // Frozen heartbeat without bye: the process died without a trace
        // (there is no EOF in shared memory).  We detected it, so we
        // raise the word for the other survivors.
        abort_from_peer("rank " + std::to_string(n) +
                            " heartbeat frozen — process presumed dead",
                        /*warn=*/true, /*raise=*/true);
        return;
      }
    }
    std::this_thread::sleep_for(options_.heartbeat_period);
  }
}

void ShmFabric::abort_from_peer(std::string detail, bool warn, bool raise) {
  {
    std::lock_guard<std::mutex> lock(detail_mutex_);
    if (abort_detail_.empty()) abort_detail_ = detail;
  }
  if (warn) {
    FG_LOG(kWarn) << "fg::comm::ShmFabric[rank " << rank_
                  << "]: aborting run: " << detail;
  }
  mark_aborted();
  mailbox_.abort();
  if (raise && seg_->raise_abort(rank_)) wake_all_rings();
}

std::string ShmFabric::abort_detail() const {
  std::lock_guard<std::mutex> lock(detail_mutex_);
  return abort_detail_;
}

void ShmFabric::abort() {
  mark_aborted();
  mailbox_.abort();
  // First abort in the cluster raises the segment word; every monitor
  // polls it each heartbeat period, and the ring wakes cut the latency
  // for anyone parked in a futex wait.
  if (seg_->raise_abort(rank_)) wake_all_rings();
}

void ShmFabric::wake_all_rings() {
  for (int s = 0; s < size(); ++s) {
    for (int d = 0; d < size(); ++d) {
      if (s == d) continue;
      std::byte* r = seg_->ring(s, d);
      futex_wake_all(head_word(r));
      futex_wake_all(tail_word(r));
    }
  }
}

void ShmFabric::shutdown() {
  {
    std::lock_guard<std::mutex> lock(close_mutex_);
    if (closed_) return;
    closed_ = true;
  }
  shutting_down_.store(true, std::memory_order_relaxed);
  // Bye tells the peers this is teardown, not death; the wakes lift our
  // receivers (and any peer blocked on a ring we consume) out of their
  // futex waits promptly.
  seg_->set_bye(rank_);
  wake_all_rings();
  if (monitor_.joinable()) monitor_.join();
  for (auto& p : peers_) {
    if (p && p->receiver.joinable()) p->receiver.join();
  }
}

RecvResult ShmFabric::recv_message(NodeId me, NodeId src, int tag,
                                   std::span<std::byte> out) {
  require_local(me, "recv");
  return mailbox_.take(src, tag, out, recv_deadline());
}

bool ShmFabric::probe_message(NodeId me, NodeId src, int tag) const {
  require_local(me, "probe");
  return mailbox_.probe(src, tag);
}

}  // namespace fg::comm
