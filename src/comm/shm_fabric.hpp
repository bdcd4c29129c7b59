// The same-host fabric backend: every rank maps one shared-memory segment
// (a memfd) and messages cross rank boundaries by a slot claim plus a
// memcpy into shared pages — no socket and no kernel copy on the receive
// side.  A send to the rank itself never touches the segment: the Fabric
// base delivers it, as it does for every fabric.
//
// Segment layout (all regions cacheline-aligned):
//
//   header        magic, version, cluster size, ring geometry
//   rank status   one cacheline per rank: heartbeat word (bumped by the
//                 owner's monitor thread), attached flag, bye flag
//   abort word    0 while the run is healthy, rank+1 of the aborter once
//                 some rank raises a cluster abort
//   rings         one single-producer single-consumer ring per *ordered*
//                 rank pair (s, d), s != d: head/tail counters (each a
//                 futex word on its own cacheline) and `ring_slots` fixed
//                 slots of header + payload
//
// A send serializes per destination under a process-local mutex, claims
// slots (blocking on the ring's tail futex when the ring is full — that
// is the backpressure), and publishes each chunk with a release store of
// head plus a futex wake.  Messages larger than one slot's payload are
// chunked across consecutive slots; per-channel FIFO makes reassembly
// trivial.  A per-peer receiver thread drains each inbound ring into the
// hosted rank's Mailbox in the Fabric base, so matching, deadlines,
// wildcard rules, and length checking are byte-for-byte the Sim/Tcp
// semantics.
//
// Failure detection has no EOF to lean on, so the segment carries it:
// each rank's monitor thread bumps its heartbeat word and watches the
// others'.  A rank that leaves sets its bye flag (orderly); a rank whose
// heartbeat freezes without bye is presumed dead and a survivor raises
// the segment abort word, which every monitor polls.  abort() raises the
// same word directly.  The futex waits are all bounded (50 ms), so even
// a wake that is lost to a racing process exit only costs one quantum.
#pragma once

#include "comm/fabric.hpp"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace fg::comm {

struct ShmSegmentOptions {
  /// Frame slots per ordered rank pair (the ring capacity; sends block
  /// when a ring is full).
  std::uint32_t ring_slots{16};
  /// Payload bytes per slot, a positive multiple of 64; larger messages
  /// are chunked across consecutive slots.
  std::size_t slot_bytes{64 * 1024};
};

/// The shared mapping one cluster run communicates through.  Created once
/// (by fgnode, or by a test) and attached by every rank; the fd is the
/// capability — inherit it across fork/exec to hand a child its rank's
/// view (clear FD_CLOEXEC first, see fd()).
class ShmSegment {
 public:
  /// True when memfd-backed segments work here and FG_NO_SHM is unset —
  /// the gate fgnode checks before choosing the shm fabric.
  static bool available();

  /// Create and initialize a segment for a `nodes`-rank cluster.
  static std::shared_ptr<ShmSegment> create(int nodes,
                                            ShmSegmentOptions options = {});

  /// Map an existing segment by fd (typically inherited from the fgnode
  /// parent).  The fd is dup()ed; the caller keeps its copy.  Throws
  /// std::invalid_argument unless the fd holds an FG segment whose header
  /// geometry describes exactly the mapping's size.
  static std::shared_ptr<ShmSegment> attach(int fd);

  ~ShmSegment();
  ShmSegment(const ShmSegment&) = delete;
  ShmSegment& operator=(const ShmSegment&) = delete;

  int nodes() const noexcept;
  std::uint32_t ring_slots() const noexcept;
  std::size_t slot_bytes() const noexcept;

  /// The segment's file descriptor (opened close-on-exec; use fcntl to
  /// clear FD_CLOEXEC on a copy you pass across exec).
  int fd() const noexcept { return fd_; }

 private:
  friend class ShmFabric;
  ShmSegment() = default;

  // -- typed views into the mapping (implemented over raw offsets) ----------
  std::byte* ring(int src, int dst) const;  ///< ring header for src -> dst
  bool claim_rank(int rank);                ///< attach; false if taken
  void set_bye(int rank);
  bool rank_attached(int rank) const;
  bool rank_bye(int rank) const;
  void bump_heartbeat(int rank);
  std::uint64_t heartbeat(int rank) const;
  bool raise_abort(int rank);  ///< CAS the abort word; true if we won
  bool abort_raised() const;
  int abort_rank() const;

  std::byte* base_{nullptr};
  std::size_t bytes_{0};
  int fd_{-1};
};

struct ShmFabricOptions {
  /// How often the monitor thread bumps this rank's heartbeat, polls the
  /// segment abort word, and checks the peers' heartbeats.
  std::chrono::milliseconds heartbeat_period{25};
  /// How long a peer's heartbeat may freeze (without its bye flag) before
  /// it is presumed dead and the run is aborted.
  std::chrono::milliseconds heartbeat_timeout{10'000};
};

class ShmFabric final : public Fabric {
 public:
  static bool available() { return ShmSegment::available(); }

  /// Attach rank `rank` to `segment` and start the receiver + monitor
  /// threads.  There is no separate connect step — the segment *is* the
  /// mesh.  Each rank may attach to a segment exactly once per run.
  explicit ShmFabric(std::shared_ptr<ShmSegment> segment, NodeId rank,
                     ShmFabricOptions options = {});
  ~ShmFabric() override;

  NodeId rank() const noexcept { return rank_; }

  /// Orderly close: raise this rank's bye flag, wake the rings, and join
  /// the receiver/monitor threads.  Idempotent; the destructor calls it.
  void shutdown();

  /// Abort locally and raise the segment abort word so every other rank's
  /// monitor aborts its process within a heartbeat period.
  /// abort_detail() says why this rank aborted, when the cause was remote
  /// or a corrupt segment: a peer's deliberate abort or a frozen heartbeat.
  void abort() override;

 protected:
  void send_message(NodeId src, NodeId dst, int tag,
                    std::span<const std::byte> data,
                    util::Duration extra_delay) override;

 private:
  struct PeerState {
    std::mutex send_mutex;         ///< serializes chunks into out_ring
    std::thread receiver;          ///< drains in_ring into the mailbox
    std::byte* out_ring{nullptr};  ///< ring this rank writes to the peer
    std::byte* in_ring{nullptr};   ///< ring the peer writes to this rank
  };

  /// Wait for a free slot in the ring to `dst`; returns the head counter
  /// to write at.  Throws FabricAborted on abort or if the peer left.
  std::uint32_t claim_slot(NodeId dst, std::byte* ring);
  void receiver_loop(NodeId peer);
  void monitor_loop();
  void wake_all_rings();

  std::shared_ptr<ShmSegment> seg_;
  NodeId rank_;
  ShmFabricOptions options_;

  std::vector<std::unique_ptr<PeerState>> peers_;  // by rank; self unused
  std::thread monitor_;
  std::atomic<bool> shutting_down_{false};
  std::mutex close_mutex_;
  bool closed_{false};  // guarded by close_mutex_
};

}  // namespace fg::comm
