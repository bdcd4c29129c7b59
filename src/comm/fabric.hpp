// The interprocessor-communication substrate.
//
// The paper ran on a 16-node Beowulf cluster with a thread-safe commercial
// MPI (ChaMPIon/Pro) over 2 Gb/s Myrinet.  This header defines the abstract
// Fabric interface that stands in for that MPI: matched send/recv with tags,
// MPI_Sendrecv_replace, MPI_Alltoall, plus the small collectives the sorting
// programs need (barrier, broadcast, allgather, allreduce-style sums).
// Everything is thread-safe: FG runs pipeline stages on many threads per
// node, exactly as the paper requires of its MPI.
//
// Two backends implement the delivery hooks:
//
//   - SimFabric (sim_fabric.hpp): the whole cluster in one process, each
//     "node" a set of threads, with an affine latency/bandwidth cost model
//     charged as *delivery time*.
//   - TcpFabric (tcp_fabric.hpp): each node its own OS process, one
//     full-duplex TCP connection per peer, a per-peer receiver thread
//     feeding the same matched-message queue.
//
// The base class implements everything above the wire once — argument
// validation, fault injection (drop/delay/crash), traffic counters, comm
// spans, and all collectives layered on matched send/recv — so the two
// backends cannot drift in semantics, only in transport.
//
// Collectives travel on internal (negative) tags that encode both the
// collective kind and a per-node sequence number, so concurrent collectives
// of different kinds (or successive rounds of the same kind) can never
// cross-match each other's messages.  User tags must be >= 0; the kAnyTag
// wildcard matches application tags only.
#pragma once

#include "util/latency.hpp"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace fg::fault {
class Injector;
}  // namespace fg::fault

namespace fg::comm {

/// Node rank within the cluster, 0-based.
using NodeId = int;

/// Wildcard source for recv().
inline constexpr NodeId kAnySource = -1;
/// Wildcard tag for recv().  User tags must be non-negative; negative tags
/// are reserved for the fabric's internal collectives, and the wildcard
/// matches application tags only.
inline constexpr int kAnyTag = -1;

/// Thrown out of blocked fabric calls when the cluster aborts (some node
/// program failed); lets every node thread unwind instead of hanging.
struct FabricAborted : std::runtime_error {
  FabricAborted() : std::runtime_error("fg::comm::Fabric aborted") {}
};

/// Thrown from recv (and any collective blocked in a receive) when an
/// armed recv deadline expires before a matching message is deliverable.
/// Without a deadline a dropped message hangs the receiver forever; with
/// one, the loss surfaces as a diagnosable error.
struct FabricTimeout : std::runtime_error {
  explicit FabricTimeout(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown from every fabric call made by a node the fault injector has
/// crashed (site "fabric.crash").  Only the crashed node sees this; the
/// survivors unwind via the normal abort path when the cluster tears the
/// run down.
struct FabricNodeCrashed : std::runtime_error {
  explicit FabricNodeCrashed(NodeId node)
      : std::runtime_error("fg::comm::Fabric: node " + std::to_string(node) +
                           " crashed (injected fault)"),
        node(node) {}
  NodeId node;
};

/// What recv() reports about the message it delivered.
struct RecvResult {
  NodeId source{0};
  int tag{0};
  std::size_t bytes{0};
};

/// Per-node traffic counters (bytes at the application payload level).
/// Backends count only the traffic they can see: SimFabric carries every
/// node, TcpFabric only its local rank (remote ranks read as zero).
struct TrafficStats {
  std::uint64_t messages_sent{0};
  std::uint64_t bytes_sent{0};
  std::uint64_t messages_received{0};
  std::uint64_t bytes_received{0};
  /// Messages the fault injector dropped on the wire (counted against the
  /// sender; they are also counted in messages_sent/bytes_sent).
  std::uint64_t messages_dropped{0};
};

class Fabric {
 public:
  /// @param nodes  cluster size P
  explicit Fabric(int nodes);
  virtual ~Fabric() = default;

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  int size() const noexcept { return nodes_; }

  /// Largest payload one message may carry.  This bounds outside input;
  /// it is not a tuning knob.  send() rejects a larger payload with
  /// std::length_error, and the tcp and shm receivers abort the run on a
  /// header that declares more, before allocating for it.
  static constexpr std::size_t kMaxMessageBytes = std::size_t{1} << 30;

  // -- point-to-point -------------------------------------------------------

  /// Buffered send: the payload is copied and the call returns immediately.
  /// Throws std::length_error above kMaxMessageBytes.
  /// @param tag  application tag, must be >= 0
  void send(NodeId src, NodeId dst, int tag, std::span<const std::byte> data);

  /// Blocking receive into `out`.  `src` may be kAnySource and `tag` may be
  /// kAnyTag.  Among matching messages the one with the earliest delivery
  /// time is taken; the call blocks until that time has passed.  Throws
  /// std::length_error if the message is larger than `out`.
  RecvResult recv(NodeId me, NodeId src, int tag, std::span<std::byte> out);

  /// True if a matching message is available for immediate delivery.
  bool probe(NodeId me, NodeId src, int tag) const;

  // -- collectives ----------------------------------------------------------
  // Every node of the cluster must call these, like their MPI namesakes.
  // Within one node, collectives of the same kind must be issued in the
  // same order on every node (the MPI rule); collectives of *different*
  // kinds may overlap freely across stage threads.

  /// Synchronize all nodes.
  void barrier(NodeId me);

  /// Root's `data` is copied to every other node's `data`.
  void broadcast(NodeId me, NodeId root, std::span<std::byte> data);

  /// Personalized all-to-all: `send_data` holds `size()` blocks of
  /// `block_bytes` each (block i goes to node i); `recv_data`, same shape,
  /// receives block j from node j.  Mirrors MPI_Alltoall.
  void alltoall(NodeId me, std::span<const std::byte> send_data,
                std::span<std::byte> recv_data, std::size_t block_bytes);

  /// Personalized all-to-all with *variable* per-destination sizes
  /// (MPI_Alltoallv): block `send[d]` goes to node d (empty spans are
  /// legal).  Received blocks are packed into `recv_all` in source-rank
  /// order; the returned vector gives each source's byte count.  Throws
  /// std::length_error if the packed result exceeds `recv_all`.
  std::vector<std::size_t> alltoallv(
      NodeId me, const std::vector<std::span<const std::byte>>& send,
      std::span<std::byte> recv_all);

  /// Exchange `data` in place with a partner: send to `dst`, receive the
  /// same number of bytes from `src`.  Mirrors MPI_Sendrecv_replace.
  void sendrecv_replace(NodeId me, NodeId dst, NodeId src, int tag,
                        std::span<std::byte> data);

  /// Every node contributes one u64; all nodes get the full vector indexed
  /// by rank.  (The sorts use this for partition-size prefix sums.)
  std::vector<std::uint64_t> allgather_u64(NodeId me, std::uint64_t value);

  /// Sum-reduce a vector of u64 across nodes; all nodes get the result.
  std::vector<std::uint64_t> allreduce_sum_u64(
      NodeId me, std::span<const std::uint64_t> values);

  // -- control --------------------------------------------------------------

  /// Wake all blocked calls with FabricAborted; used for error unwinding.
  /// TcpFabric additionally propagates the abort to every peer process.
  virtual void abort() = 0;
  bool aborted() const noexcept {
    return aborted_.load(std::memory_order_relaxed);
  }

  // -- fault injection ------------------------------------------------------

  /// Attach a fault injector: sends consult fabric.drop / fabric.delay
  /// (node = sender) and every call consults fabric.crash.  Pass nullptr
  /// to detach.  The injector must outlive the fabric.
  void set_fault_injector(fault::Injector* inj) noexcept {
    injector_.store(inj, std::memory_order_relaxed);
  }

  /// Deadline applied to every blocking receive (point-to-point and the
  /// receive halves of collectives): if no matching message becomes
  /// deliverable within `d` of the call, the receiver throws FabricTimeout
  /// instead of waiting forever.  Zero (the default) disables it.  Set it
  /// comfortably above the largest modeled message latency.
  void set_recv_deadline(util::Duration d) noexcept {
    recv_deadline_ns_.store(
        std::chrono::duration_cast<std::chrono::nanoseconds>(d).count(),
        std::memory_order_relaxed);
  }
  util::Duration recv_deadline() const noexcept {
    return std::chrono::duration_cast<util::Duration>(std::chrono::nanoseconds(
        recv_deadline_ns_.load(std::memory_order_relaxed)));
  }

  /// Extra delivery latency added to a message when fabric.delay fires.
  void set_delay_spike(util::Duration d) noexcept {
    delay_spike_ns_.store(
        std::chrono::duration_cast<std::chrono::nanoseconds>(d).count(),
        std::memory_order_relaxed);
  }

  /// Has the injector crashed this node?
  bool crashed(NodeId node) const {
    check_node(node, "crashed");
    return crashed_[static_cast<std::size_t>(node)].load(
        std::memory_order_relaxed);
  }

  /// Per-node traffic counters (application payload bytes).
  TrafficStats stats(NodeId node) const;

 protected:
  // -- backend delivery hooks -----------------------------------------------
  // Arguments arrive pre-validated (ranks in range, sender not crashed,
  // fabric not aborted); internal collective traffic uses negative tags.

  /// Deliver `data` from src to dst; `extra_delay` is injected wire delay
  /// (zero normally) to be applied before the message becomes deliverable.
  virtual void send_message(NodeId src, NodeId dst, int tag,
                            std::span<const std::byte> data,
                            util::Duration extra_delay) = 0;

  /// Blocking matched receive honoring recv_deadline(); throws
  /// FabricAborted / FabricTimeout / std::length_error like recv().
  virtual RecvResult recv_message(NodeId me, NodeId src, int tag,
                                  std::span<std::byte> out) = 0;

  /// Non-blocking availability check.
  virtual bool probe_message(NodeId me, NodeId src, int tag) const = 0;

  // -- shared plumbing for backends and the collective layer ----------------

  void check_node(NodeId n, const char* what) const;
  /// Throws FabricNodeCrashed if `node` is crashed, or if the injector's
  /// fabric.crash site fires for it now (marking it crashed from then on).
  void check_crash(NodeId node);
  void mark_aborted() noexcept {
    aborted_.store(true, std::memory_order_relaxed);
  }
  fault::Injector* injector() const noexcept {
    return injector_.load(std::memory_order_relaxed);
  }

  /// Validation + fault injection + traffic counting around send_message.
  /// Accepts internal (negative) tags; the public send() rejects them.
  void send_payload(NodeId src, NodeId dst, int tag,
                    std::span<const std::byte> data);
  /// Validation + traffic counting around recv_message.
  RecvResult recv_payload(NodeId me, NodeId src, int tag,
                          std::span<std::byte> out);

  /// The collective kinds, each with its own internal tag space.
  enum class Coll : int {
    kBarrier = 0,
    kBroadcast,
    kAlltoall,
    kAlltoallv,
    kAllgather,
    kAllreduce,
    kCount  // sentinel
  };

  /// Claim the next sequence number for a (node, kind) pair.  Each node
  /// numbers its own collectives; because every node must issue same-kind
  /// collectives in the same order, round i on one node pairs with round i
  /// everywhere.
  std::uint32_t next_seq(NodeId me, Coll op);

  /// Internal tag for round `seq` of collective `op`.  `phase` separates
  /// the sub-steps of one round (barrier arrive vs release).  Always < -1,
  /// so it can never collide with user tags or the kAnyTag wildcard.
  static int coll_tag(Coll op, int phase, std::uint32_t seq);

 private:
  int nodes_;
  std::vector<TrafficStats> traffic_;  // guarded by traffic_mutex_
  mutable std::mutex traffic_mutex_;
  std::atomic<bool> aborted_{false};
  std::atomic<fault::Injector*> injector_{nullptr};
  std::atomic<std::int64_t> recv_deadline_ns_{0};
  std::atomic<std::int64_t> delay_spike_ns_{2'000'000};  // 2 ms
  std::vector<std::atomic<bool>> crashed_;
  /// One counter per (node, collective kind); indexed node * kCount + kind.
  std::vector<std::atomic<std::uint32_t>> coll_seq_;
};

}  // namespace fg::comm
