// The multi-process fabric backend: each cluster node is its own OS
// process, connected to every peer by one full-duplex TCP connection
// (loopback or real hosts).  This is the configuration the paper actually
// ran — separate machines under a thread-safe MPI — with TCP standing in
// for Myrinet.
//
// Wire protocol.  After connecting, the dialing side sends an 8-byte hello
// (magic + its rank).  From then on each direction carries a stream of
// frames:
//
//   magic   u32   frame sanity check
//   type    u8    0 = DATA, 1 = ABORT, 2 = BYE
//   tag     i32   application or internal collective tag
//   seq     u32   per-direction sequence number; every frame (data and
//                 control alike) consumes one and must arrive in order
//   len     u64   payload bytes following the header
//   delay   u64   injected delay (ns) the receiver applies before delivery
//
// all little-endian.  DATA frames land in the local Mailbox — the same
// matched-message queue SimFabric uses — so matching, deadlines, and
// length checking behave identically.  ABORT propagates a cluster abort;
// BYE announces an orderly close, so an EOF *without* BYE means the peer
// process died and the survivor aborts the run (the moral equivalent of
// mpirun tearing down the job).
//
// A per-peer receiver thread owns the read side of each connection and
// reads every frame completely into an owned payload before matching, so
// an oversized message surfaces as std::length_error at recv() without
// desynchronizing the byte stream.  Sends serialize per peer under a
// mutex; injected drops simply never write the frame.
#pragma once

#include "comm/fabric.hpp"
#include "comm/mailbox.hpp"
#include "comm/net_io.hpp"

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace fg::comm {

/// Where a peer's fabric listens, e.g. {"127.0.0.1", 31415}.
struct TcpEndpoint {
  std::string host;
  std::uint16_t port{0};
};

/// Parse "host:port" (host may be empty for loopback).
TcpEndpoint parse_endpoint(const std::string& spec);

struct TcpFabricOptions {
  /// How long connect() keeps dialing/awaiting peers before giving up.
  std::chrono::milliseconds connect_timeout{30'000};
  /// Pause between dial retries while a peer's listener is not up yet.
  std::chrono::milliseconds retry_interval{50};
};

class TcpFabric final : public Fabric {
 public:
  /// Bind the local listener (port 0 picks an ephemeral port, see
  /// listen_port()).  The fabric is unusable until connect() returns.
  TcpFabric(int nodes, NodeId rank, std::uint16_t listen_port = 0,
            TcpFabricOptions options = {});
  ~TcpFabric() override;

  NodeId rank() const noexcept { return rank_; }
  /// The port the listener actually bound (resolves port 0 requests).
  std::uint16_t listen_port() const noexcept { return listen_port_; }

  /// Establish one connection per peer: dial every lower rank's endpoint
  /// (retrying until its listener is up) and accept every higher rank.
  /// `peers` must have size() entries; peers[rank()] is ignored.  Throws
  /// std::runtime_error if the full mesh is not up within the connect
  /// timeout.
  void connect(const std::vector<TcpEndpoint>& peers);

  /// Orderly close: send BYE to every peer, shut the connections down and
  /// join the receiver threads.  Idempotent; the destructor calls it.
  void shutdown();

  /// Abort locally and best-effort propagate an ABORT frame to every peer
  /// so their blocked calls unwind too.
  void abort() override;

  /// Why the receive side aborted the run, when it did: distinguishes a
  /// peer that died mid-frame (EOF inside a frame) from a socket error
  /// (errno text) from a corrupt stream.  Empty if no receive-side abort
  /// happened.  First cause wins.
  std::string abort_detail() const;

  /// How many receive payloads were served from the recycled frame pool
  /// instead of a fresh allocation (observability for the zero-copy-ish
  /// receive path).
  std::uint64_t recv_pool_reuses() const { return pool_.reuses(); }

 protected:
  void send_message(NodeId src, NodeId dst, int tag,
                    std::span<const std::byte> data,
                    util::Duration extra_delay) override;
  RecvResult recv_message(NodeId me, NodeId src, int tag,
                          std::span<std::byte> out) override;
  bool probe_message(NodeId me, NodeId src, int tag) const override;

 private:
  struct Peer {
    int fd{-1};
    std::mutex send_mutex;           // serializes frames on the write side
    std::uint32_t send_seq{0};       // guarded by send_mutex
    std::thread receiver;
  };

  void require_local(NodeId n, const char* what) const;
  void require_connected(const char* what) const;
  /// Write one frame (header + payload) to peer `dst` under its send lock.
  void write_frame(NodeId dst, std::uint8_t type, int tag,
                   std::span<const std::byte> payload,
                   std::uint64_t delay_ns, bool best_effort);
  void receiver_loop(NodeId peer);
  /// An abort arrived from (or was detected about) a peer.  `detail`
  /// records what the wire actually showed (peer death mid-frame, a
  /// socket error, a corrupt stream) for diagnostics; `warn` logs it
  /// (wire failures warn, deliberate ABORT frames don't).  `broadcast`
  /// also tells every peer, for a failure only this rank can see — a
  /// corrupt stream; otherwise the abort stays local.
  void abort_from_peer(std::string detail, bool warn = true,
                       bool broadcast = false);

  NodeId rank_;
  TcpFabricOptions options_;
  Mailbox mailbox_;
  net::PayloadPool pool_;  ///< recycled receive-frame payloads

  mutable std::mutex detail_mutex_;
  std::string abort_detail_;  ///< first receive-side abort cause

  int listen_fd_{-1};
  std::uint16_t listen_port_{0};
  std::thread accept_thread_;

  std::vector<std::unique_ptr<Peer>> peers_;  // indexed by rank; self unused
  mutable std::mutex connect_mutex_;
  std::condition_variable connect_cv_;
  int connected_count_{0};  // guarded by connect_mutex_
  std::atomic<bool> connected_{false};
  std::atomic<bool> shutting_down_{false};
  std::atomic<bool> abort_broadcast_{false};
  bool closed_{false};  // guarded by connect_mutex_
};

}  // namespace fg::comm
