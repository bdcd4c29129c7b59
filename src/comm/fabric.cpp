#include "comm/fabric.hpp"

#include "comm/mailbox.hpp"
#include "obs/span.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"

#include <algorithm>
#include <cstring>

namespace fg::comm {

namespace {

/// Receives and probes name application tags (>= 0) or kAnyTag.
void check_recv_tag(int tag, const char* what) {
  if (tag < 0 && tag != kAnyTag) {
    throw std::invalid_argument(
        std::string("fg::comm::Fabric::") + what +
        ": application tags must be >= 0 (or kAnyTag)");
  }
}

}  // namespace

Fabric::Fabric(int nodes, util::LatencyModel model)
    : nodes_(nodes), model_(model), pool_(std::make_unique<PayloadPool>()) {
  if (nodes <= 0) {
    throw std::invalid_argument("fg::comm::Fabric: need at least one node");
  }
  for (NodeId n = 0; n < nodes; ++n) {
    mailboxes_.push_back(std::make_unique<Mailbox>(n, *pool_));
  }
  hosted_ = std::vector<std::atomic<bool>>(static_cast<std::size_t>(nodes));
  traffic_.resize(static_cast<std::size_t>(nodes));
  crashed_ = std::vector<std::atomic<bool>>(static_cast<std::size_t>(nodes));
  coll_seq_ = std::vector<std::atomic<std::uint32_t>>(
      static_cast<std::size_t>(nodes) *
      static_cast<std::size_t>(Coll::kCount));
}

Fabric::~Fabric() = default;

Mailbox& Fabric::hosted(NodeId n, const char* what) const {
  const auto i = static_cast<std::size_t>(n);
  if (!hosted_[i].load(std::memory_order_acquire)) {
    throw std::logic_error(std::string("fg::comm::Fabric::") + what +
                           ": this process does not host rank " +
                           std::to_string(n) + " (or has not connected yet)");
  }
  return *mailboxes_[i];
}

util::TimePoint Fabric::delivery_time(std::uint64_t delay_ns) {
  const util::TimePoint now = util::Clock::now();
  const auto room = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        util::TimePoint::max() - now)
                        .count();
  if (delay_ns > static_cast<std::uint64_t>(room)) return util::TimePoint::max();
  return now + std::chrono::duration_cast<util::Duration>(
                   std::chrono::nanoseconds(delay_ns));
}

void Fabric::send_message(NodeId, NodeId dst, int, std::span<const std::byte>,
                          util::Duration) {
  throw std::logic_error("fg::comm::Fabric::send: rank " +
                         std::to_string(dst) +
                         " is not hosted and this fabric has no wire");
}

void Fabric::abort() {
  aborted_.store(true, std::memory_order_relaxed);
  for (auto& mb : mailboxes_) mb->abort();
}

void Fabric::abort_from_peer(NodeId me, std::string detail, bool warn,
                             bool propagate) {
  if (warn) {
    FG_LOG(kWarn) << "fg::comm::Fabric[rank " << me
                  << "]: aborting run: " << detail;
  }
  {
    std::lock_guard<std::mutex> lock(detail_mutex_);
    if (abort_detail_.empty()) abort_detail_ = std::move(detail);
  }
  Fabric::abort();
  if (propagate) abort();
}

std::string Fabric::abort_detail() const {
  std::lock_guard<std::mutex> lock(detail_mutex_);
  return abort_detail_;
}

std::uint64_t Fabric::recv_pool_reuses() const { return pool_->reuses(); }

void Fabric::check_crash(NodeId node) {
  std::atomic<bool>& flag = crashed_[static_cast<std::size_t>(node)];
  if (flag.load(std::memory_order_relaxed)) throw FabricNodeCrashed(node);
  fault::Injector* inj = injector();
  if (inj && inj->fire(fault::kFabricCrash, node)) {
    flag.store(true, std::memory_order_relaxed);
    throw FabricNodeCrashed(node);
  }
}

void Fabric::check_node(NodeId n, const char* what) const {
  if (n < 0 || n >= size()) {
    throw std::out_of_range(std::string("fg::comm::Fabric::") + what +
                            ": node rank out of range");
  }
}

std::uint32_t Fabric::next_seq(NodeId me, Coll op) {
  const std::size_t idx =
      static_cast<std::size_t>(me) * static_cast<std::size_t>(Coll::kCount) +
      static_cast<std::size_t>(op);
  return coll_seq_[idx].fetch_add(1, std::memory_order_relaxed);
}

int Fabric::coll_tag(Coll op, int phase, std::uint32_t seq) {
  // Tags -2 and below, laid out as slot + stride * (seq mod window).  The
  // window keeps the tag within int range; 2^20 outstanding rounds of one
  // kind per wrap is far beyond any plausible overlap.
  constexpr int kPhases = 2;
  constexpr int kStride = static_cast<int>(Coll::kCount) * kPhases;
  constexpr std::uint32_t kWindow = 1u << 20;
  const int slot = static_cast<int>(op) * kPhases + phase;
  return -2 - (slot + kStride * static_cast<int>(seq % kWindow));
}

void Fabric::send(NodeId src, NodeId dst, int tag,
                  std::span<const std::byte> data) {
  if (tag < 0) {
    throw std::invalid_argument(
        "fg::comm::Fabric::send: application tags must be >= 0");
  }
  // Spans wrap only the public entry points (and each collective as one
  // unit); the payload helpers stay silent so collective traffic is not
  // double-counted as point-to-point sends.
  obs::ScopedSpan span(obs::SpanKind::kFabricSend,
                       static_cast<std::uint32_t>(src), data.size());
  send_payload(src, dst, tag, data);
}

void Fabric::send_payload(NodeId src, NodeId dst, int tag,
                          std::span<const std::byte> data) {
  if (data.size() > kMaxMessageBytes) {
    throw std::length_error(
        "fg::comm::Fabric::send: " + std::to_string(data.size()) +
        "-byte message exceeds the " + std::to_string(kMaxMessageBytes) +
        "-byte limit");
  }
  check_node(src, "send");
  check_node(dst, "send");
  check_crash(src);
  if (aborted()) throw FabricAborted{};
  hosted(src, "send");

  // Injected wire faults; self-sends never touch the wire, so they can
  // neither be dropped nor delayed.
  fault::Injector* inj = injector();
  if (src != dst && inj && inj->fire(fault::kFabricDrop, src)) {
    std::lock_guard<std::mutex> lock(traffic_mutex_);
    auto& t = traffic_[static_cast<std::size_t>(src)];
    ++t.messages_sent;
    t.bytes_sent += data.size();
    ++t.messages_dropped;
    return;  // the sender believes it succeeded; the wire ate it
  }
  util::Duration spike = util::Duration::zero();
  if (src != dst && inj && inj->fire(fault::kFabricDelay, src)) {
    spike = std::chrono::duration_cast<util::Duration>(std::chrono::nanoseconds(
        delay_spike_ns_.load(std::memory_order_relaxed)));
  }

  if (hosted_[static_cast<std::size_t>(dst)].load(std::memory_order_acquire)) {
    // Between hosted ranks the latency model is the wire: the message
    // becomes visible after its modeled cost, and a self-send is free.
    const util::TimePoint deliver_at =
        util::Clock::now() + spike +
        (src == dst ? util::Duration::zero() : model_.cost(data.size()));
    mailboxes_[static_cast<std::size_t>(dst)]->deposit(
        src, tag, pool_->copy(data), deliver_at);
  } else {
    send_message(src, dst, tag, data, spike);
  }

  {
    std::lock_guard<std::mutex> lock(traffic_mutex_);
    auto& t = traffic_[static_cast<std::size_t>(src)];
    ++t.messages_sent;
    t.bytes_sent += data.size();
  }
}

RecvResult Fabric::recv(NodeId me, NodeId src, int tag,
                        std::span<std::byte> out) {
  check_recv_tag(tag, "recv");
  obs::ScopedSpan span(obs::SpanKind::kFabricRecv,
                       static_cast<std::uint32_t>(me));
  const RecvResult r = recv_payload(me, src, tag, out);
  span.set_value(r.bytes);  // size known only after the message arrives
  return r;
}

RecvResult Fabric::recv_payload(NodeId me, NodeId src, int tag,
                                std::span<std::byte> out) {
  check_node(me, "recv");
  if (src != kAnySource) check_node(src, "recv");
  check_crash(me);

  const RecvResult r = hosted(me, "recv").take(src, tag, out, recv_deadline());

  std::lock_guard<std::mutex> lock(traffic_mutex_);
  auto& t = traffic_[static_cast<std::size_t>(me)];
  ++t.messages_received;
  t.bytes_received += r.bytes;
  return r;
}

bool Fabric::probe(NodeId me, NodeId src, int tag) const {
  check_recv_tag(tag, "probe");
  check_node(me, "probe");
  if (src != kAnySource) check_node(src, "probe");
  // The flag only: a probe is not a fabric.crash op, so probing cannot
  // move where a seeded fault spec fires.
  if (crashed_[static_cast<std::size_t>(me)].load(std::memory_order_relaxed)) {
    throw FabricNodeCrashed(me);
  }
  return hosted(me, "probe").probe(src, tag);
}

void Fabric::barrier(NodeId me) {
  check_node(me, "barrier");
  if (size() == 1) return;
  obs::ScopedSpan span(obs::SpanKind::kFabricCollective,
                       static_cast<std::uint32_t>(me));
  const std::uint32_t seq = next_seq(me, Coll::kBarrier);
  const int arrive = coll_tag(Coll::kBarrier, 0, seq);
  const int release = coll_tag(Coll::kBarrier, 1, seq);
  std::byte token{};
  if (me == 0) {
    // Collect one arrival from every other node (matched by explicit
    // source so a fast node's *next* barrier cannot be double-counted),
    // then release everyone.
    std::byte sink{};
    for (NodeId n = 1; n < size(); ++n) {
      recv_payload(0, n, arrive, {&sink, 1});
    }
    for (NodeId n = 1; n < size(); ++n) {
      send_payload(0, n, release, {&token, 1});
    }
  } else {
    send_payload(me, 0, arrive, {&token, 1});
    std::byte sink{};
    recv_payload(me, 0, release, {&sink, 1});
  }
}

void Fabric::broadcast(NodeId me, NodeId root, std::span<std::byte> data) {
  check_node(me, "broadcast");
  check_node(root, "broadcast");
  if (size() == 1) return;
  obs::ScopedSpan span(obs::SpanKind::kFabricCollective,
                       static_cast<std::uint32_t>(me), data.size());
  const int tag = coll_tag(Coll::kBroadcast, 0, next_seq(me, Coll::kBroadcast));
  if (me == root) {
    for (NodeId n = 0; n < size(); ++n) {
      if (n == root) continue;
      send_payload(root, n, tag, data);
    }
  } else {
    recv_payload(me, root, tag, data);
  }
}

void Fabric::alltoall(NodeId me, std::span<const std::byte> send_data,
                      std::span<std::byte> recv_data,
                      std::size_t block_bytes) {
  check_node(me, "alltoall");
  obs::ScopedSpan span(obs::SpanKind::kFabricCollective,
                       static_cast<std::uint32_t>(me), send_data.size());
  const auto p = static_cast<std::size_t>(size());
  if (send_data.size() < p * block_bytes || recv_data.size() < p * block_bytes) {
    throw std::length_error(
        "fg::comm::Fabric::alltoall: buffers must hold size() blocks");
  }
  const int tag = coll_tag(Coll::kAlltoall, 0, next_seq(me, Coll::kAlltoall));
  // Local block moves without touching the wire, as in any MPI.
  std::memcpy(recv_data.data() + static_cast<std::size_t>(me) * block_bytes,
              send_data.data() + static_cast<std::size_t>(me) * block_bytes,
              block_bytes);
  for (NodeId n = 0; n < size(); ++n) {
    if (n == me) continue;
    send_payload(me, n, tag,
                 send_data.subspan(static_cast<std::size_t>(n) * block_bytes,
                                   block_bytes));
  }
  for (NodeId n = 0; n < size(); ++n) {
    if (n == me) continue;
    recv_payload(me, n, tag,
                 recv_data.subspan(static_cast<std::size_t>(n) * block_bytes,
                                   block_bytes));
  }
}

std::vector<std::size_t> Fabric::alltoallv(
    NodeId me, const std::vector<std::span<const std::byte>>& send,
    std::span<std::byte> recv_all) {
  check_node(me, "alltoallv");
  obs::ScopedSpan span(obs::SpanKind::kFabricCollective,
                       static_cast<std::uint32_t>(me));
  if (send.size() != static_cast<std::size_t>(size())) {
    throw std::invalid_argument(
        "fg::comm::Fabric::alltoallv: need one send block per node");
  }
  const int tag = coll_tag(Coll::kAlltoallv, 0, next_seq(me, Coll::kAlltoallv));
  std::vector<std::size_t> sizes(static_cast<std::size_t>(size()), 0);
  for (NodeId n = 0; n < size(); ++n) {
    if (n == me) continue;
    send_payload(me, n, tag, send[static_cast<std::size_t>(n)]);
  }
  const auto too_small = [] {
    return std::length_error(
        "fg::comm::Fabric::alltoallv: receive buffer too small");
  };
  std::size_t offset = 0;
  for (NodeId n = 0; n < size(); ++n) {
    // Guard before forming any subspan or unsigned difference: once the
    // buffer is exhausted, every remaining block must be empty.
    if (offset > recv_all.size()) throw too_small();
    if (n == me) {
      const auto& mine = send[static_cast<std::size_t>(me)];
      if (mine.size() > recv_all.size() - offset) throw too_small();
      if (!mine.empty()) {
        std::memcpy(recv_all.data() + offset, mine.data(), mine.size());
      }
      sizes[static_cast<std::size_t>(me)] = mine.size();
      offset += mine.size();
      continue;
    }
    try {
      const RecvResult r =
          recv_payload(me, n, tag, recv_all.subspan(offset));
      sizes[static_cast<std::size_t>(n)] = r.bytes;
      offset += r.bytes;
    } catch (const std::length_error&) {
      // Rethrow with the collective's own context: the caller sized
      // recv_all, not an individual receive buffer.
      throw too_small();
    }
  }
  return sizes;
}

std::vector<std::uint64_t> Fabric::allgather_u64(NodeId me,
                                                 std::uint64_t value) {
  check_node(me, "allgather_u64");
  obs::ScopedSpan span(obs::SpanKind::kFabricCollective,
                       static_cast<std::uint32_t>(me));
  const int tag =
      coll_tag(Coll::kAllgather, 0, next_seq(me, Coll::kAllgather));
  std::vector<std::uint64_t> all(static_cast<std::size_t>(size()), 0);
  all[static_cast<std::size_t>(me)] = value;
  for (NodeId n = 0; n < size(); ++n) {
    if (n == me) continue;
    send_payload(me, n, tag,
                 {reinterpret_cast<const std::byte*>(&value), sizeof value});
  }
  for (NodeId n = 0; n < size(); ++n) {
    if (n == me) continue;
    std::uint64_t v = 0;
    recv_payload(me, n, tag, {reinterpret_cast<std::byte*>(&v), sizeof v});
    all[static_cast<std::size_t>(n)] = v;
  }
  return all;
}

TrafficStats Fabric::stats(NodeId node) const {
  check_node(node, "stats");
  std::lock_guard<std::mutex> lock(traffic_mutex_);
  return traffic_[static_cast<std::size_t>(node)];
}

}  // namespace fg::comm
