#include "comm/tcp_fabric.hpp"

#include "util/log.hpp"
#include "util/parse.hpp"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace fg::comm {

namespace {

// "FGH1" / "FGF1": hello and frame magics, little-endian on the wire.
constexpr std::uint32_t kHelloMagic = 0x31484746u;
constexpr std::uint32_t kFrameMagic = 0x31464746u;

constexpr std::uint8_t kFrameData = 0;
constexpr std::uint8_t kFrameAbort = 1;
constexpr std::uint8_t kFrameBye = 2;

// magic u32 + type u8 + tag i32 + seq u32 + len u64 + delay u64.
constexpr std::size_t kHeaderBytes = 4 + 1 + 4 + 4 + 8 + 8;
constexpr std::size_t kHelloBytes = 4 + 4;

void put_u32(std::byte* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::byte>(v >> (8 * i));
}

void put_u64(std::byte* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::byte>(v >> (8 * i));
}

std::uint32_t get_u32(const std::byte* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(std::to_integer<std::uint8_t>(p[i]))
         << (8 * i);
  }
  return v;
}

std::uint64_t get_u64(const std::byte* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(std::to_integer<std::uint8_t>(p[i]))
         << (8 * i);
  }
  return v;
}

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error("fg::comm::TcpFabric: " + what + ": " +
                           std::strerror(errno));
}

}  // namespace

TcpEndpoint parse_endpoint(const std::string& spec) {
  const auto colon = spec.rfind(':');
  if (colon == std::string::npos) {
    throw std::invalid_argument(
        "fg::comm::parse_endpoint: expected host:port, got '" + spec + "'");
  }
  TcpEndpoint ep;
  ep.host = spec.substr(0, colon);
  if (ep.host.empty()) ep.host = "127.0.0.1";
  // Full-string parse: "80x" must not pass as port 80, and an
  // unparseable port must name the offending spec, not throw a bare
  // "stoul" from deep inside the library.
  const std::string port_str = spec.substr(colon + 1);
  const auto port = util::parse_number<std::uint32_t>(port_str);
  if (!port || *port == 0 || *port > 65535) {
    throw std::invalid_argument("fg::comm::parse_endpoint: bad port '" +
                                port_str + "' in endpoint '" + spec + "'");
  }
  ep.port = static_cast<std::uint16_t>(*port);
  return ep;
}

TcpFabric::TcpFabric(int nodes, NodeId rank, std::uint16_t listen_port,
                     TcpFabricOptions options)
    : Fabric(nodes), rank_(rank), options_(options), mailbox_(rank) {
  check_node(rank, "TcpFabric");
  peers_.reserve(static_cast<std::size_t>(nodes));
  for (int i = 0; i < nodes; ++i) peers_.push_back(std::make_unique<Peer>());

  // Spent receive payloads flow back into the frame pool instead of the
  // allocator; installed before connect() so no receiver thread races it.
  mailbox_.set_recycler(
      [this](std::vector<std::byte>&& v) { pool_.release(std::move(v)); });

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw_errno("socket");
  int one = 1;
  net::setsockopt_warn(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one,
                       "SO_REUSEADDR");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(listen_port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
      0) {
    const int e = errno;
    ::close(listen_fd_);
    errno = e;
    throw_errno("bind");
  }
  if (::listen(listen_fd_, nodes) < 0) {
    const int e = errno;
    ::close(listen_fd_);
    errno = e;
    throw_errno("listen");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) <
      0) {
    throw_errno("getsockname");
  }
  listen_port_ = ntohs(bound.sin_port);
}

TcpFabric::~TcpFabric() { shutdown(); }

void TcpFabric::require_local(NodeId n, const char* what) const {
  if (n != rank_) {
    throw std::logic_error(std::string("fg::comm::TcpFabric::") + what +
                           ": this process hosts rank " +
                           std::to_string(rank_) + ", not rank " +
                           std::to_string(n));
  }
}

void TcpFabric::require_connected(const char* what) const {
  if (!connected_.load(std::memory_order_acquire)) {
    throw std::logic_error(std::string("fg::comm::TcpFabric::") + what +
                           ": connect() has not completed");
  }
}

void TcpFabric::connect(const std::vector<TcpEndpoint>& peers) {
  if (connected_.load(std::memory_order_acquire)) {
    throw std::logic_error("fg::comm::TcpFabric::connect: already connected");
  }
  if (peers.size() != static_cast<std::size_t>(size())) {
    throw std::invalid_argument(
        "fg::comm::TcpFabric::connect: need one endpoint per node");
  }
  const auto deadline =
      std::chrono::steady_clock::now() + options_.connect_timeout;
  const int expected_inbound = size() - 1 - rank_;

  // Higher ranks dial us; accept them on the side while we dial lower
  // ranks, so the whole mesh comes up concurrently.
  if (expected_inbound > 0) {
    accept_thread_ = std::thread([this, expected_inbound, deadline] {
      for (int accepted = 0; accepted < expected_inbound;) {
        if (shutting_down_.load(std::memory_order_relaxed)) return;
        if (std::chrono::steady_clock::now() >= deadline) return;
        pollfd pfd{listen_fd_, POLLIN, 0};
        const int pr = ::poll(&pfd, 1, 100);
        if (pr <= 0) continue;  // timeout or EINTR: re-check and re-poll
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) {
          // EINTR and ECONNABORTED are routine while the mesh forms (a
          // dialing peer may give up and redial); anything else also
          // just retries, bounded by the connect deadline above.
          continue;
        }
        // Bound the hello read so a stray connection cannot wedge us.
        timeval tv{1, 0};
        net::setsockopt_warn(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv,
                             "SO_RCVTIMEO");
        std::byte hello[kHelloBytes];
        const bool ok = net::read_full(fd, hello, kHelloBytes).ok() &&
                        get_u32(hello) == kHelloMagic;
        const NodeId who =
            ok ? static_cast<NodeId>(
                     static_cast<std::int32_t>(get_u32(hello + 4)))
               : -1;
        if (!ok || who <= rank_ || who >= size() ||
            peers_[static_cast<std::size_t>(who)]->fd >= 0) {
          ::close(fd);
          continue;
        }
        timeval off{0, 0};
        net::setsockopt_warn(fd, SOL_SOCKET, SO_RCVTIMEO, &off, sizeof off,
                             "SO_RCVTIMEO(off)");
        net::set_nodelay(fd);
        {
          std::lock_guard<std::mutex> lock(connect_mutex_);
          peers_[static_cast<std::size_t>(who)]->fd = fd;
          ++connected_count_;
        }
        connect_cv_.notify_all();
        ++accepted;
      }
    });
  }

  // Dial every lower rank, retrying while its listener comes up.
  for (NodeId n = 0; n < rank_; ++n) {
    const TcpEndpoint& ep = peers[static_cast<std::size_t>(n)];
    const std::string host = ep.host.empty() ? "127.0.0.1" : ep.host;
    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* res = nullptr;
    if (::getaddrinfo(host.c_str(), std::to_string(ep.port).c_str(), &hints,
                      &res) != 0 ||
        res == nullptr) {
      shutting_down_.store(true, std::memory_order_relaxed);
      if (accept_thread_.joinable()) accept_thread_.join();
      throw std::runtime_error(
          "fg::comm::TcpFabric::connect: cannot resolve " + host);
    }
    // Dial with bounded exponential backoff.  During mesh formation a
    // refused connection usually means the peer's listener isn't up yet,
    // so ECONNREFUSED (and friends) retry with a growing pause until the
    // connect deadline; EINTR redials immediately (after EINTR the
    // socket's connect state is unspecified, so it is closed and
    // reopened rather than re-connect()ed); anything else — a genuine
    // misconfiguration like EACCES — fails the bring-up at once instead
    // of silently burning the whole timeout.
    int fd = -1;
    int dial_errno = 0;
    std::chrono::milliseconds backoff = options_.retry_interval;
    const std::chrono::milliseconds backoff_cap{250};
    for (;;) {
      fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) {
        if (errno == EINTR) continue;
        dial_errno = errno;
        break;
      }
      if (::connect(fd, res->ai_addr, res->ai_addrlen) == 0) break;
      const int err = errno;
      ::close(fd);
      fd = -1;
      if (err == EINTR) continue;
      const bool transient = err == ECONNREFUSED || err == ECONNRESET ||
                             err == ETIMEDOUT || err == ENETUNREACH ||
                             err == EHOSTUNREACH || err == EADDRNOTAVAIL ||
                             err == EAGAIN;
      if (!transient || std::chrono::steady_clock::now() >= deadline) {
        dial_errno = err;
        break;
      }
      std::this_thread::sleep_for(backoff);
      backoff = std::min(backoff * 2, backoff_cap);
    }
    ::freeaddrinfo(res);
    if (fd < 0) {
      shutting_down_.store(true, std::memory_order_relaxed);
      if (accept_thread_.joinable()) accept_thread_.join();
      throw std::runtime_error(
          "fg::comm::TcpFabric::connect: rank " + std::to_string(rank_) +
          " could not reach rank " + std::to_string(n) + " at " + host + ":" +
          std::to_string(ep.port) + " (" + std::strerror(dial_errno) + ")");
    }
    net::set_nodelay(fd);
    std::byte hello[kHelloBytes];
    put_u32(hello, kHelloMagic);
    put_u32(hello + 4, static_cast<std::uint32_t>(rank_));
    if (!net::write_full(fd, hello, kHelloBytes)) {
      ::close(fd);
      shutting_down_.store(true, std::memory_order_relaxed);
      if (accept_thread_.joinable()) accept_thread_.join();
      throw std::runtime_error(
          "fg::comm::TcpFabric::connect: hello to rank " + std::to_string(n) +
          " failed");
    }
    {
      std::lock_guard<std::mutex> lock(connect_mutex_);
      peers_[static_cast<std::size_t>(n)]->fd = fd;
      ++connected_count_;
    }
    connect_cv_.notify_all();
  }

  // Wait for the inbound half of the mesh.
  {
    std::unique_lock<std::mutex> lock(connect_mutex_);
    connect_cv_.wait_until(lock, deadline, [&] {
      return connected_count_ == size() - 1;
    });
    if (connected_count_ != size() - 1) {
      lock.unlock();
      shutting_down_.store(true, std::memory_order_relaxed);
      if (accept_thread_.joinable()) accept_thread_.join();
      throw std::runtime_error(
          "fg::comm::TcpFabric::connect: rank " + std::to_string(rank_) +
          " timed out waiting for the full peer mesh");
    }
  }
  if (accept_thread_.joinable()) accept_thread_.join();

  connected_.store(true, std::memory_order_release);
  for (NodeId n = 0; n < size(); ++n) {
    if (n == rank_) continue;
    Peer& p = *peers_[static_cast<std::size_t>(n)];
    p.receiver = std::thread([this, n] { receiver_loop(n); });
  }
}

void TcpFabric::write_frame(NodeId dst, std::uint8_t type, int tag,
                            std::span<const std::byte> payload,
                            std::uint64_t delay_ns, bool best_effort) {
  Peer& p = *peers_[static_cast<std::size_t>(dst)];
  bool wrote;
  {
    std::lock_guard<std::mutex> lock(p.send_mutex);
    if (p.fd < 0) {
      if (best_effort) return;
      throw FabricAborted{};
    }
    std::byte hdr[kHeaderBytes];
    put_u32(hdr, kFrameMagic);
    hdr[4] = static_cast<std::byte>(type);
    put_u32(hdr + 5, static_cast<std::uint32_t>(tag));
    put_u32(hdr + 9, p.send_seq++);
    put_u64(hdr + 13, payload.size());
    put_u64(hdr + 21, delay_ns);
    // Header and payload leave in one sendmsg: one syscall per frame, and
    // the kernel sees the full frame at once instead of a 25-byte header
    // write followed by the payload.
    iovec iov[2] = {
        {hdr, kHeaderBytes},
        {const_cast<std::byte*>(payload.data()), payload.size()},
    };
    wrote = net::write_full_vec(p.fd, iov, payload.empty() ? 1 : 2);
  }
  if (!wrote) {
    if (best_effort) return;
    // The peer's socket is gone mid-run: treat it as a cluster failure so
    // everyone (including this process) unwinds.  The abort broadcast
    // below re-enters write_frame for every peer — this one included — so
    // it must run after the send lock above is released: abort() may
    // never be called while holding a peer's send_mutex.
    abort();
    throw FabricAborted{};
  }
}

void TcpFabric::receiver_loop(NodeId peer) {
  Peer& p = *peers_[static_cast<std::size_t>(peer)];
  std::uint32_t expect_seq = 0;
  bool bye = false;
  for (;;) {
    std::byte hdr[kHeaderBytes];
    const net::ReadOutcome hr = net::read_full(p.fd, hdr, kHeaderBytes);
    if (!hr.ok()) {
      // EOF after BYE (or during our own teardown/abort) is an orderly
      // close; anything else means the peer process died mid-run — and
      // the diagnostic says how: EOF at a frame boundary, EOF inside a
      // header, or a socket error with its errno.
      if (hr.status == net::ReadStatus::kClosed &&
          (bye || shutting_down_.load(std::memory_order_relaxed) ||
           aborted())) {
        return;
      }
      if (shutting_down_.load(std::memory_order_relaxed) || aborted()) return;
      abort_from_peer("rank " + std::to_string(peer) + ": " +
                      net::describe(hr) +
                      (hr.status == net::ReadStatus::kClosedMidRead
                           ? " (died inside a frame header)"
                           : ""));
      return;
    }
    // A corrupt stream has no resynchronization point: record why and
    // abort the whole run.
    const auto corrupt = [&](const std::string& what) {
      abort_from_peer("rank " + std::to_string(peer) + ": corrupt stream: " +
                          what,
                      /*warn=*/true, /*broadcast=*/true);
    };
    if (get_u32(hdr) != kFrameMagic) {
      corrupt("bad frame magic");
      return;
    }
    const auto type = std::to_integer<std::uint8_t>(hdr[4]);
    const int tag = static_cast<std::int32_t>(get_u32(hdr + 5));
    const std::uint32_t seq = get_u32(hdr + 9);
    const std::uint64_t len = get_u64(hdr + 13);
    const std::uint64_t delay_ns = get_u64(hdr + 21);
    if (len > kMaxMessageBytes) {
      corrupt("frame declares " + std::to_string(len) +
              " payload bytes, over the " + std::to_string(kMaxMessageBytes) +
              "-byte limit");
      return;
    }
    // The header's length is the size hint: the payload lands directly in
    // a recycled pool buffer, not a fresh allocation per frame.
    std::vector<std::byte> payload = pool_.acquire(len);
    if (len > 0) {
      const net::ReadOutcome pr = net::read_full(p.fd, payload.data(), len);
      if (!pr.ok()) {
        if (!shutting_down_.load(std::memory_order_relaxed)) {
          abort_from_peer(
              "rank " + std::to_string(peer) + ": " + net::describe(pr) +
              (pr.status == net::ReadStatus::kError
                   ? ""
                   : " (died mid-payload, " + std::to_string(len) +
                         "-byte frame truncated)"));
        }
        return;
      }
    }
    // Every frame consumes one slot of the channel's sequence space — the
    // sender bumps send_seq for control frames too — so every frame gets
    // validated, not just DATA.  Checking DATA alone would let the data
    // frame *after* an ABORT broadcast mismatch expect_seq and escalate an
    // orderly drain into a spurious "frames lost" abort.
    if (seq != expect_seq) {
      corrupt("frame sequence " + std::to_string(seq) + ", expected " +
              std::to_string(expect_seq) + " (frames lost or reordered)");
      return;
    }
    ++expect_seq;
    switch (type) {
      case kFrameData: {
        const util::TimePoint deliver_at =
            util::Clock::now() +
            std::chrono::duration_cast<util::Duration>(
                std::chrono::nanoseconds(delay_ns));
        mailbox_.deposit(peer, tag, std::move(payload), deliver_at);
        break;
      }
      case kFrameAbort:
        // A deliberate ABORT frame is orderly teardown, not a wire
        // failure — record it, but don't warn.
        abort_from_peer("rank " + std::to_string(peer) +
                            " broadcast an abort",
                        /*warn=*/false);
        pool_.release(std::move(payload));
        break;  // keep draining until the peer closes
      case kFrameBye:
        bye = true;
        pool_.release(std::move(payload));
        break;
      default:
        corrupt("unknown frame type " + std::to_string(type));
        return;
    }
  }
}

void TcpFabric::abort_from_peer(std::string detail, bool warn,
                                bool broadcast) {
  {
    std::lock_guard<std::mutex> lock(detail_mutex_);
    if (abort_detail_.empty()) abort_detail_ = detail;
  }
  if (warn) {
    FG_LOG(kWarn) << "fg::comm::TcpFabric[rank " << rank_
                  << "]: aborting run: " << detail;
  }
  if (broadcast) {
    abort();
    return;
  }
  // The peer that originated the abort already told everyone else (or, if
  // it died, everyone sees the EOF themselves) — no re-broadcast.
  mark_aborted();
  mailbox_.abort();
}

std::string TcpFabric::abort_detail() const {
  std::lock_guard<std::mutex> lock(detail_mutex_);
  return abort_detail_;
}

void TcpFabric::abort() {
  const bool first = !abort_broadcast_.exchange(true);
  mark_aborted();
  mailbox_.abort();
  if (first && connected_.load(std::memory_order_acquire)) {
    for (NodeId n = 0; n < size(); ++n) {
      if (n == rank_) continue;
      write_frame(n, kFrameAbort, 0, {}, 0, /*best_effort=*/true);
    }
  }
}

void TcpFabric::shutdown() {
  {
    std::lock_guard<std::mutex> lock(connect_mutex_);
    if (closed_) return;
    closed_ = true;
  }
  shutting_down_.store(true, std::memory_order_relaxed);
  if (connected_.load(std::memory_order_acquire)) {
    for (NodeId n = 0; n < size(); ++n) {
      if (n == rank_) continue;
      write_frame(n, kFrameBye, 0, {}, 0, /*best_effort=*/true);
    }
  }
  // SHUT_RDWR unblocks our receiver threads (read returns 0) while the
  // BYE above lets the peer tell teardown apart from a crash.
  for (auto& p : peers_) {
    if (p->fd >= 0) ::shutdown(p->fd, SHUT_RDWR);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  for (auto& p : peers_) {
    if (p->receiver.joinable()) p->receiver.join();
    if (p->fd >= 0) {
      ::close(p->fd);
      p->fd = -1;
    }
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void TcpFabric::send_message(NodeId src, NodeId dst, int tag,
                             std::span<const std::byte> data,
                             util::Duration extra_delay) {
  require_local(src, "send");
  require_connected("send");
  const auto delay_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(extra_delay)
          .count());
  if (dst == rank_) {
    std::vector<std::byte> payload = pool_.acquire(data.size());
    if (!data.empty()) std::memcpy(payload.data(), data.data(), data.size());
    mailbox_.deposit(src, tag, std::move(payload),
                     util::Clock::now() + extra_delay);
    return;
  }
  write_frame(dst, kFrameData, tag, data, delay_ns, /*best_effort=*/false);
}

RecvResult TcpFabric::recv_message(NodeId me, NodeId src, int tag,
                                   std::span<std::byte> out) {
  require_local(me, "recv");
  require_connected("recv");
  return mailbox_.take(src, tag, out, recv_deadline());
}

bool TcpFabric::probe_message(NodeId me, NodeId src, int tag) const {
  require_local(me, "probe");
  return mailbox_.probe(src, tag);
}

}  // namespace fg::comm
