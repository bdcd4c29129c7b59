#include "comm/net_io.hpp"

#include "util/log.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <cerrno>
#include <cstring>

namespace fg::comm::net {

ReadOutcome read_full(int fd, void* buf, std::size_t len) {
  auto* p = static_cast<unsigned char*>(buf);
  std::size_t got = 0;
  while (got < len) {
    const ssize_t n = ::recv(fd, p + got, len - got, 0);
    if (n == 0) {
      return {got == 0 ? ReadStatus::kClosed : ReadStatus::kClosedMidRead, 0};
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      return {ReadStatus::kError, errno};
    }
    got += static_cast<std::size_t>(n);
  }
  return {ReadStatus::kOk, 0};
}

bool write_full(int fd, const void* buf, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(buf);
  std::size_t put = 0;
  while (put < len) {
    const ssize_t n = ::send(fd, p + put, len - put, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    put += static_cast<std::size_t>(n);
  }
  return true;
}

bool write_full_vec(int fd, iovec* iov, int iovcnt) {
  while (iovcnt > 0) {
    // Skip leading empty segments so msg_iovlen never starts on one
    // (a zero-length head is legal but wastes kernel iteration).
    while (iovcnt > 0 && iov->iov_len == 0) {
      ++iov;
      --iovcnt;
    }
    if (iovcnt == 0) break;
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<std::size_t>(iovcnt);
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    // Advance past fully-sent segments, then trim the partial one.
    std::size_t left = static_cast<std::size_t>(n);
    while (iovcnt > 0 && left >= iov->iov_len) {
      left -= iov->iov_len;
      ++iov;
      --iovcnt;
    }
    if (iovcnt > 0 && left > 0) {
      iov->iov_base = static_cast<char*>(iov->iov_base) + left;
      iov->iov_len -= left;
    }
  }
  return true;
}

void set_nodelay(int fd) {
  const int one = 1;
  setsockopt_warn(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one,
                  "TCP_NODELAY");
}

int setsockopt_warn(int fd, int level, int optname, const void* val,
                    unsigned len, const char* what) {
  const int rc = ::setsockopt(fd, level, optname, val, len);
  if (rc != 0) {
    FG_LOG(kWarn) << "fg::comm: setsockopt(" << what << ") failed on fd " << fd
                  << ": " << std::strerror(errno)
                  << " — continuing without it";
  }
  return rc;
}

std::string describe(const ReadOutcome& o) {
  switch (o.status) {
    case ReadStatus::kOk:
      return "ok";
    case ReadStatus::kClosed:
      return "peer closed the connection at a frame boundary";
    case ReadStatus::kClosedMidRead:
      return "peer closed the connection mid-frame";
    case ReadStatus::kError:
      return std::string("recv failed: ") + std::strerror(o.err);
  }
  return "?";
}

}  // namespace fg::comm::net
