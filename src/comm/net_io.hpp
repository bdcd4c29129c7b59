// Shared byte-moving primitives for the framed TCP protocols (TcpFabric's
// "FGF1" frames, fgserve's "FGS1" frames).  Both protocols write a small
// header followed by a payload; emitting them as two send() calls costs a
// second syscall per frame and lets the kernel coalesce them arbitrarily.
// write_full_vec() gathers header + payload into one EINTR-safe sendmsg,
// which is where the receive-occupancy budget of a dsort's exchange phase
// goes (the tcp section of tools/ci.sh's BENCH_sort.json).
//
// read_full() is the matching exact-read loop, with one deliberate design
// point: a stream that ends cleanly *between* frames is a different event
// from a stream that ends *inside* one, and both are different from a
// socket error.  Callers used to see -1 for the last two and guessed;
// ReadStatus names all three so abort diagnostics can say what actually
// happened on the wire.
//
// Only byte moving lives here.  Where a received frame's payload goes is
// the reader's business: TcpFabric reads into its mailbox's PayloadPool
// (comm/mailbox.hpp), fgserve into its own buffers.
#pragma once

#include <sys/uio.h>

#include <cstddef>
#include <string>

namespace fg::comm::net {

enum class ReadStatus {
  kOk,            ///< all requested bytes read
  kClosed,        ///< clean EOF before the first byte (frame boundary)
  kClosedMidRead, ///< EOF after some bytes: the peer died mid-frame
  kError,         ///< recv failed; see `err`
};

struct ReadOutcome {
  ReadStatus status{ReadStatus::kOk};
  int err{0};  ///< errno captured when status == kError
  bool ok() const noexcept { return status == ReadStatus::kOk; }
};

/// Read exactly `len` bytes, absorbing EINTR.
ReadOutcome read_full(int fd, void* buf, std::size_t len);

/// Write exactly `len` bytes with MSG_NOSIGNAL, absorbing EINTR and short
/// sends; returns false on any error (e.g. EPIPE once the peer is gone).
bool write_full(int fd, const void* buf, std::size_t len);

/// Scatter/gather variant: write every byte of `iov[0..iovcnt)` as one
/// logical stream via sendmsg(MSG_NOSIGNAL), advancing across partial
/// sends without re-copying.  The iovec array is clobbered.  Returns
/// false on any error.
bool write_full_vec(int fd, iovec* iov, int iovcnt);

/// Enable TCP_NODELAY; failure is logged (with errno) rather than
/// ignored — a run silently suffering Nagle delays is a debugging trap.
void set_nodelay(int fd);

/// setsockopt wrapper that logs a warning naming `what` on failure
/// instead of dropping the return value.  Returns the setsockopt result.
int setsockopt_warn(int fd, int level, int optname, const void* val,
                    unsigned len, const char* what);

/// Human-readable rendering of a failed ReadOutcome for diagnostics:
/// "peer closed the connection mid-frame" or "recv failed: <errno text>".
std::string describe(const ReadOutcome& o);

}  // namespace fg::comm::net
