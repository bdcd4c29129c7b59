// The storage substrate: one Disk per cluster node, file-backed.
//
// Disk is an abstract interface over positioned file I/O (all operations
// are pread/pwrite style, because FG stages on several threads interleave
// accesses to the same file).  Everything every backend must agree on
// lives here in the base class: handle validation, fault injection,
// retry/backoff absorption of transient failures, IoStats accounting,
// obs trace spans, and the async submission queue.  Backends implement
// only the physical transfer hooks (read_once / write_once / size_once /
// sync_once plus open/create/close), so fault sites fire identically and
// retries behave identically no matter what sits underneath.
//
// Every backend opens files as fds (a File holds one) and moves bytes
// through NativeDisk's pread/pwrite path.  Three backends:
//
//  * NativeDisk (native_disk.hpp) — fd-based positioned pread/pwrite
//    with no spindle mutex (the kernel serializes per-fd positioned
//    I/O), optional O_DIRECT, and fdatasync-backed sync().  This is the
//    "as fast as the hardware allows" backend.
//
//  * SpindleDisk (spindle_disk.hpp) — the simulation backend the paper's
//    numbers are reproduced on, named "stdio" on the command line:
//    NativeDisk's transfers behind a per-disk mutex held for the
//    duration of each operation, so a node's disk behaves like one
//    spindle, and an optional latency model (seek + transfer cost)
//    charged while the mutex is held.
//
//  * UringDisk (uring_disk.hpp) — NativeDisk's files and synchronous
//    path, but the async requests below go through a real io_uring
//    submission/completion loop (fixed files, registered buffers where
//    alignment permits) instead of the worker pool.  Runtime-detected;
//    make_disk falls back to NativeDisk where io_uring is unavailable.
//
// On top of the synchronous interface the base provides an asynchronous
// request path: read_async/write_async enqueue positioned operations on a
// per-disk submission queue served by a small I/O worker pool and return
// completion handles.  The sort drivers use it for read-ahead and
// write-behind (pdm/aio.hpp) so the next round's block is in flight while
// the current one is being consumed.
#pragma once

#include "util/budget.hpp"
#include "util/latency.hpp"
#include "util/retry.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace fg::fault {
class Injector;
}  // namespace fg::fault

namespace fg::pdm {

/// Cumulative per-disk counters.
struct IoStats {
  std::uint64_t read_ops{0};
  std::uint64_t bytes_read{0};
  std::uint64_t write_ops{0};
  std::uint64_t bytes_written{0};
  /// Modeled time this disk spent busy (latency charges; the spindle
  /// backend only — NativeDisk takes exactly as long as the hardware).
  util::Duration busy{};
};

/// Which concrete Disk implementation backs a Workspace.
enum class DiskBackend {
  kStdio,   ///< "stdio": SpindleDisk, NativeDisk's path one op at a time
            ///< behind a spindle mutex, with the latency model
  kNative,  ///< fd-based pread/pwrite, kernel-serialized, no model
  kUring,   ///< NativeDisk files + an io_uring async submission loop
};

const char* to_string(DiskBackend b) noexcept;
/// "stdio", "native", or "uring"; throws std::invalid_argument naming
/// the input otherwise.
DiskBackend parse_disk_backend(const std::string& name);

/// Named error for a read that came back shorter than the caller
/// requires.  Disk::read itself legitimately returns short at EOF; the
/// callers that *assume* full reads (sort stages reading planned block
/// layouts) route through read_exact / ReadAhead, which turn a past-EOF
/// short read into this instead of silently processing garbage.
class ShortReadError : public std::runtime_error {
 public:
  ShortReadError(const std::string& file, std::uint64_t offset,
                 std::size_t requested, std::size_t got);

  const std::string& file() const noexcept { return file_; }
  std::uint64_t offset() const noexcept { return offset_; }
  std::size_t requested() const noexcept { return requested_; }
  std::size_t got() const noexcept { return got_; }

 private:
  std::string file_;
  std::uint64_t offset_;
  std::size_t requested_;
  std::size_t got_;
};

class Disk;

/// Move-only RAII handle to an open file on a Disk: the fd, plus an id
/// unique to this open on its disk.  Disk::close is the checked close;
/// the destructor is a best-effort fallback that logs a failed close.
class File {
 public:
  File() = default;
  ~File();
  File(File&& other) noexcept;
  File& operator=(File&& other) noexcept;
  File(const File&) = delete;
  File& operator=(const File&) = delete;

  bool is_open() const noexcept { return fd_ >= 0; }
  const std::string& name() const noexcept { return name_; }
  /// The open file descriptor; -1 once closed.
  int fd() const noexcept { return fd_; }
  /// Minted per open and never reused, unlike the fd number: the seek
  /// model keys its head on it.
  std::uint64_t open_id() const noexcept { return open_id_; }

 private:
  friend class Disk;
  File(int fd, std::uint64_t open_id, std::string name) noexcept
      : fd_(fd), open_id_(open_id), name_(std::move(name)) {}
  /// Close the fd exactly once; false if close(2) failed.
  bool close_fd() noexcept;

  int fd_{-1};
  std::uint64_t open_id_{0};
  std::string name_;
};

/// Completion handle for an asynchronous disk request.  wait() joins the
/// operation: it returns the bytes transferred (reads may be short at
/// EOF) or rethrows whatever the operation threw — after the retry layer
/// gave up, exactly as the synchronous call would have.  Handles may be
/// waited at most once-per-result but from any thread; done() polls.
class IoHandle {
 public:
  IoHandle() = default;

  bool valid() const noexcept { return state_ != nullptr; }
  bool done() const;
  std::size_t wait();

 private:
  friend class Disk;
  struct State;
  explicit IoHandle(std::shared_ptr<State> s) : state_(std::move(s)) {}
  std::shared_ptr<State> state_;
};

class Disk {
 public:
  /// @param dir    directory backing this disk (created if absent)
  explicit Disk(std::filesystem::path dir);
  virtual ~Disk();

  Disk(const Disk&) = delete;
  Disk& operator=(const Disk&) = delete;

  virtual DiskBackend backend() const noexcept = 0;
  const char* backend_name() const noexcept { return to_string(backend()); }

  const std::filesystem::path& dir() const noexcept { return dir_; }

  /// The latency model (the spindle backend charges it per operation;
  /// the others store but ignore it).  Dataset generation and
  /// verification run with a free model so that only the measured passes
  /// pay simulated I/O latency.
  util::LatencyModel model() const;
  void set_model(util::LatencyModel m);

  /// Seek-aware mode: the model's setup cost represents the seek, so an
  /// operation that continues exactly where the previous operation on
  /// this disk left off (same open file, next byte) pays only the
  /// transfer cost.  Off by default.  Spindle backend only.
  virtual void set_seek_aware(bool on);
  bool seek_aware() const;

  /// Attach a fault injector: every operation consults the disk.* sites
  /// and translates a firing into a transient EIO, a short transfer, or
  /// a flush failure — in the base class, so every backend fails
  /// identically.  `node` tags this disk's operations for @node-scoped
  /// rules.  Pass nullptr to detach.  The injector must outlive the disk.
  void set_fault_injector(fault::Injector* inj, int node = -1);

  /// Node id used to tag this disk's trace spans (obs::SpanKind::kDisk*).
  /// Set once at workspace construction, before any worker thread runs.
  void set_node(int node) noexcept { node_ = node; }
  int node() const noexcept { return node_; }

  /// Attach a write-traffic quota: every write (synchronous or async)
  /// charges its byte count against the budget before touching the
  /// backend and throws util::QuotaExceeded once the allowance is gone —
  /// deliberately not a TransientError, so the retry layer propagates it
  /// instead of spinning.  This is fgserve's per-job disk quota hook;
  /// charges are never released (the quota bounds cumulative write
  /// traffic, which also bounds file growth).  Pass nullptr to detach.
  /// The budget must outlive the disk's use of it.
  void set_write_budget(util::ByteBudget* budget);

  /// How read/write respond to transient failures.  The default policy
  /// (no retries) propagates every failure, which is what logic tests
  /// want; chaos runs install util::RetryPolicy::standard().
  void set_retry_policy(util::RetryPolicy p);
  util::RetryPolicy retry_policy() const;

  /// What the retry layer absorbed since construction / reset_stats().
  util::RetryStats retry_stats() const;

  /// Create (truncate) a file for read/write.
  File create(const std::string& name);
  /// Open an existing file for read/write; throws if missing.
  File open(const std::string& name);
  bool exists(const std::string& name) const;
  void remove(const std::string& name);

  /// Close `f`, throwing if close(2) fails.  Idempotent: closing an
  /// already-closed handle is a no-op.  (The File destructor remains a
  /// best-effort fallback that logs, rather than loses, a close failure.)
  /// Every async request against `f` must have completed first.
  void close(File& f);

  /// Current size in bytes.
  std::uint64_t size(const File& f) const;

  /// Flush `f`'s bytes to stable storage (fdatasync); throws on failure.
  void sync(const File& f);

  /// Positioned read; returns bytes actually read (short at EOF).
  std::size_t read(const File& f, std::uint64_t offset,
                   std::span<std::byte> out);

  /// Positioned read that must be fully satisfied: a short (past-EOF)
  /// result throws ShortReadError naming the file, offset, and counts
  /// instead of returning a count the caller was going to ignore.  Use
  /// wherever the access pattern is planned from known file sizes.
  void read_exact(const File& f, std::uint64_t offset,
                  std::span<std::byte> out);

  /// Positioned write; extends the file as needed.
  void write(const File& f, std::uint64_t offset,
             std::span<const std::byte> data);

  /// Asynchronous positioned read/write: enqueue the operation on this
  /// disk's submission queue and return immediately.  The base
  /// implementation serves requests from an I/O worker pool through
  /// exactly the synchronous path above (fault injection, retries,
  /// stats); UringDisk overrides with a real io_uring submission loop
  /// that preserves the same observable semantics.  The caller must keep
  /// `f` open and the data span alive until the handle completes, and
  /// must wait every handle before closing `f`.
  virtual IoHandle read_async(const File& f, std::uint64_t offset,
                              std::span<std::byte> out);
  virtual IoHandle write_async(const File& f, std::uint64_t offset,
                               std::span<const std::byte> data);

  /// Concurrency of the async request path (default 2): worker-pool size
  /// on the thread-pool backends, in-flight submission cap on io_uring.
  /// Must be called before the first async request; with 1, requests
  /// complete in submission order on every backend.
  virtual void set_io_workers(int n);

  /// Requests submitted but not yet completed (for tests/heartbeats).
  virtual std::size_t io_queue_depth() const;

  IoStats stats() const;
  void reset_stats();

 protected:
  // -- physical hooks, implemented by backends --------------------------
  // One physical attempt each; no fault injection, no retries, no stats:
  // the base owns all of that.  create_once/open_once return the new fd;
  // read_once returns bytes read (short at EOF); write_once must
  // transfer the whole span or throw.
  virtual int create_once(const std::filesystem::path& path) = 0;
  virtual int open_once(const std::filesystem::path& path) = 0;
  virtual std::size_t read_once(const File& f, std::uint64_t offset,
                                std::span<std::byte> out) = 0;
  virtual std::size_t write_once(const File& f, std::uint64_t offset,
                                 std::span<const std::byte> data) = 0;
  virtual std::uint64_t size_once(const File& f) const = 0;
  virtual void sync_once(const File& f) = 0;
  /// Called (with the file still open) just before the base closes it, so
  /// a backend can drop per-file bookkeeping (e.g. the seek-model head).
  virtual void closing(const File&) {}

  /// Record modeled busy time (the spindle backend's latency charges).
  void record_busy(util::Duration d);

  /// Stop and join the I/O worker pool, draining queued requests first.
  /// Every backend destructor MUST call this before destroying its own
  /// state: workers execute requests through the virtual hooks.
  void stop_io() noexcept;

  // -- subclass async-path support --------------------------------------
  // A backend that overrides read_async/write_async with its own
  // submission loop (UringDisk) must keep the base-class observable
  // semantics: per-attempt fault injection, IoStats, retry accounting,
  // and the write budget.  These expose exactly the state that needs.

  /// The attached injector (nullptr if none); *node_out gets the node
  /// tag fault rules filter on.
  fault::Injector* fault_injector(int* node_out) const;
  /// Record one physical attempt in IoStats (ops + bytes transferred) —
  /// the subclass equivalent of what attempt_read/attempt_write log.
  void note_read_attempt(std::size_t bytes);
  void note_write_attempt(std::size_t bytes);
  /// Fold one completed operation's retry counters into retry_stats().
  void merge_retry_stats(const util::RetryStats& s);
  /// Charge the attached write budget, if any (throws
  /// util::QuotaExceeded once the allowance is gone).
  void charge_write_budget(std::size_t bytes);
  /// Mint a pending completion handle / publish its result.  IoHandle is
  /// cheaply copyable (shared state), so a subclass keeps one per
  /// in-flight op and finishes it from its completion thread.
  static IoHandle new_handle();
  static void finish_handle(const IoHandle& h, std::size_t bytes,
                            std::exception_ptr error) noexcept;

 private:
  struct AsyncRequest;
  std::size_t attempt_read(const File& f, std::uint64_t offset,
                           std::span<std::byte> out, bool* injected_short);
  std::size_t attempt_write(const File& f, std::uint64_t offset,
                            std::span<const std::byte> data,
                            bool* injected_short);
  void check_flush_fault(const char* what) const;
  IoHandle submit(AsyncRequest req);
  void io_worker();

  std::filesystem::path dir_;
  std::atomic<std::uint64_t> next_open_id_{1};  ///< File::open_id source

  mutable std::mutex config_mutex_;  ///< knobs below
  util::LatencyModel model_;
  bool seek_aware_{false};
  fault::Injector* injector_{nullptr};
  int fault_node_{-1};
  util::RetryPolicy retry_policy_{};
  util::ByteBudget* write_budget_{nullptr};

  mutable std::mutex stats_mutex_;  ///< counters below
  IoStats stats_;
  util::RetryStats retry_stats_;

  int node_{0};  ///< span scope; written before threads, read-only after

  // -- async submission queue ------------------------------------------
  mutable std::mutex io_mutex_;
  std::condition_variable io_cv_;
  std::deque<AsyncRequest> io_queue_;
  std::vector<std::thread> io_threads_;
  std::size_t io_inflight_{0};
  bool io_stop_{false};
  int io_workers_{2};
};

/// Construct a Disk of the given backend.  `direct` requests O_DIRECT
/// (NativeDisk/UringDisk only; the spindle backend rejects it).  Requesting
/// kUring on a system without a usable io_uring logs a warning and
/// falls back to NativeDisk — check backend() on the result for which
/// one you actually got.
std::unique_ptr<Disk> make_disk(DiskBackend backend, std::filesystem::path dir,
                                util::LatencyModel model = util::LatencyModel::free(),
                                bool direct = false);

}  // namespace fg::pdm
