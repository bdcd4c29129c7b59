#include "pdm/uring_disk.hpp"

#include "util/fault.hpp"

#include <linux/io_uring.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <sys/uio.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#if defined(__SANITIZE_THREAD__)
#define FG_URING_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define FG_URING_TSAN 1
#endif
#endif
#if defined(FG_URING_TSAN)
#include <sanitizer/tsan_interface.h>
#endif

namespace fg::pdm {

namespace {

// No liburing in the toolchain; the three syscalls are all we need.
int sys_uring_setup(unsigned entries, io_uring_params* p) noexcept {
  const long rc = ::syscall(__NR_io_uring_setup, entries, p);
  return rc < 0 ? -errno : static_cast<int>(rc);
}

int sys_uring_enter(int fd, unsigned to_submit, unsigned min_complete,
                    unsigned flags) noexcept {
  const long rc = ::syscall(__NR_io_uring_enter, fd, to_submit, min_complete,
                            flags, nullptr, 0);
  return rc < 0 ? -errno : static_cast<int>(rc);
}

int sys_uring_register(int fd, unsigned opcode, const void* arg,
                       unsigned nr_args) noexcept {
  const long rc = ::syscall(__NR_io_uring_register, fd, opcode, arg, nr_args);
  return rc < 0 ? -errno : static_cast<int>(rc);
}

std::uint32_t ring_load_acquire(const std::uint32_t* p) noexcept {
  return std::atomic_ref<const std::uint32_t>(*p).load(
      std::memory_order_acquire);
}

std::uint32_t ring_load_relaxed(const std::uint32_t* p) noexcept {
  return std::atomic_ref<const std::uint32_t>(*p).load(
      std::memory_order_relaxed);
}

void ring_store_release(std::uint32_t* p, std::uint32_t v) noexcept {
  std::atomic_ref<std::uint32_t>(*p).store(v, std::memory_order_release);
}

// The happens-before edge between an SQE submission and its CQE runs
// through the kernel (store-release of the SQ tail on one word, the
// kernel's barriers, load-acquire of the CQ tail on another), which TSan
// cannot follow — so the handoff of an Op from the submitter to the
// reaper looks racy even though the ring orders it.  Mirror the edge
// explicitly on the Op address in sanitized builds.
#if defined(FG_URING_TSAN)
void op_handoff_release(std::uint64_t user_data) noexcept {
  if (user_data > 1) {
    __tsan_release(reinterpret_cast<void*>(user_data & ~std::uint64_t{1}));
  }
}
void op_handoff_acquire(void* op) noexcept { __tsan_acquire(op); }
#else
void op_handoff_release(std::uint64_t) noexcept {}
void op_handoff_acquire(void*) noexcept {}
#endif

// One transfer SQE moves at most this much; larger attempts continue in
// chunks off their completions, like the pread/pwrite loops do.
constexpr std::size_t kMaxChunk = std::size_t{1} << 30;

// user_data: the Op pointer, low bit set for its backoff timeout CQE.
constexpr std::uint64_t kWakeupData = 1;

}  // namespace

// Per-request state machine.  Owned by whichever thread is currently
// driving the op (the submitter until the first SQE lands on the ring,
// the reaper afterwards); never touched concurrently because an op has
// at most one SQE in flight.
struct UringDisk::Op {
  bool is_write{false};
  int fd{-1};
  int file_slot{-1};  ///< fixed-file table slot, -1 = plain fd
  std::string name;   ///< file name, for error text
  std::uint64_t offset{0};
  std::byte* buf{nullptr};  ///< never written through for writes
  std::size_t len{0};
  std::size_t total{0};  ///< bytes moved by completed attempts

  // Current attempt (one fault-injection round, like attempt_read).
  std::size_t attempt_target{0};
  std::size_t attempt_done{0};
  bool injected_short{false};

  int failures{0};  ///< consecutive transient failures
  bool retried{false};
  util::RetryPolicy policy{};
  util::RetryStats local{};
  __kernel_timespec backoff_ts{};
  IoHandle handle;
};

bool UringDisk::available() noexcept {
  static const bool ok = [] {
    if (const char* env = std::getenv("FG_NO_URING");
        env != nullptr && *env != '\0') {
      return false;
    }
    io_uring_params p{};
    const int fd = sys_uring_setup(2, &p);
    if (fd < 0) return false;
    ::close(fd);
    return true;
  }();
  return ok;
}

UringDisk::UringDisk(std::filesystem::path dir, NativeDiskOptions opts)
    : NativeDisk(std::move(dir), opts) {
  setup_ring();
}

UringDisk::~UringDisk() {
  bool join = false;
  {
    std::lock_guard<std::mutex> lock(op_mutex_);
    stopping_ = true;
    join = started_;
  }
  if (join) {
    submit_wakeup();
    if (reaper_.joinable()) reaper_.join();
  }
  stop_io();  // the base worker pool never runs here; keep the contract
  teardown_ring();
}

// -- ring lifecycle ----------------------------------------------------------

void UringDisk::setup_ring() {
  io_uring_params p{};
  const int fd = sys_uring_setup(kRingEntries, &p);
  if (fd < 0) {
    throw std::runtime_error(
        std::string("fg::pdm::UringDisk: io_uring_setup failed: ") +
        std::strerror(-fd));
  }
  ring_fd_ = fd;
  sq_ring_bytes_ = p.sq_off.array + p.sq_entries * sizeof(std::uint32_t);
  cq_ring_bytes_ = p.cq_off.cqes + p.cq_entries * sizeof(io_uring_cqe);
  const bool single = (p.features & IORING_FEAT_SINGLE_MMAP) != 0;
  if (single) {
    sq_ring_bytes_ = cq_ring_bytes_ = std::max(sq_ring_bytes_, cq_ring_bytes_);
  }
  sq_ring_ = ::mmap(nullptr, sq_ring_bytes_, PROT_READ | PROT_WRITE,
                    MAP_SHARED | MAP_POPULATE, ring_fd_, IORING_OFF_SQ_RING);
  if (sq_ring_ == MAP_FAILED) {
    sq_ring_ = nullptr;
    teardown_ring();
    throw std::runtime_error("fg::pdm::UringDisk: mmap of the SQ ring failed");
  }
  if (single) {
    cq_ring_ = sq_ring_;
  } else {
    cq_ring_ = ::mmap(nullptr, cq_ring_bytes_, PROT_READ | PROT_WRITE,
                      MAP_SHARED | MAP_POPULATE, ring_fd_, IORING_OFF_CQ_RING);
    if (cq_ring_ == MAP_FAILED) {
      cq_ring_ = nullptr;
      teardown_ring();
      throw std::runtime_error(
          "fg::pdm::UringDisk: mmap of the CQ ring failed");
    }
  }
  sqes_bytes_ = p.sq_entries * sizeof(io_uring_sqe);
  sqes_ = ::mmap(nullptr, sqes_bytes_, PROT_READ | PROT_WRITE,
                 MAP_SHARED | MAP_POPULATE, ring_fd_, IORING_OFF_SQES);
  if (sqes_ == MAP_FAILED) {
    sqes_ = nullptr;
    teardown_ring();
    throw std::runtime_error("fg::pdm::UringDisk: mmap of the SQE array failed");
  }

  auto* sqp = static_cast<unsigned char*>(sq_ring_);
  sq_head_ = reinterpret_cast<std::uint32_t*>(sqp + p.sq_off.head);
  sq_tail_ = reinterpret_cast<std::uint32_t*>(sqp + p.sq_off.tail);
  sq_mask_ = *reinterpret_cast<std::uint32_t*>(sqp + p.sq_off.ring_mask);
  sq_array_ = reinterpret_cast<std::uint32_t*>(sqp + p.sq_off.array);
  auto* cqp = static_cast<unsigned char*>(cq_ring_);
  cq_head_ = reinterpret_cast<std::uint32_t*>(cqp + p.cq_off.head);
  cq_tail_ = reinterpret_cast<std::uint32_t*>(cqp + p.cq_off.tail);
  cq_mask_ = *reinterpret_cast<std::uint32_t*>(cqp + p.cq_off.ring_mask);
  cqes_ = cqp + p.cq_off.cqes;

  // Registered tables are strictly optional: a kernel that rejects them
  // just serves plain fd/address SQEs.
  std::vector<int> fds(kFileSlots, -1);  // sparse file table
  if (sys_uring_register(ring_fd_, IORING_REGISTER_FILES, fds.data(),
                         kFileSlots) == 0) {
    files_enabled_ = true;
    for (unsigned i = kFileSlots; i > 0; --i) {
      free_file_slots_.push_back(i - 1);
    }
  }
  io_uring_rsrc_register rr{};
  rr.nr = kBufferSlots;
  rr.flags = IORING_RSRC_REGISTER_SPARSE;
  if (sys_uring_register(ring_fd_, IORING_REGISTER_BUFFERS2, &rr,
                         sizeof(rr)) == 0) {
    buffers_enabled_ = true;
    for (unsigned i = kBufferSlots; i > 0; --i) {
      free_buffer_slots_.push_back(i - 1);
    }
  }
}

void UringDisk::teardown_ring() noexcept {
  if (sqes_ != nullptr) {
    ::munmap(sqes_, sqes_bytes_);
    sqes_ = nullptr;
  }
  if (cq_ring_ != nullptr && cq_ring_ != sq_ring_) {
    ::munmap(cq_ring_, cq_ring_bytes_);
  }
  cq_ring_ = nullptr;
  if (sq_ring_ != nullptr) {
    ::munmap(sq_ring_, sq_ring_bytes_);
    sq_ring_ = nullptr;
  }
  if (ring_fd_ >= 0) {
    ::close(ring_fd_);
    ring_fd_ = -1;
  }
}

// -- submission --------------------------------------------------------------

int UringDisk::push_sqe(std::uint8_t opcode, std::uint8_t flags, int fd,
                        std::uint64_t off, const void* addr, std::uint32_t len,
                        std::uint16_t buf_index, std::uint64_t user_data) {
  std::lock_guard<std::mutex> lock(sq_mutex_);
  const std::uint32_t head = ring_load_acquire(sq_head_);
  const std::uint32_t tail = ring_load_relaxed(sq_tail_);
  if (tail - head > sq_mask_) return -EBUSY;  // ring full; never with our caps
  const std::uint32_t idx = tail & sq_mask_;
  auto* sqe = static_cast<io_uring_sqe*>(sqes_) + idx;
  std::memset(sqe, 0, sizeof(*sqe));
  sqe->opcode = opcode;
  sqe->flags = flags;
  sqe->fd = fd;
  sqe->off = off;
  sqe->addr = reinterpret_cast<std::uint64_t>(addr);
  sqe->len = len;
  sqe->buf_index = buf_index;
  sqe->user_data = user_data;
  sq_array_[idx] = idx;
  op_handoff_release(user_data);
  ring_store_release(sq_tail_, tail + 1);
  for (;;) {
    const int rc = sys_uring_enter(ring_fd_, 1, 0, 0);
    if (rc >= 0) break;
    if (rc != -EINTR) {
      // The kernel never consumed the entry (submission only happens
      // inside enter, and every submitting enter holds sq_mutex_), so
      // unpublish it rather than leave a stale SQE for the next push.
      ring_store_release(sq_tail_, tail);
      return rc;
    }
  }
  ++sqes_submitted_;
  return 0;
}

void UringDisk::submit_wakeup() noexcept {
  // Failure is survivable: the push only fails when the ring is full, and
  // a full ring means completions are pending, which wake the reaper too.
  (void)push_sqe(IORING_OP_NOP, 0, -1, 0, nullptr, 0, 0, kWakeupData);
}

// -- async entry points ------------------------------------------------------

IoHandle UringDisk::read_async(const File& f, std::uint64_t offset,
                               std::span<std::byte> out) {
  return submit_op(f, offset, out.data(), out.size(), /*is_write=*/false);
}

IoHandle UringDisk::write_async(const File& f, std::uint64_t offset,
                                std::span<const std::byte> data) {
  return submit_op(f, offset, const_cast<std::byte*>(data.data()), data.size(),
                   /*is_write=*/true);
}

IoHandle UringDisk::submit_op(const File& f, std::uint64_t offset,
                              std::byte* buf, std::size_t len, bool is_write) {
  if (!f.is_open()) {
    throw std::logic_error("fg::pdm::Disk: async request on a closed file");
  }
  auto* op = new Op;
  op->is_write = is_write;
  op->fd = f.fd();
  op->name = f.name();
  op->offset = offset;
  op->buf = buf;
  op->len = len;
  op->policy = retry_policy();
  op->handle = new_handle();
  {
    std::lock_guard<std::mutex> lock(reg_mutex_);
    auto it = file_slots_.find(op->fd);
    if (it != file_slots_.end()) op->file_slot = static_cast<int>(it->second);
  }
  IoHandle handle = op->handle;
  // The same failures the worker-pool path captures into the handle
  // (budget exhaustion, O_DIRECT misalignment) are captured here too —
  // wait() rethrows them, submission itself stays non-throwing.
  try {
    if (is_write) charge_write_budget(len);
    check_aligned(is_write ? "write" : "read", op->name, offset, len, buf);
  } catch (...) {
    finish_handle(handle, 0, std::current_exception());
    delete op;
    return handle;
  }
  {
    std::lock_guard<std::mutex> lock(op_mutex_);
    if (stopping_) {
      delete op;
      throw std::logic_error("fg::pdm::Disk: async request after shutdown");
    }
    if (!started_) {
      started_ = true;
      reaper_ = std::thread([this] { reaper_loop(); });
    }
    if (running_ >= static_cast<std::size_t>(cap_) || !pending_.empty()) {
      pending_.push_back(op);
      return handle;
    }
    ++running_;
  }
  launch_chain(op);
  return handle;
}

void UringDisk::set_io_workers(int n) {
  if (n < 1) {
    throw std::invalid_argument("fg::pdm::Disk::set_io_workers: need >= 1");
  }
  std::lock_guard<std::mutex> lock(op_mutex_);
  if (started_) {
    throw std::logic_error(
        "fg::pdm::Disk::set_io_workers: worker pool already started");
  }
  cap_ = std::min(n, static_cast<int>(kRingEntries / 2));
}

std::size_t UringDisk::io_queue_depth() const {
  std::lock_guard<std::mutex> lock(op_mutex_);
  return pending_.size() + running_;
}

// -- per-op state machine ----------------------------------------------------

void UringDisk::launch_chain(Op* op) {
  while (op != nullptr) {
    if (!start_attempt(op)) return;  // in flight on the ring now
    op = next_after(op);
  }
}

bool UringDisk::start_attempt(Op* op) {
  ++op->local.attempts;
  int node = -1;
  fault::Injector* inj = fault_injector(&node);
  const char* err_site = op->is_write ? fault::kDiskWriteError
                                      : fault::kDiskReadError;
  const char* short_site = op->is_write ? fault::kDiskWriteShort
                                        : fault::kDiskReadShort;
  if (inj != nullptr && inj->fire(err_site, node)) {
    return handle_transient(op);
  }
  const std::size_t remaining = op->len - op->total;
  op->injected_short = false;
  op->attempt_target = remaining;
  if (inj != nullptr && remaining > 1 && inj->fire(short_site, node)) {
    op->attempt_target = remaining / 2;
    op->injected_short = true;
  }
  op->attempt_done = 0;
  if (op->attempt_target == 0) return finish_attempt(op);
  return submit_transfer(op);
}

bool UringDisk::submit_transfer(Op* op) {
  std::byte* addr = op->buf + op->total + op->attempt_done;
  const std::size_t chunk =
      std::min(op->attempt_target - op->attempt_done, kMaxChunk);
  const std::uint64_t off = op->offset + op->total + op->attempt_done;
  const int bslot = buffer_slot_for(addr, chunk);
  std::uint8_t opcode;
  if (bslot >= 0) {
    opcode = op->is_write ? IORING_OP_WRITE_FIXED : IORING_OP_READ_FIXED;
  } else {
    opcode = op->is_write ? IORING_OP_WRITE : IORING_OP_READ;
  }
  std::uint8_t flags = 0;
  int fd = op->fd;
  const bool fixed_file = op->file_slot >= 0;
  if (fixed_file) {
    flags |= IOSQE_FIXED_FILE;
    fd = op->file_slot;
  }
  // After push_sqe publishes the SQE the op belongs to the ring: the
  // reaper may complete and delete it before this thread regains
  // control, so nothing below may dereference `op` on the success path.
  const int rc = push_sqe(opcode, flags, fd, off, addr,
                          static_cast<std::uint32_t>(chunk),
                          bslot >= 0 ? static_cast<std::uint16_t>(bslot) : 0,
                          reinterpret_cast<std::uint64_t>(op));
  if (rc < 0) {
    // The ring refused the submission outright; surface it like a failed
    // physical transfer (permanent — the retry layer only absorbs
    // injected transients, same as the pread/pwrite backends).
    complete_op(op, 0,
                std::make_exception_ptr(std::runtime_error(
                    std::string("fg::pdm::UringDisk::") +
                    (op->is_write ? "write" : "read") +
                    ": io_uring submit failed on " + op->name + ": " +
                    std::strerror(-rc))));
    return true;
  }
  if (fixed_file) ++fixed_file_ops_;
  if (bslot >= 0) ++fixed_buffer_ops_;
  return false;
}

bool UringDisk::handle_transient(Op* op) {
  if (++op->failures >= op->policy.max_attempts) {
    ++op->local.exhausted;
    merge_retry_stats(op->local);
    // Same text the synchronous path throws, so diagnostics match
    // across backends.
    complete_op(op, 0,
                std::make_exception_ptr(fault::TransientError(
                    std::string("fg::pdm::Disk::") +
                    (op->is_write ? "write" : "read") +
                    ": injected I/O error on " + op->name)));
    return true;
  }
  ++op->local.retries;
  op->retried = true;
  const util::Duration d =
      op->policy.backoff(op->failures, op->offset + op->total);
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
  if (ns <= 0) return start_attempt(op);
  // Backoff without a sleeping thread: the ring times the retry.
  op->backoff_ts.tv_sec = ns / 1'000'000'000;
  op->backoff_ts.tv_nsec = ns % 1'000'000'000;
  const int rc = push_sqe(IORING_OP_TIMEOUT, 0, -1, 0, &op->backoff_ts, 1, 0,
                          reinterpret_cast<std::uint64_t>(op) | 1u);
  if (rc < 0) return start_attempt(op);  // can't time it; retry inline
  return false;
}

bool UringDisk::finish_attempt(Op* op) {
  if (op->is_write) {
    note_write_attempt(op->attempt_done);
  } else {
    note_read_attempt(op->attempt_done);
  }
  op->total += op->attempt_done;
  op->failures = 0;  // a completed transfer resets the consecutive count
  if (op->injected_short && op->total < op->len) {
    ++op->local.retries;  // pick up where the truncated transfer stopped
    op->retried = true;
    return start_attempt(op);
  }
  if (op->retried) ++op->local.absorbed;
  merge_retry_stats(op->local);
  complete_op(op, op->is_write ? op->len : op->total, nullptr);
  return true;
}

void UringDisk::complete_op(Op* op, std::size_t bytes,
                            std::exception_ptr error) {
  // Drop the inflight count before publishing completion: a caller
  // returning from wait() must observe io_queue_depth() == 0 once the
  // last request is done.
  {
    std::lock_guard<std::mutex> lock(op_mutex_);
    --running_;
  }
  finish_handle(op->handle, bytes, error);
}

UringDisk::Op* UringDisk::next_after(Op* op) {
  Op* next = nullptr;
  {
    std::lock_guard<std::mutex> lock(op_mutex_);
    if (!pending_.empty()) {
      next = pending_.front();
      pending_.pop_front();
      ++running_;
    }
  }
  delete op;
  return next;
}

// -- completion reaping ------------------------------------------------------

void UringDisk::process_cqe(std::uint64_t user_data, std::int32_t res) {
  if (user_data == kWakeupData) return;
  Op* op = reinterpret_cast<Op*>(user_data & ~std::uint64_t{1});
  op_handoff_acquire(op);
  bool finished;
  if ((user_data & 1) != 0) {
    finished = start_attempt(op);  // backoff elapsed (res is -ETIME)
  } else if (res < 0) {
    if (res == -EINTR || res == -EAGAIN) {
      finished = submit_transfer(op);  // re-issue the interrupted chunk
    } else {
      const char* what = op->is_write ? "write" : "read";
      complete_op(op, 0,
                  std::make_exception_ptr(std::runtime_error(
                      std::string("fg::pdm::UringDisk::") + what + ": " +
                      what + " failed on " + op->name + ": " +
                      std::strerror(-res))));
      finished = true;
    }
  } else if (res == 0 && !op->is_write) {
    // EOF inside the attempt: a real short read wins over an injected one.
    op->injected_short = false;
    finished = finish_attempt(op);
  } else {
    op->attempt_done += static_cast<std::size_t>(res);
    if (op->attempt_done < op->attempt_target) {
      finished = submit_transfer(op);  // keep filling, like the pread loop
    } else {
      finished = finish_attempt(op);
    }
  }
  if (finished) launch_chain(next_after(op));
}

void UringDisk::reaper_loop() {
  auto* cqes = static_cast<io_uring_cqe*>(cqes_);
  for (;;) {
    std::uint32_t head = ring_load_relaxed(cq_head_);
    std::uint32_t tail = ring_load_acquire(cq_tail_);
    if (head == tail) {
      {
        std::lock_guard<std::mutex> lock(op_mutex_);
        if (stopping_ && running_ == 0 && pending_.empty()) return;
      }
      (void)sys_uring_enter(ring_fd_, 0, 1, IORING_ENTER_GETEVENTS);
      continue;
    }
    while (head != tail) {
      const io_uring_cqe& cqe = cqes[head & cq_mask_];
      const std::uint64_t user_data = cqe.user_data;
      const std::int32_t res = cqe.res;
      ++head;
      ring_store_release(cq_head_, head);  // free the slot before the work
      process_cqe(user_data, res);
      tail = ring_load_acquire(cq_tail_);
    }
  }
}

// -- registered resources ----------------------------------------------------

int UringDisk::create_once(const std::filesystem::path& path) {
  const int fd = NativeDisk::create_once(path);
  register_file_fd(fd);
  return fd;
}

int UringDisk::open_once(const std::filesystem::path& path) {
  const int fd = NativeDisk::open_once(path);
  register_file_fd(fd);
  return fd;
}

void UringDisk::closing(const File& f) {
  unregister_file_fd(f.fd());
  NativeDisk::closing(f);
}

void UringDisk::register_file_fd(int fd) noexcept {
  if (fd < 0) return;
  std::lock_guard<std::mutex> lock(reg_mutex_);
  if (!files_enabled_) return;
  unsigned slot;
  const auto it = file_slots_.find(fd);
  const bool fresh = it == file_slots_.end();
  if (!fresh) {
    slot = it->second;  // fd number reused: refresh the slot in place
  } else if (!free_file_slots_.empty()) {
    slot = free_file_slots_.back();
  } else {
    return;  // table full — this file takes the plain-fd path
  }
  int fd_value = fd;
  io_uring_rsrc_update upd{};
  upd.offset = slot;
  upd.data = reinterpret_cast<std::uint64_t>(&fd_value);
  if (sys_uring_register(ring_fd_, IORING_REGISTER_FILES_UPDATE, &upd, 1) ==
      1) {
    if (fresh) {
      free_file_slots_.pop_back();
      file_slots_.emplace(fd, slot);
    }
  } else if (!fresh) {
    // The stale mapping is now unusable; forget it rather than risk it.
    file_slots_.erase(it);
    free_file_slots_.push_back(slot);
  }
}

void UringDisk::unregister_file_fd(int fd) noexcept {
  std::lock_guard<std::mutex> lock(reg_mutex_);
  const auto it = file_slots_.find(fd);
  if (it == file_slots_.end()) return;
  int minus_one = -1;
  io_uring_rsrc_update upd{};
  upd.offset = it->second;
  upd.data = reinterpret_cast<std::uint64_t>(&minus_one);
  (void)sys_uring_register(ring_fd_, IORING_REGISTER_FILES_UPDATE, &upd, 1);
  free_file_slots_.push_back(it->second);
  file_slots_.erase(it);
}

bool UringDisk::pin_buffer(std::span<std::byte> buf) {
  if (buf.empty()) return false;
  if (reinterpret_cast<std::uintptr_t>(buf.data()) % kDirectAlign != 0) {
    return false;  // "where alignment permits": page-aligned buffers only
  }
  std::lock_guard<std::mutex> lock(reg_mutex_);
  if (!buffers_enabled_ || free_buffer_slots_.empty()) return false;
  for (const PinnedBuffer& p : pinned_) {
    if (p.ptr == buf.data() && p.len == buf.size()) return true;
  }
  const unsigned slot = free_buffer_slots_.back();
  iovec iv{buf.data(), buf.size()};
  io_uring_rsrc_update2 upd{};
  upd.offset = slot;
  upd.data = reinterpret_cast<std::uint64_t>(&iv);
  upd.nr = 1;
  if (sys_uring_register(ring_fd_, IORING_REGISTER_BUFFERS_UPDATE, &upd,
                         sizeof(upd)) != 1) {
    return false;
  }
  free_buffer_slots_.pop_back();
  pinned_.push_back(PinnedBuffer{buf.data(), buf.size(), slot});
  return true;
}

void UringDisk::unpin_buffer(std::span<std::byte> buf) noexcept {
  std::lock_guard<std::mutex> lock(reg_mutex_);
  for (auto it = pinned_.begin(); it != pinned_.end(); ++it) {
    if (it->ptr != buf.data() || it->len != buf.size()) continue;
    iovec iv{nullptr, 0};
    io_uring_rsrc_update2 upd{};
    upd.offset = it->slot;
    upd.data = reinterpret_cast<std::uint64_t>(&iv);
    upd.nr = 1;
    (void)sys_uring_register(ring_fd_, IORING_REGISTER_BUFFERS_UPDATE, &upd,
                             sizeof(upd));
    free_buffer_slots_.push_back(it->slot);
    pinned_.erase(it);
    return;
  }
}

int UringDisk::buffer_slot_for(const void* addr, std::size_t len) const {
  std::lock_guard<std::mutex> lock(reg_mutex_);
  const auto* a = static_cast<const std::byte*>(addr);
  for (const PinnedBuffer& p : pinned_) {
    if (a >= p.ptr && a + len <= p.ptr + p.len) {
      return static_cast<int>(p.slot);
    }
  }
  return -1;
}

}  // namespace fg::pdm
