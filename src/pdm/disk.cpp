#include "pdm/disk.hpp"

#include "obs/span.hpp"
#include "pdm/native_disk.hpp"
#include "pdm/spindle_disk.hpp"
#include "pdm/uring_disk.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"

#include <unistd.h>

#include <condition_variable>
#include <stdexcept>
#include <thread>
#include <utility>

namespace fg::pdm {

const char* to_string(DiskBackend b) noexcept {
  switch (b) {
    case DiskBackend::kStdio: return "stdio";
    case DiskBackend::kNative: return "native";
    case DiskBackend::kUring: return "uring";
  }
  return "?";
}

DiskBackend parse_disk_backend(const std::string& name) {
  if (name == "stdio") return DiskBackend::kStdio;
  if (name == "native") return DiskBackend::kNative;
  if (name == "uring") return DiskBackend::kUring;
  throw std::invalid_argument(
      "fg::pdm::parse_disk_backend: expected stdio|native|uring, got '" +
      name + "'");
}

std::unique_ptr<Disk> make_disk(DiskBackend backend, std::filesystem::path dir,
                                util::LatencyModel model, bool direct) {
  switch (backend) {
    case DiskBackend::kStdio: {
      if (direct) {
        throw std::invalid_argument(
            "fg::pdm::make_disk: O_DIRECT requires the native backend");
      }
      return std::make_unique<SpindleDisk>(std::move(dir), model);
    }
    case DiskBackend::kNative: {
      NativeDiskOptions opts;
      opts.direct = direct;
      auto d = std::make_unique<NativeDisk>(std::move(dir), opts);
      d->set_model(model);  // stored for symmetry; never charged
      return d;
    }
    case DiskBackend::kUring: {
      if (!UringDisk::available()) {
        FG_LOG(kWarn) << "fg::pdm::make_disk: io_uring unavailable on this "
                         "system; falling back to the native backend";
        return make_disk(DiskBackend::kNative, std::move(dir), model, direct);
      }
      NativeDiskOptions opts;
      opts.direct = direct;
      auto d = std::make_unique<UringDisk>(std::move(dir), opts);
      d->set_model(model);
      return d;
    }
  }
  throw std::invalid_argument("fg::pdm::make_disk: unknown backend");
}

// -- ShortReadError ---------------------------------------------------------

ShortReadError::ShortReadError(const std::string& file, std::uint64_t offset,
                               std::size_t requested, std::size_t got)
    : std::runtime_error("fg::pdm: short read on " + file + " at offset " +
                         std::to_string(offset) + ": wanted " +
                         std::to_string(requested) + " bytes, got " +
                         std::to_string(got) +
                         " — read past EOF of a planned layout"),
      file_(file),
      offset_(offset),
      requested_(requested),
      got_(got) {}

// -- File -------------------------------------------------------------------

bool File::close_fd() noexcept {
  const int fd = std::exchange(fd_, -1);
  return fd < 0 || ::close(fd) == 0;
}

File::~File() {
  // Destructors can't throw; a failed close here means written bytes may
  // be lost.  Callers who care route through Disk::close instead.
  if (!close_fd()) {
    FG_LOG(kError) << "fg::pdm::File: close failed on " << name_
                   << "; written bytes may be lost";
  }
}

File::File(File&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      open_id_(other.open_id_),
      name_(std::move(other.name_)) {}

File& File::operator=(File&& other) noexcept {
  if (this != &other) {
    if (!close_fd()) {
      FG_LOG(kError) << "fg::pdm::File: close failed on " << name_
                     << "; written bytes may be lost";
    }
    fd_ = std::exchange(other.fd_, -1);
    open_id_ = other.open_id_;
    name_ = std::move(other.name_);
  }
  return *this;
}

// -- IoHandle ---------------------------------------------------------------

struct IoHandle::State {
  std::mutex mutex;
  std::condition_variable cv;
  bool done{false};
  std::size_t bytes{0};
  std::exception_ptr error;
};

bool IoHandle::done() const {
  if (!state_) return false;
  std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->done;
}

std::size_t IoHandle::wait() {
  if (!state_) {
    throw std::logic_error("fg::pdm::IoHandle::wait: empty handle");
  }
  std::unique_lock<std::mutex> lock(state_->mutex);
  state_->cv.wait(lock, [this] { return state_->done; });
  if (state_->error) std::rethrow_exception(state_->error);
  return state_->bytes;
}

// -- Disk: lifecycle and knobs ----------------------------------------------

struct Disk::AsyncRequest {
  bool is_write{false};
  const File* file{nullptr};
  std::uint64_t offset{0};
  std::span<std::byte> read_buf;
  std::span<const std::byte> write_buf;
  std::shared_ptr<IoHandle::State> state;
};

Disk::Disk(std::filesystem::path dir) : dir_(std::move(dir)) {
  std::filesystem::create_directories(dir_);
}

Disk::~Disk() {
  // Backstop only: backend destructors must already have called
  // stop_io(), because in-flight requests dispatch through their hooks.
  stop_io();
}

util::LatencyModel Disk::model() const {
  std::lock_guard<std::mutex> lock(config_mutex_);
  return model_;
}

void Disk::set_model(util::LatencyModel m) {
  std::lock_guard<std::mutex> lock(config_mutex_);
  model_ = m;
}

void Disk::set_seek_aware(bool on) {
  std::lock_guard<std::mutex> lock(config_mutex_);
  seek_aware_ = on;
}

bool Disk::seek_aware() const {
  std::lock_guard<std::mutex> lock(config_mutex_);
  return seek_aware_;
}

void Disk::set_fault_injector(fault::Injector* inj, int node) {
  std::lock_guard<std::mutex> lock(config_mutex_);
  injector_ = inj;
  fault_node_ = node;
}

void Disk::set_write_budget(util::ByteBudget* budget) {
  std::lock_guard<std::mutex> lock(config_mutex_);
  write_budget_ = budget;
}

void Disk::set_retry_policy(util::RetryPolicy p) {
  std::lock_guard<std::mutex> lock(config_mutex_);
  retry_policy_ = p;
}

util::RetryPolicy Disk::retry_policy() const {
  std::lock_guard<std::mutex> lock(config_mutex_);
  return retry_policy_;
}

util::RetryStats Disk::retry_stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return retry_stats_;
}

IoStats Disk::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

void Disk::reset_stats() {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  stats_ = IoStats{};
  retry_stats_ = util::RetryStats{};
}

void Disk::record_busy(util::Duration d) {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  stats_.busy += d;
}

// -- Disk: files ------------------------------------------------------------

// The name is copied before the open so that nothing can throw while the
// new fd has no owner.
File Disk::create(const std::string& name) {
  std::string owned = name;
  return File(create_once(dir_ / name), next_open_id_.fetch_add(1),
              std::move(owned));
}

File Disk::open(const std::string& name) {
  std::string owned = name;
  return File(open_once(dir_ / name), next_open_id_.fetch_add(1),
              std::move(owned));
}

bool Disk::exists(const std::string& name) const {
  return std::filesystem::exists(dir_ / name);
}

void Disk::remove(const std::string& name) {
  std::filesystem::remove(dir_ / name);
}

void Disk::close(File& f) {
  if (!f.is_open()) return;
  closing(f);
  if (!f.close_fd()) {
    throw std::runtime_error("fg::pdm::Disk::close: close failed on " +
                             f.name());
  }
}

void Disk::check_flush_fault(const char* what) const {
  fault::Injector* inj;
  int fn;
  {
    std::lock_guard<std::mutex> lock(config_mutex_);
    inj = injector_;
    fn = fault_node_;
  }
  if (inj && inj->fire(fault::kDiskFlushError, fn)) {
    throw std::runtime_error(std::string("fg::pdm::Disk::") + what +
                             ": injected flush failure");
  }
}

std::uint64_t Disk::size(const File& f) const {
  if (!f.is_open()) throw std::logic_error("fg::pdm::Disk::size: closed file");
  check_flush_fault("size");
  return size_once(f);
}

void Disk::sync(const File& f) {
  if (!f.is_open()) throw std::logic_error("fg::pdm::Disk::sync: closed file");
  check_flush_fault("sync");
  sync_once(f);
}

// -- Disk: synchronous read/write (fault injection + retry loops) -----------

std::size_t Disk::attempt_read(const File& f, std::uint64_t offset,
                               std::span<std::byte> out,
                               bool* injected_short) {
  fault::Injector* inj;
  int fn;
  {
    std::lock_guard<std::mutex> lock(config_mutex_);
    inj = injector_;
    fn = fault_node_;
  }
  if (inj && inj->fire(fault::kDiskReadError, fn)) {
    throw fault::TransientError("fg::pdm::Disk::read: injected I/O error on " +
                                f.name());
  }
  std::span<std::byte> span = out;
  if (inj && out.size() > 1 && inj->fire(fault::kDiskReadShort, fn)) {
    span = out.first(out.size() / 2);
    *injected_short = true;
  }
  const std::size_t n = read_once(f, offset, span);
  if (n != span.size()) {
    *injected_short = false;  // real EOF inside the span wins
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.read_ops;
    stats_.bytes_read += n;
  }
  return n;
}

std::size_t Disk::read(const File& f, std::uint64_t offset,
                       std::span<std::byte> out) {
  if (!f.is_open()) throw std::logic_error("fg::pdm::Disk::read: closed file");
  // Whole-operation span, retries included: the timeline shows what the
  // calling stage actually waited for.  No-op unless the calling thread
  // runs under a traced pipeline.
  obs::ScopedSpan span(obs::SpanKind::kDiskRead,
                       static_cast<std::uint32_t>(node_ < 0 ? 0 : node_),
                       out.size());
  const util::RetryPolicy policy = retry_policy();
  util::RetryStats local;
  std::size_t total = 0;
  int failures = 0;
  bool retried = false;
  for (;;) {
    ++local.attempts;
    bool injected_short = false;
    try {
      total +=
          attempt_read(f, offset + total, out.subspan(total), &injected_short);
    } catch (const fault::TransientError&) {
      if (++failures >= policy.max_attempts) {
        ++local.exhausted;
        std::lock_guard<std::mutex> lock(stats_mutex_);
        retry_stats_.merge(local);
        throw;
      }
      ++local.retries;
      retried = true;
      {
        obs::ScopedSpan backoff(obs::SpanKind::kDiskRetry,
                                static_cast<std::uint32_t>(node_ < 0 ? 0
                                                                     : node_));
        std::this_thread::sleep_for(policy.backoff(failures, offset + total));
      }
      continue;
    }
    failures = 0;  // a completed transfer resets the consecutive count
    if (injected_short && total < out.size()) {
      ++local.retries;  // pick up where the truncated transfer stopped
      retried = true;
      continue;
    }
    if (retried) ++local.absorbed;
    std::lock_guard<std::mutex> lock(stats_mutex_);
    retry_stats_.merge(local);
    return total;
  }
}

void Disk::read_exact(const File& f, std::uint64_t offset,
                      std::span<std::byte> out) {
  const std::size_t n = read(f, offset, out);
  if (n != out.size()) {
    throw ShortReadError(f.name(), offset, out.size(), n);
  }
}

std::size_t Disk::attempt_write(const File& f, std::uint64_t offset,
                                std::span<const std::byte> data,
                                bool* injected_short) {
  fault::Injector* inj;
  int fn;
  {
    std::lock_guard<std::mutex> lock(config_mutex_);
    inj = injector_;
    fn = fault_node_;
  }
  if (inj && inj->fire(fault::kDiskWriteError, fn)) {
    throw fault::TransientError("fg::pdm::Disk::write: injected I/O error on " +
                                f.name());
  }
  std::span<const std::byte> span = data;
  if (inj && data.size() > 1 && inj->fire(fault::kDiskWriteShort, fn)) {
    span = data.first(data.size() / 2);
    *injected_short = true;
  }
  const std::size_t n = write_once(f, offset, span);
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.write_ops;
    stats_.bytes_written += n;
  }
  return n;
}

void Disk::write(const File& f, std::uint64_t offset,
                 std::span<const std::byte> data) {
  if (!f.is_open()) throw std::logic_error("fg::pdm::Disk::write: closed file");
  // Quota first, before any physical attempt: the charge covers the
  // whole span once, no matter how many retries the transfer takes, and
  // an overdrawn budget surfaces as QuotaExceeded (permanent — the retry
  // loop below only absorbs TransientError).
  util::ByteBudget* budget;
  {
    std::lock_guard<std::mutex> lock(config_mutex_);
    budget = write_budget_;
  }
  if (budget != nullptr) budget->charge(data.size(), "disk write");
  obs::ScopedSpan span(obs::SpanKind::kDiskWrite,
                       static_cast<std::uint32_t>(node_ < 0 ? 0 : node_),
                       data.size());
  const util::RetryPolicy policy = retry_policy();
  util::RetryStats local;
  std::size_t total = 0;
  int failures = 0;
  bool retried = false;
  for (;;) {
    ++local.attempts;
    bool injected_short = false;
    try {
      total +=
          attempt_write(f, offset + total, data.subspan(total), &injected_short);
    } catch (const fault::TransientError&) {
      if (++failures >= policy.max_attempts) {
        ++local.exhausted;
        std::lock_guard<std::mutex> lock(stats_mutex_);
        retry_stats_.merge(local);
        throw;
      }
      ++local.retries;
      retried = true;
      {
        obs::ScopedSpan backoff(obs::SpanKind::kDiskRetry,
                                static_cast<std::uint32_t>(node_ < 0 ? 0
                                                                     : node_));
        std::this_thread::sleep_for(policy.backoff(failures, offset + total));
      }
      continue;
    }
    failures = 0;
    if (injected_short && total < data.size()) {
      ++local.retries;  // finish the truncated transfer
      retried = true;
      continue;
    }
    if (retried) ++local.absorbed;
    std::lock_guard<std::mutex> lock(stats_mutex_);
    retry_stats_.merge(local);
    return;
  }
}

// -- Disk: async request path -----------------------------------------------

void Disk::set_io_workers(int n) {
  if (n < 1) {
    throw std::invalid_argument("fg::pdm::Disk::set_io_workers: need >= 1");
  }
  std::lock_guard<std::mutex> lock(io_mutex_);
  if (!io_threads_.empty()) {
    throw std::logic_error(
        "fg::pdm::Disk::set_io_workers: worker pool already started");
  }
  io_workers_ = n;
}

std::size_t Disk::io_queue_depth() const {
  std::lock_guard<std::mutex> lock(io_mutex_);
  return io_queue_.size() + io_inflight_;
}

IoHandle Disk::submit(AsyncRequest req) {
  if (!req.file->is_open()) {
    throw std::logic_error("fg::pdm::Disk: async request on a closed file");
  }
  req.state = std::make_shared<IoHandle::State>();
  IoHandle handle(req.state);
  {
    std::lock_guard<std::mutex> lock(io_mutex_);
    if (io_stop_) {
      throw std::logic_error("fg::pdm::Disk: async request after shutdown");
    }
    if (io_threads_.empty()) {
      io_threads_.reserve(static_cast<std::size_t>(io_workers_));
      for (int i = 0; i < io_workers_; ++i) {
        io_threads_.emplace_back([this] { io_worker(); });
      }
    }
    io_queue_.push_back(std::move(req));
  }
  io_cv_.notify_one();
  return handle;
}

IoHandle Disk::read_async(const File& f, std::uint64_t offset,
                          std::span<std::byte> out) {
  AsyncRequest req;
  req.is_write = false;
  req.file = &f;
  req.offset = offset;
  req.read_buf = out;
  return submit(std::move(req));
}

IoHandle Disk::write_async(const File& f, std::uint64_t offset,
                           std::span<const std::byte> data) {
  AsyncRequest req;
  req.is_write = true;
  req.file = &f;
  req.offset = offset;
  req.write_buf = data;
  return submit(std::move(req));
}

void Disk::io_worker() {
  for (;;) {
    AsyncRequest req;
    {
      std::unique_lock<std::mutex> lock(io_mutex_);
      io_cv_.wait(lock, [this] { return io_stop_ || !io_queue_.empty(); });
      if (io_queue_.empty()) return;  // stopped and drained
      req = std::move(io_queue_.front());
      io_queue_.pop_front();
      ++io_inflight_;
    }
    std::size_t bytes = 0;
    std::exception_ptr error;
    try {
      if (req.is_write) {
        write(*req.file, req.offset, req.write_buf);
        bytes = req.write_buf.size();
      } else {
        bytes = read(*req.file, req.offset, req.read_buf);
      }
    } catch (...) {
      error = std::current_exception();
    }
    // Drop the inflight count before publishing completion: a caller
    // returning from wait() must observe io_queue_depth() == 0 once the
    // last request is done.
    {
      std::lock_guard<std::mutex> lock(io_mutex_);
      --io_inflight_;
    }
    {
      std::lock_guard<std::mutex> lock(req.state->mutex);
      req.state->bytes = bytes;
      req.state->error = error;
      req.state->done = true;
    }
    req.state->cv.notify_all();
  }
}

// -- Disk: subclass async-path support ---------------------------------------

fault::Injector* Disk::fault_injector(int* node_out) const {
  std::lock_guard<std::mutex> lock(config_mutex_);
  if (node_out != nullptr) *node_out = fault_node_;
  return injector_;
}

void Disk::note_read_attempt(std::size_t bytes) {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ++stats_.read_ops;
  stats_.bytes_read += bytes;
}

void Disk::note_write_attempt(std::size_t bytes) {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ++stats_.write_ops;
  stats_.bytes_written += bytes;
}

void Disk::merge_retry_stats(const util::RetryStats& s) {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  retry_stats_.merge(s);
}

void Disk::charge_write_budget(std::size_t bytes) {
  util::ByteBudget* budget;
  {
    std::lock_guard<std::mutex> lock(config_mutex_);
    budget = write_budget_;
  }
  if (budget != nullptr) budget->charge(bytes, "disk write");
}

IoHandle Disk::new_handle() {
  return IoHandle(std::make_shared<IoHandle::State>());
}

void Disk::finish_handle(const IoHandle& h, std::size_t bytes,
                         std::exception_ptr error) noexcept {
  {
    std::lock_guard<std::mutex> lock(h.state_->mutex);
    h.state_->bytes = bytes;
    h.state_->error = error;
    h.state_->done = true;
  }
  h.state_->cv.notify_all();
}

void Disk::stop_io() noexcept {
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(io_mutex_);
    io_stop_ = true;
    threads.swap(io_threads_);
  }
  io_cv_.notify_all();
  for (auto& t : threads) t.join();  // workers drain the queue, then exit
}

}  // namespace fg::pdm
