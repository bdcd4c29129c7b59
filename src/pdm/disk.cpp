#include "pdm/disk.hpp"

#include "obs/span.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <utility>

namespace fg::pdm {

namespace {

std::string errno_suffix() {
  return std::string(": ") + std::strerror(errno);
}

}  // namespace

const char* to_string(DiskBackend b) noexcept {
  switch (b) {
    case DiskBackend::kStdio: return "stdio";
    case DiskBackend::kNative: return "native";
  }
  return "?";
}

DiskBackend parse_disk_backend(const std::string& name) {
  if (name == "stdio") return DiskBackend::kStdio;
  if (name == "native") return DiskBackend::kNative;
  throw std::invalid_argument(
      "fg::pdm::parse_disk_backend: expected stdio|native, got '" + name +
      "'");
}

std::unique_ptr<Disk> make_disk(DiskBackend backend, std::filesystem::path dir,
                                util::LatencyModel model, bool direct) {
  return std::make_unique<Disk>(backend, std::move(dir), model, direct);
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

// -- Disk: lifecycle and knobs ----------------------------------------------

Disk::Disk(DiskBackend backend, std::filesystem::path dir,
           util::LatencyModel model, bool direct)
    : backend_(backend), direct_(direct), dir_(std::move(dir)), model_(model) {
  if (direct_ && backend_ != DiskBackend::kNative) {
    throw std::invalid_argument(
        "fg::pdm::Disk: O_DIRECT requires the native backend");
  }
#ifndef O_DIRECT
  if (direct_) {
    throw std::runtime_error(
        "fg::pdm::Disk: O_DIRECT is not available on this platform");
  }
#endif
  std::filesystem::create_directories(dir_);
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
  {
    std::lock_guard<std::mutex> lock(config_mutex_);
    seek_aware_ = on;
  }
  std::lock_guard<std::mutex> lock(spindle_mutex_);
  head_open_id_ = 0;
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

// -- Disk: the spindle --------------------------------------------------------

std::unique_lock<std::mutex> Disk::spindle() {
  if (backend_ != DiskBackend::kStdio) return {};
  return std::unique_lock<std::mutex>(spindle_mutex_);
}

void Disk::charge_locked(const File& f, std::uint64_t offset,
                         std::size_t bytes) {
  const bool contiguous = seek_aware() && head_open_id_ == f.open_id() &&
                          head_end_ == offset;
  head_open_id_ = f.open_id();
  head_end_ = offset + bytes;
  const util::LatencyModel m = model();
  if (m.is_free()) return;
  util::Duration d = m.cost(bytes);
  if (contiguous) d -= m.setup();  // the head is already there
  if (d < util::Duration::zero()) d = util::Duration::zero();
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.busy += d;
  }
  if (d > util::Duration::zero()) std::this_thread::sleep_for(d);
}

// -- Disk: files ------------------------------------------------------------

int Disk::open_path(const std::filesystem::path& path, int extra_flags) const {
  int flags = O_RDWR | O_CLOEXEC | extra_flags;
#ifdef O_DIRECT
  if (direct_) flags |= O_DIRECT;
#endif
  const int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) {
    if (direct_ && errno == EINVAL) {
      throw std::runtime_error("fg::pdm::Disk: cannot open " + path.string() +
                               " with O_DIRECT (filesystem does not support "
                               "direct I/O)");
    }
    throw std::runtime_error("fg::pdm::Disk: cannot open " + path.string() +
                             errno_suffix());
  }
  return fd;
}

// The name is copied before the open so that nothing can throw while the
// new fd has no owner.
File Disk::create(const std::string& name) {
  std::string owned = name;
  return File(open_path(dir_ / name, O_CREAT | O_TRUNC),
              next_open_id_.fetch_add(1), std::move(owned));
}

File Disk::open(const std::string& name) {
  std::string owned = name;
  return File(open_path(dir_ / name, 0), next_open_id_.fetch_add(1),
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
  {
    std::lock_guard<std::mutex> lock(spindle_mutex_);
    if (head_open_id_ == f.open_id()) {
      head_open_id_ = 0;  // the head position is no longer meaningful
    }
  }
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
  struct stat st;
  if (::fstat(f.fd(), &st) != 0) {
    throw std::runtime_error("fg::pdm::Disk::size: fstat failed on " +
                             f.name() + errno_suffix());
  }
  return static_cast<std::uint64_t>(st.st_size);
}

void Disk::sync(const File& f) {
  if (!f.is_open()) throw std::logic_error("fg::pdm::Disk::sync: closed file");
  check_flush_fault("sync");
  const auto lock = spindle();
  if (::fdatasync(f.fd()) != 0) {
    throw std::runtime_error("fg::pdm::Disk::sync: fdatasync failed on " +
                             f.name() + errno_suffix());
  }
}

void Disk::check_aligned(const char* what, const std::string& name,
                         std::uint64_t offset, std::size_t bytes,
                         const void* buf) const {
  if (!direct_) return;
  if (offset % kDirectAlign != 0 || bytes % kDirectAlign != 0 ||
      reinterpret_cast<std::uintptr_t>(buf) % kDirectAlign != 0) {
    throw std::invalid_argument(
        std::string("fg::pdm::Disk::") + what + " on " + name +
        ": O_DIRECT requires offset, length, and buffer aligned to " +
        std::to_string(kDirectAlign) + " bytes (offset=" +
        std::to_string(offset) + ", length=" + std::to_string(bytes) + ")");
  }
}

// -- Disk: read/write (fault injection + retry loops) -----------------------

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
  check_aligned("read", f.name(), offset, span.size(), span.data());
  std::size_t n = 0;
  {
    auto lock = spindle();
    while (n < span.size()) {
      const ssize_t r = ::pread(f.fd(), span.data() + n, span.size() - n,
                                static_cast<off_t>(offset + n));
      if (r < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error("fg::pdm::Disk::read: read failed on " +
                                 f.name() + errno_suffix());
      }
      if (r == 0) break;  // EOF
      n += static_cast<std::size_t>(r);
    }
    if (lock.owns_lock()) charge_locked(f, offset, n);
  }
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
  check_aligned("write", f.name(), offset, span.size(), span.data());
  std::size_t n = 0;
  {
    auto lock = spindle();
    while (n < span.size()) {
      const ssize_t w = ::pwrite(f.fd(), span.data() + n, span.size() - n,
                                 static_cast<off_t>(offset + n));
      if (w < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error("fg::pdm::Disk::write: write failed on " +
                                 f.name() + errno_suffix());
      }
      n += static_cast<std::size_t>(w);
    }
    if (lock.owns_lock()) charge_locked(f, offset, n);
  }
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

}  // namespace fg::pdm
