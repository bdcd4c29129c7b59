#include "pdm/spindle_disk.hpp"

#include <thread>

namespace fg::pdm {

SpindleDisk::SpindleDisk(std::filesystem::path dir, util::LatencyModel model)
    : NativeDisk(std::move(dir)) {
  set_model(model);
}

SpindleDisk::~SpindleDisk() {
  // Join the I/O workers before our members go away: in-flight requests
  // dispatch through our virtual hooks.
  stop_io();
}

void SpindleDisk::closing(const File& f) {
  std::lock_guard<std::mutex> lock(spindle_mutex_);
  if (head_open_id_ == f.open_id()) {
    head_open_id_ = 0;  // the head position is no longer meaningful
  }
}

void SpindleDisk::set_seek_aware(bool on) {
  Disk::set_seek_aware(on);
  std::lock_guard<std::mutex> lock(spindle_mutex_);
  head_open_id_ = 0;
}

void SpindleDisk::charge_locked(const File& f, std::uint64_t offset,
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
  record_busy(d);
  if (d > util::Duration::zero()) std::this_thread::sleep_for(d);
}

std::size_t SpindleDisk::read_once(const File& f, std::uint64_t offset,
                                   std::span<std::byte> out) {
  std::lock_guard<std::mutex> lock(spindle_mutex_);
  const std::size_t n = NativeDisk::read_once(f, offset, out);
  charge_locked(f, offset, n);
  return n;
}

std::size_t SpindleDisk::write_once(const File& f, std::uint64_t offset,
                                    std::span<const std::byte> data) {
  std::lock_guard<std::mutex> lock(spindle_mutex_);
  const std::size_t n = NativeDisk::write_once(f, offset, data);
  charge_locked(f, offset, n);
  return n;
}

void SpindleDisk::sync_once(const File& f) {
  std::lock_guard<std::mutex> lock(spindle_mutex_);
  NativeDisk::sync_once(f);
}

}  // namespace fg::pdm
