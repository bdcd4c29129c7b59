#include "pdm/workspace.hpp"

#include "util/rng.hpp"

#include <atomic>
#include <chrono>

namespace fg::pdm {

namespace {

std::filesystem::path unique_root() {
  // Unique per process and per call; no reliance on std::tmpnam.
  static std::atomic<std::uint64_t> counter{0};
  const auto pid = static_cast<std::uint64_t>(::getpid());
  const auto tick = static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  const std::uint64_t nonce =
      util::mix64(pid ^ tick ^ (counter.fetch_add(1) << 48));
  char name[64];
  std::snprintf(name, sizeof name, "fg_pdm_%016llx",
                static_cast<unsigned long long>(nonce));
  return std::filesystem::temp_directory_path() / name;
}

}  // namespace

Workspace::Workspace(int nodes, util::LatencyModel disk_model,
                     DiskBackend backend, bool direct)
    : Workspace(unique_root(), nodes, disk_model, backend, direct) {}

Workspace::Workspace(std::filesystem::path root, int nodes,
                     util::LatencyModel disk_model, DiskBackend backend,
                     bool direct)
    : root_(std::move(root)), backend_(backend) {
  std::filesystem::create_directories(root_);
  disks_.reserve(static_cast<std::size_t>(nodes));
  for (int i = 0; i < nodes; ++i) {
    disks_.push_back(make_disk(backend, root_ / ("node" + std::to_string(i)),
                               disk_model, direct));
    disks_.back()->set_node(i);
  }
}

Workspace::~Workspace() {
  if (!keep_) {
    std::error_code ec;  // best-effort cleanup; never throw from a dtor
    std::filesystem::remove_all(root_, ec);
  }
}

util::Duration Workspace::total_disk_busy() const {
  util::Duration d{};
  for (const auto& disk : disks_) d += disk->stats().busy;
  return d;
}

}  // namespace fg::pdm
