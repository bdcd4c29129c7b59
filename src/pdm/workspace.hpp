// A Workspace owns the directory tree backing a simulated cluster's
// disks: <root>/node0, <root>/node1, ...  It creates a unique root under
// the system temp directory (or a caller-supplied path) and removes the
// tree on destruction unless told to keep it.
#pragma once

#include "pdm/disk.hpp"

#include <filesystem>
#include <memory>
#include <vector>

namespace fg::pdm {

class Workspace {
 public:
  /// Create a workspace with one Disk per node under a fresh unique
  /// directory in the system temp dir.
  Workspace(int nodes, util::LatencyModel disk_model = util::LatencyModel::free(),
            DiskBackend backend = DiskBackend::kStdio, bool direct = false);

  /// Create under an explicit root (created if needed; still removed on
  /// destruction unless keep() is called).
  Workspace(std::filesystem::path root, int nodes,
            util::LatencyModel disk_model,
            DiskBackend backend = DiskBackend::kStdio, bool direct = false);

  ~Workspace();

  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  int nodes() const noexcept { return static_cast<int>(disks_.size()); }
  DiskBackend backend() const noexcept { return backend_; }
  Disk& disk(int node) { return *disks_.at(static_cast<std::size_t>(node)); }
  const Disk& disk(int node) const {
    return *disks_.at(static_cast<std::size_t>(node));
  }
  const std::filesystem::path& root() const noexcept { return root_; }

  /// Leave the directory tree on disk when the workspace is destroyed.
  void keep() noexcept { keep_ = true; }

  /// Sum of modeled busy time across all disks (for reports).
  util::Duration total_disk_busy() const;

  /// Swap the latency model on every disk at once.
  void set_disk_model(util::LatencyModel m) {
    for (auto& d : disks_) d->set_model(m);
  }

  /// Toggle seek-aware charging on every disk at once.
  void set_seek_aware(bool on) {
    for (auto& d : disks_) d->set_seek_aware(on);
  }

  /// Attach one fault injector to every disk; node i's disk reports its
  /// operations as node i so @node-scoped rules work.  nullptr detaches.
  void set_fault_injector(fault::Injector* inj) {
    for (int i = 0; i < nodes(); ++i) {
      disks_[static_cast<std::size_t>(i)]->set_fault_injector(inj, i);
    }
  }

  /// Attach one write-traffic budget to every disk (fgserve's per-job
  /// disk quota); nullptr detaches.  The budget must outlive its use.
  void set_write_budget(util::ByteBudget* budget) {
    for (auto& d : disks_) d->set_write_budget(budget);
  }

  /// Install the same retry policy on every disk.
  void set_retry_policy(util::RetryPolicy p) {
    for (auto& d : disks_) d->set_retry_policy(p);
  }

  /// Aggregate retry counters across all disks (for the stats export).
  util::RetryStats total_retry_stats() const {
    util::RetryStats total;
    for (const auto& d : disks_) total.merge(d->retry_stats());
    return total;
  }

 private:
  std::filesystem::path root_;
  std::vector<std::unique_ptr<Disk>> disks_;
  DiskBackend backend_{DiskBackend::kStdio};
  bool keep_{false};
};

}  // namespace fg::pdm
