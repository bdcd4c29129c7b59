// The planning layer: ExecutionPlan freezes a set of pipelines into an
// immutable description of the worker/queue topology.
//
// Building a plan performs everything that can be decided before any
// thread exists:
//   * classifying each distinct stage object as map / custom / virtual
//     and validating the sharing rules (a virtual stage must be a
//     MapStage; the common stage of intersecting pipelines must be a
//     custom Stage; a replicated stage belongs to one pipeline);
//   * union-find over pipelines connected by virtual stage groups, so
//     their sources and sinks merge too;
//   * laying out the queue topology as *data* — every queue is a
//     PlannedQueue slot and workers refer to queues by index.
//
// The plan owns no threads, no live queues, and no buffers; the runtime
// layer (core/runtime.hpp) instantiates fresh queues and buffer pools
// from the plan on every run, which is what makes graphs rerunnable.
#pragma once

#include "core/pipeline.hpp"
#include "core/stage.hpp"

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace fg {

/// Role a planned worker performs at run time.
enum class WorkerKind : std::uint8_t { kSource, kSink, kMap, kCustom };

using WorkerIndex = std::uint32_t;
using QueueIndex = std::uint32_t;
inline constexpr QueueIndex kNoQueue = std::numeric_limits<QueueIndex>::max();

/// One queue slot in the topology.  capacity == 0 means unbounded.
struct PlannedQueue {
  std::size_t capacity{0};
};

/// One worker (thread group) in the topology.  Everything here is fixed
/// at plan time; per-run state lives in the runtime.
struct PlannedWorker {
  WorkerKind kind{WorkerKind::kMap};
  Stage* stage{nullptr};  ///< null for sources and sinks
  bool virt{false};
  std::size_t replicas{1};
  std::vector<PipelineId> members;  ///< sorted, unique

  QueueIndex in{kNoQueue};  ///< single inbound queue (all kinds but custom)
  std::unordered_map<PipelineId, QueueIndex> in_by_pid;  ///< custom only
  std::unordered_map<PipelineId, QueueIndex> out;  ///< successor queue per pid

  std::string label;      ///< stage name, or "source"/"sink"
  std::string pipelines;  ///< comma-joined member pipeline names

  bool has_member(PipelineId pid) const noexcept {
    for (PipelineId m : members) {
      if (m == pid) return true;
    }
    return false;
  }
};

/// Per-pipeline buffer-pool recipe.
struct PlannedPool {
  std::size_t num_buffers{0};
  std::size_t buffer_bytes{0};
  bool aux{false};
  std::uint64_t rounds{0};  ///< source emission target; 0 = until closed
};

class ExecutionPlan {
 public:
  /// Freeze `pipelines` and derive the topology.  Throws std::logic_error
  /// on any wiring violation; a throwing build leaves the pipelines
  /// frozen (the graph is not salvageable).
  explicit ExecutionPlan(
      const std::vector<std::unique_ptr<Pipeline>>& pipelines);

  const std::vector<PlannedWorker>& workers() const noexcept {
    return workers_;
  }
  const std::vector<PlannedQueue>& queues() const noexcept { return queues_; }

  /// Pool recipes, indexed by PipelineId.
  const std::vector<PlannedPool>& pools() const noexcept { return pools_; }

  /// The recycle queue feeding pipeline `pid`'s source.
  QueueIndex source_in(PipelineId pid) const { return source_in_.at(pid); }

  /// Index of the worker acting as `pid`'s source.
  WorkerIndex source_worker(PipelineId pid) const {
    return source_worker_.at(pid);
  }

  /// Total threads a run will spawn (replicas included).
  std::size_t thread_count() const noexcept {
    std::size_t n = 0;
    for (const auto& w : workers_) n += w.replicas;
    return n;
  }

  std::size_t pipeline_count() const noexcept { return pools_.size(); }

 private:
  QueueIndex new_queue(std::size_t capacity);

  std::vector<PlannedWorker> workers_;
  std::vector<PlannedQueue> queues_;
  std::vector<PlannedPool> pools_;
  std::unordered_map<PipelineId, QueueIndex> source_in_;
  std::unordered_map<PipelineId, WorkerIndex> source_worker_;
};

}  // namespace fg
