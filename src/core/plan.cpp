#include "core/plan.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <sstream>
#include <stdexcept>

namespace fg {

// ---------------------------------------------------------------------------
// Construction-side validation (Pipeline / MapStage definitions)
// ---------------------------------------------------------------------------

void MapStage::run(StageContext&) {
  throw std::logic_error(
      "fg::MapStage::run must not be called directly; MapStages are driven "
      "by the framework loop");
}

void Pipeline::add_stage(Stage& s, StageMode mode) {
  if (frozen_) {
    throw std::logic_error("fg::Pipeline: cannot add stages after the graph "
                           "topology has been built");
  }
  for (const auto& e : entries_) {
    if (e.stage == &s) {
      throw std::logic_error("fg::Pipeline: stage '" + s.name() +
                             "' added twice to pipeline '" + cfg_.name + "'");
    }
  }
  entries_.push_back(Entry{&s, mode, 1});
}

void Pipeline::add_stage_replicated(MapStage& s, std::size_t replicas) {
  if (replicas == 0) {
    throw std::logic_error("fg::Pipeline: a replicated stage needs at least "
                           "one replica");
  }
  add_stage(s, StageMode::kNormal);
  entries_.back().replicas = replicas;
}

// ---------------------------------------------------------------------------
// ExecutionPlan
// ---------------------------------------------------------------------------

QueueIndex ExecutionPlan::new_queue(std::size_t capacity) {
  queues_.push_back(PlannedQueue{capacity});
  return static_cast<QueueIndex>(queues_.size() - 1);
}

ExecutionPlan::ExecutionPlan(
    const std::vector<std::unique_ptr<Pipeline>>& pipelines) {
  if (pipelines.empty()) {
    throw std::logic_error("fg::PipelineGraph: no pipelines");
  }

  auto pipeline_names = [&](const std::vector<PipelineId>& pids) {
    std::ostringstream out;
    for (std::size_t i = 0; i < pids.size(); ++i) {
      if (i) out << ',';
      out << pipelines[pids[i]]->name();
    }
    return out.str();
  };

  // Gather where each stage object appears.
  struct Occ {
    PipelineId pid;
    StageMode mode;
    std::size_t replicas;
  };
  // std::map over pointers gives nondeterministic *order* across runs but
  // identical *topology*; worker creation order only affects stats order,
  // so occurrences are sorted by pid for stable member order.
  std::map<Stage*, std::vector<Occ>> occurrences;
  for (const auto& up : pipelines) {
    Pipeline& p = *up;
    p.frozen_ = true;
    if (p.entries_.empty()) {
      throw std::logic_error("fg::PipelineGraph: pipeline '" + p.name() +
                             "' has no stages");
    }
    for (const auto& e : p.entries_) {
      occurrences[e.stage].push_back(Occ{p.id(), e.mode, e.replicas});
    }
  }

  // One worker per distinct stage object.
  std::unordered_map<Stage*, WorkerIndex> worker_of_stage;
  auto add_member = [](PlannedWorker& w, PipelineId pid) {
    if (!w.has_member(pid)) w.members.push_back(pid);
  };
  for (auto& [st, occs] : occurrences) {
    PlannedWorker w;
    w.stage = st;
    const bool multi = occs.size() > 1;
    const bool all_virtual =
        std::all_of(occs.begin(), occs.end(),
                    [](const Occ& o) { return o.mode == StageMode::kVirtual; });
    if (multi) {
      if (all_virtual) {
        if (!st->is_map()) {
          throw std::logic_error("fg::PipelineGraph: virtual stage '" +
                                 st->name() + "' must be a MapStage");
        }
        w.kind = WorkerKind::kMap;
        w.virt = true;
      } else {
        if (st->is_map()) {
          throw std::logic_error(
              "fg::PipelineGraph: stage '" + st->name() +
              "' is shared by several pipelines without being virtual; the "
              "common stage of intersecting pipelines must be a custom Stage");
        }
        w.kind = WorkerKind::kCustom;
      }
      for (const auto& o : occs) {
        if (o.replicas > 1) {
          throw std::logic_error(
              "fg::PipelineGraph: replicated stage '" + st->name() +
              "' may belong to only one pipeline");
        }
      }
    } else {
      w.kind = st->is_map() ? WorkerKind::kMap : WorkerKind::kCustom;
      w.virt = st->is_map() && occs.front().mode == StageMode::kVirtual;
      w.replicas = occs.front().replicas;
    }
    for (const auto& o : occs) {
      if (w.has_member(o.pid)) {
        throw std::logic_error("fg::PipelineGraph: stage '" + st->name() +
                               "' appears twice in one pipeline");
      }
      add_member(w, o.pid);
    }
    std::sort(w.members.begin(), w.members.end());
    worker_of_stage[st] = static_cast<WorkerIndex>(workers_.size());
    workers_.push_back(std::move(w));
  }

  // Union-find over pipelines connected by virtual stage groups: their
  // sources and sinks are automatically virtualized (merged) as well.
  std::vector<PipelineId> parent(pipelines.size());
  for (PipelineId i = 0; i < parent.size(); ++i) parent[i] = i;
  std::function<PipelineId(PipelineId)> find = [&](PipelineId x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  auto unite = [&](PipelineId a, PipelineId b) { parent[find(a)] = find(b); };
  for (const auto& w : workers_) {
    if (w.virt && w.members.size() > 1) {
      for (std::size_t i = 1; i < w.members.size(); ++i) {
        unite(w.members[0], w.members[i]);
      }
    }
  }

  // Source and sink workers, one pair per union group.
  std::unordered_map<PipelineId, WorkerIndex> src_of_root;
  std::unordered_map<PipelineId, WorkerIndex> snk_of_root;
  auto get_or_make = [&](std::unordered_map<PipelineId, WorkerIndex>& table,
                         PipelineId root, WorkerKind kind) {
    auto it = table.find(root);
    if (it != table.end()) return it->second;
    PlannedWorker w;
    w.kind = kind;
    const auto idx = static_cast<WorkerIndex>(workers_.size());
    workers_.push_back(std::move(w));
    table[root] = idx;
    return idx;
  };
  for (const auto& up : pipelines) {
    const PipelineId pid = up->id();
    const PipelineId root = find(pid);
    const WorkerIndex src = get_or_make(src_of_root, root, WorkerKind::kSource);
    const WorkerIndex snk = get_or_make(snk_of_root, root, WorkerKind::kSink);
    add_member(workers_[src], pid);
    add_member(workers_[snk], pid);
    source_worker_[pid] = src;
  }

  // Queues.  Every worker except a custom stage has exactly one inbound
  // queue that all predecessors push into; a custom stage gets one queue
  // per distinct predecessor worker (its accept(pipeline) demultiplexes
  // tokens arriving on the right queue by pipeline id).
  auto combined_capacity = [&](const std::vector<PipelineId>& pids) {
    std::size_t cap = 0;
    for (PipelineId pid : pids) {
      const std::size_t c = pipelines[pid]->config().queue_capacity;
      if (c == 0) return std::size_t{0};
      cap = std::max(cap, c);
    }
    return cap;
  };
  auto in_queue = [&](WorkerIndex wi) {
    // A source's inbound (recycle) queue must be unbounded: if the sink
    // could block pushing recycled buffers while the source is blocked
    // emitting into a bounded queue, the cycle would deadlock.  The
    // buffer pool bounds its occupancy anyway.
    PlannedWorker& w = workers_[wi];
    if (w.in == kNoQueue) {
      w.in = new_queue(w.kind == WorkerKind::kSource
                           ? 0
                           : combined_capacity(w.members));
    }
    return w.in;
  };
  std::unordered_map<WorkerIndex, std::unordered_map<WorkerIndex, QueueIndex>>
      custom_in;  // custom worker -> (predecessor worker -> queue)
  auto connect = [&](WorkerIndex from, WorkerIndex to, PipelineId pid) {
    QueueIndex q = kNoQueue;
    if (workers_[to].kind == WorkerKind::kCustom) {
      auto& table = custom_in[to];
      auto it = table.find(from);
      if (it == table.end()) {
        q = new_queue(pipelines[pid]->config().queue_capacity);
        table[from] = q;
      } else {
        q = it->second;
      }
      workers_[to].in_by_pid[pid] = q;
    } else {
      q = in_queue(to);
    }
    workers_[from].out[pid] = q;
  };
  for (const auto& up : pipelines) {
    const PipelineId pid = up->id();
    std::vector<WorkerIndex> chain;
    chain.push_back(source_worker_.at(pid));
    for (const auto& e : up->entries_) {
      chain.push_back(worker_of_stage.at(e.stage));
    }
    chain.push_back(snk_of_root.at(find(pid)));
    for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
      connect(chain[i], chain[i + 1], pid);
    }
    // Recycle edge: sink back to source.
    workers_[chain.back()].out[pid] = in_queue(source_worker_.at(pid));
  }
  // Sources also need inbound queues even when no stage ever recycles —
  // close tokens arrive there.
  for (const auto& [pid, src] : source_worker_) {
    source_in_[pid] = in_queue(src);
  }

  // Buffer-pool recipes, indexed by pipeline id (ids are dense: the graph
  // assigns them in add_pipeline order).
  pools_.resize(pipelines.size());
  for (const auto& up : pipelines) {
    const PipelineConfig& cfg = up->config();
    if (cfg.num_buffers == 0 || cfg.buffer_bytes == 0) {
      throw std::logic_error("fg::PipelineGraph: pipeline '" + cfg.name +
                             "' needs at least one buffer of nonzero size");
    }
    pools_[up->id()] =
        PlannedPool{cfg.num_buffers, cfg.buffer_bytes, cfg.aux_buffers,
                    cfg.rounds};
  }

  // Stats labels.
  for (auto& w : workers_) {
    switch (w.kind) {
      case WorkerKind::kSource: w.label = "source"; break;
      case WorkerKind::kSink: w.label = "sink"; break;
      default: w.label = w.stage->name(); break;
    }
    w.pipelines = pipeline_names(w.members);
  }
}

}  // namespace fg
