#include "serve/job.hpp"

#include "apps/ooc_permute.hpp"
#include "comm/cluster.hpp"
#include "core/fg.hpp"
#include "pdm/workspace.hpp"
#include "sort/dataset.hpp"
#include "sort/dsort.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

#include <atomic>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

namespace fg::serve {

namespace {

/// Thrown by stage bodies when the job's cancel flag is up; run_job maps
/// it (and any other exception racing a cancel) to CANCELLED.
struct JobCancelled : std::runtime_error {
  explicit JobCancelled(const std::string& why)
      : std::runtime_error(why.empty() ? "job cancelled" : why) {}
};

/// Per-job quota: the server's configured ceiling, optionally narrowed by
/// the spec's own request.  Requests clamp down, never up.
std::uint64_t effective_quota(std::uint64_t server_limit,
                              std::uint64_t requested) {
  if (server_limit == 0) return requested;
  if (requested == 0) return server_limit;
  return std::min(server_limit, requested);
}

/// Same down-only rule for the stall watchdog: a job may ask for a
/// *tighter* window than the server default, never a looser one (a job
/// must not be able to opt out of stall detection).
std::uint32_t effective_watchdog(std::uint32_t server_ms,
                                 std::uint32_t requested_ms) {
  if (server_ms == 0) return requested_ms;
  if (requested_ms == 0) return server_ms;
  return std::min(server_ms, requested_ms);
}

void throw_if_cancelled(Job& job) {
  if (job.cancel_requested()) throw JobCancelled(job.cancel_reason());
}

void busy_us(std::uint32_t us) {
  if (us != 0) std::this_thread::sleep_for(std::chrono::microseconds(us));
}

/// Block until the job is aborted (cancel, or the watchdog's abort hook),
/// then unwind.  This is the "misbehaving tenant" stage body: it makes no
/// queue progress, so only the watchdog or an explicit cancel ends it.
[[noreturn]] void stall_until_aborted(Job& job) {
  while (!job.abort_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  throw std::runtime_error("fg::serve: stalled stage aborted (watchdog or "
                           "cancel)");
}

// ---------------------------------------------------------------------------
// kind == "pipeline": a single-node map chain with an end-to-end checksum
// ---------------------------------------------------------------------------

void run_pipeline_kind(Job& job, const JobLimits& lim, JobResult& r) {
  const JobSpec& spec = job.spec();

  util::ByteBudget pool_budget(
      "job-" + std::to_string(job.id()) + ".pool",
      effective_quota(lim.pool_quota_bytes, spec.pool_quota_bytes));
  fault::Injector injector(spec.seed);
  if (!spec.fault_spec.empty()) fault::apply_spec(injector, spec.fault_spec);

  PipelineGraph graph;
  RuntimeOptions opts;
  opts.pool_budget = &pool_budget;
  graph.set_runtime_options(opts);
  const std::uint32_t wd = effective_watchdog(lim.watchdog_ms,
                                              spec.watchdog_ms);
  if (wd != 0) {
    graph.set_watchdog(std::chrono::milliseconds(wd));
    // The stall stage below blocks on this flag, so the watchdog can
    // unwind it without any substrate to abort.
    graph.set_abort_hook([&job] { job.request_abort(); });
  }

  PipelineConfig pc;
  pc.name = "job-" + std::to_string(job.id());
  pc.num_buffers = spec.num_buffers;
  pc.buffer_bytes = spec.buffer_bytes;
  pc.rounds = spec.rounds;
  Pipeline& pipe = graph.add_pipeline(pc);

  // Every word the head stage writes is summed on the way in and the way
  // out; equality after the run is the byte-verification for this kind.
  const std::size_t words = std::max<std::size_t>(1, spec.buffer_bytes / 8);
  std::atomic<std::uint64_t> produced{0};
  std::atomic<std::uint64_t> consumed{0};
  std::atomic<std::uint64_t> rounds_out{0};
  std::uint64_t fill_round = 0;  // touched only by the head stage's thread

  std::vector<std::unique_ptr<MapStage>> stages;
  stages.reserve(spec.stages);
  for (std::uint32_t i = 0; i < spec.stages; ++i) {
    const bool head = i == 0;
    const bool tail = i + 1 == spec.stages;
    const bool stall = spec.stall_stage >= 0 &&
                       static_cast<std::uint32_t>(spec.stall_stage) == i;
    auto body = [&, i, head, tail, stall](Buffer& b) {
      throw_if_cancelled(job);
      if (injector.fire(fault::kStageThrow, static_cast<int>(i))) {
        throw fault::InjectedFault(
            "fg::fault: injected failure at stage.throw (job stage " +
            std::to_string(i) + ")");
      }
      if (stall) stall_until_aborted(job);
      busy_us(spec.work_us);
      if (head) {
        const std::uint64_t round = fill_round++;
        std::byte* p = b.data().data();
        std::uint64_t sum = 0;
        for (std::size_t w = 0; w < words; ++w) {
          const std::uint64_t v =
              util::mix64(spec.seed ^ (round * words + w + 1));
          std::memcpy(p + w * 8, &v, 8);
          sum += v;
        }
        b.set_size(words * 8);
        b.set_tag(round);
        produced.fetch_add(sum, std::memory_order_relaxed);
      } else if (tail) {
        const std::byte* p = b.contents().data();
        const std::size_t n = b.size() / 8;
        std::uint64_t sum = 0;
        for (std::size_t w = 0; w < n; ++w) {
          std::uint64_t v;
          std::memcpy(&v, p + w * 8, 8);
          sum += v;
        }
        consumed.fetch_add(sum, std::memory_order_relaxed);
        rounds_out.fetch_add(1, std::memory_order_relaxed);
      }
      return StageAction::kConvey;
    };
    stages.push_back(std::make_unique<MapStage>(
        "job" + std::to_string(job.id()) + ".s" + std::to_string(i),
        std::move(body)));
    pipe.add_stage(*stages.back());
  }

  auto audit = [&] {
    for (const BufferAudit& a : graph.audit_buffers()) {
      if (a.accounted() != a.pool) r.audit_ok = false;
    }
  };
  try {
    graph.run();
  } catch (...) {
    audit();
    throw;
  }
  audit();
  r.records = rounds_out.load();
  r.verified = rounds_out.load() == spec.rounds &&
               produced.load() == consumed.load();
  if (!r.verified) {
    throw std::runtime_error("fg::serve: pipeline checksum mismatch (" +
                             std::to_string(rounds_out.load()) + "/" +
                             std::to_string(spec.rounds) + " rounds)");
  }
}

// ---------------------------------------------------------------------------
// kind == "sort" | "permute": a SimCluster program over a job workspace
// ---------------------------------------------------------------------------

void run_cluster_kind(Job& job, const JobLimits& lim, JobResult& r) {
  const JobSpec& spec = job.spec();
  const std::string tag = "job-" + std::to_string(job.id());

  util::ByteBudget pool_budget(
      tag + ".pool",
      effective_quota(lim.pool_quota_bytes, spec.pool_quota_bytes));
  util::ByteBudget disk_budget(
      tag + ".disk",
      effective_quota(lim.disk_quota_bytes, spec.disk_quota_bytes));
  fault::Injector injector(spec.seed);

  pdm::Workspace ws(lim.root / tag, spec.nodes, util::LatencyModel::free());
  comm::SimCluster cluster(spec.nodes);

  sort::SortConfig cfg;
  cfg.nodes = spec.nodes;
  cfg.records = spec.records;
  cfg.record_bytes = spec.record_bytes;
  cfg.block_records = 256;
  cfg.buffer_records = 1024;
  cfg.num_buffers = spec.num_buffers;
  cfg.seed = spec.seed;
  cfg.runtime.pool_budget = &pool_budget;
  cfg.watchdog_ms = effective_watchdog(lim.watchdog_ms, spec.watchdog_ms);

  // Dataset generation is the job's setup, not the tenant workload under
  // test: it runs before faults and quotas arm (the fgsort idiom), so an
  // injected fault or an overdrawn budget always lands in the job proper.
  sort::generate_input(ws, cfg);

  if (!spec.fault_spec.empty()) fault::apply_spec(injector, spec.fault_spec);
  ws.set_fault_injector(&injector);
  ws.set_write_budget(&disk_budget);
  cluster.fabric().set_fault_injector(&injector);
  job.set_abort_hook([&cluster] { cluster.fabric().abort(); });

  // Detach everything wired into ws/cluster before verification and
  // before these locals unwind, success or failure.
  struct Detach {
    Job& job;
    pdm::Workspace& ws;
    comm::SimCluster& cluster;
    ~Detach() {
      job.clear_abort_hook();
      ws.set_fault_injector(nullptr);
      ws.set_write_budget(nullptr);
      cluster.fabric().set_fault_injector(nullptr);
    }
  } detach{job, ws, cluster};

  throw_if_cancelled(job);
  if (spec.kind == "sort") {
    sort::run_dsort(cluster, ws, cfg);
    ws.set_fault_injector(nullptr);
    ws.set_write_budget(nullptr);
    r.records = spec.records;
    r.verified = sort::verify_output(ws, cfg).ok();
  } else {
    apps::PermuteConfig pcfg;
    pcfg.nodes = spec.nodes;
    pcfg.records = spec.records;
    pcfg.record_bytes = spec.record_bytes;
    pcfg.block_records = cfg.block_records;
    pcfg.buffer_records = cfg.buffer_records;
    pcfg.num_buffers = spec.num_buffers;
    pcfg.runtime = cfg.runtime;
    pcfg.watchdog_ms = cfg.watchdog_ms;
    const apps::IndexMap dest =
        apps::cyclic_shift_map(spec.records, spec.records / 3 + 1);
    apps::run_permute(cluster, ws, pcfg, dest);
    ws.set_fault_injector(nullptr);
    ws.set_write_budget(nullptr);
    r.records = spec.records;
    r.verified = apps::verify_permutation(ws, pcfg, dest) == 0;
  }
  if (!r.verified) {
    throw std::runtime_error("fg::serve: " + spec.kind +
                             " output failed verification");
  }
}

}  // namespace

JobResult run_job(Job& job, const JobLimits& limits) {
  JobResult r;
  r.id = job.id();
  r.kind = job.spec().kind;

  job.started_at = std::chrono::steady_clock::now();
  if (job.admitted_at.time_since_epoch().count() != 0) {
    r.queue_seconds =
        std::chrono::duration<double>(job.started_at - job.admitted_at)
            .count();
  }
  job.set_state(JobState::kRunning);

  util::Stopwatch wall;
  try {
    throw_if_cancelled(job);
    if (job.spec().kind == "pipeline") {
      run_pipeline_kind(job, limits, r);
    } else {
      run_cluster_kind(job, limits, r);
    }
    r.state = JobState::kCompleted;
  } catch (const JobCancelled& e) {
    r.state = JobState::kCancelled;
    r.error = e.what();
  } catch (const std::exception& e) {
    // A cancel can surface as whatever the abort made the job throw
    // (FabricAborted, a queue abort, the stall unwind) — if the cancel
    // flag is up, that is a cancellation, not a job fault.
    r.state = job.cancel_requested() ? JobState::kCancelled
                                     : JobState::kFailed;
    r.error = e.what();
  } catch (...) {
    r.state = JobState::kFailed;
    r.error = "unknown exception";
  }
  r.seconds = wall.elapsed_seconds();
  job.clear_abort_hook();
  job.set_state(r.state);
  return r;
}

}  // namespace fg::serve
