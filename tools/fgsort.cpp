// fgsort — command-line driver for the out-of-core sorting programs.
//
// Provisions a simulated cluster, generates a striped dataset, runs the
// requested program(s), verifies the output, and reports per-phase times
// plus substrate counters.  Everything the benches do, but under manual
// control — the tool a downstream user pokes the library with first.
//
//   fgsort [options]
//     --program dsort|csort|ssort|all   (default: all)
//     --nodes N                         (default: 16)
//     --records N                       (default: 1048576; csort rounds
//                                        this to a compatible geometry)
//     --record-bytes 16..65536          (default: 16)
//     --dist uniform|equal|normal|poisson|sorted|reversed|clustered
//     --seed S                          (default: 1)
//     --latency paper|none              (default: paper)
//     --seek-aware                      (seek-aware disk charging;
//                                        stdio backend only)
//     --stats                           (print per-node substrate counters)
//     --stats-json FILE                 (write one JSON blob per run:
//                                        config, phase times, per-stage
//                                        pipeline stats, per-node traffic)
//     --keep DIR                        (keep the workspace under DIR)
//     --fault-spec SPEC                 (arm fault injection; see
//                                        util/fault.hpp for the grammar,
//                                        e.g. "disk.read.error=nth:40x3")
//     --watchdog-ms N                   (abort a run whose pipelines make
//                                        no progress for N ms; 0 = off)
//     --trace-out FILE                  (write a Chrome-trace timeline of
//                                        every worker thread; open it in
//                                        Perfetto, or feed it to fgtrace.
//                                        With --program all the program
//                                        name is appended: FILE.dsort ...)
//     --progress SECS                   (heartbeat to stderr every SECS
//                                        seconds: rounds/s, disk MB/s,
//                                        queue depths)
//     --disk stdio|native               (disk backend; default stdio.
//                                        stdio simulates the paper's
//                                        spindles — native's pread/
//                                        pwrite, one op at a time per
//                                        disk, modeled latency.  native
//                                        runs at hardware speed;
//                                        --latency does not shape it)
//     --direct                          (open files with O_DIRECT;
//                                        native backend only)
//
// Multi-process mode (one OS process per cluster node):
//     --fabric sim|tcp|shm              (default: sim)
//     --rank R                          (this process's node id)
//     --peers host:port,host:port,...   (tcp: every rank's listen endpoint,
//                                        in rank order; the node count is
//                                        the number of peers)
//     --shm-fd FD                       (shm: inherited fd of the shared
//                                        segment fgnode created; the node
//                                        count comes from the segment
//                                        header)
//     --recv-timeout-ms N               (per-receive deadline; 0 = block
//                                        forever.  Default 120000 under
//                                        --fabric tcp/shm so a dead peer
//                                        fails the run instead of hanging
//                                        it)
// tcp/shm mode requires --keep DIR (a filesystem root shared by all
// ranks), a single --program, and one fgsort process per rank — see
// tools/fgnode, which launches and supervises the whole set (and, for
// shm, provisions the segment before forking).  Each rank generates only
// its own input stripe; rank 0 verifies the combined output after the
// final barrier, other ranks report "skip".  --latency only shapes disk
// charging in tcp/shm mode: the transport is real, not simulated.
//
// Exit status:
//   0  every run finished and every verified output is correct
//   1  an output failed verification, or --stats-json/--trace-out could
//      not be written
//   2  usage: an unknown flag or a malformed value
//   3  a run failed (an injected fault, a stall, a dead peer); stderr
//      says "fgsort: <program> failed: <cause>"
#include "comm/cluster.hpp"
#include "core/graph.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/session.hpp"
#include "pdm/workspace.hpp"
#include "sort/experiment.hpp"
#include "sort/ssort.hpp"
#include "util/fault.hpp"
#include "util/parse.hpp"
#include "util/retry.hpp"
#include "util/table.hpp"
#include "util/trace.hpp"

#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

namespace {

using namespace fg;

struct Options {
  std::string program{"all"};
  sort::SortConfig cfg;
  bool paper_latency{true};
  bool seek_aware{false};
  bool stats{false};
  std::optional<std::string> stats_json;
  std::optional<std::string> keep_dir;
  std::optional<std::string> fault_spec;
  std::optional<std::string> trace_out;
  int progress_secs{0};
  std::string fabric{"sim"};
  int rank{0};
  std::vector<comm::TcpEndpoint> peers;
  /// shm mode: the inherited segment fd, attached during parse() so the
  /// node count is known before any geometry is derived.
  std::shared_ptr<comm::ShmSegment> shm_seg;
  int recv_timeout_ms{-1};  // -1 = unset (0 for sim, else 120000)
  pdm::DiskBackend disk{pdm::DiskBackend::kStdio};
  bool direct{false};
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--program dsort|csort|ssort|all] [--nodes N]\n"
               "          [--records N] [--record-bytes B] [--dist D]\n"
               "          [--seed S] [--latency paper|none] [--seek-aware]\n"
               "          [--stats] [--stats-json FILE] [--keep DIR]\n"
               "          [--fault-spec SPEC] [--watchdog-ms N]\n"
               "          [--trace-out FILE] [--progress SECS]\n"
               "          [--fabric sim|tcp|shm] [--rank R]\n"
               "          [--peers host:port,...] [--shm-fd FD]\n"
               "          [--recv-timeout-ms N]\n"
               "          [--disk stdio|native] [--direct]\n",
               argv0);
  std::exit(2);
}

sort::Distribution parse_dist(const std::string& s) {
  if (s == "uniform") return sort::Distribution::kUniform;
  if (s == "equal") return sort::Distribution::kAllEqual;
  if (s == "normal") return sort::Distribution::kNormal;
  if (s == "poisson") return sort::Distribution::kPoisson;
  if (s == "sorted") return sort::Distribution::kSorted;
  if (s == "reversed") return sort::Distribution::kReversed;
  if (s == "clustered") return sort::Distribution::kNodeClustered;
  std::fprintf(stderr, "fgsort: unknown distribution '%s'\n", s.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) try {
  Options opt;
  int shm_fd = -1;
  opt.cfg.nodes = 16;
  opt.cfg.records = 1 << 20;
  opt.cfg.oversample = 128;
  auto need = [&](int& i) -> std::string {
    if (i + 1 >= argc) usage(argv[0]);
    return argv[++i];
  };
  // Checked numeric parsing throughout: a garbage or out-of-range value
  // exits with a diagnostic naming the flag instead of silently becoming
  // 0 (what std::atoi used to do).
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--program") opt.program = need(i);
    else if (a == "--nodes") opt.cfg.nodes = static_cast<int>(util::parse_int(need(i), "--nodes", 1, 1 << 20));
    else if (a == "--records") opt.cfg.records = util::parse_u64(need(i), "--records", 1);
    else if (a == "--record-bytes") opt.cfg.record_bytes = static_cast<std::uint32_t>(util::parse_int(need(i), "--record-bytes", 16, 65536));
    else if (a == "--dist") opt.cfg.dist = parse_dist(need(i));
    else if (a == "--seed") opt.cfg.seed = util::parse_u64(need(i), "--seed");
    else if (a == "--latency") {
      const std::string v = need(i);
      if (v == "paper") opt.paper_latency = true;
      else if (v == "none") opt.paper_latency = false;
      else {
        std::fprintf(stderr, "fgsort: unknown latency '%s' for --latency (want paper|none)\n", v.c_str());
        std::exit(2);
      }
    }
    else if (a == "--seek-aware") opt.seek_aware = true;
    else if (a == "--stats") opt.stats = true;
    else if (a == "--stats-json") opt.stats_json = need(i);
    else if (a == "--keep") opt.keep_dir = need(i);
    else if (a == "--fault-spec") {
      opt.fault_spec = need(i);
      // Armed only per program run, after dataset generation; check the
      // grammar now so a typo is a usage error, not a failed run.
      fault::Injector probe(0);
      try {
        fault::apply_spec(probe, *opt.fault_spec);
      } catch (const std::invalid_argument& e) {
        throw std::invalid_argument(std::string("--fault-spec: ") + e.what());
      }
    }
    else if (a == "--watchdog-ms") opt.cfg.watchdog_ms = static_cast<std::uint32_t>(util::parse_int(need(i), "--watchdog-ms", 0, UINT32_MAX));
    else if (a == "--trace-out") opt.trace_out = need(i);
    else if (a == "--progress") opt.progress_secs = static_cast<int>(util::parse_int(need(i), "--progress", 1, 86400));
    else if (a == "--fabric") opt.fabric = need(i);
    else if (a == "--rank") opt.rank = static_cast<int>(util::parse_int(need(i), "--rank", 0, (1 << 20) - 1));
    else if (a == "--disk") opt.disk = pdm::parse_disk_backend(need(i));
    else if (a == "--direct") opt.direct = true;
    else if (a == "--peers") {
      std::string list = need(i);
      std::size_t pos = 0;
      while (pos <= list.size()) {
        const std::size_t comma = list.find(',', pos);
        const std::string one =
            list.substr(pos, comma == std::string::npos ? comma : comma - pos);
        if (one.empty()) {
          std::fprintf(stderr, "fgsort: empty endpoint in --peers\n");
          std::exit(2);
        }
        try {
          opt.peers.push_back(comm::parse_endpoint(one));
        } catch (const std::exception& e) {
          std::fprintf(stderr, "fgsort: bad --peers endpoint '%s': %s\n",
                       one.c_str(), e.what());
          std::exit(2);
        }
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
    }
    else if (a == "--shm-fd") shm_fd = static_cast<int>(util::parse_int(need(i), "--shm-fd", 0, INT32_MAX));
    else if (a == "--recv-timeout-ms") opt.recv_timeout_ms = static_cast<int>(util::parse_int(need(i), "--recv-timeout-ms", 0, INT32_MAX));
    else usage(argv[0]);
  }
  if (opt.direct && opt.disk == pdm::DiskBackend::kStdio) {
    std::fprintf(stderr, "fgsort: --direct requires --disk native\n");
    std::exit(2);
  }
  // Seek charging happens on the simulated spindle; native charges
  // nothing, so the flag would only mislabel the run.
  if (opt.seek_aware && opt.disk != pdm::DiskBackend::kStdio) {
    std::fprintf(stderr, "fgsort: --seek-aware requires --disk stdio\n");
    std::exit(2);
  }
  if (opt.program != "dsort" && opt.program != "csort" &&
      opt.program != "ssort" && opt.program != "all") {
    usage(argv[0]);
  }
  if (opt.fabric != "sim" && opt.fabric != "tcp" && opt.fabric != "shm") {
    usage(argv[0]);
  }
  if (opt.fabric == "tcp") {
    if (opt.peers.empty()) {
      std::fprintf(stderr, "fgsort: --fabric tcp requires --peers\n");
      std::exit(2);
    }
    if (opt.rank < 0 || opt.rank >= static_cast<int>(opt.peers.size())) {
      std::fprintf(stderr, "fgsort: --rank %d out of range for %zu peers\n",
                   opt.rank, opt.peers.size());
      std::exit(2);
    }
    // The node count is the peer count; --nodes is implied.
    opt.cfg.nodes = static_cast<int>(opt.peers.size());
  }
  if (opt.fabric == "shm") {
    if (shm_fd < 0) {
      std::fprintf(stderr,
                   "fgsort: --fabric shm requires --shm-fd (the segment fd "
                   "inherited from fgnode)\n");
      std::exit(2);
    }
    try {
      opt.shm_seg = comm::ShmSegment::attach(shm_fd);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "fgsort: cannot attach shm segment fd %d: %s\n",
                   shm_fd, e.what());
      std::exit(2);
    }
    // The node count is the segment's; --nodes is implied.
    opt.cfg.nodes = opt.shm_seg->nodes();
    if (opt.rank < 0 || opt.rank >= opt.cfg.nodes) {
      std::fprintf(stderr, "fgsort: --rank %d out of range for a %d-rank "
                   "segment\n",
                   opt.rank, opt.cfg.nodes);
      std::exit(2);
    }
  }
  if (opt.fabric != "sim") {
    if (opt.program == "all") {
      std::fprintf(stderr,
                   "fgsort: --fabric %s runs a single --program per "
                   "process set\n",
                   opt.fabric.c_str());
      std::exit(2);
    }
    if (!opt.keep_dir) {
      std::fprintf(stderr,
                   "fgsort: --fabric %s requires --keep DIR (a workspace "
                   "root shared by all ranks)\n",
                   opt.fabric.c_str());
      std::exit(2);
    }
  }
  if (opt.recv_timeout_ms < 0) {
    opt.recv_timeout_ms = opt.fabric != "sim" ? 120000 : 0;
  }
  // Buffer geometry: 64 KiB blocks, 256 KiB pipeline buffers.
  opt.cfg.block_records = (4096 * 16) / opt.cfg.record_bytes;
  opt.cfg.buffer_records = (16384 * 16) / opt.cfg.record_bytes;
  opt.cfg.merge_buffer_records = (4096 * 16) / opt.cfg.record_bytes;
  opt.cfg.out_buffer_records = (16384 * 16) / opt.cfg.record_bytes;
  // csort needs a compatible geometry; use the same N for all programs.
  opt.cfg.records = sort::csort_compatible_records(
      opt.cfg.records, opt.cfg.nodes, opt.cfg.block_records);
  return opt;
} catch (const std::invalid_argument& e) {
  std::fprintf(stderr, "fgsort: %s\n", e.what());
  std::exit(2);
}

struct RunReport {
  std::string program;
  sort::SortResult result;
  sort::VerifyResult verify;
  /// TCP mode, rank != 0: output verification runs on rank 0 only (it
  /// needs every rank's stripe), so this rank has no verdict of its own.
  bool verify_skipped{false};
  double disk_busy_seconds{0};
  std::uint64_t bytes_sent{0};
  std::vector<comm::TrafficStats> traffic;  // per node
  util::RetryStats disk_retries;
  std::uint64_t faults_injected{0};
  /// The run's observability session (finalized), when one was active;
  /// the stats blob pulls its metrics registry from here.
  std::shared_ptr<obs::Session> obs;
};

/// Periodic progress line on stderr, driven by the session's live
/// metrics and the workspace's disk counters.  Runs on its own thread;
/// stop() wakes and joins it.
class Heartbeat {
 public:
  Heartbeat(const std::string& program, const obs::Session& session,
            const pdm::Workspace& ws, int nodes, int period_secs)
      : thread_([=, this, &session, &ws] {
          run(program, session, ws, nodes, period_secs);
        }) {}

  ~Heartbeat() { stop(); }

  void stop() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (done_) return;
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  void run(const std::string& program, const obs::Session& session,
           const pdm::Workspace& ws, int nodes, int period_secs) {
    std::uint64_t last_rounds = 0;
    std::uint64_t last_bytes = 0;
    double elapsed = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mutex_);
        if (cv_.wait_for(lock, std::chrono::seconds(period_secs),
                         [this] { return done_; })) {
          return;
        }
      }
      elapsed += period_secs;
      const std::uint64_t rounds =
          session.metrics().counter_value("pipeline.rounds");
      std::uint64_t bytes = 0;
      for (int n = 0; n < nodes; ++n) {
        const pdm::IoStats s = ws.disk(n).stats();
        bytes += s.bytes_read + s.bytes_written;
      }
      std::int64_t max_depth = 0;
      for (const auto& [name, v] :
           session.metrics().gauges_with_prefix("queue.")) {
        max_depth = std::max(max_depth, v);
      }
      std::fprintf(stderr,
                   "fgsort[%s]: +%.0fs  %.1f rounds/s  disk %.1f MB/s "
                   "(%.1f per disk)  max queue depth %lld\n",
                   program.c_str(), elapsed,
                   static_cast<double>(rounds - last_rounds) / period_secs,
                   static_cast<double>(bytes - last_bytes) / period_secs / 1e6,
                   static_cast<double>(bytes - last_bytes) / period_secs /
                       1e6 / nodes,
                   static_cast<long long>(max_depth));
      last_rounds = rounds;
      last_bytes = bytes;
    }
  }

  std::mutex mutex_;
  std::condition_variable cv_;
  bool done_{false};
  std::thread thread_;
};

RunReport run_one(const std::string& program, const Options& opt) {
  const auto lat = opt.paper_latency ? sort::LatencyProfile::paper_like()
                                     : sort::LatencyProfile::none();
  sort::SortConfig cfg = opt.cfg;
  cfg.compute_model = lat.compute;

  // sim: the whole cluster in this process.  tcp/shm: this process IS
  // one rank of a multi-process cluster.
  const bool multi = opt.fabric != "sim";
  fault::Injector injector(cfg.seed);
  auto ws = opt.keep_dir
                ? std::make_unique<pdm::Workspace>(
                      std::filesystem::path(*opt.keep_dir) / program,
                      cfg.nodes, lat.disk, opt.disk, opt.direct)
                : std::make_unique<pdm::Workspace>(cfg.nodes, lat.disk,
                                                   opt.disk, opt.direct);
  if (opt.keep_dir) ws->keep();
  if (opt.seek_aware) ws->set_seek_aware(true);

  // tcp connects the socket mesh; shm attaches the inherited segment —
  // there the segment IS the mesh, so there is no connect step.
  std::unique_ptr<comm::TcpFabric> tcp_fabric;
  std::unique_ptr<comm::ShmFabric> shm_fabric;
  std::unique_ptr<comm::Cluster> cluster;
  if (opt.fabric == "tcp") {
    tcp_fabric = std::make_unique<comm::TcpFabric>(
        cfg.nodes, opt.rank, opt.peers[static_cast<std::size_t>(opt.rank)].port);
    tcp_fabric->connect(opt.peers);
    cluster = std::make_unique<comm::TcpCluster>(*tcp_fabric);
  } else if (opt.fabric == "shm") {
    shm_fabric = std::make_unique<comm::ShmFabric>(opt.shm_seg, opt.rank);
    cluster = std::make_unique<comm::ShmCluster>(*shm_fabric);
  } else {
    cluster = std::make_unique<comm::SimCluster>(cfg.nodes, lat.net);
  }
  if (opt.recv_timeout_ms > 0) {
    cluster->fabric().set_recv_deadline(
        std::chrono::milliseconds(opt.recv_timeout_ms));
  }

  // Generate the input on a healthy substrate; faults arm afterwards so
  // the run under test is the sort itself, not dataset creation.  Each
  // tcp/shm rank writes only its own stripe — generation is deterministic
  // in (seed, dist, global index), so the union across ranks is identical
  // to a single-process generate_input().
  if (multi) {
    sort::generate_node_input(*ws, cfg, opt.rank);
  } else {
    sort::generate_input(*ws, cfg);
  }
  if (opt.fault_spec) {
    fault::apply_spec(injector, *opt.fault_spec);
    ws->set_fault_injector(&injector);
    ws->set_retry_policy(util::RetryPolicy::standard(4, cfg.seed));
    cluster->fabric().set_fault_injector(&injector);
  }
  // One observability session per program run: the sort drivers attach
  // every pipeline graph to it, and the disk/fabric spans emitted by
  // stage threads land in the same per-thread rings.
  std::shared_ptr<obs::Session> session;
  if (opt.trace_out || opt.progress_secs > 0 || opt.stats_json) {
    session = std::make_shared<obs::Session>();
    cfg.obs = session.get();
  }
  std::unique_ptr<Heartbeat> heartbeat;
  if (session && opt.progress_secs > 0) {
    heartbeat = std::make_unique<Heartbeat>(program, *session, *ws, cfg.nodes,
                                            opt.progress_secs);
  }
  RunReport report;
  report.program = program;
  try {
    if (program == "dsort") {
      report.result = sort::run_dsort(*cluster, *ws, cfg);
    } else if (program == "csort") {
      report.result = sort::run_csort(*cluster, *ws, cfg);
    } else {
      report.result = sort::run_ssort(*cluster, *ws, cfg);
    }
  } catch (...) {
    if (heartbeat) heartbeat->stop();
    throw;
  }
  if (heartbeat) heartbeat->stop();
  if (session) {
    session->finalize();  // all traced threads have joined
    report.obs = session;
    if (opt.trace_out) {
      std::string path = *opt.trace_out;
      if (opt.program == "all") path += "." + program;
      util::JsonWriter w;
      obs::write_chrome_trace(w, session->spans());
      std::FILE* f = std::fopen(path.c_str(), "w");
      if (!f) {
        std::fprintf(stderr, "fgsort: cannot write '%s'\n", path.c_str());
        std::exit(1);
      }
      std::fwrite(w.str().data(), 1, w.str().size(), f);
      std::fputc('\n', f);
      std::fclose(f);
      std::fprintf(stderr, "fgsort[%s]: wrote trace to %s (%llu spans, "
                   "%llu dropped)\n",
                   program.c_str(), path.c_str(),
                   static_cast<unsigned long long>(
                       session->spans().merged().spans.size()),
                   static_cast<unsigned long long>(
                       session->spans().total_dropped()));
    }
  }
  if (opt.fault_spec) {
    report.disk_retries = ws->total_retry_stats();
    report.faults_injected = injector.total_fired();
    // Disarm before verification: the output check should observe the
    // data the run produced, not fresh injected failures.
    ws->set_fault_injector(nullptr);
    cluster->fabric().set_fault_injector(nullptr);
  }
  if (multi && opt.rank != 0) {
    // Only rank 0 sees every stripe of the shared workspace root; the
    // trailing barrier inside run() already guarantees our output is
    // complete before rank 0 starts reading it.
    report.verify_skipped = true;
  } else {
    report.verify = sort::verify_output(*ws, cfg);
  }
  for (int n = 0; n < cfg.nodes; ++n) {
    report.disk_busy_seconds += util::to_seconds(ws->disk(n).stats().busy);
    report.traffic.push_back(cluster->fabric().stats(n));
    report.bytes_sent += report.traffic.back().bytes_sent;
  }
  if (tcp_fabric) tcp_fabric->shutdown();  // orderly BYE before exit
  if (shm_fabric) shm_fabric->shutdown();  // orderly bye flag before exit
  return report;
}

void write_traffic_json(util::JsonWriter& w, const comm::TrafficStats& t) {
  w.begin_object();
  w.kv("messages_sent", t.messages_sent);
  w.kv("bytes_sent", t.bytes_sent);
  w.kv("messages_received", t.messages_received);
  w.kv("bytes_received", t.bytes_received);
  w.end_object();
}

/// One blob per invocation: the configuration plus, per program run, the
/// phase times, verification verdict, aggregated pipeline StageStats, and
/// the communication/disk substrate counters — the machine-readable twin
/// of the human tables above.
std::string stats_json_blob(const Options& opt,
                            const std::vector<RunReport>& reports) {
  util::JsonWriter w;
  w.begin_object();
  w.key("config");
  w.begin_object();
  w.kv("records", static_cast<std::uint64_t>(opt.cfg.records));
  w.kv("record_bytes", opt.cfg.record_bytes);
  w.kv("nodes", opt.cfg.nodes);
  w.kv("distribution", sort::to_string(opt.cfg.dist));
  w.kv("seed", static_cast<std::uint64_t>(opt.cfg.seed));
  w.kv("latency", opt.paper_latency ? "paper" : "none");
  w.kv("fabric", opt.fabric);
  w.kv("rank", opt.fabric != "sim" ? opt.rank : -1);
  w.kv("seek_aware", opt.seek_aware);
  w.kv("disk", std::string(pdm::to_string(opt.disk)));
  w.kv("direct", opt.direct);
  w.kv("watchdog_ms", opt.cfg.watchdog_ms);
  w.kv("fault_spec", opt.fault_spec ? *opt.fault_spec : std::string{});
  w.end_object();
  w.key("programs");
  w.begin_array();
  for (const auto& r : reports) {
    w.begin_object();
    w.kv("program", r.program);
    w.key("times");
    w.begin_object();
    w.kv("sampling_s", r.result.times.sampling);
    w.key("passes_s");
    w.begin_array();
    for (double p : r.result.times.passes) w.value(p);
    w.end_array();
    w.kv("total_s", r.result.times.total());
    w.end_object();
    w.kv("verified", r.verify.ok());
    w.kv("verify_skipped", r.verify_skipped);
    w.key("stages");
    write_stage_stats_json(w, r.result.stage_totals);
    w.kv("disk_busy_seconds", r.disk_busy_seconds);
    w.key("disk_retries");
    w.begin_object();
    w.kv("attempts", r.disk_retries.attempts);
    w.kv("retries", r.disk_retries.retries);
    w.kv("absorbed", r.disk_retries.absorbed);
    w.kv("exhausted", r.disk_retries.exhausted);
    w.end_object();
    w.kv("faults_injected", r.faults_injected);
    if (r.obs) {
      w.key("metrics");
      r.obs->metrics().write_json(w);
    }
    w.key("traffic");
    w.begin_object();
    w.key("per_node");
    w.begin_array();
    comm::TrafficStats total;
    for (const auto& t : r.traffic) {
      write_traffic_json(w, t);
      total.messages_sent += t.messages_sent;
      total.bytes_sent += t.bytes_sent;
      total.messages_received += t.messages_received;
      total.bytes_received += t.bytes_received;
    }
    w.end_array();
    w.key("total");
    write_traffic_json(w, total);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  // The latency model only shapes the stdio (simulation) backend; a
  // native-disk run goes as fast as the hardware allows.
  const char* latency_label =
      opt.disk != pdm::DiskBackend::kStdio
          ? "none (hardware-speed disk)"
          : (opt.paper_latency ? "paper" : "none");
  if (opt.fabric != "sim") {
    std::printf("fgsort: %llu x %u-byte records (%s), rank %d of %d over "
                "%s, disk=%s%s latency=%s%s\n",
                static_cast<unsigned long long>(opt.cfg.records),
                opt.cfg.record_bytes, sort::to_string(opt.cfg.dist).c_str(),
                opt.rank, opt.cfg.nodes, opt.fabric.c_str(),
                pdm::to_string(opt.disk),
                opt.direct ? "(direct)" : "", latency_label,
                opt.seek_aware ? ", seek-aware" : "");
  } else {
    std::printf("fgsort: %llu x %u-byte records (%s), %d simulated nodes, "
                "disk=%s%s latency=%s%s\n",
                static_cast<unsigned long long>(opt.cfg.records),
                opt.cfg.record_bytes, sort::to_string(opt.cfg.dist).c_str(),
                opt.cfg.nodes, pdm::to_string(opt.disk),
                opt.direct ? "(direct)" : "", latency_label,
                opt.seek_aware ? ", seek-aware" : "");
  }

  std::vector<RunReport> reports;
  for (const char* p : {"dsort", "csort", "ssort"}) {
    if (opt.program == "all" || opt.program == p) {
      try {
        reports.push_back(run_one(p, opt));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "fgsort: %s failed: %s\n", p, e.what());
        return 3;
      }
    }
  }

  util::TextTable t;
  t.header({"program", "sampling s", "pass 1 s", "pass 2 s", "pass 3 s",
            "total s", "verified"});
  for (const auto& r : reports) {
    const auto& pt = r.result.times;
    t.row({r.program, util::fmt_seconds(pt.sampling),
           pt.passes.size() > 0 ? util::fmt_seconds(pt.passes[0]) : "-",
           pt.passes.size() > 1 ? util::fmt_seconds(pt.passes[1]) : "-",
           pt.passes.size() > 2 ? util::fmt_seconds(pt.passes[2]) : "-",
           util::fmt_seconds(pt.total()),
           r.verify_skipped ? "skip" : (r.verify.ok() ? "yes" : "NO")});
  }
  std::fputs(t.render().c_str(), stdout);

  if (opt.stats) {
    std::printf("\nsubstrate totals (all nodes):\n");
    for (const auto& r : reports) {
      std::printf("  %-5s disk busy %s  network sent %s\n", r.program.c_str(),
                  util::fmt_seconds(r.disk_busy_seconds).c_str(),
                  util::fmt_bytes(r.bytes_sent).c_str());
      if (opt.fault_spec) {
        std::printf("        faults injected %llu  disk retries %llu "
                    "(absorbed %llu ops, exhausted %llu)\n",
                    static_cast<unsigned long long>(r.faults_injected),
                    static_cast<unsigned long long>(r.disk_retries.retries),
                    static_cast<unsigned long long>(r.disk_retries.absorbed),
                    static_cast<unsigned long long>(r.disk_retries.exhausted));
      }
    }
  }
  if (opt.stats_json) {
    const std::string blob = stats_json_blob(opt, reports);
    std::FILE* f = std::fopen(opt.stats_json->c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "fgsort: cannot write '%s'\n",
                   opt.stats_json->c_str());
      return 1;
    }
    std::fwrite(blob.data(), 1, blob.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
  }
  for (const auto& r : reports) {
    if (!r.verify_skipped && !r.verify.ok()) return 1;
  }
  return 0;
}
