// fgbench — the measuring half of the FG sort benchmark.  run.py builds
// it, runs it once per workload, and turns the raw samples it writes into
// the benchmark's metrics.
//
//   fgbench programs --out FILE --root DIR --seed S --seconds T --trace 0|1
//                    --nodes P --records N --record-bytes B
//                    --disk native|stdio --latency none|paper
//                    [--ring-capacity K]
//                    [--fabric shm --rank R --shm-fd FD]
//   fgbench layers   --out FILE --root DIR --seed S --nodes P --records N
//                    --record-bytes B --disk native|stdio [--fabric shm]
//
// programs: run one warm-up round of dsort, csort and ssort, then measured
// rounds while one more still fits in --seconds.  Every program run starts
// on a fresh workspace and input, and the bring-up is timed (bring_up
// below; a rank attaches its segment once, and that time is added to each
// of its bring-ups).  Every run's output is checked with verify_output (on
// rank 0 under shm).  With --trace 1 every round also
// runs each program with an obs::Session attached and reduces its span
// rings to per-stage self and wait time (spans.hpp).  Each run records
// its phase times and the disk and fabric counters of the nodes this
// process hosts.
//
// Under --fabric shm the process is one rank of a set launched by
// `fgnode --fabric shm`, which appends --fabric, --rank and --shm-fd.
//
// layers: the per-layer probes and their ceilings (layers.hpp).
#include "layers.hpp"
#include "spans.hpp"

#include "comm/cluster.hpp"
#include "obs/session.hpp"
#include "sort/csort.hpp"
#include "sort/experiment.hpp"
#include "sort/ssort.hpp"
#include "util/parse.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace {

using namespace fg;

struct Options {
  std::string mode;
  std::string out;
  std::filesystem::path root;
  std::uint64_t seed{1};
  double seconds{10};
  bool trace{false};
  int nodes{4};
  std::uint64_t records{1u << 20};
  std::uint32_t record_bytes{16};
  pdm::DiskBackend disk{pdm::DiskBackend::kNative};
  bool paper_latency{false};
  std::size_t ring_capacity{1u << 14};
  bool shm{false};
  int rank{0};
  int shm_fd{-1};
};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: fgbench programs|layers --out FILE --root DIR "
               "--seed S\n"
               "         [--seconds T] [--trace 0|1] --nodes P --records N\n"
               "         --record-bytes B --disk native|stdio\n"
               "         [--latency none|paper] [--ring-capacity K]\n"
               "         [--fabric sim|shm --rank R --shm-fd FD]\n");
  std::exit(2);
}

Options parse(int argc, char** argv) try {
  if (argc < 2) usage();
  Options o;
  o.mode = argv[1];
  if (o.mode != "programs" && o.mode != "layers") usage();
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage();
    const std::string v = argv[++i];
    if (a == "--out") o.out = v;
    else if (a == "--root") o.root = v;
    else if (a == "--seed") o.seed = util::parse_u64(v, "--seed");
    else if (a == "--seconds") o.seconds = static_cast<double>(util::parse_int(v, "--seconds", 0, 3600));
    else if (a == "--trace") o.trace = util::parse_int(v, "--trace", 0, 1) == 1;
    else if (a == "--nodes") o.nodes = static_cast<int>(util::parse_int(v, "--nodes", 1, 1024));
    else if (a == "--records") o.records = util::parse_u64(v, "--records", 1);
    else if (a == "--record-bytes") o.record_bytes = static_cast<std::uint32_t>(util::parse_int(v, "--record-bytes", 16, 65536));
    else if (a == "--disk") o.disk = pdm::parse_disk_backend(v);
    else if (a == "--latency") o.paper_latency = v == "paper";
    else if (a == "--ring-capacity") o.ring_capacity = static_cast<std::size_t>(util::parse_int(v, "--ring-capacity", 1, 1 << 24));
    else if (a == "--fabric") o.shm = v == "shm";
    else if (a == "--rank") o.rank = static_cast<int>(util::parse_int(v, "--rank", 0, 1023));
    else if (a == "--shm-fd") o.shm_fd = static_cast<int>(util::parse_int(v, "--shm-fd", 0, 1 << 30));
    else usage();
  }
  if (o.out.empty() || o.root.empty()) usage();
  return o;
} catch (const std::invalid_argument& e) {
  std::fprintf(stderr, "fgbench: %s\n", e.what());
  std::exit(2);
}

sort::LatencyProfile latency(const Options& o) {
  return o.paper_latency ? sort::LatencyProfile::paper_like()
                         : sort::LatencyProfile::none();
}

/// fgsort's plan for these flags: 64 KiB striping blocks, 256 KiB
/// pipeline buffers, and a csort-compatible record count, so the
/// in-process and fgsort-driven workloads sort the same way.
sort::SortConfig make_config(const Options& o) {
  sort::SortConfig cfg;
  cfg.nodes = o.nodes;
  cfg.record_bytes = o.record_bytes;
  cfg.seed = o.seed;
  cfg.oversample = 128;
  cfg.block_records = (4096 * 16) / o.record_bytes;
  cfg.buffer_records = (16384 * 16) / o.record_bytes;
  cfg.merge_buffer_records = (4096 * 16) / o.record_bytes;
  cfg.out_buffer_records = (16384 * 16) / o.record_bytes;
  cfg.records =
      sort::csort_compatible_records(o.records, o.nodes, cfg.block_records);
  cfg.compute_model = latency(o).compute;
  return cfg;
}

/// Gives every node program's main thread a span ring for the traced
/// runs; otherwise the inner cluster unchanged.
class TracedCluster final : public comm::Cluster {
 public:
  TracedCluster(comm::Cluster& inner, obs::Session& session)
      : inner_(inner), session_(session) {}

  comm::Fabric& fabric() noexcept override { return inner_.fabric(); }

  void run(const std::function<void(comm::NodeId)>& node_main) override {
    inner_.run([&](comm::NodeId me) {
      obs::RingScope ring(&session_.spans().acquire(fgbench::kMainTrack));
      node_main(me);
    });
  }

 private:
  comm::Cluster& inner_;
  obs::Session& session_;
};

/// One brought-up cluster: workspace, fabric, and the nodes this process
/// hosts.
struct Rig {
  std::shared_ptr<comm::ShmSegment> segment;
  std::unique_ptr<comm::ShmFabric> shm;
  std::unique_ptr<comm::Cluster> cluster;
  std::unique_ptr<pdm::Workspace> ws;
  std::vector<int> local;  ///< node ids this process hosts
  bool verifies{true};     ///< does this process check the output?

  /// Under shm: wait until every rank gets here.
  void barrier() {
    if (shm) cluster->run([](comm::NodeId) {});
  }
};

std::unique_ptr<pdm::Workspace> make_workspace(const Options& o,
                                               const std::string& tree) {
  auto ws = std::make_unique<pdm::Workspace>(o.root / tree, o.nodes,
                                             latency(o).disk, o.disk);
  // Ranks share the tree; run.py removes it.
  if (o.shm) ws->keep();
  return ws;
}

/// Attach this rank to the inherited segment.
void attach_rank(const Options& o, Rig& rig) {
  if (o.shm_fd < 0) throw std::invalid_argument("fgbench: --fabric shm needs --shm-fd");
  rig.segment = comm::ShmSegment::attach(o.shm_fd);
  if (rig.segment->nodes() != o.nodes) {
    throw std::invalid_argument("fgbench: segment size differs from --nodes");
  }
  rig.shm = std::make_unique<comm::ShmFabric>(rig.segment, o.rank);
  rig.shm->set_recv_deadline(std::chrono::seconds(120));
  rig.cluster = std::make_unique<comm::ShmCluster>(*rig.shm);
  rig.local = {o.rank};
  rig.verifies = o.rank == 0;
}

struct IoCounts {
  std::uint64_t read_ops{0}, bytes_read{0}, write_ops{0}, bytes_written{0};
  double busy_s{0};
};

struct RunRecord {
  std::string program;
  bool warmup{false};
  bool traced{false};
  std::string error;
  std::optional<bool> verified;  ///< empty where another rank verifies
  sort::PhaseTimes times;
  IoCounts io;
  comm::TrafficStats net;
  std::optional<fgbench::SpanSummary> spans;
};

/// Write this process's input stripes to disk.
void settle_input(Rig& rig, const sort::SortConfig& cfg) {
  for (int n : rig.local) {
    pdm::Disk& disk = rig.ws->disk(n);
    pdm::File f = disk.open(cfg.input_name);
    disk.sync(f);
    disk.close(f);
  }
}

RunRecord run_program(const std::string& program, Rig& rig,
                      const sort::SortConfig& base, const Options& o,
                      bool traced, bool warmup) {
  RunRecord r;
  r.program = program;
  r.traced = traced;
  r.warmup = warmup;
  sort::SortConfig cfg = base;
  std::unique_ptr<obs::Session> session;
  std::unique_ptr<TracedCluster> traced_cluster;
  comm::Cluster* cluster = rig.cluster.get();
  if (traced) {
    session = std::make_unique<obs::Session>(o.ring_capacity);
    cfg.obs = session.get();
    traced_cluster = std::make_unique<TracedCluster>(*rig.cluster, *session);
    cluster = traced_cluster.get();
  }
  comm::Fabric& fabric = rig.cluster->fabric();
  std::map<int, comm::TrafficStats> before;
  for (int n : rig.local) {
    rig.ws->disk(n).reset_stats();
    before[n] = fabric.stats(n);
  }
  try {
    sort::SortResult res;
    if (program == "dsort") res = sort::run_dsort(*cluster, *rig.ws, cfg);
    else if (program == "csort") res = sort::run_csort(*cluster, *rig.ws, cfg);
    else res = sort::run_ssort(*cluster, *rig.ws, cfg);
    r.times = res.times;
    for (int n : rig.local) {
      const pdm::IoStats s = rig.ws->disk(n).stats();
      r.io.read_ops += s.read_ops;
      r.io.bytes_read += s.bytes_read;
      r.io.write_ops += s.write_ops;
      r.io.bytes_written += s.bytes_written;
      r.io.busy_s += util::to_seconds(s.busy);
      const comm::TrafficStats t = fabric.stats(n);
      const comm::TrafficStats& b = before[n];
      r.net.messages_sent += t.messages_sent - b.messages_sent;
      r.net.bytes_sent += t.bytes_sent - b.bytes_sent;
      r.net.messages_received += t.messages_received - b.messages_received;
      r.net.bytes_received += t.bytes_received - b.bytes_received;
    }
    if (session) r.spans = fgbench::summarize(session->spans());
    if (rig.verifies) r.verified = sort::verify_output(*rig.ws, cfg).ok();
    // Under shm no rank may start the next run (which rewrites the
    // output) before rank 0 has read this one.
    rig.barrier();
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  return r;
}

void write_run(util::JsonWriter& w, const RunRecord& r) {
  w.begin_object();
  w.kv("program", r.program);
  w.kv("warmup", r.warmup);
  w.kv("traced", r.traced);
  w.kv("error", r.error);
  w.key("verified");
  if (r.verified) w.value(*r.verified);
  else w.null();
  w.kv("sampling_s", r.times.sampling);
  w.key("passes_s");
  w.begin_array();
  for (double p : r.times.passes) w.value(p);
  w.end_array();
  w.kv("total_s", r.times.total());
  w.key("disk");
  w.begin_object();
  w.kv("read_ops", r.io.read_ops);
  w.kv("bytes_read", r.io.bytes_read);
  w.kv("write_ops", r.io.write_ops);
  w.kv("bytes_written", r.io.bytes_written);
  w.kv("busy_s", r.io.busy_s);
  w.end_object();
  w.key("net");
  w.begin_object();
  w.kv("messages_sent", r.net.messages_sent);
  w.kv("bytes_sent", r.net.bytes_sent);
  w.kv("messages_received", r.net.messages_received);
  w.kv("bytes_received", r.net.bytes_received);
  w.end_object();
  if (r.spans) {
    w.key("spans");
    w.begin_object();
    w.key("stages");
    w.begin_object();
    for (const auto& [label, st] : r.spans->stages) {
      w.key(label);
      w.begin_object();
      w.kv("self_s", st.self_s);
      w.kv("wait_s", st.wait_s);
      w.end_object();
    }
    w.end_object();
    w.kv("recv_s", r.spans->recv_s);
    w.kv("collective_s", r.spans->collective_s);
    w.kv("dropped", r.spans->dropped);
    w.kv("count", r.spans->spans);
    w.end_object();
  }
  w.end_object();
}

double peak_rss_kib() {
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss);
}

/// An exclusive flock on a file, held until destroyed or released.
class TurnLock {
 public:
  explicit TurnLock(const std::filesystem::path& path) {
    fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    if (fd_ < 0 || ::flock(fd_, LOCK_EX) != 0) {
      release();
      throw std::runtime_error("fgbench: cannot lock '" + path.string() + "'");
    }
  }
  TurnLock(const TurnLock&) = delete;
  TurnLock& operator=(const TurnLock&) = delete;
  ~TurnLock() { release(); }

  void release() {
    if (fd_ >= 0) ::close(fd_);  // closing drops the lock
    fd_ = -1;
  }

 private:
  int fd_{-1};
};

/// Replace the workspace with a fresh one holding a fresh input, and
/// return the seconds that took.  In process: the whole tree and a new
/// SimCluster.  Under shm: this rank's stripe, in a tree of its own per
/// bring-up, with the ranks taking turns under a lock file in --root, so
/// that each times its own work and not four ranks contending for cores
/// and memory bandwidth; run.py sums the ranks' times.
///
/// Untimed: removing the previous tree, which unlinks the last run's
/// outputs so the page cache drops them unwritten (ext4 would start
/// writing back an output truncated and rewritten by the next run), and
/// syncing the new input, so its writeback does not land in a run.
double bring_up(const Options& o, const sort::SortConfig& cfg, Rig& rig,
                int generation) {
  if (o.shm) {
    if (rig.ws) std::filesystem::remove_all(rig.ws->disk(o.rank).dir());
    rig.ws.reset();
    TurnLock turn(o.root / "setup.lock");
    util::Stopwatch sw;
    rig.ws = make_workspace(o, "ws" + std::to_string(generation));
    sort::generate_node_input(*rig.ws, cfg, o.rank);
    const double s = sw.elapsed_seconds();
    turn.release();
    settle_input(rig, cfg);
    rig.barrier();
    return s;
  }
  rig.cluster.reset();
  rig.ws.reset();
  util::Stopwatch sw;
  rig.ws = make_workspace(o, "ws");
  rig.cluster = std::make_unique<comm::SimCluster>(o.nodes, latency(o).net);
  sort::generate_input(*rig.ws, cfg);
  const double s = sw.elapsed_seconds();
  settle_input(rig, cfg);
  return s;
}

void programs(const Options& o, util::JsonWriter& w) {
  const sort::SortConfig cfg = make_config(o);
  Rig rig;
  double attach_s = 0;
  if (o.shm) {
    std::filesystem::create_directories(o.root);
    util::Stopwatch sw;
    attach_rank(o, rig);
    attach_s = sw.elapsed_seconds();
  } else {
    for (int i = 0; i < o.nodes; ++i) rig.local.push_back(i);
  }

  std::vector<double> setup_s;
  std::vector<RunRecord> runs;
  bool failed = false;
  auto round = [&](bool warmup) {
    for (const char* program : {"dsort", "csort", "ssort"}) {
      for (bool traced : {false, true}) {
        if (traced && (!o.trace || warmup)) continue;
        const int generation = static_cast<int>(setup_s.size());
        setup_s.push_back(attach_s + bring_up(o, cfg, rig, generation));
        runs.push_back(run_program(program, rig, cfg, o, traced, warmup));
        if (!runs.back().error.empty()) failed = true;
        if (failed) return;
      }
    }
  };
  round(/*warmup=*/true);
  // Measured rounds while the next one, as long as the last, still ends
  // inside the window; always at least one.
  util::Stopwatch window;
  for (;;) {
    const double start = window.elapsed_seconds();
    if (!failed) round(/*warmup=*/false);
    const double end = window.elapsed_seconds();
    // Rank 0's clock decides for the whole rank set.
    std::byte more{static_cast<unsigned char>(
        !failed && end + (end - start) <= o.seconds)};
    if (o.shm && !failed) rig.shm->broadcast(o.rank, 0, {&more, 1});
    if (more == std::byte{0}) break;
  }
  if (rig.shm && !failed) rig.shm->shutdown();

  w.begin_object();
  w.kv("mode", "programs");
  w.kv("records", cfg.records);
  w.kv("record_bytes", cfg.record_bytes);
  w.kv("nodes", cfg.nodes);
  w.kv("local_nodes", static_cast<std::uint64_t>(rig.local.size()));
  w.key("setup_s");
  w.begin_array();
  for (double s : setup_s) w.value(s);
  w.end_array();
  w.key("runs");
  w.begin_array();
  for (const RunRecord& r : runs) write_run(w, r);
  w.end_array();
  w.kv("peak_rss_kib", peak_rss_kib());
  w.end_object();
}

void layers(const Options& o, util::JsonWriter& w) {
  fgbench::LayerOptions lo;
  lo.root = o.root;
  lo.seed = o.seed;
  lo.nodes = o.nodes;
  lo.records = make_config(o).records;
  lo.record_bytes = o.record_bytes;
  lo.disk = o.disk;
  lo.shm = o.shm;
  fgbench::measure_layers(lo, w);
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  util::JsonWriter w;
  try {
    if (o.mode == "programs") programs(o, w);
    else layers(o, w);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fgbench %s: %s\n", o.mode.c_str(), e.what());
    return 1;
  }
  std::FILE* f = std::fopen(o.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "fgbench: cannot write '%s'\n", o.out.c_str());
    return 1;
  }
  std::fputs(w.str().c_str(), f);
  std::fputc('\n', f);
  return std::fclose(f) == 0 ? 0 : 1;
}
