// Buffer-size and pool-depth sweep for dsort — the tuning behind the
// paper's "all results reported here are for the best choices of buffer
// sizes".  Buffers that are too small waste each operation's setup cost
// (seeks, message headers); too few buffers starve the pipeline of
// overlap; too-large buffers reduce the number of rounds until the
// pipeline cannot hide latency behind other buffers.  Each sweep point
// runs once and verifies its output; an incorrect sort exits 1.
//
//   bench_buffers               the dsort sweep and the queue-hop table
//   bench_buffers --gate=PATH   the queue-hop gate alone (see run_gate)
#include "core/buffer.hpp"
#include "core/channel.hpp"
#include "core/queue.hpp"
#include "sort/experiment.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

namespace {

fg::sort::SortConfig sweep_config(std::uint64_t buffer_records,
                                  std::size_t num_buffers) {
  fg::sort::SortConfig cfg;
  cfg.nodes = 16;
  // A quarter of the Figure-8 dataset keeps the sweep quick.
  cfg.records = 1 << 19;
  fg::sort::use_paper_geometry(cfg);
  cfg.buffer_records = buffer_records;
  cfg.out_buffer_records = buffer_records;
  cfg.merge_buffer_records = std::max<std::uint64_t>(buffer_records / 4, 256);
  cfg.num_buffers = num_buffers;
  cfg.out_num_buffers = num_buffers;
  return cfg;
}

/// dsort's total seconds; run_program throws on an incorrect sort.
double run_once(std::uint64_t buffer_records, std::size_t num_buffers) {
  const auto out = fg::sort::run_program(
      true, sweep_config(buffer_records, num_buffers),
      fg::sort::LatencyProfile::paper_like());
  return out.result.times.total();
}

// ---------------------------------------------------------------------------
// Queue-hop microbenchmark: the cost of conveying one token from a
// producer stage to a consumer stage, for the mutex/condvar BufferQueue
// (the runtime's only channel) and the wait-free SpscChannel (a FastFlow-
// style ring no runtime path builds; at FG's buffer sizes a hop is a
// vanishing share of a round).  One producer thread streams tokens
// through the channel while one consumer pops; ns/op is wall time over
// token count, so it includes the full push+pop handshake.

constexpr std::size_t kHopCapacity = 64;
constexpr std::uint64_t kTokens = 1 << 20;

double hop_ns_per_op(fg::Channel& q, std::uint64_t tokens) {
  fg::Buffer buf(64, fg::PipelineId{0}, false);
  fg::util::Stopwatch wall;
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < tokens; ++i) {
      q.push(fg::Token::of_buffer(&buf));
    }
    q.push(fg::Token::caboose(0));
  });
  for (;;) {
    const fg::Token t = q.pop();
    if (t.kind != fg::TokenKind::kBuffer) break;
  }
  const double seconds = wall.elapsed_seconds();
  producer.join();
  return seconds * 1e9 / static_cast<double>(tokens);
}

double hop_ns(const std::string& channel, std::uint64_t tokens) {
  if (channel == "spsc") {
    // Same producer throttle depth as the mutex queue; the ring itself is
    // sized strictly above the declared capacity so the bound never
    // binds first.
    fg::SpscChannel q(kHopCapacity * 4, kHopCapacity);
    return hop_ns_per_op(q, tokens);
  }
  fg::BufferQueue q(kHopCapacity);
  return hop_ns_per_op(q, tokens);
}

// --gate=<path>: measure both channels, best of three trials each, write
// a small JSON artifact (consumed by tools/ci.sh), and fail the process if
// the SPSC ring does not beat the mutex queue on queue-hop ns/op.
int run_gate(const std::string& path) {
  constexpr int kTrials = 3;
  double mpmc = 1e300, spsc = 1e300;
  for (int i = 0; i < kTrials; ++i) {
    mpmc = std::min(mpmc, hop_ns("mpmc", kTokens));
    spsc = std::min(spsc, hop_ns("spsc", kTokens));
  }
  fg::util::JsonWriter w;
  w.begin_object();
  w.kv("bench", "queue_hop");
  w.kv("tokens", kTokens);
  w.kv("trials", kTrials);
  w.key("channels");
  w.begin_array();
  for (const auto& [name, ns] : {std::pair<const char*, double>{"mpmc", mpmc},
                                 {"spsc", spsc}}) {
    w.begin_object();
    w.kv("channel", name);
    w.kv("kind", std::string(name) == "spsc" ? "wait-free ring"
                                             : "mutex/condvar deque");
    w.kv("queue_hop_ns_per_op", ns);
    w.end_object();
  }
  w.end_array();
  w.kv("spsc_beats_mpmc", spsc < mpmc);
  w.end_object();
  std::ofstream out(path);
  out << w.str() << "\n";
  std::printf("queue-hop gate: mpmc %.1f ns/op, spsc %.1f ns/op -> %s\n", mpmc,
              spsc, spsc < mpmc ? "PASS" : "FAIL");
  return spsc < mpmc ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) try {
  if (argc > 1) {
    if (argc > 2 || std::strncmp(argv[1], "--gate=", 7) != 0) {
      std::fprintf(stderr, "usage: %s [--gate=PATH]\n", argv[0]);
      return 2;
    }
    return run_gate(argv[1] + 7);
  }
  fg::util::TextTable sweep;
  sweep.header({"buffer records", "buffers", "dsort s"});
  for (const auto& [records, buffers] :
       {std::pair<std::uint64_t, std::size_t>{2048, 4}, {8192, 1}, {8192, 2},
        {8192, 4}, {32768, 4}}) {
    sweep.row({std::to_string(records), std::to_string(buffers),
               fg::util::fmt_seconds(run_once(records, buffers))});
  }
  std::printf("dsort buffer tuning (16 nodes, 512 Ki 16-byte records, paper "
              "latency, verified):\nthe paper reports results for the best "
              "buffer sizes; the sweet spot balances\nper-operation setup "
              "cost against overlap depth.\n");
  std::fputs(sweep.render().c_str(), stdout);

  fg::util::TextTable hop;
  hop.header({"channel", "queue hop ns/op"});
  for (const char* channel : {"mpmc", "spsc"}) {
    char ns[32];
    std::snprintf(ns, sizeof ns, "%.1f", hop_ns(channel, kTokens));
    hop.row({channel, ns});
  }
  std::printf("\nQueue hop: the stage-to-stage conveyance cost of the two "
              "channel kinds over\n2^20 tokens; run with --gate=PATH for "
              "the CI artifact and pass/fail check.\n");
  std::fputs(hop.render().c_str(), stdout);
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "bench_buffers: %s\n", e.what());
  return 1;
}
