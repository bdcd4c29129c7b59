// Buffer-size and pool-depth sweep for dsort — the tuning behind the
// paper's "all results reported here are for the best choices of buffer
// sizes".  Buffers that are too small waste each operation's setup cost
// (seeks, message headers); too few buffers starve the pipeline of
// overlap; too-large buffers reduce the number of rounds until the
// pipeline cannot hide latency behind other buffers.
#include "bench_common.hpp"
#include "core/buffer.hpp"
#include "core/channel.hpp"
#include "core/queue.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

namespace {

fg::sort::SortConfig sweep_config(std::uint64_t buffer_records,
                                  std::size_t num_buffers) {
  auto cfg = fg::bench::figure8_config(16);
  // A quarter of the figure-8 dataset keeps the sweep quick.
  cfg.records = fg::sort::csort_compatible_records(
      std::max<std::uint64_t>(fg::bench::bench_records() / 4, 1 << 16),
      cfg.nodes, cfg.block_records);
  cfg.buffer_records = buffer_records;
  cfg.out_buffer_records = buffer_records;
  cfg.merge_buffer_records = std::max<std::uint64_t>(buffer_records / 4, 256);
  cfg.num_buffers = num_buffers;
  cfg.out_num_buffers = num_buffers;
  return cfg;
}

double run_once(std::uint64_t buffer_records, std::size_t num_buffers) {
  const auto out = fg::sort::run_program(
      true, sweep_config(buffer_records, num_buffers),
      fg::sort::LatencyProfile::paper_like());
  return out.result.times.total();
}

void BM_Buffers(benchmark::State& state) {
  for (auto _ : state) {
    state.SetIterationTime(run_once(static_cast<std::uint64_t>(state.range(0)),
                                    static_cast<std::size_t>(state.range(1))));
  }
}

BENCHMARK(BM_Buffers)
    ->ArgNames({"buffer_records", "num_buffers"})
    ->Args({2048, 4})
    ->Args({8192, 1})
    ->Args({8192, 2})
    ->Args({8192, 4})
    ->Args({32768, 4})
    ->UseManualTime()
    ->Iterations(1)
    ->Unit(benchmark::kSecond);

// ---------------------------------------------------------------------------
// Queue-hop microbenchmark: the cost of conveying one token from a
// producer stage to a consumer stage, for the mutex/condvar BufferQueue
// (the runtime's only channel) and the wait-free SpscChannel (a FastFlow-
// style ring no runtime path builds; at FG's buffer sizes a hop is a
// vanishing share of a round).  One producer thread streams tokens
// through the channel while one consumer pops; ns/op is wall time over
// token count, so it includes the full push+pop handshake.

constexpr std::size_t kHopCapacity = 64;

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

void BM_QueueHop(benchmark::State& state, const std::string& channel) {
  const auto tokens = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    state.SetIterationTime(hop_ns(channel, tokens) * 1e-9 *
                           static_cast<double>(tokens));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(tokens));
}

// --gate=<path>: measure both channels outside google-benchmark, write a
// small JSON artifact (consumed by tools/ci.sh), and fail the process if
// the SPSC ring does not beat the mutex queue on queue-hop ns/op.
int run_gate(const std::string& path) {
  constexpr std::uint64_t kTokens = 1 << 20;
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

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--gate=", 7) == 0) {
      return run_gate(argv[i] + 7);
    }
  }
  for (const auto& [name, channel] :
       {std::pair<const char*, const char*>{"queue_hop/mpmc", "mpmc"},
        {"queue_hop/spsc", "spsc"}}) {
    benchmark::RegisterBenchmark(
        name, [channel](benchmark::State& s) { BM_QueueHop(s, channel); })
        ->ArgName("tokens")
        ->Arg(1 << 20)
        ->UseManualTime()
        ->Unit(benchmark::kNanosecond);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  std::printf("\ndsort buffer tuning (see counters above): the paper "
              "reports results for the\nbest buffer sizes; the sweet spot "
              "balances per-operation setup cost against\noverlap depth.\n"
              "queue_hop compares the stage-to-stage conveyance cost of the "
              "two channel\nkinds; run with --gate=<path> for the CI "
              "artifact and pass/fail check.\n");
  return 0;
}
