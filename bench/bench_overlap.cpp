// Microbenchmark of FG's core claim (Sections I-II): a pipeline of
// stages that each perform a high-latency operation overlaps them, so
// wall time approaches rounds x per-stage-cost instead of
// rounds x stages x per-stage-cost — provided the buffer pool is deep
// enough to keep every stage busy.
//
// Sweeps pipeline depth and pool size, one run per configuration.  With
// num_buffers = 1 there is no overlap at all (one buffer ping-pongs
// through the stages serially); the speedup column of the pool-size sweep
// is the measured benefit.
#include "core/fg.hpp"
#include "obs/session.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

namespace {

using namespace fg;

// Every stage blocks 2 ms per buffer, for 64 rounds.
constexpr std::uint64_t kRounds = 64;
constexpr auto kCost = std::chrono::microseconds(2000);

double run_pipeline(int stages, std::size_t buffers,
                    obs::Session* obs = nullptr) {
  PipelineGraph graph;
  PipelineConfig pc;
  pc.name = "bench";
  pc.num_buffers = buffers;
  pc.buffer_bytes = 4096;
  pc.rounds = kRounds;
  Pipeline& p = graph.add_pipeline(pc);
  std::vector<std::unique_ptr<MapStage>> owned;
  for (int s = 0; s < stages; ++s) {
    owned.push_back(std::make_unique<MapStage>(
        "stage" + std::to_string(s), [](Buffer&) {
          std::this_thread::sleep_for(kCost);
          return StageAction::kConvey;
        }));
    p.add_stage(*owned.back());
  }
  if (obs != nullptr) graph.set_observability(obs);
  util::Stopwatch wall;
  graph.run();
  return wall.elapsed_seconds();
}

/// Tracing overhead on the overlap workload: the span layer's budget is
/// 5% of wall time.  Host noise on one 0.14 s sleep-bound run is of that
/// order, so untraced and traced runs alternate in pairs, and the verdict
/// comes from the quartiles of the per-pair overhead: within budget when
/// the upper quartile is under 5%, over budget when the lower quartile is
/// above it, and unresolved otherwise.
void report_tracing_overhead() {
  constexpr int kStages = 4;
  constexpr std::size_t kBuffers = 8;
  constexpr int kPairs = 15;
  constexpr double kBudgetPct = 5.0;
  std::vector<double> pct;
  for (int i = 0; i < kPairs; ++i) {
    const double untraced = run_pipeline(kStages, kBuffers);
    obs::Session session;
    const double traced = run_pipeline(kStages, kBuffers, &session);
    pct.push_back((traced - untraced) / untraced * 100.0);
  }
  std::sort(pct.begin(), pct.end());
  const auto quantile = [&](double q) {  // linear between order statistics
    const double at = q * static_cast<double>(pct.size() - 1);
    const auto lo = static_cast<std::size_t>(at);
    const std::size_t hi = std::min(lo + 1, pct.size() - 1);
    return pct[lo] + (pct[hi] - pct[lo]) * (at - static_cast<double>(lo));
  };
  const double q1 = quantile(0.25), q3 = quantile(0.75);
  const char* verdict = q3 < kBudgetPct   ? "within budget"
                        : q1 > kBudgetPct ? "over budget"
                                          : "unresolved";
  std::printf("\nTracing overhead (%d stages, %zu buffers, %llu rounds, %d "
              "untraced/traced pairs):\n  median %+.2f%% [quartiles %+.2f%%, "
              "%+.2f%%]  %s (budget: %.0f%%)\n",
              kStages, kBuffers, static_cast<unsigned long long>(kRounds),
              kPairs, quantile(0.5), q1, q3, verdict, kBudgetPct);
}

}  // namespace

int main() {
  fg::util::TextTable t;
  t.header({"stages", "buffers", "wall s", "serial s", "speedup"});
  for (const int stages : {2, 4, 6}) {
    for (const std::size_t buffers : {std::size_t{1}, std::size_t{4},
                                      std::size_t{8}}) {
      const double wall = run_pipeline(stages, buffers);
      const double serial =
          static_cast<double>(stages) * kRounds * util::to_seconds(kCost);
      char speed[32];
      std::snprintf(speed, sizeof speed, "%.2fx", serial / wall);
      t.row({std::to_string(stages), std::to_string(buffers),
             fg::util::fmt_seconds(wall), fg::util::fmt_seconds(serial),
             speed});
    }
  }
  std::printf("Pipeline overlap: wall time vs the serial (no-overlap) "
              "bound.\nExpected shape: speedup -> stages once buffers >= "
              "stages; ~1x with one buffer.\n");
  std::fputs(t.render().c_str(), stdout);
  report_tracing_overhead();
  return 0;
}
