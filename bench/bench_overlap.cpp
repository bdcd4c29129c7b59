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

/// Tracing overhead on the overlap workload: the acceptance budget for
/// the span layer is <= 5% of wall time.  Uses the median-free approach
/// of averaging several runs each way; the workload is sleep-dominated,
/// so any contention the span layer added would surface directly.
void report_tracing_overhead() {
  constexpr int kStages = 4;
  constexpr std::size_t kBuffers = 8;
  constexpr int kReps = 3;
  double untraced = 0, traced = 0;
  for (int i = 0; i < kReps; ++i) {
    untraced += run_pipeline(kStages, kBuffers);
    obs::Session session;
    traced += run_pipeline(kStages, kBuffers, &session);
  }
  untraced /= kReps;
  traced /= kReps;
  const double overhead = (traced - untraced) / untraced * 100.0;
  std::printf("\nTracing overhead (%d stages, %zu buffers, %llu rounds, "
              "%d reps):\n  untraced %.4f s   traced %.4f s   overhead "
              "%+.2f%%  (budget: 5%%)\n",
              kStages, kBuffers,
              static_cast<unsigned long long>(kRounds), kReps, untraced,
              traced, overhead);
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
