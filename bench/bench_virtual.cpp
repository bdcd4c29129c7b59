// Microbenchmark of virtual stages (Section IV): k identical pipelines
// with and without virtual stages.  Virtual stages collapse k x
// (source + stage + stage + sink) threads into 4, which is what lets a
// node run hundreds of vertical pipelines ("most current systems cannot
// handle hundreds of threads").
//
// Reports thread counts and wall times, one run per configuration.  The
// one-thread-per-stage variant is capped at 128 pipelines to stay
// friendly to small machines — which is itself the point being
// demonstrated.
#include "core/fg.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

namespace {

using namespace fg;

struct Outcome {
  double seconds;
  std::size_t planned_threads;
};

Outcome run_k_pipelines(int k, bool virtual_stages, std::uint64_t rounds) {
  PipelineGraph graph;
  std::atomic<std::uint64_t> work{0};
  auto fn = [&](Buffer& b) {
    // A little real work per buffer so the bench measures scheduling, not
    // nothing.
    std::uint64_t h = b.round() + b.pipeline();
    for (int i = 0; i < 64; ++i) h = h * 2654435761ULL + 1;
    work += h & 1;
    return StageAction::kConvey;
  };
  MapStage shared_a("a", fn), shared_b("b", fn);
  std::vector<std::unique_ptr<MapStage>> owned;
  for (int i = 0; i < k; ++i) {
    PipelineConfig pc;
    pc.name = "p" + std::to_string(i);
    pc.num_buffers = 2;
    pc.buffer_bytes = 1024;
    pc.rounds = rounds;
    Pipeline& p = graph.add_pipeline(pc);
    if (virtual_stages) {
      p.add_stage(shared_a, StageMode::kVirtual);
      p.add_stage(shared_b, StageMode::kVirtual);
    } else {
      owned.push_back(std::make_unique<MapStage>("a" + std::to_string(i), fn));
      p.add_stage(*owned.back());
      owned.push_back(std::make_unique<MapStage>("b" + std::to_string(i), fn));
      p.add_stage(*owned.back());
    }
  }
  const std::size_t planned = graph.planned_threads();
  util::Stopwatch wall;
  graph.run();
  return {wall.elapsed_seconds(), planned};
}

}  // namespace

int main() {
  fg::util::TextTable t;
  t.header({"pipelines", "virtual thr", "virtual s", "normal thr", "normal s"});
  for (const int k : {8, 32, 128, 512, 1024}) {
    const Outcome vo = run_k_pipelines(k, true, 32);
    std::string nt = "-", ns = "-";
    // Beyond a thread per stage: only feasible with virtual stages.
    if (k <= 128) {
      const Outcome no = run_k_pipelines(k, false, 32);
      nt = std::to_string(no.planned_threads);
      ns = fg::util::fmt_seconds(no.seconds);
    }
    t.row({std::to_string(k), std::to_string(vo.planned_threads),
           fg::util::fmt_seconds(vo.seconds), nt, ns});
  }
  std::printf("Virtual stages keep the thread count constant as pipeline "
              "counts grow.  The\nnormal variant is omitted beyond 128 "
              "pipelines — that is the point.\n");
  std::fputs(t.render().c_str(), stdout);
  return 0;
}
