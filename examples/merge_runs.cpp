// Intersecting pipelines with virtual stages (the paper's Figure 5).
//
// Many small sorted runs live on a disk.  One vertical pipeline per run
// feeds a common merge stage; the merged stream flows down a horizontal
// pipeline to a writer.  The read stages of all vertical pipelines are
// declared *virtual*, so FG creates one thread (and one shared inbound
// queue) for all of them — without virtual stages, 64 runs would need
// ~196 threads; with them, 7.
//
//   ./merge_runs [num_runs] [records_per_run]
#include "core/fg.hpp"
#include "pdm/workspace.hpp"
#include "sort/kernels.hpp"
#include "util/timer.hpp"

#include <cstdio>
#include <cstdlib>
#include <vector>

using fg::Buffer;
using fg::MapStage;
using fg::Pipeline;
using fg::StageAction;

namespace {

constexpr std::uint32_t kRec = 16;

/// The common stage: accepts small buffers from each vertical pipeline,
/// merges them into large horizontal buffers with the sort library's
/// loser-tree merger, which reads each input buffer in place and says
/// when a run needs its next one.
class Merge final : public fg::Stage {
 public:
  Merge(std::vector<Pipeline*> verts, Pipeline& horiz)
      : Stage("merge"), verts_(std::move(verts)), horiz_(&horiz) {}

  void run(fg::StageContext& ctx) override {
    std::vector<Buffer*> in(verts_.size(), nullptr);
    fg::sort::MultiwayMerger merger(verts_.size(), kRec);
    auto load = [&](std::size_t v) {
      if (in[v]) ctx.convey(in[v]);  // spent buffer back to its own sink
      in[v] = ctx.accept(*verts_[v]);
      merger.feed(v, in[v] ? in[v]->contents() : std::span<const std::byte>{});
    };
    for (std::size_t v = 0; v < verts_.size(); ++v) load(v);

    Buffer* out = ctx.accept(*horiz_);
    std::size_t fill = 0;
    while (!merger.done()) {
      if (merger.dry() != fg::sort::MultiwayMerger::kNone) {
        load(merger.dry());
        continue;
      }
      fill += merger.merge(out->data().subspan(fill));
      if (fill == out->capacity()) {
        out->set_size(fill);
        ctx.convey(out);
        out = ctx.accept(*horiz_);
        fill = 0;
      }
    }
    if (fill) {
      out->set_size(fill);
      ctx.convey(out);
    } else {
      ctx.recycle(out);
    }
    ctx.close(*horiz_);
  }

 private:
  std::vector<Pipeline*> verts_;
  Pipeline* horiz_;
};

}  // namespace

int main(int argc, char** argv) {
  const int k = argc > 1 ? std::atoi(argv[1]) : 64;
  const std::uint64_t run_len = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 4096;

  // Stage the runs on a simulated disk: run v holds keys v, v+k, v+2k, ...
  fg::pdm::Workspace ws(1);
  fg::pdm::Disk& disk = ws.disk(0);
  fg::pdm::File runs = disk.create("runs");
  {
    std::vector<std::byte> buf(run_len * kRec);
    for (int v = 0; v < k; ++v) {
      for (std::uint64_t i = 0; i < run_len; ++i) {
        fg::sort::set_key(buf.data() + i * kRec,
                          i * static_cast<std::uint64_t>(k) +
                              static_cast<std::uint64_t>(v));
        fg::sort::set_uid(buf.data() + i * kRec, i);
      }
      disk.write(runs, static_cast<std::uint64_t>(v) * run_len * kRec, buf);
    }
  }

  fg::PipelineGraph graph;

  // Vertical pipelines: one per run, virtual read stage shared by all.
  std::vector<std::uint64_t> consumed(static_cast<std::size_t>(k), 0);
  MapStage vread("read-run", [&](Buffer& b) {
    const auto v = static_cast<std::uint64_t>(b.pipeline());
    auto& pos = consumed[b.pipeline()];
    const std::uint64_t n = std::min<std::uint64_t>(256, run_len - pos);
    if (n == 0) return StageAction::kRecycleAndClose;
    disk.read(runs, (v * run_len + pos) * kRec, b.data().first(n * kRec));
    pos += n;
    b.set_size(n * kRec);
    return StageAction::kConvey;
  });

  std::vector<Pipeline*> verts;
  for (int v = 0; v < k; ++v) {
    fg::PipelineConfig vc;
    vc.name = "run" + std::to_string(v);
    vc.num_buffers = 2;
    vc.buffer_bytes = 256 * kRec;  // small buffers: there are many verticals
    Pipeline& pv = graph.add_pipeline(vc);
    pv.add_stage(vread, fg::StageMode::kVirtual);
    verts.push_back(&pv);
  }

  // Horizontal pipeline: merge -> write, with much larger buffers.
  fg::PipelineConfig hc;
  hc.name = "merged";
  hc.num_buffers = 3;
  hc.buffer_bytes = 8192 * kRec;
  Pipeline& horiz = graph.add_pipeline(hc);
  Merge merge(verts, horiz);
  for (Pipeline* pv : verts) pv->add_stage(merge);
  horiz.add_stage(merge);

  fg::pdm::File out = disk.create("merged");
  std::uint64_t written = 0;
  std::uint64_t last_key = 0;
  bool sorted = true;
  MapStage write("write", [&](Buffer& b) {
    disk.write(out, written * kRec, b.contents());
    for (std::size_t i = 0; i < b.size() / kRec; ++i) {
      const std::uint64_t key =
          fg::sort::key_of(b.contents().data() + i * kRec);
      if (written + i > 0 && key < last_key) sorted = false;
      last_key = key;
    }
    written += b.size() / kRec;
    return StageAction::kConvey;
  });
  horiz.add_stage(write);

  std::printf("merging %d runs x %llu records with %zu threads "
              "(%d pipelines)...\n",
              k, static_cast<unsigned long long>(run_len),
              graph.planned_threads(), k + 1);
  fg::util::Stopwatch wall;
  graph.run();
  std::printf("merged %llu records in %.3f s; output sorted: %s\n",
              static_cast<unsigned long long>(written),
              wall.elapsed_seconds(), sorted ? "yes" : "NO");
  return sorted && written == static_cast<std::uint64_t>(k) * run_len ? 0 : 1;
}
