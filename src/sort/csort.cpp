#include "sort/csort.hpp"

#include "core/fg.hpp"
#include "sort/dataset.hpp"
#include "sort/kernels.hpp"
#include "util/timer.hpp"

#include <chrono>
#include <cstring>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace fg::sort {

namespace {

constexpr int kTagShift = 300;  // pass 3: bottom-half shift to the right

std::uint64_t round_up(std::uint64_t x, std::uint64_t unit) {
  return (x + unit - 1) / unit * unit;
}

}  // namespace

void CsortGeometry::validate(int nodes) const {
  const auto p = static_cast<std::uint64_t>(nodes);
  if (r == 0 || s == 0) {
    throw std::invalid_argument("csort geometry: r and s must be positive");
  }
  if (s % p != 0) {
    throw std::invalid_argument("csort geometry: s must be a multiple of P");
  }
  if (r % s != 0) {
    throw std::invalid_argument("csort geometry: r must be a multiple of s");
  }
  if (r % 2 != 0) {
    throw std::invalid_argument("csort geometry: r must be even");
  }
  if (r < 2 * (s - 1) * (s - 1)) {
    throw std::invalid_argument(
        "csort geometry: columnsort requires r >= 2(s-1)^2");
  }
}

CsortGeometry CsortGeometry::choose(std::uint64_t target, int nodes,
                                    std::uint64_t r_multiple_of) {
  const auto p = static_cast<std::uint64_t>(nodes);
  if (r_multiple_of == 0) r_multiple_of = 1;
  CsortGeometry best{};
  std::uint64_t best_score = ~0ULL;
  for (std::uint64_t s = p;; s += p) {
    // r must be a multiple of s (and even); with s even any multiple
    // works, with s odd use even multiples.  The caller may add a further
    // divisibility requirement (striping-block alignment).
    std::uint64_t unit = (s % 2 == 0) ? s : 2 * s;
    unit = std::lcm(unit, r_multiple_of);
    const std::uint64_t r_min =
        std::max<std::uint64_t>(round_up(2 * (s - 1) * (s - 1), unit), unit);
    if (r_min * s > 2 * target && best.r != 0) break;
    std::uint64_t r = std::max(r_min, round_up(target / s, unit));
    const std::uint64_t n = r * s;
    std::uint64_t score = n > target ? n - target : target - n;
    // Penalize geometries with fewer than four columns per node: each
    // pass then has too few rounds for the pipeline to overlap anything.
    if (s < 4 * p) score += target / 8 + 1;
    if (score < best_score) {
      best_score = score;
      best = CsortGeometry{r, s};
    }
    if (s > target) break;  // defensive bound for tiny targets
  }
  return best;
}

std::uint64_t csort_compatible_records(std::uint64_t target, int nodes,
                                       std::uint64_t r_multiple_of) {
  return CsortGeometry::choose(target, nodes, r_multiple_of).records();
}

namespace {

/// Parameters shared by the three passes on every node.
struct Geo {
  std::uint64_t r, s, cpn, chunk;  // chunk = r/s records
  std::uint32_t rec;
  int p;

  std::uint64_t col_bytes() const { return r * rec; }
  std::uint64_t blk_records() const { return cpn * chunk; }  // alltoall block
  std::uint64_t blk_bytes() const { return blk_records() * rec; }
};

/// Pass-3 redistribution sizing: worst-case bytes one node can *receive*
/// in one round.  The round's merged runs cover at most P*r + r/2
/// contiguous global records; striping spreads them across nodes at block
/// granularity, so a node's share is bounded by r + r/(2P) plus block
/// rounding, and each (sender, receiver) pair contributes at most a few
/// partial chunks of header overhead.
std::size_t p3_recv_capacity(const Geo& g, std::uint32_t block_records) {
  const std::uint64_t recs = 2 * g.r + 4ULL * block_records;
  const std::uint64_t chunks =
      g.r / block_records + 4ULL * static_cast<std::uint64_t>(g.p) + 16;
  return static_cast<std::size_t>(recs * g.rec + chunks * 12 +
                                  static_cast<std::uint64_t>(g.p) * 8);
}

/// Steps 3 and 5.  The shuffle before each lays a column down as s sorted
/// chunks of r/s records at chunk boundaries (see the write stages), so
/// merging the chunks sorts the column.  The result goes to the auxiliary
/// block, which then becomes the buffer's contents.
void merge_column(Buffer& b, const Geo& g) {
  std::vector<std::span<const std::byte>> chunks;
  chunks.reserve(g.s);
  const std::span<const std::byte> col = b.contents().first(g.col_bytes());
  for (std::uint64_t c = 0; c < g.s; ++c) {
    chunks.push_back(col.subspan(c * g.chunk * g.rec, g.chunk * g.rec));
  }
  multiway_merge(chunks, g.rec, b.aux());
  b.swap_aux();
}

/// The write stage of passes 1 and 2.  Gather, per local column m, the P
/// chunks this round received for it (one per source) into the auxiliary
/// block — free once communicate has sent it — and write that slice at
/// its place in the column-major file, so the next pass reads whole
/// columns sequentially.  Each received chunk is sorted and lands at a
/// multiple of r/s records within its column, which is what lets steps 3
/// and 5 merge the column instead of sorting it.
void write_column_slices(pdm::Disk& disk, const pdm::File& f, Buffer& b,
                         const Geo& g) {
  const std::uint64_t t = b.round();
  const std::byte* src = b.contents().data();
  const std::uint64_t slice = static_cast<std::uint64_t>(g.p) * g.chunk;
  const std::span<std::byte> gathered = b.aux().first(slice * g.rec);
  for (std::uint64_t m = 0; m < g.cpn; ++m) {
    for (int p = 0; p < g.p; ++p) {
      const auto pu = static_cast<std::uint64_t>(p);
      std::memcpy(gathered.data() + pu * g.chunk * g.rec,
                  src + (pu * g.blk_records() + m * g.chunk) * g.rec,
                  g.chunk * g.rec);
    }
    disk.write(f, (m * g.r + t * slice) * g.rec, gathered);
  }
}

void instrument_graph(PipelineGraph& graph, const SortConfig& cfg,
                      comm::Fabric& fabric) {
  graph.set_runtime_options(cfg.runtime);
  if (cfg.obs) graph.set_observability(cfg.obs);
  if (cfg.watchdog_ms == 0) return;
  graph.set_watchdog(std::chrono::milliseconds(cfg.watchdog_ms));
  // Stages block inside fabric collectives; a stalled run must abort the
  // fabric too, or the blocked workers would never unwind.
  graph.set_abort_hook([&fabric] { fabric.abort(); });
}

}  // namespace

SortResult run_csort(comm::Cluster& cluster, pdm::Workspace& ws,
                     const SortConfig& cfg) {
  if (cfg.nodes != cluster.size() || cfg.nodes != ws.nodes()) {
    throw std::invalid_argument(
        "fg::sort::run_csort: cluster/workspace/config node counts differ");
  }
  CsortGeometry geom{cfg.csort_r, cfg.csort_s};
  if (geom.r == 0 || geom.s == 0) {
    geom = CsortGeometry::choose(cfg.records, cfg.nodes, cfg.block_records);
  }
  geom.validate(cfg.nodes);
  if (geom.records() != cfg.records) {
    throw std::invalid_argument(
        "fg::sort::run_csort: r*s must equal the record count");
  }
  if (geom.r % cfg.block_records != 0) {
    throw std::invalid_argument(
        "fg::sort::run_csort: the striping block must divide r so columns "
        "align with striped blocks");
  }

  Geo g{geom.r, geom.s, geom.s / static_cast<std::uint64_t>(cfg.nodes),
        geom.r / geom.s, cfg.record_bytes, cfg.nodes};
  const pdm::StripeLayout layout = layout_of(cfg);
  comm::Fabric& fabric = cluster.fabric();

  SortResult result;
  result.records = cfg.records;
  std::mutex stats_mutex;  // node lambdas run concurrently

  // ------------------------------------------------------------------
  // Pass 1: sort columns (step 1) + transpose shuffle (step 2).
  // ------------------------------------------------------------------
  {
    util::Stopwatch sw;
    cluster.run([&](comm::NodeId me) {
      pdm::Disk& disk = ws.disk(me);
      pdm::File input = disk.open(cfg.input_name);
      pdm::File p1 = disk.create("csort_p1");

      PipelineGraph graph;
      PipelineConfig pc;
      pc.name = "pass1";
      pc.num_buffers = cfg.num_buffers;
      pc.buffer_bytes = g.col_bytes();
      pc.aux_buffers = true;
      pc.rounds = g.cpn;
      Pipeline& pl = graph.add_pipeline(pc);

      // Column t*P+me := this node's local records [t*r, (t+1)*r); any
      // fixed initial assignment is a legal columnsort starting point.
      MapStage read("read", [&](Buffer& b) {
        disk.read_exact(input, b.round() * g.col_bytes(),
                        b.data().first(g.col_bytes()));
        b.set_size(g.col_bytes());
        return StageAction::kConvey;
      });

      MapStage sort_stage("sort", [&](Buffer& b) {
        sort_records(b.contents(), g.rec, b.aux());
        cfg.compute_model.charge(b.size());
        return StageAction::kConvey;
      });

      MapStage permute("permute", [&](Buffer& b) {
        // Step 2 sends records k with k mod s == c to column c (pick the
        // sorted column up in column-major order, lay it down row-major).
        // Assemble the alltoall send layout in the auxiliary block:
        // destination node d gets, for each of its columns c = m*P + d,
        // my sorted records at positions c, c+s, c+2s, ...
        auto aux = b.aux();
        for (int d = 0; d < g.p; ++d) {
          for (std::uint64_t m = 0; m < g.cpn; ++m) {
            const std::uint64_t c =
                m * static_cast<std::uint64_t>(g.p) +
                static_cast<std::uint64_t>(d);
            gather_strided(b.contents(), g.rec, c, g.s, g.chunk,
                           aux.subspan(((static_cast<std::uint64_t>(d) * g.cpn +
                                         m) * g.chunk) * g.rec,
                                       g.chunk * g.rec));
          }
        }
        return StageAction::kConvey;
      });

      MapStage communicate("communicate", [&, me](Buffer& b) {
        fabric.alltoall(me, b.aux().first(g.col_bytes()),
                        b.data().first(g.col_bytes()), g.blk_bytes());
        return StageAction::kConvey;
      });

      MapStage write("write", [&](Buffer& b) {
        write_column_slices(disk, p1, b, g);
        return StageAction::kConvey;
      });

      pl.add_stage(read);
      pl.add_stage(sort_stage);
      pl.add_stage(permute);
      pl.add_stage(communicate);
      pl.add_stage(write);
      instrument_graph(graph, cfg, fabric);
      graph.run();
      {
        std::lock_guard<std::mutex> lock(stats_mutex);
        merge_stage_stats(result.stage_totals, graph.stats());
      }
      disk.close(p1);
      disk.close(input);
    });
    result.times.passes.push_back(sw.elapsed_seconds());
  }

  // ------------------------------------------------------------------
  // Pass 2: sort columns (step 3) + inverse shuffle (step 4).
  // ------------------------------------------------------------------
  {
    util::Stopwatch sw;
    cluster.run([&](comm::NodeId me) {
      pdm::Disk& disk = ws.disk(me);
      pdm::File p1 = disk.open("csort_p1");
      pdm::File p2 = disk.create("csort_p2");

      PipelineGraph graph;
      PipelineConfig pc;
      pc.name = "pass2";
      pc.num_buffers = cfg.num_buffers;
      pc.buffer_bytes = g.col_bytes();
      pc.aux_buffers = true;
      pc.rounds = g.cpn;
      Pipeline& pl = graph.add_pipeline(pc);

      // Pass 1 left the intermediate file column-major: my column with
      // local index t is one contiguous region.
      MapStage read("read", [&](Buffer& b) {
        disk.read_exact(p1, b.round() * g.col_bytes(),
                        b.data().first(g.col_bytes()));
        b.set_size(g.col_bytes());
        return StageAction::kConvey;
      });

      MapStage sort_stage("sort", [&](Buffer& b) {
        merge_column(b, g);
        cfg.compute_model.charge(b.size());
        return StageAction::kConvey;
      });

      MapStage permute("permute", [&](Buffer& b) {
        // Step 4 (inverse of step 2) sends the contiguous run of sorted
        // records [c*chunk, (c+1)*chunk) to column c.
        auto aux = b.aux();
        const std::byte* src = b.contents().data();
        for (int d = 0; d < g.p; ++d) {
          for (std::uint64_t m = 0; m < g.cpn; ++m) {
            const std::uint64_t c =
                m * static_cast<std::uint64_t>(g.p) +
                static_cast<std::uint64_t>(d);
            std::memcpy(aux.data() +
                            ((static_cast<std::uint64_t>(d) * g.cpn + m) *
                             g.chunk) * g.rec,
                        src + c * g.chunk * g.rec, g.chunk * g.rec);
          }
        }
        return StageAction::kConvey;
      });

      MapStage communicate("communicate", [&, me](Buffer& b) {
        fabric.alltoall(me, b.aux().first(g.col_bytes()),
                        b.data().first(g.col_bytes()), g.blk_bytes());
        return StageAction::kConvey;
      });

      MapStage write("write", [&](Buffer& b) {
        write_column_slices(disk, p2, b, g);
        return StageAction::kConvey;
      });

      pl.add_stage(read);
      pl.add_stage(sort_stage);
      pl.add_stage(permute);
      pl.add_stage(communicate);
      pl.add_stage(write);
      instrument_graph(graph, cfg, fabric);
      graph.run();
      {
        std::lock_guard<std::mutex> lock(stats_mutex);
        merge_stage_stats(result.stage_totals, graph.stats());
      }
      disk.close(p2);
      disk.close(p1);
    });
    result.times.passes.push_back(sw.elapsed_seconds());
  }

  // ------------------------------------------------------------------
  // Pass 3: sort columns (step 5) + single communicate stage realizing
  // steps 6-8 (half-column shift and merge) + striped redistribution.
  // ------------------------------------------------------------------
  {
    util::Stopwatch sw;
    const std::size_t p3cap = p3_recv_capacity(g, cfg.block_records);
    cluster.run([&](comm::NodeId me) {
      pdm::Disk& disk = ws.disk(me);
      pdm::File p2 = disk.open("csort_p2");
      pdm::File out = disk.create(cfg.output_name);

      PipelineGraph graph;
      PipelineConfig pc;
      pc.name = "pass3";
      pc.num_buffers = cfg.num_buffers;
      pc.buffer_bytes = std::max<std::size_t>(g.col_bytes(), p3cap);
      pc.aux_buffers = true;
      pc.rounds = g.cpn;
      Pipeline& pl = graph.add_pipeline(pc);

      // p2 is column-major too: one contiguous read per column.
      MapStage read("read", [&](Buffer& b) {
        disk.read_exact(p2, b.round() * g.col_bytes(),
                        b.data().first(g.col_bytes()));
        b.set_size(g.col_bytes());
        return StageAction::kConvey;
      });

      MapStage sort_stage("sort", [&](Buffer& b) {
        merge_column(b, g);
        cfg.compute_model.charge(b.size());
        return StageAction::kConvey;
      });

      const std::uint64_t half = g.r / 2;
      std::vector<std::byte> left_half(half * g.rec);
      std::vector<std::vector<std::byte>> staging(
          static_cast<std::size_t>(g.p));
      MapStage communicate("communicate", [&, me](Buffer& b) {
        const std::uint64_t t = b.round();
        const std::uint64_t j =
            t * static_cast<std::uint64_t>(g.p) + static_cast<std::uint64_t>(me);
        std::span<const std::byte> col = b.contents().first(g.col_bytes());
        const auto top = col.first(half * g.rec);
        const auto bottom = col.subspan(half * g.rec, half * g.rec);
        // The sort stage's merge left the column as read in the auxiliary
        // block, which is free now and holds M_j (at most 3r/2 records;
        // the block holds at least 2r).
        const std::span<std::byte> merged = b.aux();

        // Step 6 (shift down by r/2): my column's bottom half becomes the
        // top of column j+1's shifted column.
        if (j + 1 < g.s) {
          fabric.send(me, (me + 1) % g.p, kTagShift, bottom);
        }

        // Step 7 (sort the shifted column) = merge the half received from
        // column j-1 with my own top half.  The merged run M_j is final
        // output for global positions [j*r - r/2, j*r + r/2).
        std::uint64_t g_lo;
        std::uint64_t m_records;
        if (j == 0) {
          std::memcpy(merged.data(), top.data(), top.size());
          g_lo = 0;
          m_records = half;
        } else {
          fabric.recv(me, (me + g.p - 1) % g.p, kTagShift, left_half);
          merge_records(left_half, top, g.rec,
                        {merged.data(), 2 * half * g.rec});
          cfg.compute_model.charge(2 * half * g.rec);
          g_lo = j * g.r - half;
          m_records = g.r;
        }
        // The last column also owns M_s = its own bottom half, which is
        // final output for [s*r - r/2, s*r) — contiguous with M_{s-1}.
        if (j == g.s - 1) {
          std::memcpy(merged.data() + m_records * g.rec, bottom.data(),
                      bottom.size());
          m_records += half;
        }

        // Step 8 (unshift) + striping: M_j's positions are known, so
        // route each within-block chunk — [u64 gstart][u32 count][records]
        // — to the node whose disk holds it, via a variable-size
        // personalized exchange (the balanced, predetermined pattern the
        // paper's csort relies on, at exact sizes).
        for (auto& s : staging) s.clear();
        std::uint64_t done = 0;
        while (done < m_records) {
          const std::uint64_t gpos = g_lo + done;
          const std::uint64_t c =
              std::min(layout.run_within_block(gpos), m_records - done);
          auto& dst = staging[static_cast<std::size_t>(layout.node_of(gpos))];
          const std::size_t at = dst.size();
          dst.resize(at + 12 + c * g.rec);
          const std::uint32_t c32 = static_cast<std::uint32_t>(c);
          std::memcpy(dst.data() + at, &gpos, 8);
          std::memcpy(dst.data() + at + 8, &c32, 4);
          std::memcpy(dst.data() + at + 12, merged.data() + done * g.rec,
                      c * g.rec);
          done += c;
        }
        std::vector<std::span<const std::byte>> send_blocks;
        send_blocks.reserve(static_cast<std::size_t>(g.p));
        for (const auto& s : staging) send_blocks.emplace_back(s);
        // Received segments go after a P x u64 size header in the buffer.
        const std::size_t header = static_cast<std::size_t>(g.p) * 8;
        const auto sizes =
            fabric.alltoallv(me, send_blocks, b.data().subspan(header));
        std::size_t total = header;
        for (int d = 0; d < g.p; ++d) {
          const std::uint64_t s64 = sizes[static_cast<std::size_t>(d)];
          std::memcpy(b.data().data() + static_cast<std::size_t>(d) * 8, &s64,
                      8);
          total += s64;
        }
        b.set_size(total);
        return StageAction::kConvey;
      });

      // Each received segment is written straight from the buffer, one
      // positioned write at its striped home.
      MapStage write("write", [&](Buffer& b) {
        const std::byte* base = b.contents().data();
        std::size_t off = static_cast<std::size_t>(g.p) * 8;
        for (int pp = 0; pp < g.p; ++pp) {
          std::uint64_t seg;
          std::memcpy(&seg, base + static_cast<std::size_t>(pp) * 8, 8);
          const std::size_t seg_end = off + seg;
          while (off < seg_end) {
            std::uint64_t gpos;
            std::uint32_t c;
            std::memcpy(&gpos, base + off, 8);
            std::memcpy(&c, base + off + 8, 4);
            const std::size_t bytes = std::size_t{c} * g.rec;
            disk.write(out, layout.local_byte_offset(gpos),
                       {base + off + 12, bytes});
            off += 12 + bytes;
          }
        }
        return StageAction::kConvey;
      });

      pl.add_stage(read);
      pl.add_stage(sort_stage);
      pl.add_stage(communicate);
      pl.add_stage(write);
      instrument_graph(graph, cfg, fabric);
      graph.run();
      {
        std::lock_guard<std::mutex> lock(stats_mutex);
        merge_stage_stats(result.stage_totals, graph.stats());
      }
      disk.close(out);
      disk.close(p2);
    });
    result.times.passes.push_back(sw.elapsed_seconds());
  }

  return result;
}

}  // namespace fg::sort
