// Out-of-core permutation throughput: structured permutations (shift,
// tile transpose) coalesce into block-sized chunks and run at disk speed;
// a random bijection degrades to per-record messages and seeks — the
// classic PDM result that general permutation is harder than sorting's
// structured data movement.  Each case runs once and verifies its output;
// an incorrect permutation exits 1.
#include "apps/ooc_permute.hpp"
#include "sort/dataset.hpp"
#include "sort/experiment.hpp"
#include "util/table.hpp"

#include <cstdio>
#include <exception>

namespace {

using namespace fg;

apps::PermuteConfig bench_config(std::uint64_t records) {
  apps::PermuteConfig cfg;
  cfg.nodes = 8;
  cfg.records = records;
  cfg.record_bytes = 16;
  cfg.block_records = 4096;
  cfg.buffer_records = 16384;
  cfg.num_buffers = 4;
  return cfg;
}

double run_case(const apps::PermuteConfig& cfg, const apps::IndexMap& map) {
  const auto lat = sort::LatencyProfile::paper_like();
  pdm::Workspace ws(cfg.nodes, lat.disk);
  comm::SimCluster cluster(cfg.nodes, lat.net);
  sort::SortConfig g;
  g.nodes = cfg.nodes;
  g.records = cfg.records;
  g.record_bytes = cfg.record_bytes;
  g.block_records = cfg.block_records;
  g.input_name = cfg.input_name;
  sort::generate_input(ws, g);
  const apps::PermuteResult r = apps::run_permute(cluster, ws, cfg, map);
  if (apps::verify_permutation(ws, cfg, map) != 0) {
    throw std::runtime_error("incorrect permutation");
  }
  return r.seconds;
}

struct Case {
  const char* name;
  std::uint64_t records;
  apps::IndexMap map;
};

std::vector<Case> cases() {
  std::vector<Case> v;
  const std::uint64_t n = 1 << 19;
  v.push_back({"cyclic_shift", n, apps::cyclic_shift_map(n, 123457)});
  // 64 x 2 tiles of 4096 records: the standard tile transpose.
  v.push_back({"tile_transpose", n, apps::block_transpose_map(64, 2, 4096)});
  // Per-record cases pay one message and one seeky write per record;
  // keep them small — their slowness relative to the structured cases IS
  // the result.
  const std::uint64_t rn = 1 << 11;
  v.push_back({"element_reversal", rn, apps::reversal_map(rn)});
  v.push_back({"random_bijection", rn, apps::random_bijection_map(rn, 42)});
  return v;
}

}  // namespace

int main() try {
  fg::util::TextTable t;
  t.header({"permutation", "records", "seconds", "MiB/s"});
  for (const Case& c : cases()) {
    const auto cfg = bench_config(c.records);
    const double secs = run_case(cfg, c.map);
    const double mib = static_cast<double>(c.records * cfg.record_bytes) /
                       (1024.0 * 1024.0);
    char rate[32];
    std::snprintf(rate, sizeof rate, "%.3g", mib / secs);
    t.row({c.name, std::to_string(c.records), fg::util::fmt_seconds(secs),
           rate});
  }
  std::printf("Out-of-core permutation (disjoint send/receive pipelines, "
              "verified):\nstructured permutations coalesce into block "
              "chunks; the random bijection\npays per-record messages and "
              "seeks.\n");
  std::fputs(t.render().c_str(), stdout);
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "bench_permute: %s\n", e.what());
  return 1;
}
