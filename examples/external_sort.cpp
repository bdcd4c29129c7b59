// End-to-end out-of-core sorting: the paper's headline experiment at
// laptop scale.
//
// Generates a PDM-striped dataset across a simulated cluster, sorts it
// with dsort (2 passes + sampling) and with csort (3 passes), verifies
// both striped outputs, and prints a Figure-8-style per-pass table.
//
//   ./external_sort [nodes] [records] [record_bytes] [distribution]
//
// distribution: uniform | equal | normal | poisson | sorted | reversed
#include "sort/experiment.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace fg::sort;

namespace {

Distribution parse_dist(const char* s) {
  if (std::strcmp(s, "equal") == 0) return Distribution::kAllEqual;
  if (std::strcmp(s, "normal") == 0) return Distribution::kNormal;
  if (std::strcmp(s, "poisson") == 0) return Distribution::kPoisson;
  if (std::strcmp(s, "sorted") == 0) return Distribution::kSorted;
  if (std::strcmp(s, "reversed") == 0) return Distribution::kReversed;
  if (std::strcmp(s, "clustered") == 0) return Distribution::kNodeClustered;
  return Distribution::kUniform;
}

}  // namespace

int main(int argc, char** argv) {
  SortConfig cfg;
  cfg.nodes = argc > 1 ? std::atoi(argv[1]) : 4;
  cfg.records = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 262144;
  cfg.record_bytes = argc > 3 ? static_cast<std::uint32_t>(std::atoi(argv[3])) : 16;
  const Distribution dist =
      argc > 4 ? parse_dist(argv[4]) : Distribution::kUniform;

  // Same record count for both programs: csort needs r*s == N.
  use_paper_geometry(cfg);

  std::printf("sorting %llu %u-byte records (%s) on %d simulated nodes...\n",
              static_cast<unsigned long long>(cfg.records), cfg.record_bytes,
              to_string(dist).c_str(), cfg.nodes);

  const ComparisonRow row =
      run_comparison(cfg, dist, LatencyProfile::paper_like());
  std::fputs(render_figure8({row}, "dsort vs csort (verified sorted output)")
                 .c_str(),
             stdout);
  std::printf("\ndsort took %s of csort's time (paper: 74.26%%-85.06%%)\n",
              fg::util::fmt_percent(row.ratio()).c_str());
  return 0;
}
