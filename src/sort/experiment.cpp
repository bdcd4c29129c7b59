#include "sort/experiment.hpp"

#include <sstream>
#include <stdexcept>

namespace fg::sort {

void use_paper_geometry(SortConfig& cfg) {
  constexpr std::uint32_t kBlockBytes = 64 << 10;
  constexpr std::uint32_t kBufferBytes = 256 << 10;
  cfg.block_records = kBlockBytes / cfg.record_bytes;
  cfg.buffer_records = kBufferBytes / cfg.record_bytes;
  cfg.num_buffers = 4;
  cfg.merge_buffer_records = kBlockBytes / cfg.record_bytes;
  cfg.merge_num_buffers = 3;
  cfg.out_buffer_records = kBufferBytes / cfg.record_bytes;
  cfg.out_num_buffers = 4;
  cfg.oversample = 128;
  cfg.records =
      csort_compatible_records(cfg.records, cfg.nodes, cfg.block_records);
}

ProgramOutcome run_program(bool use_dsort, const SortConfig& cfg,
                           const LatencyProfile& lat) {
  pdm::Workspace ws(cfg.nodes, lat.disk);
  comm::SimCluster cluster(cfg.nodes, lat.net);
  generate_input(ws, cfg);
  SortConfig run_cfg = cfg;
  run_cfg.compute_model = lat.compute;
  ProgramOutcome out;
  out.result = use_dsort ? run_dsort(cluster, ws, run_cfg)
                         : run_csort(cluster, ws, run_cfg);
  out.verify = verify_output(ws, cfg);
  if (!out.verify.ok()) {
    throw std::runtime_error(std::string("fg::sort::run_program: ") +
                             (use_dsort ? "dsort" : "csort") +
                             " produced incorrect output on " +
                             to_string(cfg.dist));
  }
  return out;
}

ComparisonRow run_comparison(SortConfig cfg, Distribution dist,
                             const LatencyProfile& lat) {
  cfg.dist = dist;
  ComparisonRow row;
  row.dist = dist;
  row.dsort = run_program(true, cfg, lat);
  row.csort = run_program(false, cfg, lat);
  return row;
}

std::string render_figure8(const std::vector<ComparisonRow>& rows,
                           const std::string& title) {
  util::TextTable t;
  std::vector<std::string> hdr{"phase"};
  for (const auto& r : rows) {
    hdr.push_back(to_string(r.dist) + " dsort");
    hdr.push_back("csort");
  }
  t.header(std::move(hdr));

  auto phase_row = [&](const std::string& name, std::size_t dsort_pass,
                       std::size_t csort_pass, bool sampling) {
    std::vector<std::string> cells{name};
    for (const auto& r : rows) {
      const auto cell = [&](const std::optional<ProgramOutcome>& o,
                            std::size_t pass, bool is_dsort) -> std::string {
        if (!o) return "-";
        const PhaseTimes& pt = o->result.times;
        if (sampling) {
          return is_dsort ? util::fmt_seconds(pt.sampling) : "-";
        }
        if (pass < pt.passes.size()) return util::fmt_seconds(pt.passes[pass]);
        return "-";
      };
      cells.push_back(cell(r.dsort, dsort_pass, true));
      cells.push_back(cell(r.csort, csort_pass, false));
    }
    t.row(std::move(cells));
  };

  phase_row("sampling", 0, 0, true);
  phase_row("pass 1", 0, 0, false);
  phase_row("pass 2", 1, 1, false);
  phase_row("pass 3", 99, 2, false);
  t.rule();

  std::vector<std::string> totals{"total"};
  std::vector<std::string> ratios{"dsort/csort"};
  for (const auto& r : rows) {
    totals.push_back(r.dsort ? util::fmt_seconds(r.dsort->result.times.total())
                             : "-");
    totals.push_back(r.csort ? util::fmt_seconds(r.csort->result.times.total())
                             : "-");
    ratios.push_back(r.dsort && r.csort ? util::fmt_percent(r.ratio()) : "-");
    ratios.push_back("");
  }
  t.row(std::move(totals));
  t.row(std::move(ratios));

  std::ostringstream out;
  out << title << '\n' << t.render();
  return out.str();
}

}  // namespace fg::sort
