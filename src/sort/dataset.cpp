#include "sort/dataset.hpp"

#include <vector>

namespace fg::sort {

namespace {

/// RAII: disable every disk's latency model, restore on scope exit.
class FreeIoScope {
 public:
  explicit FreeIoScope(pdm::Workspace& ws) : ws_(ws) {
    models_.reserve(static_cast<std::size_t>(ws.nodes()));
    for (int i = 0; i < ws.nodes(); ++i) {
      models_.push_back(ws.disk(i).model());
      ws.disk(i).set_model(util::LatencyModel::free());
    }
  }
  ~FreeIoScope() {
    for (int i = 0; i < ws_.nodes(); ++i) {
      ws_.disk(i).set_model(models_[static_cast<std::size_t>(i)]);
    }
  }

 private:
  pdm::Workspace& ws_;
  std::vector<util::LatencyModel> models_;
};

}  // namespace

void generate_input(pdm::Workspace& ws, const SortConfig& cfg) {
  for (int node = 0; node < cfg.nodes; ++node) {
    generate_node_input(ws, cfg, node);
  }
}

void generate_node_input(pdm::Workspace& ws, const SortConfig& cfg,
                         int node) {
  FreeIoScope free_io(ws);
  const pdm::StripeLayout layout = layout_of(cfg);
  const std::uint64_t rec = cfg.record_bytes;

  // One block-sized staging buffer, reused.
  std::vector<std::byte> block(layout.block_bytes());

  pdm::Disk& disk = ws.disk(node);
  pdm::File f = disk.create(cfg.input_name);
  std::uint64_t local_offset = 0;
  // Walk this node's blocks: global blocks node, node+P, node+2P, ...
  const std::uint64_t total_blocks =
      (cfg.records + cfg.block_records - 1) / cfg.block_records;
  for (std::uint64_t b = static_cast<std::uint64_t>(node); b < total_blocks;
       b += static_cast<std::uint64_t>(cfg.nodes)) {
    const std::uint64_t g0 = b * cfg.block_records;
    const std::uint64_t n =
        std::min<std::uint64_t>(cfg.block_records, cfg.records - g0);
    for (std::uint64_t i = 0; i < n; ++i) {
      make_record(cfg.dist, cfg.seed, g0 + i, cfg.records,
                  {block.data() + i * rec, rec}, node);
    }
    disk.write(f, local_offset, {block.data(), n * rec});
    local_offset += n * rec;
  }
}

std::uint64_t expected_fingerprint(const SortConfig& cfg) {
  const pdm::StripeLayout layout = layout_of(cfg);
  std::vector<std::byte> rec(cfg.record_bytes);
  std::uint64_t sum = 0;
  for (std::uint64_t g = 0; g < cfg.records; ++g) {
    make_record(cfg.dist, cfg.seed, g, cfg.records, rec, layout.node_of(g));
    sum += record_fingerprint(rec);
  }
  return sum;
}

VerifyResult verify_output(pdm::Workspace& ws, const SortConfig& cfg) {
  FreeIoScope free_io(ws);
  const pdm::StripeLayout layout = layout_of(cfg);
  const std::uint64_t rec = cfg.record_bytes;

  std::vector<pdm::File> files;
  files.reserve(static_cast<std::size_t>(cfg.nodes));
  for (int node = 0; node < cfg.nodes; ++node) {
    if (!ws.disk(node).exists(cfg.output_name)) {
      return VerifyResult{};  // missing output
    }
    files.push_back(ws.disk(node).open(cfg.output_name));
  }

  VerifyResult r;
  r.sorted = true;
  std::uint64_t sum = 0;
  ExtKey prev{};
  bool have_prev = false;
  std::vector<std::byte> block(layout.block_bytes());

  const std::uint64_t total_blocks =
      (cfg.records + cfg.block_records - 1) / cfg.block_records;
  for (std::uint64_t b = 0; b < total_blocks; ++b) {
    const int node = static_cast<int>(b % static_cast<std::uint64_t>(cfg.nodes));
    const std::uint64_t g0 = b * cfg.block_records;
    const std::uint64_t n =
        std::min<std::uint64_t>(cfg.block_records, cfg.records - g0);
    const std::uint64_t local =
        (b / static_cast<std::uint64_t>(cfg.nodes)) * layout.block_bytes();
    const std::size_t got = ws.disk(node).read(
        files[static_cast<std::size_t>(node)], local, {block.data(), n * rec});
    if (got != n * rec) return VerifyResult{};  // short output
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::byte* p = block.data() + i * rec;
      const ExtKey k = ext_key_of(p);
      if (have_prev && k < prev) r.sorted = false;
      prev = k;
      have_prev = true;
      sum += record_fingerprint({p, rec});
      ++r.records;
    }
  }
  r.permutation =
      (r.records == cfg.records) && (sum == expected_fingerprint(cfg));
  return r;
}

}  // namespace fg::sort
