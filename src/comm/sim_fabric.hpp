// The in-process fabric backend: the whole cluster simulated in one
// process, each "node" a set of threads, with an affine latency/bandwidth
// cost model.
//
// SimFabric hosts every rank, so the Fabric base delivers every message
// itself and no wire exists.  Latency is charged as *delivery time*: send()
// computes the modeled cost and stamps the message with the time at which
// it becomes visible; the sender proceeds immediately (buffered send), and
// recv() blocks until a matching message's delivery time has passed.  This
// keeps the wire "busy" without blocking the sender, which is the regime in
// which overlapping communication with computation pays off.
#pragma once

#include "comm/fabric.hpp"

namespace fg::comm {

class SimFabric final : public Fabric {
 public:
  /// @param nodes  cluster size P
  /// @param model  per-message cost; delivery time = send time + cost
  explicit SimFabric(int nodes,
                     util::LatencyModel model = util::LatencyModel::free())
      : Fabric(nodes, model) {
    for (NodeId n = 0; n < nodes; ++n) host(n);
  }
};

}  // namespace fg::comm
