#include "net/mesh.hh"

#include <cstdlib>

#include "common/log.hh"

namespace logtm {

Mesh::Mesh(EventQueue &queue, StatsRegistry &stats, const SystemConfig &cfg)
    : queue_(queue),
      msgCount_(stats.counter("net.messages")),
      hopCount_(stats.counter("net.hops")),
      cols_(cfg.meshCols),
      rows_(cfg.meshRows),
      numCores_(cfg.numCores),
      numNodes_(cfg.numCores + cfg.l2Banks),
      numChips_(cfg.numChips),
      linkLatency_(cfg.linkLatency),
      interChipLatency_(cfg.interChipLatency),
      handlers_(numNodes_),
      nextFree_(numNodes_, 0),
      hopTable_(static_cast<size_t>(numNodes_) * numNodes_),
      latencyTable_(static_cast<size_t>(numNodes_) * numNodes_)
{
    for (NodeId s = 0; s < numNodes_; ++s) {
        for (NodeId d = 0; d < numNodes_; ++d) {
            const uint32_t h = hops(s, d);
            Cycle lat = routerOverhead_ + h * linkLatency_;
            if (numChips_ > 1 && chipOf(s) != chipOf(d))
                lat += interChipLatency_;
            hopTable_[static_cast<size_t>(s) * numNodes_ + d] = h;
            latencyTable_[static_cast<size_t>(s) * numNodes_ + d] = lat;
        }
    }
}

void
Mesh::attach(NodeId node, Handler handler)
{
    logtm_assert(node < numNodes_, "mesh node id out of range");
    handlers_[node] = std::move(handler);
}

uint32_t
Mesh::tileOf(NodeId n) const
{
    // Cores and banks are both numbered from zero within their class;
    // a core and the same-numbered bank share a tile. Ids beyond the
    // tile count wrap around the grid.
    const uint32_t idx = (n < numCores_) ? n : (n - numCores_);
    return idx % (cols_ * rows_);
}

uint32_t
Mesh::chipOf(NodeId n) const
{
    // Cores and banks are partitioned evenly over the chips.
    const uint32_t idx = (n < numCores_) ? n : (n - numCores_);
    const uint32_t per_chip = (n < numCores_)
        ? numCores_ / numChips_
        : (numNodes_ - numCores_) / numChips_;
    return idx / per_chip;
}

uint32_t
Mesh::hops(NodeId a, NodeId b) const
{
    const uint32_t ta = tileOf(a), tb = tileOf(b);
    const int ax = ta % cols_, ay = ta / cols_;
    const int bx = tb % cols_, by = tb / cols_;
    return static_cast<uint32_t>(std::abs(ax - bx) + std::abs(ay - by));
}

void
Mesh::send(Msg msg)
{
    logtm_assert(msg.dst < numNodes_, "message to unknown node");
    logtm_assert(static_cast<bool>(handlers_[msg.dst]),
                 "message to unattached node");

    const size_t pair =
        static_cast<size_t>(msg.src) * numNodes_ + msg.dst;
    ++msgCount_;
    hopCount_.add(hopTable_[pair]);

    // latencyTable_ folds in the router overhead, the per-hop link
    // latency, and the inter-chip link where the pair crosses a chip
    // boundary (paper §7).
    Cycle arrival = queue_.now() + latencyTable_[pair];
    if (delayHook_)
        arrival += delayHook_(msg);

    // One message per cycle per endpoint: serialize arrivals.
    if (arrival <= nextFree_[msg.dst])
        arrival = nextFree_[msg.dst] + 1;
    nextFree_[msg.dst] = arrival;

    Handler &handler = handlers_[msg.dst];
    queue_.schedule(arrival, [&handler, msg]() { handler(msg); },
                    EventPriority::Protocol);
}

} // namespace logtm
