/**
 * @file
 * Packet-switched mesh interconnect model.
 *
 * Endpoints (cores and L2 banks) are mapped onto tiles of a
 * cols x rows grid (a core and the same-numbered bank share a tile, as
 * in tiled CMPs). Message latency is
 *     routerOverhead + hops * linkLatency
 * plus a serialization constraint: each endpoint accepts at most one
 * message per cycle, modelling contention at the network interface.
 */

#ifndef LOGTM_NET_MESH_HH
#define LOGTM_NET_MESH_HH

#include <functional>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "net/message.hh"
#include "sim/event_queue.hh"

namespace logtm {

class Mesh
{
  public:
    using Handler = std::function<void(const Msg &)>;

    Mesh(EventQueue &queue, StatsRegistry &stats, const SystemConfig &cfg);

    /** Register the receive handler for endpoint @p node. */
    void attach(NodeId node, Handler handler);

    /** Send @p msg; it is delivered to msg.dst after network latency. */
    void send(Msg msg);

    /**
     * Chaos hook (src/check): add extra delivery delay, in cycles,
     * to each message. Delayed messages still obey the per-endpoint
     * serialization, so delivery order to one destination never
     * changes — only timing does (the protocol's FIFO assumption is
     * preserved by construction).
     */
    using DelayHook = std::function<Cycle(const Msg &)>;
    void setDelayHook(DelayHook hook) { delayHook_ = std::move(hook); }

    /** Number of attachable endpoints (cores + banks). */
    uint32_t numNodes() const { return numNodes_; }

    /** Manhattan hop distance between two endpoints' tiles. */
    uint32_t hops(NodeId a, NodeId b) const;

    /** Chip an endpoint belongs to (paper §7 multi-CMP model). */
    uint32_t chipOf(NodeId n) const;

    /** Tile an endpoint sits on (a core and its same-numbered bank
     *  share a tile). */
    uint32_t tileOf(NodeId n) const;

  private:
    EventQueue &queue_;
    Counter &msgCount_;
    Counter &hopCount_;
    uint32_t cols_;
    uint32_t rows_;
    uint32_t numCores_;
    uint32_t numNodes_;
    uint32_t numChips_;
    Cycle linkLatency_;
    Cycle interChipLatency_;
    static constexpr Cycle routerOverhead_ = 1;
    DelayHook delayHook_;
    std::vector<Handler> handlers_;
    std::vector<Cycle> nextFree_;
    /** Per-(src,dst) hop counts and base delivery latency
     *  (router + hops * link + inter-chip), precomputed at
     *  construction so send() does no division. */
    std::vector<uint32_t> hopTable_;
    std::vector<Cycle> latencyTable_;
};

} // namespace logtm

#endif // LOGTM_NET_MESH_HH
