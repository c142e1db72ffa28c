/**
 * @file
 * The 2D-mesh on-chip network (Garnet-inspired timing, XY routing).
 */

#ifndef PERSIM_NOC_MESH_HH
#define PERSIM_NOC_MESH_HH

#include <memory>
#include <string>
#include <vector>

#include "noc/link.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace persim::noc
{

/** Output directions of a mesh router. */
enum class Direction : unsigned
{
    East = 0,
    West = 1,
    North = 2,
    South = 3,
    Eject = 4,
};

constexpr unsigned kNumDirections = 5;

/** Timing and shape parameters of the mesh (Table 1 defaults). */
struct MeshConfig
{
    unsigned rows = 4;
    unsigned cols = 8;
    /** Per-hop router pipeline latency in cycles. */
    Tick routerLatency = 2;
    /** Per-hop link traversal latency in cycles. */
    Tick linkLatency = 1;
    /** Flit width in bytes (Table 1: 16B flits). */
    unsigned flitBytes = 16;
};

/**
 * The on-chip interconnection network.
 *
 * Endpoints are identified by node ids; several nodes may share a router
 * (a tile hosts a core+L1 node and an LLC-bank node; memory controllers
 * attach at the corner routers). Timing uses link reservation: the XY
 * path is walked once at send time, each link is reserved for the
 * packet's flit count at the earliest free cycle, and a single delivery
 * event fires when the tail flit ejects. This preserves wormhole
 * serialization and head-of-line contention without per-flit events.
 *
 * Every router's output links (east/west/north/south/eject) sit in one
 * contiguous array indexed router * kNumDirections + direction; the
 * input side of a router is its neighbour's output link, so each
 * physical channel is represented exactly once.
 */
class Mesh : public SimObject
{
  public:
    Mesh(const std::string &name, EventQueue &eq, const MeshConfig &cfg);

    /**
     * Register endpoint @p nodeId at router (@p x, @p y).
     *
     * Node ids must be registered before use and be unique.
     */
    void attach(unsigned nodeId, unsigned x, unsigned y);

    /**
     * Send @p bytes from @p src to @p dst; run @p onDeliver on arrival.
     *
     * Messages between nodes on the same router still pay injection and
     * ejection latency (the local crossbar), but no link hops.
     *
     * @return The tick at which the packet is delivered.
     */
    Tick send(unsigned src, unsigned dst, unsigned bytes,
              EventQueue::Callback &&onDeliver);

    /**
     * Latency a @p bytes packet would see on an idle mesh between the
     * two nodes; used by tests and for configuring dependent timeouts.
     */
    Tick idleLatency(unsigned src, unsigned dst, unsigned bytes) const;

    /** Number of XY hops between two attached nodes. */
    unsigned hops(unsigned src, unsigned dst) const;

    const MeshConfig &config() const { return _cfg; }
    StatGroup &stats() { return _stats; }

    /** Total packets injected. */
    std::uint64_t packetsSent() const { return _packets.value(); }

    /** Sum of busy cycles over every link (interval-stat sampling). */
    std::uint64_t totalLinkBusyCycles() const;

    /** Number of links (routers x directions). */
    unsigned numLinks() const
    {
        return _cfg.rows * _cfg.cols * kNumDirections;
    }

  private:
    struct NodeLoc
    {
        bool attached = false;
        unsigned x = 0;
        unsigned y = 0;
    };

    unsigned flitsFor(unsigned bytes) const
    {
        return (bytes + _cfg.flitBytes - 1) / _cfg.flitBytes;
    }

    MeshConfig _cfg;
    StatGroup _stats;
    /** Output links, router * kNumDirections + direction. */
    std::unique_ptr<Link[]> _links;
    std::vector<NodeLoc> _nodes;

    Scalar _packets;
    Scalar _flits;
    Distribution _latency;
};

} // namespace persim::noc

#endif // PERSIM_NOC_MESH_HH
