/**
 * @file
 * A directed on-chip link with serialization and contention accounting.
 */

#ifndef PERSIM_NOC_LINK_HH
#define PERSIM_NOC_LINK_HH

#include <algorithm>
#include <string>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace persim::noc
{

/**
 * One directed link of the mesh (router-to-router, injection or ejection).
 *
 * The mesh uses reservation-based timing: when a packet is routed, each
 * link on its path is reserved for the packet's flit count starting at the
 * earliest cycle the link is free. This models wormhole serialization and
 * head-of-line contention without per-flit events.
 *
 * A link is 32 bytes — its free cycle and three counters — aligned so
 * that one reservation touches a single host cache line.
 */
class alignas(32) Link
{
  public:
    /**
     * Register the link's counters with @p group as "<name>.packets",
     * "<name>.busyCycles" and "<name>.waitCycles", in that order.
     *
     * @param name Instance name, e.g. "mesh.router[3].east".
     */
    void registerStats(StatGroup &group, const std::string &name);

    /**
     * Reserve the link for @p flits flit-cycles.
     *
     * Inline: this sits on the per-packet hot path (every hop of every
     * mesh traversal) and is four counter updates around a max.
     *
     * @param earliest First cycle the packet's head can use the link.
     * @param flits Number of flit cycles the link is occupied.
     * @return The cycle the head flit actually starts crossing.
     */
    Tick
    reserve(Tick earliest, unsigned flits)
    {
        const Tick start = std::max(earliest, _nextFree);
        _waitCycles.inc(start - earliest);
        _nextFree = start + flits;
        _packets.inc();
        _busyCycles.inc(flits);
        return start;
    }

    /** Total flit-cycles of occupancy. */
    std::uint64_t busyCycles() const { return _busyCycles.value(); }

  private:
    Tick _nextFree = 0;
    Scalar _packets;
    Scalar _busyCycles;
    Scalar _waitCycles;
};

static_assert(sizeof(Link) == 32);

} // namespace persim::noc

#endif // PERSIM_NOC_LINK_HH
