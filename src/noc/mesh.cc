#include "noc/mesh.hh"

#include <cstdlib>

#include "prof/phase.hh"
#include "sim/logging.hh"

namespace persim::noc
{

Mesh::Mesh(const std::string &name, EventQueue &eq, const MeshConfig &cfg)
    : SimObject(name, eq),
      _cfg(cfg),
      _stats(name),
      _packets(&_stats, "packets", "packets injected into the mesh"),
      _flits(&_stats, "flits", "flits injected into the mesh"),
      _latency(&_stats, "latency", "end-to-end packet latency (cycles)")
{
    simAssert(cfg.rows > 0 && cfg.cols > 0, "empty mesh");
    simAssert(cfg.flitBytes > 0, "zero flit width");
    static const char *const dirNames[kNumDirections] = {
        "east", "west", "north", "south", "eject"};
    const unsigned numRouters = cfg.rows * cfg.cols;
    _links = std::make_unique<Link[]>(numRouters * kNumDirections);
    for (unsigned r = 0; r < numRouters; ++r) {
        const std::string router =
            name + ".router[" + std::to_string(r) + "].";
        for (unsigned d = 0; d < kNumDirections; ++d)
            _links[r * kNumDirections + d].registerStats(
                _stats, router + dirNames[d]);
    }
}

void
Mesh::attach(unsigned nodeId, unsigned x, unsigned y)
{
    simAssert(x < _cfg.cols && y < _cfg.rows, "attach outside mesh: (", x,
              ",", y, ")");
    if (nodeId >= _nodes.size())
        _nodes.resize(nodeId + 1);
    simAssert(!_nodes[nodeId].attached, "node ", nodeId,
              " attached twice");
    _nodes[nodeId] = NodeLoc{true, x, y};
}

std::uint64_t
Mesh::totalLinkBusyCycles() const
{
    std::uint64_t total = 0;
    for (unsigned i = 0; i < numLinks(); ++i)
        total += _links[i].busyCycles();
    return total;
}

unsigned
Mesh::hops(unsigned src, unsigned dst) const
{
    simAssert(src < _nodes.size() && _nodes[src].attached,
              "unattached src node ", src);
    simAssert(dst < _nodes.size() && _nodes[dst].attached,
              "unattached dst node ", dst);
    const NodeLoc &s = _nodes[src];
    const NodeLoc &d = _nodes[dst];
    return static_cast<unsigned>(std::abs(int(s.x) - int(d.x)) +
                                 std::abs(int(s.y) - int(d.y)));
}

Tick
Mesh::idleLatency(unsigned src, unsigned dst, unsigned bytes) const
{
    unsigned h = hops(src, dst);
    unsigned f = flitsFor(bytes);
    // Injection + per-hop (router + link) + ejection + tail serialization.
    return _cfg.routerLatency + h * (_cfg.routerLatency + _cfg.linkLatency)
           + _cfg.linkLatency + (f - 1);
}

Tick
Mesh::send(unsigned src, unsigned dst, unsigned bytes,
           EventQueue::Callback &&onDeliver)
{
    prof::ScopedPhase profPhase(prof::Phase::Noc);
    simAssert(src < _nodes.size() && _nodes[src].attached,
              "send from unattached node ", src);
    simAssert(dst < _nodes.size() && _nodes[dst].attached,
              "send to unattached node ", dst);
    simAssert(bytes > 0, "empty packet");

    const unsigned flits = flitsFor(bytes);

    _packets.inc();
    _flits.inc(flits);

    const NodeLoc &s = _nodes[src];
    const NodeLoc &d = _nodes[dst];
    const Tick hopLatency = _cfg.linkLatency + _cfg.routerLatency;

    // Head-flit cursor: time the head is ready at the next router.
    Tick cursor = curTick() + _cfg.routerLatency; // injection pipeline

    // X then Y dimension-order walk over the flat link array: a step
    // to the next router is a fixed stride through it.
    Link *router = &_links[(s.y * _cfg.cols + s.x) * kNumDirections];
    const bool east = d.x > s.x;
    const unsigned xDir = static_cast<unsigned>(east ? Direction::East
                                                     : Direction::West);
    const std::ptrdiff_t xStep =
        east ? kNumDirections : -std::ptrdiff_t{kNumDirections};
    for (unsigned n = east ? d.x - s.x : s.x - d.x; n > 0; --n) {
        cursor = router[xDir].reserve(cursor, flits) + hopLatency;
        router += xStep;
    }
    const bool south = d.y > s.y;
    const unsigned yDir = static_cast<unsigned>(south ? Direction::South
                                                      : Direction::North);
    const std::ptrdiff_t yStep =
        std::ptrdiff_t{_cfg.cols * kNumDirections} * (south ? 1 : -1);
    for (unsigned n = south ? d.y - s.y : s.y - d.y; n > 0; --n) {
        cursor = router[yDir].reserve(cursor, flits) + hopLatency;
        router += yStep;
    }

    // Ejection: local port serializes the whole packet.
    Tick start = router[static_cast<unsigned>(Direction::Eject)].reserve(
        cursor, flits);
    Tick arrival = start + _cfg.linkLatency + (flits - 1);

    _latency.sample(arrival - curTick());
    eventQueue().schedule(arrival, std::move(onDeliver));
    return arrival;
}

} // namespace persim::noc
