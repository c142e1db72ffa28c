#include "noc/link.hh"

namespace persim::noc
{

void
Link::registerStats(StatGroup &group, const std::string &name)
{
    group.add(&_packets, name + ".packets", "packets crossing this link");
    group.add(&_busyCycles, name + ".busyCycles",
              "flit-cycles of link occupancy");
    group.add(&_waitCycles, name + ".waitCycles",
              "cycles packets waited on this link");
}

} // namespace persim::noc
