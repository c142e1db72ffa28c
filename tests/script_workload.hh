/**
 * @file
 * The scripted workload the protocol tests drive small systems with.
 */

#ifndef PERSIM_TESTS_SCRIPT_WORKLOAD_HH
#define PERSIM_TESTS_SCRIPT_WORKLOAD_HH

#include <cstddef>
#include <utility>
#include <vector>

#include "cpu/workload_iface.hh"

namespace persim::test
{

/** Replays a fixed op list, then halts. */
class Script : public cpu::Workload
{
  public:
    explicit Script(std::vector<cpu::MemOp> ops)
        : _ops(std::move(ops))
    {
    }

    cpu::MemOp
    next(Tick) override
    {
        if (_pos >= _ops.size())
            return cpu::MemOp::halt();
        return _ops[_pos++];
    }

  private:
    std::vector<cpu::MemOp> _ops;
    std::size_t _pos = 0;
};

} // namespace persim::test

#endif // PERSIM_TESTS_SCRIPT_WORKLOAD_HH
