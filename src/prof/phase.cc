#include "prof/phase.hh"

#include <cstring>

namespace persim::prof
{

namespace detail
{
constinit thread_local ThreadBlock *tlBlock = nullptr;
} // namespace detail

const char *
phaseName(Phase p)
{
    switch (p) {
      case Phase::Other:
        return "other";
      case Phase::EventLoop:
        return "eventLoop";
      case Phase::WorkloadGen:
        return "workloadGen";
      case Phase::L1Access:
        return "l1Access";
      case Phase::LlcBank:
        return "llcBank";
      case Phase::FlushEngine:
        return "flushEngine";
      case Phase::PersistArbiter:
        return "persistArbiter";
      case Phase::Noc:
        return "noc";
      case Phase::Nvm:
        return "nvm";
      case Phase::StatExport:
        return "statExport";
    }
    return "other";
}

bool
phaseFromName(const char *name, Phase &out)
{
    for (std::size_t i = 0; i < kPhaseCount; ++i) {
        const Phase p = static_cast<Phase>(i);
        if (std::strcmp(name, phaseName(p)) == 0) {
            out = p;
            return true;
        }
    }
    return false;
}

} // namespace persim::prof
