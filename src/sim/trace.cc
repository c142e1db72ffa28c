#include "sim/trace.hh"

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>
#include <sstream>

namespace persim::trace
{

namespace
{

struct TraceState
{
    bool any = false;
    bool all = false;
    std::set<std::string> flags;

    TraceState()
    {
        const char *env = std::getenv("PERSIM_TRACE");
        if (!env || !*env)
            return;
        any = true;
        std::stringstream ss(env);
        std::string flag;
        while (std::getline(ss, flag, ',')) {
            if (flag == "all")
                all = true;
            else if (!flag.empty())
                flags.insert(flag);
        }
    }
};

const TraceState &
state()
{
    static const TraceState s;
    return s;
}

} // namespace

namespace detail
{

constinit thread_local Recorder *tlRecorder = nullptr;

// Dynamic-initialized before main(); probes only run at runtime.
const bool envAny = state().any;

bool
envEnabled(const char *flag)
{
    const TraceState &s = state();
    return s.any && (s.all || s.flags.contains(flag));
}

} // namespace detail

Recorder::Recorder(const std::string &flagsCsv, Tick counterWindow)
    : _counterWindow(counterWindow)
{
    std::stringstream ss(flagsCsv);
    std::string flag;
    while (std::getline(ss, flag, ',')) {
        if (flag == "all")
            _all = true;
        else if (!flag.empty())
            _flags.push_back(flag);
    }
}

bool
Recorder::wants(const char *flag) const
{
    if (_all)
        return true;
    for (const std::string &f : _flags) {
        if (f == flag)
            return true;
    }
    return false;
}

void
attachRecorder(Recorder *r)
{
    detail::tlRecorder = r;
}

void
detachRecorder()
{
    detail::tlRecorder = nullptr;
}

void
emit(const char *flag, Tick when, const std::string &who,
     const std::string &message)
{
    Recorder *rec = detail::tlRecorder;
    if (rec && rec->wants(flag)) {
        rec->add(Record{when, flag, who, message});
        if (!detail::envEnabled(flag))
            return;
    }
    std::fprintf(stderr, "%10llu: %s: %s: %s\n",
                 static_cast<unsigned long long>(when), flag,
                 who.c_str(), message.c_str());
}

} // namespace persim::trace
