#include "sim/trace.hh"

#include <algorithm>
#include <sstream>

#include "sim/logging.hh"

namespace persim::trace
{

namespace detail
{

constinit thread_local Recorder *tlRecorder = nullptr;

} // namespace detail

Recorder::Recorder(const std::string &flagsCsv, Tick counterWindow)
    : _counterWindow(counterWindow)
{
    std::stringstream ss(flagsCsv);
    std::string flag;
    while (std::getline(ss, flag, ',')) {
        if (flag == "all") {
            _all = true;
        } else if (!flag.empty()) {
            if (std::find(kCategories.begin(), kCategories.end(), flag) ==
                kCategories.end()) {
                std::string known;
                for (std::string_view c : kCategories)
                    known.append(c).append(", ");
                fatal("unknown trace category '", flag, "' (known: ",
                      known, "or all)");
            }
            _flags.push_back(flag);
        }
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

} // namespace persim::trace
