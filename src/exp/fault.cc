#include "exp/fault.hh"

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>

#include "sim/logging.hh"

namespace persim::exp::fault
{

Spec
parse(std::string_view text)
{
    const std::size_t colon = text.find(':');
    if (colon == std::string_view::npos)
        fatal("PERSIM_FAULT wants <kind>:<jobIndex>, got '",
              std::string(text), "'");
    const std::string_view kind = text.substr(0, colon);
    const std::string_view index = text.substr(colon + 1);

    Spec spec;
    if (kind == "throw")
        spec.kind = Kind::Throw;
    else if (kind == "hang")
        spec.kind = Kind::Hang;
    else
        fatal("PERSIM_FAULT kind must be throw|hang, got '",
              std::string(kind), "'");

    if (index.empty())
        fatal("PERSIM_FAULT wants a job index after ':', got '",
              std::string(text), "'");
    // SIZE_MAX is the standalone-run index that must never match, so
    // the largest index a directive may name is one below it.
    constexpr std::size_t kMaxIndex = SIZE_MAX - 1;
    std::size_t value = 0;
    for (char c : index) {
        if (c < '0' || c > '9')
            fatal("PERSIM_FAULT job index must be a non-negative "
                  "integer, got '",
                  std::string(index), "'");
        const auto digit = static_cast<std::size_t>(c - '0');
        if (value > (kMaxIndex - digit) / 10)
            fatal("PERSIM_FAULT job index out of range (at most ",
                  kMaxIndex, "), got '", std::string(index), "'");
        value = value * 10 + digit;
    }
    spec.jobIndex = value;
    return spec;
}

Spec
fromEnv()
{
    // Re-read every call (it is on the once-per-attempt path, far off
    // any hot loop) so tests can set and clear the variable freely.
    const char *env = std::getenv("PERSIM_FAULT");
    if (!env || !*env)
        return {};
    return parse(env);
}

void
maybeInject(std::size_t jobIndex, const std::atomic<bool> *cancel)
{
    const Spec spec = fromEnv();
    if (spec.kind == Kind::None || spec.jobIndex != jobIndex)
        return;

    switch (spec.kind) {
      case Kind::Throw:
        throw std::runtime_error("injected fault: throw");
      case Kind::Hang:
        // A cancellable hang: the loop does nothing but watch the
        // watchdog flag, which is exactly the contract the in-process
        // watchdog can break. Without a flag this never returns and
        // only an external kill ends the process.
        while (!(cancel &&
                 cancel->load(std::memory_order_relaxed)))
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        throw SimCancelled("injected fault: hang cancelled by watchdog");
      case Kind::None:
        break;
    }
}

} // namespace persim::exp::fault
