/**
 * @file
 * Deterministic fault injection for the sweep harness.
 *
 * The fault-tolerance machinery (retries, watchdog) is only
 * trustworthy if it is exercised against real faults, so the
 * environment variable
 *
 *     PERSIM_FAULT=<kind>:<jobIndex>
 *
 * injects exactly one fault at the start of every attempt of the job
 * with that grid index. Kinds:
 *
 *     throw  - throw a std::runtime_error ("injected fault: throw")
 *     hang   - spin until the watchdog's cancel flag fires, then
 *              surface as a timeout; with no watchdog it never returns
 *              and only an external kill ends the process
 *
 * The hook is keyed by job index, not id, so the same injection works
 * unchanged across figures and filters; an index of SIZE_MAX (the
 * default for standalone runJob callers) never matches, so library
 * users cannot be faulted by a stray environment variable. Tests and
 * the CI fault-injection job are the only intended users.
 */

#ifndef PERSIM_EXP_FAULT_HH
#define PERSIM_EXP_FAULT_HH

#include <atomic>
#include <cstddef>
#include <string_view>

namespace persim::exp::fault
{

enum class Kind
{
    None,
    Throw,
    Hang,
};

/** One parsed injection directive. */
struct Spec
{
    Kind kind = Kind::None;
    std::size_t jobIndex = 0;
};

/**
 * Parse "<kind>:<jobIndex>"; throws SimFatal naming the defect on
 * malformed input (unknown kind, missing colon, non-numeric index, or
 * an index above SIZE_MAX - 1).
 */
Spec parse(std::string_view text);

/** Parse PERSIM_FAULT from the environment; Kind::None when unset. */
Spec fromEnv();

/**
 * Inject the configured fault if PERSIM_FAULT targets @p jobIndex.
 * Called at the start of every job attempt (so a retried job faults
 * again — a persistent fault, which is what the containment tests
 * need). @p cancel is the attempt's watchdog flag: Hang spins on it
 * and converts to SimCancelled when it fires; nullptr hangs forever.
 */
void maybeInject(std::size_t jobIndex, const std::atomic<bool> *cancel);

} // namespace persim::exp::fault

#endif // PERSIM_EXP_FAULT_HH
