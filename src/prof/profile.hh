/**
 * @file
 * The on-disk profile document behind `persim_sweep --prof-out`.
 *
 * A profile is strictly host-side (phase sample counts) and therefore
 * lives in its own file, never inside the deterministic sweep JSON —
 * the same separation exp/telemetry keeps. perfbench reads its
 * `phases` object for the per-layer host-time split.
 */

#ifndef PERSIM_PROF_PROFILE_HH
#define PERSIM_PROF_PROFILE_HH

#include <cstdint>
#include <string>

#include "exp/json.hh"
#include "prof/sampler.hh"

namespace persim::prof
{

/** A whole sweep's profile (`--prof-out` document, version 1). */
struct SweepProfile
{
    std::string sweep;
    unsigned periodUsec = 0;
    /** Aggregate phase samples across every profiled thread. */
    PhaseCounts phases;
    /** Timer ticks that landed on unattached threads. */
    std::uint64_t unattributed = 0;

    /** Fraction of samples on a named (non-Other) phase, in [0, 1]. */
    double attributionRatio() const;

    exp::JsonValue toJson() const;
};

} // namespace persim::prof

#endif // PERSIM_PROF_PROFILE_HH
