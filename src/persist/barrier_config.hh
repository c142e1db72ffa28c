/**
 * @file
 * Configuration of the persist barrier implementation and its variants.
 */

#ifndef PERSIM_PERSIST_BARRIER_CONFIG_HH
#define PERSIM_PERSIST_BARRIER_CONFIG_HH

#include <string>

#include "sim/types.hh"

namespace persim::persist
{

/** The barrier implementations evaluated in the paper. */
enum class BarrierKind
{
    None,  // NP: no persistence tracking at all
    LB,    // Condit et al. lazy barrier (state of the art baseline)
    LBIDT, // LB + inter-thread dependence tracking
    LBPF,  // LB + proactive flushing
    LBPP,  // LB++ = LB + IDT + PF (the paper's contribution)
};

/** Human-readable name, matching the paper's figures. */
const char *toString(BarrierKind kind);

/** Tunables of the persist-barrier hardware (§4.3 defaults). */
struct BarrierConfig
{
    /** Master switch; false models No Persistency (NP). */
    bool enabled = true;

    /** Track inter-thread dependences in hardware (IDT, §3.1). */
    bool idt = false;

    /** Flush completed epochs proactively (PF, §3.2). */
    bool proactiveFlush = false;

    /**
     * Use an invalidating flush (clflush-like) instead of the
     * non-invalidating clwb-like flush the paper recommends (§3.2, §7).
     */
    bool invalidatingFlush = false;

    /** Split ongoing source epochs to avoid persistence deadlocks (§3.3). */
    bool splitOngoing = true;

    /** Hardware undo logging for BSP (§5.2.1). */
    bool logging = false;

    /**
     * Lines of processor state checkpointed per epoch (BSP, §6: general
     * purpose + special + privilege + FP registers; ~1KB = 16 lines).
     */
    unsigned checkpointLines = 0;

    /** In-flight epochs per core (3-bit EpochID in the paper). */
    unsigned maxInflightEpochs = 8;

    /** IDT dependence/inform register pairs per epoch. */
    unsigned idtRegsPerEpoch = 4;

    /**
     * Barrier blocks until the closed epoch persists (Epoch Persistency;
     * false gives Buffered Epoch Persistency).
     */
    bool blockingBarrier = false;

    /** Prefer untagged LLC victims to avoid replacement conflicts. */
    bool avoidTaggedVictims = true;

    /** Cycles between successive line-flush issues in a flush walk. */
    static constexpr Tick kFlushIssueInterval = 1;

    /**
     * Use the per-core arbiter for flush coordination (O(n) messages).
     * When false, banks exchange all-to-all completion messages (the
     * O(n^2) strawman of §4.1) — same timing path, more mesh traffic.
     */
    bool useArbiter = true;

    /** Build the configuration for one of the paper's barrier variants. */
    static BarrierConfig forKind(BarrierKind kind);
};

} // namespace persim::persist

#endif // PERSIM_PERSIST_BARRIER_CONFIG_HH
