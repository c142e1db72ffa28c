/**
 * @file
 * Experiment specification and sweep expansion.
 *
 * An ExperimentSpec is one fully-determined simulation cell: workload,
 * persistency model, barrier variant, epoch size, core count, run
 * length, and seed. It is a plain value — serializable, hashable into
 * an id, and independently runnable — so a sweep is nothing more than a
 * vector of specs, and any subset can run on any thread in any order
 * without changing the results.
 *
 * The named grids built from specs (the paper's figures and the §7
 * ablations) live in exp/figures.hh.
 */

#ifndef PERSIM_EXP_SPEC_HH
#define PERSIM_EXP_SPEC_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cpu/workload_iface.hh"
#include "exp/json.hh"
#include "model/system_config.hh"

namespace persim::workload::trace
{
class TraceCaptureWriter;
struct TraceData;
} // namespace persim::workload::trace

namespace persim::exp
{

/** One fully-determined simulation cell. */
struct ExperimentSpec
{
    /** Sweep label, e.g. "fig11". */
    std::string sweep;

    /** Micro name (hash, queue, ...) or synthetic preset (canneal...). */
    std::string workload = "hash";

    /** Column label in the figure, e.g. "LB++", "LB1K", "NP". */
    std::string configLabel;

    model::PersistencyModel pm = model::PersistencyModel::BufferedEpoch;
    persist::BarrierKind barrier = persist::BarrierKind::LBPP;

    /** BSP hardware epoch size in dynamic stores. */
    unsigned epochSize = 10000;

    /** BSP undo logging (false models the LB++NOLOG ablation). */
    bool logging = true;

    unsigned cores = 32;
    std::uint64_t ops = 300;
    std::uint64_t seed = 1;

    // Ablation knobs. Each maps onto one SystemConfig field and
    // defaults to that field's default; toJson() emits a knob only
    // when it differs from its default.

    /** clflush-style invalidating flush instead of clwb (§7). */
    bool invalidatingFlush = persist::BarrierConfig{}.invalidatingFlush;

    /** Per-core arbiter (O(n)) vs all-to-all bank messages (§4.1). */
    bool useArbiter = persist::BarrierConfig{}.useArbiter;

    /** In-flight epochs per core (§4.3). */
    unsigned maxInflightEpochs = persist::BarrierConfig{}.maxInflightEpochs;

    /** IDT dependence/inform register pairs per epoch (§4.3). */
    unsigned idtRegsPerEpoch = persist::BarrierConfig{}.idtRegsPerEpoch;

    /** NVRAM write latency in cycles. */
    Tick nvramWriteLatency = nvm::NvramConfig{}.writeLatency;

    /** Victim selection in the L1s and LLC banks. */
    cache::ReplacementPolicy replacementPolicy =
        cache::CacheGeometry{}.policy;

    /** Prefer untagged LLC victims (avoids replacement conflicts). */
    bool avoidTaggedVictims = persist::BarrierConfig{}.avoidTaggedVictims;

    /** LLC bank capacity in bytes; 0 keeps the system's default. */
    std::uint64_t llcBankBytes = 0;

    /**
     * When non-empty, the cell's cores replay this trace file instead
     * of executing `workload`. Host-path state: never serialized into
     * toJson(), so a replay run's figure output is comparable byte for
     * byte with a direct run of the captured workload.
     */
    std::string traceFile;

    /**
     * A trace already parsed, shared by every cell that replays it
     * (Sweep::replayTrace), so buildWorkloads() reads no file; it takes
     * precedence over traceFile. Host state like traceFile, never
     * serialized.
     */
    std::shared_ptr<const workload::trace::TraceData> traceData;

    /**
     * When non-empty, the run is captured and the trace written here
     * after the simulation completes. Also host-path state, excluded
     * from toJson(); capture wraps the workloads without perturbing
     * them, so the run's own output is unchanged.
     */
    std::string captureFile;

    /** True when workload names a Table 2 micro-benchmark. */
    bool isMicro() const;

    /** Unique, filesystem-friendly id: "<workload>/<config>/s<seed>". */
    std::string id() const;

    /** Build the Table-1 (or scaled-down) SystemConfig for this cell. */
    model::SystemConfig toSystemConfig() const;

    /**
     * Build one workload per core (replay workloads when traceData or
     * traceFile is set). If @p capture is non-null and captureFile is
     * set, the workloads are wrapped for capture and the shared writer
     * is returned through @p capture; the caller writes captureFile
     * once the run finishes (see runJob).
     */
    std::vector<std::unique_ptr<cpu::Workload>> buildWorkloads(
        std::shared_ptr<workload::trace::TraceCaptureWriter> *capture =
            nullptr) const;

    JsonValue toJson() const;
};

/** An ordered set of independent jobs. */
struct Sweep
{
    std::string name;
    std::vector<ExperimentSpec> jobs;

    /**
     * Cross the current job list with @p seeds: every job is repeated
     * once per seed, each with a distinct deterministic seed derived
     * from its base seed and the entry in @p seeds.
     */
    void crossSeeds(const std::vector<std::uint64_t> &seeds);

    /**
     * Replace the workload axis with one row replaying the trace at
     * @p path through every config of the grid. The file is parsed
     * once, here; every cell of the row shares the parsed records.
     * The trace header fixes the row's core count and workload name.
     *
     * @return The parsed trace.
     */
    std::shared_ptr<const workload::trace::TraceData>
    replayTrace(const std::string &path);
};

/** Deterministic seed mixing (splitmix64) for derived per-job seeds. */
std::uint64_t mixSeed(std::uint64_t base, std::uint64_t salt);

} // namespace persim::exp

#endif // PERSIM_EXP_SPEC_HH
