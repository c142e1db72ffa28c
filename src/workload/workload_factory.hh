/**
 * @file
 * Construction of complete multi-threaded workloads.
 */

#ifndef PERSIM_WORKLOAD_WORKLOAD_FACTORY_HH
#define PERSIM_WORKLOAD_WORKLOAD_FACTORY_HH

#include <memory>
#include <string>
#include <vector>

#include "cpu/workload_iface.hh"
#include "workload/micro/micro_benchmark.hh"

namespace persim::workload
{

/** The Table 2 micro-benchmarks. */
enum class MicroKind
{
    Hash,
    Queue,
    RbTree,
    Sdg,
    Sps,
};

const char *toString(MicroKind kind);

/** All five, in the paper's figure order. */
const std::vector<MicroKind> &allMicroKinds();

/** Parse "hash" / "queue" / "rbtree" / "sdg" / "sps". */
MicroKind microKindFromName(const std::string &name);

/** Sizing of a micro-benchmark run. */
struct MicroConfig
{
    MicroKind kind = MicroKind::Hash;
    unsigned numThreads = 32;
    std::uint64_t opsPerThread = 500;
    std::uint64_t seed = 1;
    /**
     * Per-thread structure size: buckets (hash), vertices (sdg) or
     * array entries (sps) per thread. The queue interprets it as the
     * total slot count of the single shared ring. 0 picks the tuned
     * per-benchmark default (hash 32, queue 256, sdg 16, sps 64).
     */
    unsigned structureSize = 0;
    double searchFraction = 0.2;
    /** Fraction of ops that target another thread's partition. */
    double crossFraction = 0.1;
    unsigned thinkCycles = 20;
    /**
     * Force lock traffic on/off; -1 keeps per-benchmark defaults
     * (queue locked, the partitioned micros lockless).
     */
    int useLocks = -1;
};

/**
 * Build one workload per thread, all sharing the benchmark's structure.
 * Index i is the workload for core i.
 */
std::vector<std::unique_ptr<cpu::Workload>>
makeMicroWorkloads(const MicroConfig &cfg);

/**
 * Build the synthetic stand-in for PARSEC/SPLASH/STAMP benchmark
 * @p preset (see synthetic/presets.hh), one thread per core.
 *
 * @param opsPerThread Memory operations per thread.
 */
std::vector<std::unique_ptr<cpu::Workload>>
makeSyntheticWorkloads(const std::string &preset, unsigned numThreads,
                       std::uint64_t opsPerThread, std::uint64_t seed);

/**
 * Build replay workloads (one per core) from the trace file at
 * @p path. Fatal if the trace's thread count differs from
 * @p numThreads.
 */
std::vector<std::unique_ptr<cpu::Workload>>
makeTraceReplayWorkloads(const std::string &path, unsigned numThreads);

} // namespace persim::workload

#endif // PERSIM_WORKLOAD_WORKLOAD_FACTORY_HH
