/**
 * @file
 * Whole-system configuration (Table 1) and persistency-model presets.
 */

#ifndef PERSIM_MODEL_SYSTEM_CONFIG_HH
#define PERSIM_MODEL_SYSTEM_CONFIG_HH

#include <cstdint>
#include <string>

#include "cache/l1_cache.hh"
#include "cache/llc_bank.hh"
#include "noc/mesh.hh"
#include "nvm/nvram.hh"
#include "persist/barrier_config.hh"
#include "sim/types.hh"

namespace persim::model
{

/** The persistency models of Pelley et al. evaluated in the paper. */
enum class PersistencyModel
{
    NoPersistency,  // NP: baseline with no guarantees (§7.2)
    Strict,         // SP: naive write-through strict persistency
    Epoch,          // EP: barriers block until the epoch persists
    BufferedEpoch,  // BEP: barriers are asynchronous (§5.1)
    BufferedStrict, // BSP in bulk mode: hardware epochs + logging (§5.2)
};

const char *toString(PersistencyModel model);

/** Full system configuration; defaults reproduce Table 1. */
struct SystemConfig
{
    unsigned numCores = 32;
    noc::MeshConfig mesh;             // 4 rows x 8 cols, 16B flits
    unsigned numMemControllers = 4;   // at the mesh corners
    cache::L1Config l1;               // 32KB, 4-way, 3 cycles
    cache::LlcBankConfig llcBank;     // 1MB x numCores tiles, 16-way, 30cy
    nvm::NvramConfig nvram;           // 360/240-cycle write/read
    unsigned writeBufferEntries = 32; // Table 1 write buffer
    persist::BarrierConfig barrier;

    /** BSP: hardware-inserted barrier period in dynamic stores. */
    unsigned autoBarrierEvery = 0;

    /** Naive SP: stores write through and block on the ack. */
    bool writeThrough = false;

    /** Attach the ordering checker (validates every run). */
    bool checkOrdering = true;

    /** Keep the full persist-event log (tests; memory-hungry). */
    bool keepPersistLog = false;

    /** Abort the simulation after this many ticks. */
    Tick maxTicks = Tick{20} * 1000 * 1000 * 1000;

    /** Abort the simulation after this many events. */
    std::uint64_t maxEvents = UINT64_C(4000000000);

    /** Workload randomness seed. */
    std::uint64_t seed = 1;

    /** The paper's Table 1 configuration (the default). */
    static SystemConfig paperTable1();

    /**
     * A scaled-down configuration for unit tests: fewer cores, smaller
     * caches, same mechanism coverage.
     */
    static SystemConfig smallTest(unsigned cores = 4);

    /** Sanity-check parameter combinations; throws SimFatal. */
    void validate() const;

    /** Human-readable parameter echo (persim_cli, quickstart). */
    std::string describe() const;
};

/**
 * Configure @p cfg for @p model using barrier variant @p kind.
 *
 * @param epochSize BSP only: hardware epoch size in dynamic stores.
 */
void applyPersistencyModel(SystemConfig &cfg, PersistencyModel model,
                           persist::BarrierKind kind,
                           unsigned epochSize = 10000);

} // namespace persim::model

#endif // PERSIM_MODEL_SYSTEM_CONFIG_HH
