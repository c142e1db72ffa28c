/**
 * @file
 * Flush-engine bookkeeping: which lines belong to which epoch (§4.3).
 *
 * The paper's hardware keeps a per-epoch bitmap over cache sets (512B per
 * LLC bank) to find an epoch's dirty lines without a full walk. The
 * simulator keeps exact per-epoch address sets — functionally what the
 * bitmap accelerates — and models the walk cost as a per-line issue rate.
 *
 * Each bucket keeps its lines twice: in a dense vector, which the flush
 * walks copy into the caller's reused buffer without scanning any empty
 * table slots, and in a flat open-addressed table (cache::FlatAddrMap)
 * from address to vector position, which serves the per-line
 * add/remove/lookup of every tagged store. Buckets live in a dense
 * vector with a linearly scanned (core, epoch) key — a handful are live
 * at any time, so a scan beats hashing — and emptied buckets park their
 * storage in a spare pool, so the per-epoch create/destroy cycle reuses
 * it instead of re-allocating.
 */

#ifndef PERSIM_PERSIST_FLUSH_ENGINE_HH
#define PERSIM_PERSIST_FLUSH_ENGINE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cache/flat_table.hh"
#include "sim/types.hh"

namespace persim::persist
{

/**
 * Per-cache line-set bookkeeping for epoch flushes.
 *
 * One instance lives in each L1 controller and each LLC bank. A line
 * address appears in at most one (core, epoch) bucket of at most one
 * engine system-wide: the bucket of the epoch that owns the line's
 * current unpersisted incarnation, at the level holding the dirty copy.
 */
class FlushEngine
{
  public:
    explicit FlushEngine(std::string name) : _name(std::move(name)) {}

    /** Record that (core, epoch) owns the dirty line @p addr here. */
    void addLine(CoreId core, EpochId epoch, Addr addr);

    /**
     * Remove @p addr from (core, epoch)'s bucket (the incarnation moved
     * to another level, persisted, or was stolen by an overwrite).
     *
     * @return true if the line was present.
     */
    bool removeLine(CoreId core, EpochId epoch, Addr addr);

    /** True if (core, epoch) currently owns @p addr at this level. */
    bool hasLine(CoreId core, EpochId epoch, Addr addr) const;

    /** Number of lines (core, epoch) owns at this level. */
    std::size_t count(CoreId core, EpochId epoch) const;

    /**
     * Remove every line of (core, epoch) and put them in @p out,
     * replacing its contents (ordered by address for determinism); used
     * when the bank flush walk starts. @p out is the caller's reused
     * buffer.
     */
    void takeAll(CoreId core, EpochId epoch, std::vector<Addr> &out);

    /**
     * Put (without removing) every line of (core, epoch) in @p out,
     * address-ordered; the L1 walk uses this because each writeback
     * moves its own entry to the bank engine.
     */
    void snapshot(CoreId core, EpochId epoch,
                  std::vector<Addr> &out) const;

    /** Total lines tracked across all epochs (diagnostics). */
    std::size_t totalLines() const { return _totalLines; }

    const std::string &name() const { return _name; }

  private:
    /** The lines of one (core, epoch). */
    struct Bucket
    {
        CoreId core = kNoCore;
        EpochId epoch = kNoEpoch;
        /** The bucket's lines, in no particular order. */
        std::vector<Addr> lines;
        /** Line address -> its index in lines. */
        cache::FlatAddrMap<std::uint32_t> pos;
    };

    static constexpr std::size_t kNone = ~static_cast<std::size_t>(0);

    /** Index of the (core, epoch) bucket, or kNone. */
    std::size_t indexOf(CoreId core, EpochId epoch) const;

    /** Copy bucket @p idx's lines into @p out, address-ordered. */
    void sortedLines(std::size_t idx, std::vector<Addr> &out) const;

    /** Park bucket @p idx's storage in the spare pool (must be empty). */
    void recycleBucket(std::size_t idx);

    std::string _name;
    std::vector<Bucket> _buckets;
    /** Emptied buckets kept for reuse across the epoch lifecycle. */
    std::vector<Bucket> _spare;
    std::size_t _totalLines = 0;
};

} // namespace persim::persist

#endif // PERSIM_PERSIST_FLUSH_ENGINE_HH
