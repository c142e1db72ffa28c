/**
 * @file
 * Crash-safe sweep journal and the outcome wire codec.
 *
 * A multi-hour sweep must survive the death of its own process: an
 * OOM kill, a ctrl-C, a node reboot. The journal makes every finished
 * cell durable the moment it completes:
 *
 *   - `<out>.journal` is append-only. Line 1 is a header binding the
 *     journal to one exact grid (sweep name, job count, and a
 *     fingerprint over every cell's identity-relevant fields) and
 *     recording whether the cells kept their stat trees; every
 *     further line is one completed cell's full outcome as compact
 *     JSON, written with a single write(2) and fsync'd before the
 *     runner moves on. A crash can lose at most the in-flight cells.
 *     A cell that kept no tree (RunnerOptions::keepStatTrees off)
 *     journals no "groups" key, so its line is ~0.3 KB, not ~60 KB.
 *   - `persim_sweep --resume` loads the journal, skips journaled
 *     cells, runs the rest, and merges both sets back into grid
 *     order. Because the codec round-trips outcomes exactly (shortest
 *     round-trip number formatting end to end), the merged document
 *     is byte-identical to an uninterrupted run — CI enforces this.
 *   - The final output file is written to `<out>.tmp`, fsync'd, and
 *     renamed over `<out>` (writeFileAtomic), after which the journal
 *     is deleted: observers see either the old document or the
 *     complete new one, never a torn write.
 *
 * Failed cells are deliberately NOT journaled: a resume retries them,
 * which is what you want after fixing whatever killed them.
 */

#ifndef PERSIM_EXP_JOURNAL_HH
#define PERSIM_EXP_JOURNAL_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "exp/json.hh"
#include "exp/runner.hh"
#include "exp/spec.hh"

namespace persim::exp
{

/**
 * Full-fidelity serialization of one JobOutcome for the journal:
 * everything JobOutcome::toJson() emits plus wallMs, so figure tables
 * and telemetry can be rebuilt without re-running the cell. A null
 * statTree writes no "groups" key.
 */
JsonValue outcomeToWire(const JobOutcome &outcome);

/**
 * Rebuild a JobOutcome from outcomeToWire() output. @p spec and
 * @p index come from the live grid (the wire carries only the id), so
 * the rebuilt outcome serializes byte-identically to the original.
 */
JobOutcome outcomeFromWire(const JsonValue &wire,
                           const ExperimentSpec &spec, std::size_t index);

/**
 * Order-sensitive fingerprint over every field that determines a
 * cell's simulated result: each spec's toJson() document plus its
 * trace file.
 * Two grids with equal fingerprints and equal sizes produce the same
 * cells, so resuming across them is sound; anything else is a
 * mismatch the resume path must refuse.
 */
std::uint64_t gridFingerprint(const std::vector<ExperimentSpec> &jobs);

/** The grid-identity header in a journal's first line. */
struct JournalHeader
{
    std::string sweep;
    std::size_t jobCount = 0;
    std::uint64_t gridHash = 0;

    /**
     * The cells kept their stat trees. A journal without them cannot
     * rebuild a document with stats; journals written before this
     * field existed always kept them, so a missing key reads as true.
     * Not part of the grid identity (matches()).
     */
    bool statTrees = true;

    bool matches(const JournalHeader &other) const
    {
        return sweep == other.sweep && jobCount == other.jobCount &&
               gridHash == other.gridHash;
    }
};

/**
 * Append-only journal writer. Thread-safe: workers append completed
 * cells concurrently; each line is one write(2) followed by fsync.
 */
class SweepJournal
{
  public:
    SweepJournal() = default;
    ~SweepJournal();
    SweepJournal(const SweepJournal &) = delete;
    SweepJournal &operator=(const SweepJournal &) = delete;

    /**
     * Open @p path for appending and write the header line when the
     * file is new or being truncated. @p fresh truncates (a run that
     * is NOT resuming must not inherit a stale journal). Throws
     * SimFatal on I/O errors.
     */
    void open(const std::string &path, const JournalHeader &header,
              bool fresh);

    /** One fsync'd compact JSON line for @p outcome. */
    void append(const JobOutcome &outcome);

    bool isOpen() const { return _fd >= 0; }
    const std::string &path() const { return _path; }

    void close();

  private:
    int _fd = -1;
    std::string _path;
    std::mutex _mutex;
};

/** Everything a --resume run needs from an existing journal. */
struct JournalContents
{
    /** The file exists (when false, nothing else is meaningful). */
    bool exists = false;

    /** The header line parsed (corrupt headers refuse to resume). */
    bool headerOk = false;

    JournalHeader header;

    /** (id, wire outcome) in file order; later duplicates win. */
    std::vector<std::pair<std::string, JsonValue>> entries;

    /** Unparseable lines skipped (a torn tail from the crash). */
    std::size_t dropped = 0;

    /** Ids that appeared more than once (0 in any healthy journal). */
    std::size_t duplicates = 0;
};

/** Load and validate a journal; never throws on corrupt content. */
JournalContents loadJournal(const std::string &path);

/**
 * Merge journaled cells and freshly-run outcomes back into full grid
 * order. @p fresh holds the outcomes of the jobs that actually ran
 * this time (matched by spec id); every other grid cell must appear
 * in @p entries. Throws SimFatal if a cell is covered by neither.
 */
std::vector<JobOutcome> mergeResumedOutcomes(
    const Sweep &fullSweep,
    const std::vector<std::pair<std::string, JsonValue>> &entries,
    std::vector<JobOutcome> fresh);

/**
 * Durably replace @p path: write to `<path>.tmp`, fsync, rename over
 * @p path, fsync the directory. Throws SimFatal on I/O errors.
 */
void writeFileAtomic(const std::string &path, const std::string &content);

} // namespace persim::exp

#endif // PERSIM_EXP_JOURNAL_HH
