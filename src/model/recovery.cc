#include "model/recovery.hh"

#include <algorithm>
#include <sstream>

#include "sim/logging.hh"

namespace persim::model
{

RecoveryAnalysis::RecoveryAnalysis(
    const std::vector<OrderingChecker::PersistEvent> &log,
    unsigned numCores)
    : _log(log), _numCores(numCores)
{
    for (const auto &ev : log) {
        if (ev.core != kNoCore && !ev.isLog)
            ++_expected[{ev.core, ev.epoch}];
    }
}

RecoveryReport
RecoveryAnalysis::analyze(std::size_t crashIndex) const
{
    simAssert(crashIndex <= _log.size(),
              "crash index beyond the end of the log");
    RecoveryReport report;
    report.cores.resize(_numCores);

    // Durable line counts (and addresses) per epoch at the crash point.
    std::map<std::pair<CoreId, EpochId>, std::uint64_t> durable;
    std::map<std::pair<CoreId, EpochId>, std::vector<Addr>> durableAddrs;
    for (std::size_t i = 0; i < crashIndex; ++i) {
        const auto &ev = _log[i];
        if (ev.core == kNoCore || ev.isLog)
            continue;
        ++durable[{ev.core, ev.epoch}];
        durableAddrs[{ev.core, ev.epoch}].push_back(ev.addr);
        ++report.durableLines;
    }

    // Per core: in ascending epoch order the durable counts must form
    // a prefix — full, full, ..., [at most one partial], then nothing.
    for (unsigned c = 0; c < _numCores; ++c) {
        CoreRecovery &rec = report.cores[c];
        bool boundarySeen = false; // first not-fully-durable epoch
        for (const auto &[key, expected] : _expected) {
            if (key.first != c)
                continue;
            auto it = durable.find(key);
            const std::uint64_t have =
                it == durable.end() ? 0 : it->second;
            if (!boundarySeen) {
                if (have == expected) {
                    rec.lastComplete = key.second;
                    continue;
                }
                boundarySeen = true;
                if (have > 0) {
                    rec.hasPartialEpoch = true;
                    rec.partialEpoch = key.second;
                    rec.linesToUndo = durableAddrs[key];
                }
                continue;
            }
            if (have == 0)
                continue;
            // Lines durable beyond the first incomplete epoch: the
            // epoch-persistency prefix property was violated.
            report.consistent = false;
            std::ostringstream os;
            os << "core " << c << ": epoch " << key.second << " has "
               << have << "/" << expected
               << " durable lines beyond the first incomplete epoch";
            report.problems.push_back(os.str());
        }
    }
    return report;
}

std::size_t
RecoveryAnalysis::firstInconsistency() const
{
    // Durable counts only grow with the cut, so each core's first
    // not-fully-durable epoch only moves forward. A cut is inconsistent
    // exactly when the line it adds lands past that boundary.
    struct CoreEpochs
    {
        std::vector<EpochId> epochs;         // ascending, as in _expected
        std::vector<std::uint64_t> missing;  // expected minus durable
        std::size_t boundary = 0;            // first not-full epoch
    };
    std::vector<CoreEpochs> cores(_numCores);
    for (const auto &[key, expected] : _expected) {
        if (key.first < _numCores) {
            cores[key.first].epochs.push_back(key.second);
            cores[key.first].missing.push_back(expected);
        }
    }
    for (std::size_t i = 0; i < _log.size(); ++i) {
        const auto &ev = _log[i];
        if (ev.isLog || ev.core >= _numCores)
            continue;
        CoreEpochs &c = cores[ev.core];
        const std::size_t e = static_cast<std::size_t>(
            std::lower_bound(c.epochs.begin(), c.epochs.end(), ev.epoch) -
            c.epochs.begin());
        --c.missing[e];
        if (e > c.boundary)
            return i + 1;
        while (c.boundary < c.missing.size() && c.missing[c.boundary] == 0)
            ++c.boundary;
    }
    return _log.size() + 1;
}

} // namespace persim::model
