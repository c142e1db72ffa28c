#include "persist/flush_engine.hh"

#include <algorithm>

#include "prof/phase.hh"
#include "sim/logging.hh"

namespace persim::persist
{

std::size_t
FlushEngine::indexOf(CoreId core, EpochId epoch) const
{
    for (std::size_t i = 0; i < _buckets.size(); ++i) {
        if (_buckets[i].core == core && _buckets[i].epoch == epoch)
            return i;
    }
    return kNone;
}

void
FlushEngine::recycleBucket(std::size_t idx)
{
    _spare.push_back(std::move(_buckets[idx]));
    if (idx != _buckets.size() - 1)
        _buckets[idx] = std::move(_buckets.back());
    _buckets.pop_back();
}

void
FlushEngine::addLine(CoreId core, EpochId epoch, Addr addr)
{
    prof::ScopedPhase profPhase(prof::Phase::FlushEngine);
    simAssert(core != kNoCore && epoch != kNoEpoch, _name,
              ": untagged line added to flush engine");
    std::size_t idx = indexOf(core, epoch);
    if (idx == kNone) {
        idx = _buckets.size();
        if (!_spare.empty()) {
            _buckets.push_back(std::move(_spare.back()));
            _spare.pop_back();
        } else {
            _buckets.emplace_back();
        }
        _buckets[idx].core = core;
        _buckets[idx].epoch = epoch;
    }
    Bucket &b = _buckets[idx];
    addr = lineAlign(addr);
    const std::size_t before = b.pos.size();
    b.pos.insertOrFind(addr) = static_cast<std::uint32_t>(b.lines.size());
    simAssert(b.pos.size() == before + 1, _name, ": line 0x", std::hex,
              addr, std::dec, " already tracked for core ", core,
              " epoch ", epoch);
    b.lines.push_back(addr);
    ++_totalLines;
}

bool
FlushEngine::removeLine(CoreId core, EpochId epoch, Addr addr)
{
    prof::ScopedPhase profPhase(prof::Phase::FlushEngine);
    const std::size_t idx = indexOf(core, epoch);
    if (idx == kNone)
        return false;
    Bucket &b = _buckets[idx];
    addr = lineAlign(addr);
    const std::uint32_t *at = b.pos.find(addr);
    if (!at)
        return false;
    // Swap-remove from the dense vector, re-pointing the moved line.
    const std::uint32_t i = *at;
    const Addr last = b.lines.back();
    b.lines[i] = last;
    b.lines.pop_back();
    if (last != addr)
        *b.pos.find(last) = i;
    b.pos.erase(addr);
    --_totalLines;
    if (b.lines.empty())
        recycleBucket(idx);
    return true;
}

bool
FlushEngine::hasLine(CoreId core, EpochId epoch, Addr addr) const
{
    const std::size_t idx = indexOf(core, epoch);
    return idx != kNone &&
           _buckets[idx].pos.find(lineAlign(addr)) != nullptr;
}

std::size_t
FlushEngine::count(CoreId core, EpochId epoch) const
{
    const std::size_t idx = indexOf(core, epoch);
    return idx == kNone ? 0 : _buckets[idx].lines.size();
}

void
FlushEngine::sortedLines(std::size_t idx, std::vector<Addr> &out) const
{
    const std::vector<Addr> &lines = _buckets[idx].lines;
    out.assign(lines.begin(), lines.end());
    std::sort(out.begin(), out.end());
}

void
FlushEngine::takeAll(CoreId core, EpochId epoch, std::vector<Addr> &out)
{
    prof::ScopedPhase profPhase(prof::Phase::FlushEngine);
    out.clear();
    const std::size_t idx = indexOf(core, epoch);
    if (idx == kNone)
        return;
    sortedLines(idx, out);
    Bucket &b = _buckets[idx];
    for (Addr a : b.lines)
        b.pos.erase(a);
    _totalLines -= b.lines.size();
    b.lines.clear();
    recycleBucket(idx);
}

void
FlushEngine::snapshot(CoreId core, EpochId epoch,
                      std::vector<Addr> &out) const
{
    prof::ScopedPhase profPhase(prof::Phase::FlushEngine);
    out.clear();
    const std::size_t idx = indexOf(core, epoch);
    if (idx != kNone)
        sortedLines(idx, out);
}

} // namespace persim::persist
