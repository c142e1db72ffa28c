#include "nvm/memory_controller.hh"

#include "prof/phase.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"

namespace persim::nvm
{

MemoryController::MemoryController(const std::string &name, EventQueue &eq,
                                   noc::Mesh &mesh, unsigned nodeId,
                                   unsigned x, unsigned y,
                                   const NvramConfig &cfg)
    : SimObject(name, eq),
      _stats(name),
      _ni(name + ".ni", mesh, nodeId, x, y),
      _nvram("nvram", cfg, &_stats),
      _persistAcks(&_stats, "persistAcks", "PersistAck messages sent"),
      _logWrites(&_stats, "logWrites", "undo-log/checkpoint line writes"),
      _writeLatency(&_stats, "writeLatency",
                    "request-to-durable latency (cycles)")
{
}

void
MemoryController::sendWrite(noc::NetworkInterface &from, WriteReq &&req)
{
    const std::uint32_t idx = _writeReqs.alloc(std::move(req));
    from.sendData(nodeId(), InlineCallback::inlineOnly(
                                [this, idx] { acceptWrite(idx); }));
}

void
MemoryController::sendRead(noc::NetworkInterface &from, ReadReq &&req)
{
    const std::uint32_t idx = _readReqs.alloc(std::move(req));
    from.sendControl(nodeId(), InlineCallback::inlineOnly(
                                   [this, idx] { acceptRead(idx); }));
}

void
MemoryController::acceptWrite(std::uint32_t idx)
{
    prof::ScopedPhase profPhase(prof::Phase::Nvm);
    const WriteReq &req = _writeReqs.at(idx);
    const Tick now = curTick();
    const Tick durable = _nvram.write(now, req.addr);
    _writeLatency.sample(durable - now);
    if (req.isLog)
        _logWrites.inc();
    if (durable > _lastDurable)
        _lastDurable = durable;
    if (++_outstandingWrites == 1 && trace::probing()) [[unlikely]]
        _wqBusySince = now;

    scheduleIn(durable - now,
               InlineCallback::inlineOnly([this, idx, durable] {
                   completeWrite(idx, durable);
               }));
}

void
MemoryController::completeWrite(std::uint32_t idx, Tick durable)
{
    if (--_outstandingWrites == 0 && trace::probing() &&
        _wqBusySince != kTickNever) [[unlikely]] {
        trace::span(_wqBusySince, curTick(), name(), "write queue", "NvmQ");
        _wqBusySince = kTickNever;
    }
    // Neither the observer nor the mesh allocates from this pool, so
    // the reference stays valid until release().
    WriteReq &req = _writeReqs.at(idx);
    if (_observer) {
        _observer->onPersist(durable, req.addr, req.core, req.epoch,
                             req.isLog);
    }
    _persistAcks.inc();
    if (req.onPersist)
        _ni.sendControl(req.replyTo, std::move(req.onPersist));
    _writeReqs.release(idx);
}

void
MemoryController::acceptRead(std::uint32_t idx)
{
    prof::ScopedPhase profPhase(prof::Phase::Nvm);
    const ReadReq &req = _readReqs.at(idx);
    const Tick now = curTick();
    const Tick ready = _nvram.read(now, req.addr);
    simAssert(static_cast<bool>(req.onData), "read without onData");
    scheduleIn(ready - now, InlineCallback::inlineOnly(
                                [this, idx] { completeRead(idx); }));
}

void
MemoryController::completeRead(std::uint32_t idx)
{
    ReadReq &req = _readReqs.at(idx);
    _ni.sendData(req.replyTo, std::move(req.onData));
    _readReqs.release(idx);
}

} // namespace persim::nvm
