/**
 * @file
 * Memory controller: the mesh-facing front end of one NVRAM device.
 */

#ifndef PERSIM_NVM_MEMORY_CONTROLLER_HH
#define PERSIM_NVM_MEMORY_CONTROLLER_HH

#include <cstdint>
#include <string>

#include "cache/flat_table.hh"
#include "noc/network_interface.hh"
#include "sim/inline_callback.hh"
#include "nvm/nvram.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace persim::nvm
{

/** A durable write request, as it arrives at the controller. */
struct WriteReq
{
    Addr addr = 0;
    /** Epoch tag carried by the line (kNoCore/kNoEpoch if untagged). */
    CoreId core = kNoCore;
    EpochId epoch = kNoEpoch;
    /** True for undo-log / checkpoint writes (stats + checker). */
    bool isLog = false;
    /** Requesting node; PersistAck travels back to it. */
    unsigned replyTo = 0;
    /** Runs at the requester when the PersistAck arrives. */
    InlineCallback onPersist;
};

/** A line read request (LLC miss fill). */
struct ReadReq
{
    Addr addr = 0;
    unsigned replyTo = 0;
    /** Runs at the requester when the data arrives. */
    InlineCallback onData;
};

/**
 * One of the (four) memory controllers at the mesh corners.
 *
 * Requesters hand a request to sendWrite/sendRead, which parks it in
 * this controller's pool and sends the mesh message; service timing
 * comes from the owned Nvram device; completions travel back over the
 * mesh (PersistAck as control, data as a data message). A request
 * lives in the pool from send until its reply is scheduled, so the
 * delivery and completion events capture only {this, index} and stay
 * inside the inline-callback budget.
 */
class MemoryController : public SimObject
{
  public:
    /**
     * @param name Instance name, e.g. "mc0".
     * @param eq Event queue.
     * @param mesh The on-chip network.
     * @param nodeId Mesh endpoint id of this controller.
     * @param x Router column to attach at.
     * @param y Router row to attach at.
     * @param cfg NVRAM timing parameters.
     */
    MemoryController(const std::string &name, EventQueue &eq,
                     noc::Mesh &mesh, unsigned nodeId, unsigned x,
                     unsigned y, const NvramConfig &cfg);

    /**
     * Send a durable write from @p from as a data message; the
     * controller accepts it on delivery.
     */
    void sendWrite(noc::NetworkInterface &from, WriteReq &&req);

    /**
     * Send a line read from @p from as a control message; the
     * controller accepts it on delivery.
     */
    void sendRead(noc::NetworkInterface &from, ReadReq &&req);

    /** Accept a durable write now (as if just delivered). */
    void
    handleWrite(WriteReq req)
    {
        acceptWrite(_writeReqs.alloc(std::move(req)));
    }

    /** Accept a read now (as if just delivered). */
    void
    handleRead(ReadReq req)
    {
        acceptRead(_readReqs.alloc(std::move(req)));
    }

    /** Attach the persist observer (ordering checker). */
    void setObserver(PersistObserver *obs) { _observer = obs; }

    unsigned nodeId() const { return _ni.nodeId(); }
    Nvram &nvram() { return _nvram; }
    StatGroup &stats() { return _stats; }

    /**
     * Tick of the last durable write accepted, i.e. the earliest time at
     * which the device is quiescent. Used by System::run drain logic.
     */
    Tick lastDurableTick() const { return _lastDurable; }

    /** Writes accepted but not yet durable (interval-stat sampling). */
    unsigned outstandingWrites() const { return _outstandingWrites; }

    /** Pooled write requests, sent but not yet acknowledged. */
    const cache::NodePool<WriteReq> &writeReqs() const { return _writeReqs; }

    /** Pooled read requests, sent but not yet answered. */
    const cache::NodePool<ReadReq> &readReqs() const { return _readReqs; }

  private:
    void acceptWrite(std::uint32_t idx);
    void completeWrite(std::uint32_t idx, Tick durable);
    void acceptRead(std::uint32_t idx);
    void completeRead(std::uint32_t idx);

    StatGroup _stats;
    noc::NetworkInterface _ni;
    Nvram _nvram;
    PersistObserver *_observer = nullptr;
    Tick _lastDurable = 0;
    unsigned _outstandingWrites = 0;
    /** Start of the current non-empty write-queue residency episode. */
    Tick _wqBusySince = kTickNever;

    /** Requests in flight, allocated at send, released at the reply. */
    cache::NodePool<WriteReq> _writeReqs;
    cache::NodePool<ReadReq> _readReqs;

    Scalar _persistAcks;
    Scalar _logWrites;
    Distribution _writeLatency;
};

/**
 * Line-interleaved address mapping to controllers.
 *
 * @param addr Any address.
 * @param numControllers Number of controllers (> 0).
 */
inline unsigned
mcIndexFor(Addr addr, unsigned numControllers)
{
    return static_cast<unsigned>(lineNum(addr)) % numControllers;
}

} // namespace persim::nvm

#endif // PERSIM_NVM_MEMORY_CONTROLLER_HH
