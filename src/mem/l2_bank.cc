#include "mem/l2_bank.hh"

#include <bit>

#include "common/trace.hh"

namespace logtm {

L2Bank::L2Bank(BankId bank, EventQueue &queue, StatsRegistry &stats,
               EventBus &events, Mesh &mesh, Dram &dram,
               const SystemConfig &cfg)
    : bank_(bank), queue_(queue), events_(events), mesh_(mesh),
      dram_(dram), checker_(&nullChecker_), cfg_(cfg),
      array_(cfg.l2Bytes / cfg.l2Banks, cfg.l2Assoc),
      requests_(stats.counter("l2.requests")),
      nacks_(stats.counter("l2.nacksSent")),
      dirEvictions_(stats.counter("l2.dirEvictions")),
      txVictims_(stats.counter("l2.txVictims")),
      broadcasts_(stats.counter("l2.sigBroadcasts")),
      dramFetches_(stats.counter("l2.misses"))
{
}

bool
L2Bank::hasBlock(PhysAddr block) const
{
    return array_.find(blockAlign(block)) != nullptr;
}

bool
L2Bank::isSharer(PhysAddr block, CoreId core) const
{
    const auto *line = array_.find(blockAlign(block));
    return line && (line->payload.sharers & bit(core));
}

CoreId
L2Bank::ownerOf(PhysAddr block) const
{
    const auto *line = array_.find(blockAlign(block));
    return line ? line->payload.owner : invalidCore;
}

bool
L2Bank::mustCheck(PhysAddr block) const
{
    const auto *line = array_.find(blockAlign(block));
    return line && line->payload.mustCheckFlag;
}

void
L2Bank::send(Msg msg)
{
    msg.src = myNode();
    mesh_.send(msg);
}

void
L2Bank::handleMessage(const Msg &msg)
{
    logtm_trace(TraceCat::Protocol, queue_.now(), "L2[%u] rx %s",
                bank_, msg.describe().c_str());
    switch (msg.type) {
      case MsgType::GetS:
      case MsgType::GetM:
        acceptRequest(msg);
        break;
      case MsgType::PutM:
      case MsgType::PutClean:
        handlePut(msg);
        break;
      case MsgType::InvAck:
        handleInvAck(msg);
        break;
      case MsgType::AckFwd:
        handleAckFwd(msg);
        break;
      case MsgType::SigCheckAck:
        handleSigCheckAck(msg);
        break;
      default:
        logtm_panic("L2 received unexpected message: " + msg.describe());
    }
}

void
L2Bank::acceptRequest(const Msg &msg)
{
    const PhysAddr block = msg.addr;
    if (active_.count(block)) {
        waiting_[block].push_back(msg);
        return;
    }
    beginTxn(msg);
}

void
L2Bank::beginTxn(const Msg &msg)
{
    const PhysAddr block = msg.addr;
    ++requests_;
    Txn txn;
    txn.req = msg;
    txn.id = nextTxnId_++;
    active_.emplace(block, std::move(txn));
    queue_.scheduleIn(cfg_.directoryLatency,
                      [this, block]() { processTxn(block); },
                      EventPriority::Protocol);
}

void
L2Bank::processTxn(PhysAddr block)
{
    auto it = active_.find(block);
    logtm_assert(it != active_.end(), "processTxn without txn");

    Array::Line *line = array_.find(block);
    if (!line) {
        // L2 miss: fetch from memory, then continue.
        ++dramFetches_;
        dram_.access(bank_, [this, block]() {
            if (!makeRoom(block)) {
                // Every way pinned by in-flight txns: resource NACK.
                nackRequester(block);
                return;
            }
            installLine(block);
            processTxn(block);
        });
        return;
    }

    if (line->payload.mustCheckFlag) {
        broadcastProbe(block);
        return;
    }
    serve(block);
}

void
L2Bank::serve(PhysAddr block)
{
    Txn &txn = active_.at(block);
    Array::Line *line = array_.find(block);
    logtm_assert(line, "serve without line");
    DirEntry &entry = line->payload;
    const Msg &req = txn.req;
    const CoreId req_core = req.src;
    array_.touch(*line);

    switch (entry.state) {
      case DirState::V:
        // No L1 copies: grant exclusive (MESI E) for reads and writes.
        entry.state = DirState::E;
        entry.owner = req_core;
        grantData(block, true);
        return;

      case DirState::S:
        if (req.type == MsgType::GetS) {
            entry.sharers |= bit(req_core);
            grantData(block, false);
            return;
        }
        // GetM: invalidate all other sharers (each checks signatures).
        txn.invTargets = entry.sharers & ~bit(req_core);
        if (txn.invTargets == 0) {
            entry.state = DirState::E;
            entry.owner = req_core;
            entry.sharers = 0;
            grantData(block, true);
            return;
        }
        txn.pendingAcks = std::popcount(txn.invTargets);
        for (CoreId c = 0; c < cfg_.numCores; ++c) {
            if (!(txn.invTargets & bit(c)))
                continue;
            Msg inv;
            inv.type = MsgType::Inv;
            inv.dst = c;
            inv.addr = block;
            inv.reqId = txn.id;
            inv.requesterCtx = req.requesterCtx;
            inv.asid = req.asid;
            inv.isTransactional = req.isTransactional;
            inv.accessType = AccessType::Write;
            inv.txTimestamp = req.txTimestamp;
            send(inv);
        }
        return;

      case DirState::E: {
        if (entry.owner == req_core) {
            // Sticky re-fetch: the owner lost its copy to replacement
            // but the directory deliberately kept the pointer.
            grantData(block, true);
            return;
        }
        Msg fwd;
        fwd.type = req.type == MsgType::GetS ? MsgType::FwdGetS
                                             : MsgType::FwdGetM;
        fwd.dst = entry.owner;
        fwd.addr = block;
        fwd.reqId = txn.id;
        fwd.requesterCtx = req.requesterCtx;
        fwd.asid = req.asid;
        fwd.isTransactional = req.isTransactional;
        fwd.accessType = req.type == MsgType::GetS ? AccessType::Read
                                                   : AccessType::Write;
        fwd.txTimestamp = req.txTimestamp;
        txn.pendingAcks = 1;
        send(fwd);
        return;
      }
    }
}

void
L2Bank::broadcastProbe(PhysAddr block)
{
    Txn &txn = active_.at(block);
    const Msg &req = txn.req;
    const CoreId req_core = req.src;
    txn.probing = true;
    txn.anyConflict = false;
    txn.stickyReaders = 0;
    txn.stickyWriters = 0;
    txn.pendingAcks = cfg_.numCores - 1;
    ++broadcasts_;
    logtm_obs_emit(events_,
                   ObsEvent{.cycle = queue_.now(),
                         .kind = EventKind::SigBroadcast,
                         .addr = block, .a = bank_});

    for (CoreId c = 0; c < cfg_.numCores; ++c) {
        if (c == req_core)
            continue;
        Msg probe;
        probe.type = MsgType::SigCheck;
        probe.dst = c;
        probe.addr = block;
        probe.reqId = txn.id;
        probe.requesterCtx = req.requesterCtx;
        probe.asid = req.asid;
        probe.isTransactional = req.isTransactional;
        probe.accessType = req.type == MsgType::GetS ? AccessType::Read
                                                     : AccessType::Write;
        probe.txTimestamp = req.txTimestamp;
        send(probe);
    }

    if (txn.pendingAcks == 0) {
        // Single-core system: nothing to probe.
        Array::Line *line = array_.find(block);
        logtm_assert(line, "probe without line");
        line->payload.mustCheckFlag = false;
        serve(block);
    }
}

void
L2Bank::handlePut(const Msg &msg)
{
    Array::Line *line = array_.find(msg.addr);
    if (!line)
        return;  // crossed with an L2 eviction; data is functional
    DirEntry &entry = line->payload;
    if (entry.state != DirState::E || entry.owner != msg.src)
        return;  // stale writeback from a previous ownership epoch

    if (msg.type == MsgType::PutM && msg.keepSticky)
        return;  // sticky-M: retain the owner pointer (paper §5)

    entry.state = DirState::V;
    entry.owner = invalidCore;
}

void
L2Bank::handleInvAck(const Msg &msg)
{
    auto it = active_.find(msg.addr);
    logtm_assert(it != active_.end(), "InvAck without txn");
    Txn &txn = it->second;
    logtm_assert(msg.reqId == txn.id, "InvAck for stale txn");

    if (msg.conflict) {
        txn.anyConflict = true;
        if (msg.nackerTimestamp < txn.nackerTs) {
            txn.nackerTs = msg.nackerTimestamp;
            txn.nackerCtx = msg.nackerCtx;
        }
    }
    if (msg.conflict || msg.keepSticky)
        txn.stickyReaders |= bit(msg.src);

    logtm_assert(txn.pendingAcks > 0, "unexpected InvAck");
    if (--txn.pendingAcks > 0)
        return;

    Array::Line *line = array_.find(msg.addr);
    logtm_assert(line, "InvAck completion without line");
    DirEntry &entry = line->payload;
    const CoreId req_core = txn.req.src;

    if (txn.anyConflict) {
        // Conflicting (and sticky) sharers stay in the vector; clean
        // ackers invalidated and are removed.
        entry.sharers = (entry.sharers & ~txn.invTargets) |
            (txn.stickyReaders & txn.invTargets);
        nackRequester(msg.addr);
        return;
    }
    entry.state = DirState::E;
    entry.owner = req_core;
    entry.sharers = 0;
    grantData(msg.addr, true);
}

void
L2Bank::handleAckFwd(const Msg &msg)
{
    auto it = active_.find(msg.addr);
    logtm_assert(it != active_.end(), "AckFwd without txn");
    Txn &txn = it->second;
    logtm_assert(msg.reqId == txn.id, "AckFwd for stale txn");

    Array::Line *line = array_.find(msg.addr);
    logtm_assert(line, "AckFwd without line");
    DirEntry &entry = line->payload;
    const CoreId req_core = txn.req.src;

    if (msg.conflict) {
        // Keep the owner pointer: the conflicting transaction must
        // still be probed by future requests.
        txn.anyConflict = true;
        txn.nackerTs = msg.nackerTimestamp;
        txn.nackerCtx = msg.nackerCtx;
        nackRequester(msg.addr);
        return;
    }

    if (txn.req.type == MsgType::GetS) {
        entry.state = DirState::S;
        entry.sharers = bit(req_core);
        // The old owner stays a sharer if it kept a (now shared) copy
        // or if its signature still covers the block (sticky).
        if (msg.hasData || msg.keepSticky)
            entry.sharers |= bit(msg.src);
        entry.owner = invalidCore;
        grantData(msg.addr, false);
    } else {
        entry.state = DirState::E;
        entry.owner = req_core;
        entry.sharers = 0;
        grantData(msg.addr, true);
    }
}

void
L2Bank::handleSigCheckAck(const Msg &msg)
{
    auto it = active_.find(msg.addr);
    logtm_assert(it != active_.end(), "SigCheckAck without txn");
    Txn &txn = it->second;
    logtm_assert(msg.reqId == txn.id, "SigCheckAck for stale txn");

    if (msg.conflict) {
        txn.anyConflict = true;
        if (msg.nackerTimestamp < txn.nackerTs) {
            txn.nackerTs = msg.nackerTimestamp;
            txn.nackerCtx = msg.nackerCtx;
        }
    }
    if (msg.keepSticky || msg.conflict)
        txn.stickyReaders |= bit(msg.src);
    if (msg.inWriteSet)
        txn.stickyWriters |= bit(msg.src);

    logtm_assert(txn.pendingAcks > 0, "unexpected SigCheckAck");
    if (--txn.pendingAcks > 0)
        return;

    Array::Line *line = array_.find(msg.addr);
    logtm_assert(line, "SigCheckAck completion without line");
    DirEntry &entry = line->payload;
    const CoreId req_core = txn.req.src;

    if (txn.anyConflict) {
        // Paper §5: stay in the must-check state until a request
        // succeeds; every request keeps probing all L1s.
        entry.mustCheckFlag = true;
        nackRequester(msg.addr);
        return;
    }

    entry.mustCheckFlag = false;
    if (txn.req.type == MsgType::GetS) {
        const uint32_t readers = txn.stickyReaders & ~bit(req_core);
        if (readers) {
            entry.state = DirState::S;
            entry.sharers = readers | bit(req_core);
            entry.owner = invalidCore;
            grantData(msg.addr, false);
        } else {
            entry.state = DirState::E;
            entry.owner = req_core;
            entry.sharers = 0;
            grantData(msg.addr, true);
        }
    } else {
        entry.state = DirState::E;
        entry.owner = req_core;
        entry.sharers = 0;
        grantData(msg.addr, true);
    }
}

void
L2Bank::grantData(PhysAddr block, bool exclusive)
{
    Txn &txn = active_.at(block);
    Msg data;
    data.type = exclusive ? MsgType::DataE : MsgType::DataS;
    data.dst = txn.req.src;
    data.addr = block;
    data.hasData = true;
    queue_.scheduleIn(cfg_.l2HitLatency, [this, block, data]() {
        send(data);
        completeTxn(block);
    }, EventPriority::Protocol);
}

void
L2Bank::nackRequester(PhysAddr block)
{
    Txn &txn = active_.at(block);
    ++nacks_;
    logtm_trace(TraceCat::Protocol, queue_.now(),
                "L2[%u] NACK core %u for 0x%llx", bank_, txn.req.src,
                static_cast<unsigned long long>(block));
    Msg nack;
    nack.type = MsgType::Nack;
    nack.dst = txn.req.src;
    nack.addr = block;
    nack.conflict = txn.anyConflict;
    nack.nackerTimestamp = txn.nackerTs;
    nack.nackerCtx = txn.nackerCtx;
    send(nack);
    completeTxn(block);
}

void
L2Bank::completeTxn(PhysAddr block)
{
    active_.erase(block);
    auto wit = waiting_.find(block);
    if (wit == waiting_.end())
        return;
    if (wit->second.empty()) {
        waiting_.erase(wit);
        return;
    }
    Msg next = wit->second.front();
    wit->second.pop_front();
    if (wit->second.empty())
        waiting_.erase(wit);
    beginTxn(next);
}

bool
L2Bank::makeRoom(PhysAddr block)
{
    Array::Line *victim = array_.pickVictim(block,
        [this](const Array::Line &line) {
            return active_.find(line.block) == active_.end();
        });
    if (!victim)
        return false;
    if (victim->valid)
        evictLine(*victim);
    return true;
}

void
L2Bank::evictLine(Array::Line &line)
{
    const DirEntry &entry = line.payload;
    const bool had_info = entry.state != DirState::V ||
        entry.sharers != 0 || entry.owner != invalidCore ||
        entry.mustCheckFlag;

    if (had_info) {
        ++dirEvictions_;
        lostDir_.insert(line.block);
        uint32_t targets = entry.sharers;
        if (entry.owner != invalidCore)
            targets |= bit(entry.owner);
        bool tx_victim = false;
        for (CoreId c = 0; c < cfg_.numCores; ++c) {
            if (!(targets & bit(c)))
                continue;
            if (checker_->inAnyLocalSig(c, line.block))
                tx_victim = true;
            // Inclusion: force the L1 copies out (no NACK possible).
            Msg finv;
            finv.type = MsgType::ForceInv;
            finv.dst = c;
            finv.addr = line.block;
            send(finv);
        }
        if (tx_victim) {
            ++txVictims_;
            logtm_obs_emit(events_,
                           ObsEvent{.cycle = queue_.now(),
                                 .kind = EventKind::Victimization,
                                 .addr = line.block, .a = bank_,
                                 .b = 2});
        }
    }
    // Dirty victim writeback to memory (timing only).
    dram_.access(bank_, []() {});
    array_.invalidate(line);
}

L2Bank::Array::Line *
L2Bank::installLine(PhysAddr block)
{
    Array::Line *slot = array_.pickVictim(block,
        [](const Array::Line &) { return true; });
    logtm_assert(slot && !slot->valid, "installLine without a free way");
    array_.install(*slot, block);
    // Directory info for this block was lost to an earlier L2
    // eviction: force a conservative broadcast before serving.
    if (lostDir_.erase(block))
        slot->payload.mustCheckFlag = true;
    return slot;
}

} // namespace logtm
