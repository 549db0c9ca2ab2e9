#include "layers.hh"

#include <functional>

#include "mem/data_store.hh"
#include "net/mesh.hh"
#include "os/tm_system.hh"
#include "sig/signature_factory.hh"
#include "sim/event_queue.hh"
#include "tm/tx_log.hh"

using namespace logtm;

namespace perfbench {

namespace {

constexpr int timedReps = 5;

/** Deterministic input stream (64-bit LCG, high bits). */
struct Lcg
{
    uint64_t state;

    uint64_t
    next()
    {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return state >> 33;
    }
};

double
elapsedNs(Clock::time_point t0)
{
    return secondsSince(t0) * 1e9;
}

/**
 * One warm-up call of @p rep, then the median over timedReps calls of
 * (nanoseconds @p rep reports) / @p ops. @p rep times its own section,
 * so set-up it does between operations stays out of the figure.
 */
double
medianNsPerOp(uint64_t ops, const std::function<double()> &rep)
{
    rep();
    std::vector<double> v;
    for (int i = 0; i < timedReps; ++i)
        v.push_back(rep() / static_cast<double>(ops));
    return median(v);
}

// ---- sim: EventQueue::scheduleIn / run ------------------------------

/** Self-rescheduling chain: short deltas with rotating priorities and
 *  an occasional far-future event, the simulator's usual mix. */
struct Chain
{
    EventQueue *q;
    Lcg *rng;
    uint64_t *left;

    void
    operator()() const
    {
        if (*left == 0)
            return;
        --*left;
        const uint64_t r = rng->next();
        Cycle delta = 1 + r % 100;
        if ((*left & 63) == 0)
            delta += 100000;
        q->scheduleIn(delta, *this, static_cast<EventPriority>(r % 3));
    }
};

LayerTiming
simEvents()
{
    constexpr uint64_t events = 400000;
    constexpr int chains = 4096;
    LayerTiming t{"sim.ns_per_event",
                  "400k events from 4096 self-rescheduling chains, "
                  "deltas 1-100 cycles, 1/64 beyond the calendar ring"};
    t.nsPerOp = medianNsPerOp(events + chains, [&t]() {
        EventQueue q;
        Lcg rng{42};
        uint64_t left = events;
        const auto t0 = Clock::now();
        for (int i = 0; i < chains; ++i)
            q.scheduleIn(1 + rng.next() % 200, Chain{&q, &rng, &left});
        q.run();
        const double ns = elapsedNs(t0);
        t.ok = t.ok && q.executed() == events + chains;
        return ns;
    });
    return t;
}

// ---- net: Mesh::send to delivery ------------------------------------

LayerTiming
netSend()
{
    constexpr uint64_t batches = 64;
    constexpr uint64_t perBatch = 1024;
    LayerTiming t{"net.ns_per_send",
                  "64k GetS messages between uniform random endpoints "
                  "of the Table 1 4x4 mesh, 1024 in flight per batch"};
    const SystemConfig cfg;
    t.nsPerOp = medianNsPerOp(batches * perBatch, [&t, &cfg]() {
        EventQueue q;
        StatsRegistry stats;
        Mesh mesh(q, stats, cfg);
        uint64_t delivered = 0;
        for (NodeId n = 0; n < mesh.numNodes(); ++n)
            mesh.attach(n, [&delivered](const Msg &) { ++delivered; });
        Lcg rng{7};
        const auto t0 = Clock::now();
        for (uint64_t b = 0; b < batches; ++b) {
            for (uint64_t i = 0; i < perBatch; ++i) {
                const uint64_t r = rng.next();
                Msg m;
                m.type = MsgType::GetS;
                m.src = static_cast<NodeId>(r % mesh.numNodes());
                m.dst = static_cast<NodeId>((r >> 8) % mesh.numNodes());
                m.addr = (r >> 16) << blockBytesLog2;
                mesh.send(m);
            }
            q.run();
        }
        const double ns = elapsedNs(t0);
        t.ok = t.ok && delivered == batches * perBatch;
        return ns;
    });
    return t;
}

// ---- mem: MemorySystem::access (L1 hit, directory miss) -------------

/** Issue one read from core 0 and simulate until it completes. */
void
readBlock(TmSystem &sys, PhysAddr addr)
{
    bool done = false;
    L1Cache::Request req;
    req.ctx = 0;
    req.type = AccessType::Read;
    req.done = [&done](const MemAccessResult &) { done = true; };
    sys.mem().access(0, addr, std::move(req));
    sys.sim().runUntil([&done]() { return done; });
}

LayerTiming
memL1Hit()
{
    constexpr uint64_t blocks = 64;
    constexpr uint64_t ops = 64 * 1024;
    LayerTiming t{"mem.l1_hit_ns",
                  "64k reads by core 0 cycling over 64 resident blocks "
                  "(Table 1 machine)"};
    const SystemConfig cfg;
    TmSystem sys(cfg);
    for (uint64_t b = 0; b < blocks; ++b)
        readBlock(sys, 0x100000 + b * blockBytes);
    Counter &hits = sys.stats().counter("l1.hits");
    t.nsPerOp = medianNsPerOp(ops, [&]() {
        const uint64_t before = hits.value();
        const auto t0 = Clock::now();
        for (uint64_t i = 0; i < ops; ++i)
            readBlock(sys, 0x100000 + (i % blocks) * blockBytes);
        const double ns = elapsedNs(t0);
        t.ok = t.ok && hits.value() - before == ops;
        return ns;
    });
    return t;
}

LayerTiming
memDirMiss()
{
    // 2048 blocks stream through the 512-line L1 (every read misses)
    // but fit the 8 MB L2, so after the warm-up each read is one
    // L1 miss -> home bank -> data round trip with no DRAM access.
    constexpr uint64_t blocks = 2048;
    constexpr uint64_t ops = 8 * 1024;
    LayerTiming t{"mem.dir_miss_roundtrip_ns",
                  "8k reads by core 0 streaming over 2048 blocks that "
                  "miss the L1 and hit the L2 (Table 1 machine)"};
    const SystemConfig cfg;
    TmSystem sys(cfg);
    for (uint64_t b = 0; b < blocks; ++b)
        readBlock(sys, 0x400000 + b * blockBytes);
    Counter &misses = sys.stats().counter("l1.misses");
    Counter &dram = sys.stats().counter("dram.accesses");
    uint64_t next = 0;
    t.nsPerOp = medianNsPerOp(ops, [&]() {
        const uint64_t missesBefore = misses.value();
        const uint64_t dramBefore = dram.value();
        const auto t0 = Clock::now();
        for (uint64_t i = 0; i < ops; ++i, ++next)
            readBlock(sys, 0x400000 + (next % blocks) * blockBytes);
        const double ns = elapsedNs(t0);
        t.ok = t.ok && misses.value() - missesBefore == ops &&
            dram.value() == dramBefore;
        return ns;
    });
    return t;
}

// ---- mem: DataStore::store / load -----------------------------------

LayerTiming
memStore()
{
    constexpr uint64_t words = 64 * 1024;
    LayerTiming t{"mem.store_ns",
                  "64k stores then 64k loads of words scattered over "
                  "2 MB of physical memory (ns per load or store)"};
    std::vector<PhysAddr> addrs(words);
    Lcg rng{11};
    for (PhysAddr &a : addrs)
        a = (rng.next() % (2 * 1024 * 1024 / 8)) * 8;
    t.nsPerOp = medianNsPerOp(2 * words, [&]() {
        DataStore ds;
        uint64_t sum = 0;
        const auto t0 = Clock::now();
        for (uint64_t i = 0; i < words; ++i)
            ds.store(addrs[i], i + 1);
        for (uint64_t i = 0; i < words; ++i)
            sum += ds.load(addrs[i]);
        const double ns = elapsedNs(t0);
        t.ok = t.ok && sum != 0;
        return ns;
    });
    return t;
}

// ---- sig: Signature::insert / mayContain ----------------------------

void
sigBench(const SignatureConfig &cfg, const std::string &tag,
         std::vector<LayerTiming> &out)
{
    constexpr uint64_t ops = 64 * 1024;
    constexpr uint64_t perTx = 64;
    std::vector<PhysAddr> addrs(ops);
    Lcg rng{13};
    for (PhysAddr &a : addrs)
        a = (rng.next() % (1u << 20)) << blockBytesLog2;

    LayerTiming ins{"sig." + tag + ".insert_ns",
                    "64k inserts of random blocks, cleared every 64 "
                    "inserts (one transaction's read set)"};
    ins.nsPerOp = medianNsPerOp(ops, [&]() {
        auto sig = makeSignature(cfg);
        const auto t0 = Clock::now();
        for (uint64_t i = 0; i < ops; ++i) {
            if (i % perTx == 0)
                sig->clear();
            sig->insert(addrs[i]);
        }
        const double ns = elapsedNs(t0);
        ins.ok = ins.ok && !sig->empty();
        return ns;
    });
    out.push_back(ins);

    LayerTiming con{"sig." + tag + ".contains_ns",
                    "64k membership tests of random blocks against a "
                    "signature holding 64 blocks"};
    auto sig = makeSignature(cfg);
    for (uint64_t i = 0; i < perTx; ++i)
        sig->insert(addrs[i]);
    con.nsPerOp = medianNsPerOp(ops, [&]() {
        uint64_t hits = 0;
        const auto t0 = Clock::now();
        for (uint64_t i = 0; i < ops; ++i)
            hits += sig->mayContain(addrs[i]) ? 1 : 0;
        const double ns = elapsedNs(t0);
        // Every inserted block is a member (no false negatives).
        con.ok = con.ok && hits >= perTx;
        return ns;
    });
    out.push_back(con);
}

// ---- tm: TmEngine begin/store/commit and abort ----------------------

struct EngineRig
{
    TmSystem sys{SystemConfig{}};
    ThreadId t = 0;

    EngineRig()
    {
        t = sys.os().spawnThread(sys.os().createProcess());
    }

    TmEngine &eng() { return sys.engine(); }

    void
    store(VirtAddr va, uint64_t v)
    {
        bool done = false;
        eng().store(t, va, v, [&done](OpStatus) { done = true; });
        sys.sim().runUntil([&done]() { return done; });
    }

    void
    commit()
    {
        bool done = false;
        eng().txCommit(t, [&done]() { done = true; });
        sys.sim().runUntil([&done]() { return done; });
    }

    void
    abortFrame()
    {
        bool done = false;
        eng().txAbortFrame(t, [&done]() { done = true; });
        sys.sim().runUntil([&done]() { return done; });
    }
};

LayerTiming
tmBeginCommit()
{
    constexpr uint64_t ops = 16 * 1024;
    LayerTiming t{"tm.begin_commit_ns",
                  "16k transactions of one store to an L1-resident "
                  "block: txBegin, store, txCommit"};
    EngineRig rig;
    rig.store(0x10000, 0);
    Counter &commits = rig.sys.stats().counter("tm.commits");
    t.nsPerOp = medianNsPerOp(ops, [&]() {
        const uint64_t before = commits.value();
        const auto t0 = Clock::now();
        for (uint64_t i = 0; i < ops; ++i) {
            rig.eng().txBegin(rig.t);
            rig.store(0x10000, i);
            rig.commit();
        }
        const double ns = elapsedNs(t0);
        t.ok = t.ok && commits.value() - before == ops;
        return ns;
    });
    return t;
}

LayerTiming
tmAbort()
{
    constexpr uint64_t ops = 8 * 1024;
    constexpr uint64_t stores = 4;
    LayerTiming t{"tm.abort_ns",
                  "8k explicit aborts of a transaction holding 4 undo "
                  "records: txRequestAbort, txAbortFrame (rollback)"};
    EngineRig rig;
    for (uint64_t s = 0; s < stores; ++s)
        rig.store(0x20000 + s * blockBytes, 0);
    Counter &aborts = rig.sys.stats().counter("tm.aborts");
    t.nsPerOp = medianNsPerOp(ops, [&]() {
        const uint64_t before = aborts.value();
        double ns = 0;
        for (uint64_t i = 0; i < ops; ++i) {
            rig.eng().txBegin(rig.t);
            for (uint64_t s = 0; s < stores; ++s)
                rig.store(0x20000 + s * blockBytes, i + 1);
            const auto t0 = Clock::now();
            rig.eng().txRequestAbort(rig.t);
            rig.abortFrame();
            ns += elapsedNs(t0);
        }
        t.ok = t.ok && aborts.value() - before == ops &&
            !rig.eng().inTx(rig.t);
        return ns;
    });
    return t;
}

// ---- tm: TxLog append / walk ----------------------------------------

void
undoLog(std::vector<LayerTiming> &out)
{
    constexpr uint64_t frames = 256;
    constexpr uint64_t perFrame = 256;
    LayerTiming app{"tm.undo_append_ns",
                    "256 frames of 256 undo records: TxLog::append"};
    LayerTiming walk{"tm.undo_walk_ns_per_record",
                     "the same frames walked LIFO through "
                     "TxLog::topRecords, then TxLog::reset"};
    TxLog log;
    std::vector<double> appendNs, walkNs;
    // Repetition 0 is the warm-up.
    for (int r = 0; r <= timedReps; ++r) {
        double appended = 0;
        double walked = 0;
        uint64_t sum = 0;
        for (uint64_t f = 0; f < frames; ++f) {
            log.pushFrame(RegisterCheckpoint{f}, false);
            const auto t0 = Clock::now();
            for (uint64_t i = 0; i < perFrame; ++i)
                log.append(UndoRecord{i * 8, i * 8, i, 0});
            const auto t1 = Clock::now();
            const auto recs = log.topRecords();
            for (auto it = recs.rbegin(); it != recs.rend(); ++it)
                sum += it->oldValue;
            log.reset();
            walked += elapsedNs(t1);
            appended += std::chrono::duration<double, std::nano>(
                            t1 - t0).count();
        }
        app.ok = app.ok && sum == frames * perFrame * (perFrame - 1) / 2;
        if (r > 0) {
            appendNs.push_back(appended / (frames * perFrame));
            walkNs.push_back(walked / (frames * perFrame));
        }
    }
    app.nsPerOp = median(appendNs);
    walk.nsPerOp = median(walkNs);
    walk.ok = app.ok;
    out.push_back(app);
    out.push_back(walk);
}

} // namespace

std::vector<LayerTiming>
runLayerMicrobenches(SpanRecorder &spans)
{
    std::vector<LayerTiming> out;
    {
        SpanRecorder::Scope s(spans, "layer.sim");
        out.push_back(simEvents());
    }
    {
        SpanRecorder::Scope s(spans, "layer.net");
        out.push_back(netSend());
    }
    {
        SpanRecorder::Scope s(spans, "layer.mem");
        out.push_back(memL1Hit());
        out.push_back(memDirMiss());
        out.push_back(memStore());
    }
    {
        SpanRecorder::Scope s(spans, "layer.sig");
        sigBench(sigBS(2048), "bs2048", out);
        sigBench(sigPerfect(), "perfect", out);
    }
    {
        SpanRecorder::Scope s(spans, "layer.tm");
        out.push_back(tmBeginCommit());
        out.push_back(tmAbort());
        undoLog(out);
    }
    return out;
}

} // namespace perfbench
