#include "workload/microbench.hh"

#include "common/log.hh"

namespace logtm {

VirtAddr
MicrobenchWorkload::counterAddr(uint32_t i) const
{
    return mb_.blockSpread ? blockSlot(countersBase_, i)
                           : wordSlot(countersBase_, i);
}

void
MicrobenchWorkload::setup()
{
    for (uint32_t i = 0; i < mb_.numCounters; ++i)
        poke(counterAddr(i), 0);
    poke(lockBase_, 0);
    lock_ = std::make_unique<Spinlock>(sys_.engine(), lockBase_);
    if (mb_.barrierEveryUnits) {
        logtm_assert(p_.totalUnits % p_.numThreads == 0,
                     "barrierEveryUnits needs an even unit split");
        barrier_ = std::make_unique<Barrier>(sys_.engine(),
                                             p_.numThreads);
    }
}

uint64_t
MicrobenchWorkload::counterSum()
{
    uint64_t sum = 0;
    for (uint32_t i = 0; i < mb_.numCounters; ++i) {
        sum += sys_.mem().data().load(
            sys_.os().translate(asid_, counterAddr(i)));
    }
    return sum;
}

Task
MicrobenchWorkload::threadMain(ThreadCtx &tc, uint32_t idx)
{
    const uint64_t units = unitsFor(idx);
    for (uint64_t u = 0; u < units; ++u) {
        // Pick the unit's counters up front so every retry of the
        // transaction touches the same set.
        std::vector<uint32_t> reads, writes;
        for (uint32_t i = 0; i < mb_.readsPerTx; ++i)
            reads.push_back(
                static_cast<uint32_t>(tc.rng().below(mb_.numCounters)));
        for (uint32_t i = 0; i < mb_.writesPerTx; ++i) {
            if (mb_.writeWorkingSet) {
                const uint32_t base = idx * mb_.writeWorkingSet;
                writes.push_back(static_cast<uint32_t>(
                    (base + tc.rng().below(mb_.writeWorkingSet)) %
                    mb_.numCounters));
            } else {
                writes.push_back(static_cast<uint32_t>(
                    tc.rng().below(mb_.numCounters)));
            }
        }

        auto body = [this, reads, writes](ThreadCtx &t) -> Task {
            uint64_t v = 0;
            for (uint32_t r : reads)
                TM_LOAD(t, v, counterAddr(r));
            for (uint32_t w : writes) {
                TM_LOAD(t, v, counterAddr(w));
                TM_STORE(t, counterAddr(w), v + 1);
            }
            co_return;
        };

        if (p_.useTm) {
            co_await tc.transaction(body);
        } else {
            co_await tc.acquire(*lock_);
            co_await body(tc);
            co_await tc.release(*lock_);
        }
        committedIncrements_ += writes.size();
        bumpUnits();

        if (mb_.thinkCycles)
            co_await tc.think(think(mb_.thinkCycles) +
                              tc.rng().below(16));

        if (mb_.barrierEveryUnits &&
            (u + 1) % mb_.barrierEveryUnits == 0) {
            co_await tc.arrive(*barrier_);
        }
    }
}

} // namespace logtm
