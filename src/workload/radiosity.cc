#include "workload/radiosity.hh"

namespace logtm {

void
RadiosityWorkload::setup()
{
    for (uint32_t q = 0; q < p_.numThreads; ++q) {
        poke(paddedSlot(queueBase_, q), 0);
        poke(paddedSlot(mutexBase_, q), 0);
        queueLocks_.push_back(std::make_unique<Spinlock>(
            sys_.engine(), paddedSlot(mutexBase_, q)));
    }
    for (uint32_t i = 0; i < taskSlots_; ++i)
        poke(blockSlot(taskBase_, i), i);
    for (uint32_t i = 0; i < geomBlocks_; ++i)
        poke(blockSlot(geomBase_, i), i);
}

Task
RadiosityWorkload::threadMain(ThreadCtx &tc, uint32_t idx)
{
    const uint64_t units = unitsFor(idx);
    for (uint64_t u = 0; u < units; ++u) {
        const uint32_t roll = static_cast<uint32_t>(tc.rng().below(100));

        if (roll < 92) {
            // Dequeue a task from this thread's own queue.
            // Task descriptors are mostly thread-local (each thread
            // works its own patch region); contention comes from
            // steals and the shared burst slots.
            const uint32_t region =
                (idx * (taskSlots_ / p_.numThreads)) % taskSlots_;
            const uint32_t slot = region + static_cast<uint32_t>(
                tc.rng().below(taskSlots_ / p_.numThreads));
            const bool mark = tc.rng().percent(25);
            const uint32_t g1 = static_cast<uint32_t>(
                tc.rng().below(geomBlocks_));
            const uint32_t g2 = static_cast<uint32_t>(
                tc.rng().below(geomBlocks_));
            const bool touch_geom = tc.rng().percent(10);
            auto body = [this, idx, slot, mark, g1, g2,
                         touch_geom](ThreadCtx &t) -> Task {
                uint64_t head = 0;
                TM_LOAD(t, head, paddedSlot(queueBase_, idx));
                uint64_t task = 0;
                TM_LOAD(t, task, blockSlot(taskBase_, slot));
                // Shared scene geometry (read-mostly, miss-prone).
                TM_LOAD(t, task, blockSlot(geomBase_, g1));
                TM_LOAD(t, task, blockSlot(geomBase_, g2));
                if (touch_geom)
                    TM_STORE(t, blockSlot(geomBase_, g1), task + 1);
                TM_STORE(t, paddedSlot(queueBase_, idx), head + 1);
                if (mark)
                    TM_STORE(t, blockSlot(taskBase_, slot), task + 1);
                co_return;
            };
            if (p_.useTm) {
                co_await tc.transaction(body);
            } else {
                co_await tc.acquire(*queueLocks_[idx]);
                co_await body(tc);
                co_await tc.release(*queueLocks_[idx]);
            }
        } else if (roll < 96) {
            // Steal: probe a few victim queues, take from the last.
            const uint32_t probes =
                1 + static_cast<uint32_t>(tc.rng().below(3));
            std::vector<uint32_t> victims;
            for (uint32_t i = 0; i < probes; ++i)
                victims.push_back(static_cast<uint32_t>(
                    tc.rng().below(p_.numThreads)));
            const uint32_t target = victims.back();
            auto body = [this, victims](ThreadCtx &t) -> Task {
                uint64_t head = 0;
                for (uint32_t v : victims)
                    TM_LOAD(t, head, paddedSlot(queueBase_, v));
                // The dequeued task is only read for its footprint.
                [[maybe_unused]] uint64_t task = 0;
                TM_LOAD(t, task,
                        blockSlot(taskBase_, head % taskSlots_));
                TM_STORE(t, paddedSlot(queueBase_, victims.back()),
                         head + 1);
                co_return;
            };
            if (p_.useTm) {
                co_await tc.transaction(body);
            } else {
                co_await tc.acquire(*queueLocks_[target]);
                co_await body(tc);
                co_await tc.release(*queueLocks_[target]);
            }
        } else {
            // Patch subdivision: enqueue a burst of new tasks
            // (write-set up to ~45 blocks, read-set up to ~25).
            const uint32_t n_writes =
                10 + static_cast<uint32_t>(tc.rng().below(36));
            const uint32_t n_reads =
                4 + static_cast<uint32_t>(tc.rng().below(20));
            const uint32_t region =
                (idx * (taskSlots_ / p_.numThreads)) % taskSlots_;
            const uint32_t base = region + static_cast<uint32_t>(
                tc.rng().below(taskSlots_ / p_.numThreads));
            auto body = [this, idx, n_writes, n_reads, base,
                         region](ThreadCtx &t) -> Task {
                uint64_t head = 0;
                TM_LOAD(t, head, paddedSlot(queueBase_, idx));
                uint64_t geom = 0;
                const uint32_t rsize = taskSlots_ / p_.numThreads;
                for (uint32_t i = 0; i < n_reads; ++i) {
                    TM_LOAD(t, geom, blockSlot(taskBase_,
                        region + (base - region + 2 * i) % rsize));
                }
                for (uint32_t i = 0; i < n_writes; ++i) {
                    TM_STORE(t, blockSlot(taskBase_,
                        region + (base - region + i) % rsize),
                        geom + i);
                }
                for (uint32_t i = 0; i < 4; ++i) {
                    uint64_t g = 0;
                    const uint32_t gb = (base * 31 + i * 131)
                        % geomBlocks_;
                    TM_LOAD(t, g, blockSlot(geomBase_, gb));
                    TM_STORE(t, blockSlot(geomBase_, gb), g + 1);
                }
                TM_STORE(t, paddedSlot(queueBase_, idx),
                         head + n_writes);
                co_return;
            };
            if (p_.useTm) {
                co_await tc.transaction(body);
            } else {
                co_await tc.acquire(*queueLocks_[idx]);
                co_await body(tc);
                co_await tc.release(*queueLocks_[idx]);
            }
        }
        bumpUnits();
        co_await tc.think(think(150) + tc.rng().below(32));
    }
}

} // namespace logtm
