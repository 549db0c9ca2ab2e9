#include "mem/dram.hh"

namespace logtm {

Dram::Dram(EventQueue &queue, StatsRegistry &stats,
           const SystemConfig &cfg, uint32_t num_controllers)
    : queue_(queue), accesses_(stats.counter("dram.accesses")),
      latency_(cfg.dramLatency), nextFree_(num_controllers, 0)
{
}

void
Dram::access(BankId bank, std::function<void()> done)
{
    ++accesses_;
    const uint32_t ctrl = bank % nextFree_.size();
    Cycle start = queue_.now();
    if (start < nextFree_[ctrl])
        start = nextFree_[ctrl];
    nextFree_[ctrl] = start + busyInterval_;
    queue_.schedule(start + latency_, std::move(done),
                    EventPriority::Protocol);
}

} // namespace logtm
