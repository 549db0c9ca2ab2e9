#include "calibrate.hh"

#include <cstdio>
#include <queue>
#include <unordered_map>
#include <vector>

#include "spans.hh"

namespace perfbench {

namespace {

uint64_t
xorshift(uint64_t &x)
{
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
}

using Map = std::unordered_map<uint64_t, uint32_t>;

struct Event
{
    uint64_t when;
    uint32_t target;
    uint64_t addr;
};

struct Later
{
    bool
    operator()(const Event *a, const Event *b) const
    {
        return a->when > b->when;
    }
};

/** Three handler kinds, so dispatch is a real indirect call. */
struct Handler
{
    virtual ~Handler() = default;
    /** Returns how many follow-up events to schedule. */
    virtual int handle(const Event &e, Map &m) = 0;
};

struct Writer : Handler
{
    int handle(const Event &e, Map &m) override
    {
        return static_cast<int>(++m[e.addr] & 3);
    }
};

struct Reader : Handler
{
    int handle(const Event &e, Map &m) override
    {
        const auto it = m.find(e.addr);
        return it == m.end() ? 1 : static_cast<int>(it->second % 3);
    }
};

struct Evictor : Handler
{
    int handle(const Event &e, Map &m) override
    {
        m.erase(e.addr ^ 1);
        return static_cast<int>(e.addr & 1) + 1;
    }
};

constexpr uint64_t kKeys = 1u << 16;
constexpr uint32_t kHandlers = 4096;

} // namespace

struct HostReference::State
{
    std::vector<uint64_t> table;   // open-addressing table, 512 KB
    std::vector<std::unique_ptr<Handler>> handlers;
    Map map;
    uint64_t sink = 0;
};

HostReference::HostReference() : st_(std::make_unique<State>())
{
    st_->table.assign(kKeys, 0);
    for (uint32_t i = 0; i < kHandlers; ++i) {
        if (i % 3 == 0)
            st_->handlers.push_back(std::make_unique<Writer>());
        else if (i % 3 == 1)
            st_->handlers.push_back(std::make_unique<Reader>());
        else
            st_->handlers.push_back(std::make_unique<Evictor>());
    }
}

HostReference::~HostReference()
{
    // Keeps the reference's results observable, so no kernel is
    // optimized away; the branch is never taken in practice.
    if (st_->sink == 42)
        std::fprintf(stderr, "perfbench: reference sink %llu\n",
                     static_cast<unsigned long long>(st_->sink));
}

double
HostReference::timeOnce()
{
    State &s = *st_;
    // The same inputs every call, so the work is fixed.
    uint64_t x = 0x9e3779b97f4a7c15ull;
    uint64_t acc = 0;
    s.map.clear();
    std::fill(s.table.begin(), s.table.end(), 0);
    const auto t0 = Clock::now();

    // Core-bound: integer work and data-dependent branches.
    for (int i = 0; i < 2000000; ++i) {
        const uint64_t v = xorshift(x);
        if (v & 1)
            acc += v >> 3;
        else
            acc ^= v * 7;
    }

    // A binary-heap event queue whose events probe a hash table.
    std::priority_queue<uint64_t, std::vector<uint64_t>,
                        std::greater<uint64_t>>
        ticks;
    for (uint64_t i = 0; i < kHandlers; ++i)
        ticks.push((xorshift(x) % 1024) << 20 | i);
    const uint64_t mask = kKeys - 1;
    for (int i = 0; i < 200000; ++i) {
        const uint64_t ev = ticks.top();
        ticks.pop();
        const uint64_t id = ev & 0xfffff;
        uint64_t slot = (id * 0x9e3779b97f4a7c15ull >> 20) & mask;
        while (s.table[slot] != 0 && s.table[slot] != id + 1)
            slot = (slot + 1) & mask;
        s.table[slot] = id + 1;
        acc += slot;
        ticks.push(((ev >> 20) + 1 + xorshift(x) % 64) << 20 | id);
    }

    // Heap-allocated events dispatched through virtual handlers that
    // read and write a node-based hash map.
    std::priority_queue<Event *, std::vector<Event *>, Later> events;
    for (uint32_t i = 0; i < kHandlers / 2; ++i)
        events.push(new Event{xorshift(x) % 256, i, xorshift(x) % kKeys});
    for (int i = 0; i < 100000; ++i) {
        Event *e = events.top();
        events.pop();
        const int fanout = s.handlers[e->target]->handle(*e, s.map);
        for (int f = 0; f < fanout && events.size() < kHandlers; ++f) {
            events.push(new Event{
                e->when + 1 + xorshift(x) % 32,
                static_cast<uint32_t>(xorshift(x) % kHandlers),
                xorshift(x) % kKeys});
        }
        if (events.empty())
            events.push(new Event{e->when + 1, e->target, e->addr});
        delete e;
    }
    while (!events.empty()) {
        delete events.top();
        events.pop();
    }

    const double seconds = secondsSince(t0);
    s.sink += acc + s.map.size();
    return seconds;
}

} // namespace perfbench
