#include "obs/trace_export.hh"

#include <cstdio>
#include <map>
#include <string>

#include "obs/attribution.hh"
#include "obs/json.hh"

namespace logtm {

namespace {

/** Trace pids: hardware contexts vs. memory-hierarchy units. */
constexpr int pidContexts = 0;
constexpr int pidMemory = 1;

std::string
hexAddr(PhysAddr a)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(a));
    return buf;
}

/** Emit the fixed fields every trace event carries. */
void
eventHeader(JsonWriter &w, const char *name, const char *ph,
            Cycle ts, int pid, uint64_t tid)
{
    w.beginObject()
        .field("name", name)
        .field("ph", ph)
        .field("ts", uint64_t{ts})
        .field("pid", pid)
        .field("tid", tid);
}

void
instant(JsonWriter &w, const char *name, Cycle ts, int pid,
        uint64_t tid, const char *cat)
{
    eventHeader(w, name, "i", ts, pid, tid);
    w.field("s", "t").field("cat", cat).endObject();
}

struct OpenTx
{
    Cycle begin = 0;
    CtxId tid = invalidCtx;
};

} // namespace

void
exportChromeTrace(const std::vector<ObsEvent> &events,
                  const TraceExportInfo &info, std::ostream &os)
{
    JsonWriter w(os);
    w.beginObject();
    w.field("displayTimeUnit", "ms");
    w.key("traceEvents").beginArray();

    // Metadata: name the processes and the per-context tracks.
    eventHeader(w, "process_name", "M", 0, pidContexts, 0);
    w.key("args").beginObject().field("name", "hardware contexts")
        .endObject().endObject();
    eventHeader(w, "process_name", "M", 0, pidMemory, 0);
    w.key("args").beginObject().field("name", "memory hierarchy")
        .endObject().endObject();
    for (uint32_t c = 0; c < info.numContexts; ++c) {
        eventHeader(w, "thread_name", "M", 0, pidContexts, c);
        const std::string name = "ctx " + std::to_string(c) +
            " (core " + std::to_string(c / info.threadsPerCore) + ")";
        w.key("args").beginObject().field("name", name).endObject()
            .endObject();
    }

    std::map<ThreadId, OpenTx> open;
    uint64_t flowId = 0;
    Cycle lastCycle = 0;

    auto closeSpan = [&](ThreadId thread, const ObsEvent &ev,
                         const char *name, const char *cat) {
        auto it = open.find(thread);
        if (it == open.end())
            return;  // begin fell out of the ring buffer
        eventHeader(w, name, "X", it->second.begin, pidContexts,
                    it->second.tid);
        w.field("dur", uint64_t{ev.cycle - it->second.begin})
            .field("cat", cat);
        w.key("args").beginObject()
            .field("thread", uint64_t{ev.thread});
        if (ev.kind == EventKind::TxCommit) {
            w.field("readSetBlocks", ev.a)
                .field("writeSetBlocks", ev.b);
        } else if (ev.kind == EventKind::TxAbort) {
            w.field("cause", abortCauseName(ev.cause))
                .field("undoRecords", ev.b);
        }
        w.endObject().endObject();
        open.erase(it);
    };

    for (const ObsEvent &ev : events) {
        lastCycle = std::max(lastCycle, ev.cycle);
        switch (ev.kind) {
          case EventKind::TxBegin:
            // Only the outermost frame opens a track span; nested
            // begins appear as instants so depth is still visible.
            if (ev.a == 1)
                open[ev.thread] = OpenTx{ev.cycle, ev.ctx};
            else
                instant(w, "tx.nestedBegin", ev.cycle, pidContexts,
                        ev.ctx, "tx");
            break;
          case EventKind::TxCommit:
            closeSpan(ev.thread, ev, "tx", "tx");
            break;
          case EventKind::TxAbort:
            if (ev.a == 1)
                closeSpan(ev.thread, ev, "tx (aborted)", "abort");
            break;
          case EventKind::Conflict: {
            const CtxId req =
                ev.ctx == invalidCtx ? ev.otherCtx : ev.ctx;
            eventHeader(w, ev.falsePositive ? "conflict (false)"
                                            : "conflict",
                        "i", ev.cycle, pidContexts, req);
            w.field("s", "t").field("cat", "conflict");
            w.key("args").beginObject()
                .field("addr", hexAddr(ev.addr))
                .field("ownerCtx", uint64_t{ev.otherCtx})
                .field("requesterCtx", uint64_t{ev.ctx})
                .field("access",
                       ev.access == AccessType::Read ? "read"
                                                     : "write")
                .field("falsePositive", ev.falsePositive)
                .endObject().endObject();
            // Flow arrow owner -> requester.
            if (ev.ctx != invalidCtx && ev.otherCtx != invalidCtx) {
                const uint64_t id = ++flowId;
                eventHeader(w, "conflict", "s", ev.cycle, pidContexts,
                            ev.otherCtx);
                w.field("cat", "conflict").field("id", id)
                    .endObject();
                eventHeader(w, "conflict", "f", ev.cycle, pidContexts,
                            ev.ctx);
                w.field("cat", "conflict").field("id", id)
                    .field("bp", "e").endObject();
            }
            break;
          }
          case EventKind::TxStall:
            instant(w, "stall", ev.cycle, pidContexts, ev.ctx,
                    "stall");
            break;
          case EventKind::SummaryTrap:
            instant(w, "summaryTrap", ev.cycle, pidContexts, ev.ctx,
                    "trap");
            break;
          case EventKind::SchedIn:
            instant(w, "schedIn", ev.cycle, pidContexts, ev.ctx,
                    "os");
            break;
          case EventKind::SchedOut:
            instant(w, "schedOut", ev.cycle, pidContexts, ev.ctx,
                    "os");
            break;
          case EventKind::Victimization:
            instant(w, ev.b == 1 ? "l1.txVictim" : "l2.txVictim",
                    ev.cycle, pidMemory, ev.a, "victim");
            break;
          case EventKind::SigBroadcast:
            instant(w, "sigBroadcast", ev.cycle, pidMemory, ev.a,
                    "broadcast");
            break;
          case EventKind::BusOp:
            instant(w, "busOp", ev.cycle, pidMemory, ev.a, "bus");
            break;
          case EventKind::ChkFault:
            instant(w, "chk.fault", ev.cycle, pidMemory, ev.a, "chk");
            break;
          case EventKind::ChkViolation:
            instant(w, "chk.violation", ev.cycle, pidContexts,
                    ev.ctx == invalidCtx ? 0 : ev.ctx, "chk");
            break;
          case EventKind::PmFlush:
            // Persist-domain flush: one thread's records, or the
            // whole-domain sweep (no thread) at a crash/drain point.
            eventHeader(w, "pm.flush", "i", ev.cycle, pidMemory, 0);
            w.field("s", "t").field("cat", "pm");
            w.key("args").beginObject()
                .field("thread", uint64_t{ev.thread})
                .field("records", ev.a)
                .field("seq", ev.b)
                .endObject().endObject();
            break;
          case EventKind::HyEscalation:
            // Hybrid events name a thread, not a context; they land
            // on track 0 like oracle violations.
            eventHeader(w, "hy.escalation", "i", ev.cycle, pidContexts,
                        ev.ctx == invalidCtx ? 0 : ev.ctx);
            w.field("s", "t").field("cat", "hybrid");
            w.key("args").beginObject()
                .field("thread", uint64_t{ev.thread})
                .field("hwAttempts", ev.a)
                .field("lastCause",
                       abortCauseName(static_cast<uint8_t>(ev.b)))
                .endObject().endObject();
            break;
          case EventKind::HyFallbackLock:
            eventHeader(w,
                        ev.a == 1 ? "hy.fallbackLock.acquire"
                                  : "hy.fallbackLock.release",
                        "i", ev.cycle, pidContexts,
                        ev.ctx == invalidCtx ? 0 : ev.ctx);
            w.field("s", "t").field("cat", "hybrid");
            w.key("args").beginObject()
                .field("thread", uint64_t{ev.thread})
                .endObject().endObject();
            break;
          case EventKind::LogWrite:
          case EventKind::LogFilterHit:
          case EventKind::SummaryInstall:
            // Present in the event stream and stats but too chatty
            // for a useful timeline; deliberately not exported.
            break;
          case EventKind::NumKinds:
            break;
        }
    }

    // Close any span still open at the end of the recording.
    for (const auto &kv : open) {
        eventHeader(w, "tx (open)", "X", kv.second.begin, pidContexts,
                    kv.second.tid);
        w.field("dur", uint64_t{lastCycle - kv.second.begin})
            .field("cat", "tx").endObject();
    }

    w.endArray();
    w.endObject();
    os << "\n";
}

} // namespace logtm
