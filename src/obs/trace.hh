/**
 * @file
 * Plane 1 of the observability subsystem: the deterministic trace
 * recorder.
 *
 * Everything in this header lives in *simulated* time. A TraceEvent
 * carries only values derived from the event queue's deterministic
 * clock (curTick, numProcessed) and from architectural model state, so
 * a trace is byte-identical across `--jobs N`, `--isolate`, both
 * execution engines, and snapshot-restored runs — the same determinism
 * contract the frame and snapshot layers already carry. That makes a
 * trace a regression oracle, not just a viewer artifact: CI diffs the
 * emitted JSON across engines and process topologies.
 *
 * Two rules keep the contract honest:
 *
 *  - Host-dependent happenings (page decodes, superblock builds —
 *    anything the engine choice perturbs) carry the `engine` category,
 *    and snapshot-machinery markers carry `snapshot`; both are OFF in
 *    the default category mask, so a default trace never observes the
 *    engine or the save leg.
 *
 *  - Every recorder carries a `base` cursor in processed-event units.
 *    An event is recorded only once numProcessed() exceeds the base, so
 *    machine construction and warmup noise stay out of the buffer. A
 *    snapshot-restored run naturally starts at base = numProcessed of
 *    the restore point; a cold run replays the identical trace with
 *    `--trace-skip N` for the same N (emitted in the trace metadata).
 *
 * Recording goes through a thread-local recorder pointer (one worker
 * thread runs one point at a time), so deep model code can emit events
 * without plumbing a pointer through every constructor, and the
 * disabled cost is one thread-local load and branch.
 */

#ifndef MISP_OBS_TRACE_HH
#define MISP_OBS_TRACE_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace misp::obs {

/** Trace category bits ([trace] `categories` in the spec grammar). */
enum TraceCat : std::uint32_t {
    kCatSignal = 1u << 0,   ///< signal fabric send/deliver/drop
    kCatShred = 1u << 1,    ///< sequencer lifecycle transitions
    kCatSched = 1u << 2,    ///< kernel scheduling + Ring-0 episodes
    kCatMem = 1u << 3,      ///< TLB fills/shootdowns/flushes
    kCatRtcall = 1u << 4,   ///< runtime service calls
    kCatEngine = 1u << 5,   ///< host engine internals (NOT engine-stable)
    kCatSnapshot = 1u << 6, ///< snapshot machinery markers
};

/** Default mask: every engine-independent category. `engine` events
 *  differ across --engine choices and `snapshot` markers differ
 *  between a plain run and a save leg, so both stay opt-in. */
constexpr std::uint32_t kDefaultCats =
    kCatSignal | kCatShred | kCatSched | kCatMem | kCatRtcall;

constexpr std::uint32_t kAllCats = (1u << 7) - 1;

/** Typed trace record kinds. Values are part of the on-wire RunRecord
 *  encoding: append only. */
enum class TraceKind : std::uint16_t {
    SignalSend,    ///< fabric accepted a SIGNAL   (arg0=target sid)
    SignalDeliver, ///< delivery tick at the target
    SignalDrop,    ///< queued payloads discarded  (arg0=count)
    ProxySend,     ///< proxy request toward the OMS
    ProxyDeliver,  ///< proxy request delivery at the OMS

    ShredStart,     ///< sequencer picked up a continuation (arg0=eip)
    ShredSuspend,   ///< serialization suspension requested/applied
    ShredResume,    ///< resumed from suspend/proxy/kernel
    ShredPark,      ///< parked (idle; awaiting work)
    ShredHalt,      ///< terminal halt
    ShredProxyWait, ///< AMS entered proxy wait (arg0=fault kind)

    KernelSchedule,  ///< scheduleDecision picked a reschedule
                     ///< (arg0=prev tid+1 or 0, arg1=next tid+1 or 0)
    KernelCtxSwitch, ///< context-switch cost charged
    KernelQuantum,   ///< timer tick advanced the running quantum
    Ring0Enter,      ///< OMS Ring-0 episode begins (arg0=Ring0Cause)
    Ring0Exit,       ///< episode ends (arg0=Ring0Cause, arg1=priv cycles)

    TlbFill,      ///< walk completed, PTE inserted (arg0=vpn)
    TlbShootdown, ///< single-page invalidate       (arg0=vpn)
    TlbFlush,     ///< full flush (serialization purge)

    RtcallEnter, ///< RTCALL dispatched (arg0=service)
    RtcallExit,  ///< RTCALL returned   (arg0=service, arg1=cycles)

    DecodePage,       ///< [engine] page predecoded      (arg0=vpn)
    SuperblockBuild,  ///< [engine] superblocks built    (arg0=vpn)
    DecodeInvalidate, ///< [engine] decoded page dropped (arg0=vpn)

    SnapshotSave,    ///< [snapshot] image written at this point
    SnapshotRestore, ///< [snapshot] run resumed from an image

    NumKinds,
};

/** Stable lowercase dotted name, e.g. "signal.send" — the Chrome
 *  trace-event `name` field and the schema hook for tests. */
const char *traceKindName(TraceKind kind);

/** The category a kind belongs to. */
TraceCat traceKindCat(TraceKind kind);

/** Category name <-> bit helpers for the spec/CLI grammar. */
const char *traceCatName(TraceCat cat);

/** Parse a category spec: "all", "none", or a comma/space separated
 *  list of category names. @return false (with *err set) on an unknown
 *  name. */
bool parseTraceCats(const std::string &spec, std::uint32_t *mask,
                    std::string *err);

/** One recorded event. POD; everything is simulated-deterministic. */
struct TraceEvent {
    Tick tick = 0;          ///< EventQueue::curTick() at record time
    std::uint64_t seq = 0;  ///< EventQueue::numProcessed() at record time
    std::uint16_t kind = 0; ///< TraceKind
    std::uint16_t sid = 0;  ///< sequencer id (0 when not applicable)
    std::uint32_t aux = 0;  ///< kind-specific small operand (cpu, cause)
    std::uint64_t arg0 = 0;
    std::uint64_t arg1 = 0;
};

/** Recorder configuration ([trace] section + --trace flags). */
struct TraceConfig {
    bool enabled = false;
    std::uint32_t catMask = kDefaultCats;
    /** Buffer bound; events beyond it are counted, not stored. */
    std::uint64_t maxEvents = 1u << 16;
};

/** The harvested buffer a finished point hands back — carried inside
 *  RunRecord so the --jobs/--isolate merge paths are the same code
 *  path as the serial one. */
struct TraceBuffer {
    std::vector<TraceEvent> events;
    std::uint64_t dropped = 0; ///< events past maxEvents (post-filter)
    std::uint64_t base = 0;    ///< processed-event cursor (see file doc)
    std::uint32_t catMask = kDefaultCats;
    std::uint64_t maxEvents = 0;
};

/** Per-point recorder. Bound to the point's EventQueue for its
 *  deterministic clock; never consults host time. */
class TraceRecorder
{
  public:
    TraceRecorder(const EventQueue &eq, const TraceConfig &config,
                  std::uint64_t base)
        : eq_(eq), catMask_(config.catMask)
    {
        buf_.base = base;
        buf_.catMask = config.catMask;
        buf_.maxEvents = config.maxEvents;
    }

    void
    record(TraceKind kind, std::uint16_t sid = 0, std::uint32_t aux = 0,
           std::uint64_t arg0 = 0, std::uint64_t arg1 = 0)
    {
        if (!(catMask_ & traceKindCat(kind)))
            return;
        // Events recorded during machine construction, warmup, or a
        // snapshot restore replay the base cursor and stay out.
        if (eq_.numProcessed() <= buf_.base)
            return;
        push(kind, sid, aux, arg0, arg1);
    }

    /** record() minus the base gate — for markers that must survive on
     *  the restore path, where numProcessed == base by construction. */
    void
    recordMarker(TraceKind kind, std::uint16_t sid = 0,
                 std::uint32_t aux = 0, std::uint64_t arg0 = 0,
                 std::uint64_t arg1 = 0)
    {
        if (!(catMask_ & traceKindCat(kind)))
            return;
        push(kind, sid, aux, arg0, arg1);
    }

    const TraceBuffer &buffer() const { return buf_; }
    TraceBuffer take() { return std::move(buf_); }

  private:
    void
    push(TraceKind kind, std::uint16_t sid, std::uint32_t aux,
         std::uint64_t arg0, std::uint64_t arg1)
    {
        if (buf_.events.size() >= buf_.maxEvents) {
            ++buf_.dropped;
            return;
        }
        TraceEvent ev;
        ev.tick = eq_.curTick();
        ev.seq = eq_.numProcessed();
        ev.kind = static_cast<std::uint16_t>(kind);
        ev.sid = sid;
        ev.aux = aux;
        ev.arg0 = arg0;
        ev.arg1 = arg1;
        buf_.events.push_back(ev);
    }

    const EventQueue &eq_;
    std::uint32_t catMask_;
    TraceBuffer buf_;
};

/** The active recorder of the current worker thread (one point runs
 *  per thread at a time). Null whenever tracing is off — the hook cost
 *  is then one thread-local load and branch. */
extern thread_local TraceRecorder *tlsTrace;

/** Model-side hook entry point. */
inline void
trace(TraceKind kind, std::uint16_t sid = 0, std::uint32_t aux = 0,
      std::uint64_t arg0 = 0, std::uint64_t arg1 = 0)
{
    if (TraceRecorder *rec = tlsTrace)
        rec->record(kind, sid, aux, arg0, arg1);
}

/** Hook entry point for snapshot-machinery markers (see recordMarker). */
inline void
traceMarker(TraceKind kind, std::uint16_t sid = 0, std::uint32_t aux = 0,
            std::uint64_t arg0 = 0, std::uint64_t arg1 = 0)
{
    if (TraceRecorder *rec = tlsTrace)
        rec->recordMarker(kind, sid, aux, arg0, arg1);
}

/** RAII attach/detach of the thread-local recorder around one point. */
class ScopedTrace
{
  public:
    explicit ScopedTrace(TraceRecorder *rec) { tlsTrace = rec; }
    ~ScopedTrace() { tlsTrace = nullptr; }
    ScopedTrace(const ScopedTrace &) = delete;
    ScopedTrace &operator=(const ScopedTrace &) = delete;
};

/** One point's contribution to a merged trace file. */
struct TracePoint {
    std::string label; ///< process_name metadata (machine/workload/coords)
    const TraceBuffer *buf = nullptr;
};

/**
 * Emit a Chrome trace-event / Perfetto-compatible JSON file: one
 * process per point (pid = point index), one thread per sequencer
 * (tid = sid), instant events with ts = simulated tick. Deterministic
 * byte-for-byte: integer-only fields, fixed key order, points in index
 * order, events in record order.
 */
void writeChromeTrace(std::ostream &os,
                      const std::vector<TracePoint> &points);

} // namespace misp::obs

#endif // MISP_OBS_TRACE_HH
