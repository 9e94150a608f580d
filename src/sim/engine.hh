/**
 * @file
 * The simulation engine: a hybrid cycle/event-driven scheduler.
 *
 * Compute units are *clocked* components ticked every core cycle while
 * they have resident wavefronts; the memory system is *event-driven*
 * (latencies and bandwidth occupancy are modelled by scheduling callback
 * events). When every clocked component is quiescent (all wavefronts
 * stalled on memory), the engine fast-forwards to the next pending event.
 *
 * Event storage is allocation-free on the steady state: each scheduled
 * callable is moved into a pooled, fixed-inline-storage EventRecord
 * (free-listed; the pool grows in chunks and is only ever extended, never
 * shrunk). Records are drained from a two-level bucketed timing wheel: a
 * near-future ring of power-of-two size indexed by tick, plus an overflow
 * min-heap for events beyond the ring horizon, migrated into the ring as
 * simulated time advances. Events scheduled for the same tick execute in
 * scheduling order (FIFO within a bucket; overflow entries carry a
 * sequence number and always migrate before any same-tick event can be
 * scheduled directly into the ring, so the global order is exactly
 * (when, schedule order) — identical to a (when, seq) priority queue).
 */

#ifndef LAZYGPU_SIM_ENGINE_HH
#define LAZYGPU_SIM_ENGINE_HH

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <queue>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace lazygpu
{

class TraceSink;

/**
 * A periodic observer of simulated time (Engine::attachSampler): the
 * engine calls sample(now) whenever at least the attached period has
 * elapsed since the last sample, from the same off-hot-path hook as
 * engine-depth trace records. Samplers are purely observational — they
 * may read component state and record statistics, but must not
 * schedule events or mutate simulated state.
 */
class TickSampler
{
  public:
    virtual ~TickSampler() = default;
    virtual void sample(Tick now) = 0;
};

/**
 * Watchdog channel between a simulation thread and its monitor.
 *
 * The engine periodically (every few thousand scheduler iterations, off
 * the per-event hot path) publishes a forward-progress heartbeat and
 * polls the cancel flag; a monitor thread that sets cancel causes the
 * engine to abandon the run by throwing a SimError of kind Timeout.
 */
struct ExecControl
{
    /** Monotone progress marker: simulated tick + events executed. */
    std::atomic<std::uint64_t> heartbeat{0};
    /** 0 = run; cancelWallClock/cancelStalled = abandon the run. */
    std::atomic<std::uint32_t> cancel{0};

    static constexpr std::uint32_t cancelWallClock = 1;
    static constexpr std::uint32_t cancelStalled = 2;
};

/**
 * A component driven once per core clock cycle.
 *
 * Quiescence protocol: the engine samples quiescent() once when the
 * component is registered (addClocked). Afterwards the component must
 * report every quiescent-state transition via Engine::noteActivated() /
 * noteDeactivated(); the engine maintains an active count instead of
 * polling every component every cycle.
 */
class Clocked
{
  public:
    virtual ~Clocked() = default;

    /** Advance one cycle. */
    virtual void tick() = 0;

    /** True when the component has no work at all (may be skipped). */
    virtual bool quiescent() const = 0;
};

/**
 * Time-ordered event queue plus the clocked-component tick loop.
 *
 * Events scheduled for the same tick execute in scheduling order. The
 * engine finishes when every clocked component is quiescent and no events
 * remain.
 */
class Engine
{
  public:
    Engine() = default;
    ~Engine() { clearEvents(); }

    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    /** Current simulated time in cycles. */
    Tick now() const { return now_; }

    /**
     * Schedule f to run at absolute tick when (>= now).
     *
     * The callable is moved into a pooled event record. Callables up to
     * inlineEventBytes live inline in the record (no heap allocation);
     * larger ones fall back to a boxed heap copy (counted by
     * oversizedEvents() so regressions are visible).
     */
    template <typename F>
    void
    schedule(Tick when, F &&f)
    {
        panic_if(when < now_, "scheduling event in the past (%llu < %llu)",
                 static_cast<unsigned long long>(when),
                 static_cast<unsigned long long>(now_));
        using Fn = std::decay_t<F>;
        EventRecord *r = allocRecord();
        if constexpr (sizeof(Fn) <= inlineEventBytes &&
                      alignof(Fn) <= alignof(std::max_align_t)) {
            ::new (static_cast<void *>(r->storage))
                Fn(std::forward<F>(f));
            r->invoke = &invokeInline<Fn>;
            r->destroy = &destroyInline<Fn>;
        } else {
            using Box = std::unique_ptr<Fn>;
            ::new (static_cast<void *>(r->storage))
                Box(new Fn(std::forward<F>(f)));
            r->invoke = &invokeBoxed<Fn>;
            r->destroy = &destroyBoxed<Fn>;
            ++oversized_events_;
        }
        r->when = when;
        r->seq = next_seq_++;
        enqueue(r);
    }

    /** Schedule f to run delay cycles from now. */
    template <typename F>
    void
    scheduleIn(Tick delay, F &&f)
    {
        schedule(now_ + delay, std::forward<F>(f));
    }

    /**
     * Register a component to be ticked every cycle. Its current
     * quiescent() state seeds the engine's active count; from then on the
     * component must report transitions via noteActivated() /
     * noteDeactivated().
     */
    void
    addClocked(Clocked *c)
    {
        clocked_.push_back(c);
        if (!c->quiescent())
            ++active_clocked_;
    }

    /** A registered component transitioned quiescent -> active. */
    void noteActivated() { ++active_clocked_; }

    /** A registered component transitioned active -> quiescent. */
    void
    noteDeactivated()
    {
        panic_if(active_clocked_ == 0,
                 "clocked component deactivated below zero");
        --active_clocked_;
    }

    /**
     * Run until completion.
     *
     * @param limit Stop once simulated time would exceed this many
     *              cycles. Clocked components still ticking at the limit
     *              panic (livelock guard); if the system is merely idle
     *              until an event past the limit, run() returns early
     *              with the event still queued (check hasPendingEvents()
     *              to distinguish this from normal completion).
     * @return The tick at which the simulation went idle or hit the
     *         limit.
     */
    Tick run(Tick limit = maxTick);

    /**
     * Run until simulated time reaches end (exclusive) or the domain
     * goes idle, whichever comes first. Events scheduled exactly at end
     * are NOT executed — they belong to the next window. This is the
     * building block of the sharded engine (DomainScheduler): a domain
     * advances through one conservative-lookahead window per call, and
     * the caller injects cross-domain messages between calls.
     *
     * Returns the domain-local tick with the same convention as run():
     * the tick after the last clocked tick, or the tick of the last
     * drained event, capped at end. Unlike run(), going idle is not
     * terminal — new cross-domain events may arrive before the next
     * window.
     *
     * @param limit Livelock guard, as in run(): clocked components
     *              still ticking past limit panic.
     */
    Tick runWindow(Tick end, Tick limit = maxTick);

    /**
     * Tick of the earliest pending event, or maxTick when none. Used by
     * the sharded scheduler's global fast-forward across domains.
     */
    Tick
    nextPendingTick() const
    {
        return num_events_ == 0 ? maxTick : nextEventTick();
    }

    /** No pending events and every clocked component quiescent. */
    bool idle() const { return num_events_ == 0 && active_clocked_ == 0; }

    /**
     * Discard all pending events, deregister every clocked component,
     * and reset time to zero. The engine is as freshly constructed;
     * components of a new simulation must be re-registered via
     * addClocked().
     */
    void reset();

    bool hasPendingEvents() const { return num_events_ != 0; }
    std::size_t numPendingEvents() const { return num_events_; }

    /**
     * The engine state a checkpoint must carry to make a resumed run
     * byte-identical to a straight-through one. Pending events are
     * type-erased closures and cannot travel, so checkpoints are only
     * legal at event-quiescent points (kernel-launch boundaries);
     * poolChunks is included so the restored engine pre-grows its pool
     * and the engine.pool_chunks counter matches the original run.
     */
    struct CheckpointState
    {
        Tick now = 0;
        std::uint64_t nextSeq = 0;
        std::uint64_t eventsExecuted = 0;
        std::uint64_t oversizedEvents = 0;
        std::uint64_t poolChunks = 0;
    };

    /** Capture the resumable state; the engine must be idle. */
    CheckpointState
    checkpointState() const
    {
        panic_if(!idle(), "checkpointing a non-idle engine");
        return {now_, next_seq_, events_executed_, oversized_events_,
                poolChunks()};
    }

    /**
     * Restore a checkpoint into this (freshly constructed or reset)
     * engine: simulated time jumps to the saved tick with an empty
     * wheel, counters resume their cumulative values, and the event
     * pool is pre-grown to the saved chunk count.
     */
    void
    restoreCheckpoint(const CheckpointState &s)
    {
        panic_if(!idle() || now_ != 0,
                 "restoring a checkpoint into a used engine");
        now_ = s.now;
        next_seq_ = s.nextSeq;
        events_executed_ = s.eventsExecuted;
        oversized_events_ = s.oversizedEvents;
        while (poolChunks() < s.poolChunks)
            growPool();
    }

    /**
     * Attach (or detach, with nullptr) a watchdog channel. The engine
     * polls it every pollInterval scheduler iterations: it publishes
     * now() + eventsExecuted() as the heartbeat, records the sample in
     * the recent-activity ring, and throws a SimError(Timeout) when the
     * cancel flag is set. The channel must outlive the run.
     */
    void attachControl(ExecControl *ctl) { ctl_ = ctl; }

    /**
     * Watchdog heartbeat for non-event execution phases (e.g. the rabbit
     * functional executor, which makes forward progress without running
     * engine events). Publishes now() + eventsExecuted() + progress so
     * the beat keeps advancing, records the sample in the
     * recent-activity ring, and throws SimError(Timeout) when the cancel
     * flag is set. No-op when no control channel is attached.
     */
    void externalHeartbeat(std::uint64_t progress);

    /**
     * Attach (or detach, with nullptr) a trace sink. While attached,
     * every time advance of at least traceSampleTicks emits one
     * EngineCounters record (queue depth, pool chunks, active clocked
     * components) -- off the event hot path.
     */
    void
    attachTrace(TraceSink *trace)
    {
        trace_sink_ = trace;
        trace_sink_last_ = 0;
    }

    /** Minimum ticks between engine-depth trace records. */
    static constexpr Tick traceSampleTicks = 64;

    /**
     * Attach (or detach, with nullptr) a periodic sampler, called with
     * the current tick whenever at least `period` ticks have elapsed
     * since the last call (same advance-time hook as the trace sink:
     * one predicted branch when absent, nothing on the per-event path).
     * Sample ticks are a deterministic function of simulated time, so
     * sampled series are identical across hosts and thread counts.
     */
    void
    attachSampler(TickSampler *s, Tick period)
    {
        sampler_ = s;
        sampler_period_ = period ? period : 1;
        sampler_last_ = 0;
    }

    /**
     * The last recentTraceSize heartbeat samples (tick, eventsExecuted),
     * oldest first — the forward-progress trajectory embedded in crash
     * snapshots. Only populated while a control channel is attached.
     */
    std::vector<std::pair<Tick, std::uint64_t>> recentActivity() const;

    // --- Instrumentation (perf tracking and allocation tests) -----------
    /** Total events executed since construction/reset. */
    std::uint64_t eventsExecuted() const { return events_executed_; }
    /** Fixed-size record chunks ever allocated by the event pool. */
    std::uint64_t poolChunks() const { return chunks_.size(); }
    /** Events whose callable did not fit inline (heap fallback). */
    std::uint64_t oversizedEvents() const { return oversized_events_; }
    /** Registered clocked components currently non-quiescent. */
    unsigned activeClocked() const { return active_clocked_; }

    /**
     * Inline payload capacity of one pooled event record, in bytes:
     * the largest simulator event, a cache waiter's completion event
     * (the cache pointer plus Cache::Waiter, which holds a Completion).
     */
    static constexpr std::size_t inlineEventBytes = 96;

    /** Scheduler iterations between watchdog polls (power of two). */
    static constexpr unsigned pollInterval = 1024;
    /** Heartbeat samples retained for crash snapshots. */
    static constexpr unsigned recentTraceSize = 16;

  private:
    struct EventRecord
    {
        EventRecord *next = nullptr; //!< bucket FIFO / free-list link
        void (*invoke)(Engine &, EventRecord *) = nullptr;
        void (*destroy)(EventRecord *) = nullptr; //!< payload dtor only
        Tick when = 0;
        std::uint64_t seq = 0; //!< global scheduling order (overflow tie-break)
        alignas(std::max_align_t) unsigned char storage[inlineEventBytes];
    };

    // invoke() contract: move the callable out, destroy the payload,
    // return the record to the free list, then run the callable — so a
    // callback may schedule (and thus immediately reuse the record)
    // without touching freed payload storage.
    template <typename Fn>
    static void
    invokeInline(Engine &e, EventRecord *r)
    {
        Fn *p = std::launder(reinterpret_cast<Fn *>(r->storage));
        Fn fn(std::move(*p));
        p->~Fn();
        e.freeRecord(r);
        fn();
    }

    template <typename Fn>
    static void
    destroyInline(EventRecord *r)
    {
        std::launder(reinterpret_cast<Fn *>(r->storage))->~Fn();
    }

    template <typename Fn>
    static void
    invokeBoxed(Engine &e, EventRecord *r)
    {
        using Box = std::unique_ptr<Fn>;
        Box *p = std::launder(reinterpret_cast<Box *>(r->storage));
        Box box(std::move(*p));
        p->~Box();
        e.freeRecord(r);
        (*box)();
    }

    template <typename Fn>
    static void
    destroyBoxed(EventRecord *r)
    {
        using Box = std::unique_ptr<Fn>;
        std::launder(reinterpret_cast<Box *>(r->storage))->~Box();
    }

    struct OverflowOrder
    {
        bool
        operator()(const EventRecord *a, const EventRecord *b) const
        {
            if (a->when != b->when)
                return a->when > b->when;
            return a->seq > b->seq;
        }
    };

    /**
     * Near-future ring size in ticks (power of two). Sized to cover the
     * simulator's long-latency events -- queued DRAM round trips run to
     * a few thousand ticks -- so steady-state scheduling stays in the
     * ring and the overflow heap only sees rare far-future timers.
     */
    static constexpr unsigned wheelSize = 8192;
    static constexpr unsigned wheelMask = wheelSize - 1;
    static constexpr unsigned bitmapWords = wheelSize / 64;
    static constexpr unsigned recordsPerChunk = 256;

    struct Bucket
    {
        EventRecord *head = nullptr;
        EventRecord *tail = nullptr;
    };

    EventRecord *allocRecord();
    void
    freeRecord(EventRecord *r)
    {
        r->next = free_;
        free_ = r;
    }
    void growPool();

    /** File r under its tick (ring if within the horizon, else heap). */
    void enqueue(EventRecord *r);
    /** Append r to its ring bucket (r->when within [now, now+wheelSize)). */
    void pushBucket(EventRecord *r);
    /** Advance time and migrate overflow events entering the horizon. */
    void advanceTo(Tick t);
    /** Earliest pending event's tick; requires num_events_ > 0. */
    Tick nextEventTick() const;

    /** Run every event scheduled at the current tick. */
    void drainEventsAtNow();

    /** Publish heartbeat, record the trace sample, honour cancel. */
    void pollControl();

    /** Destroy every pending event's payload and recycle its record. */
    void clearEvents();

    Tick now_ = 0;
    std::uint64_t next_seq_ = 0;
    std::size_t num_events_ = 0;
    std::size_t ring_count_ = 0;

    std::array<Bucket, wheelSize> ring_{};
    std::array<std::uint64_t, bitmapWords> occupied_{};
    std::priority_queue<EventRecord *, std::vector<EventRecord *>,
                        OverflowOrder>
        overflow_;

    EventRecord *free_ = nullptr;
    std::vector<std::unique_ptr<EventRecord[]>> chunks_;

    std::vector<Clocked *> clocked_;
    unsigned active_clocked_ = 0;

    std::uint64_t events_executed_ = 0;
    std::uint64_t oversized_events_ = 0;

    // Watchdog channel (nullptr outside sweep workers). The poll
    // counter and trace ring live off the event hot path: run() only
    // touches them once per pollInterval loop iterations.
    ExecControl *ctl_ = nullptr;
    unsigned poll_countdown_ = pollInterval;
    std::array<std::pair<Tick, std::uint64_t>, recentTraceSize> trace_{};
    std::uint64_t trace_count_ = 0;

    // Observability sink (nullptr unless tracing is enabled).
    TraceSink *trace_sink_ = nullptr;
    Tick trace_sink_last_ = 0;

    // Periodic sampler (nullptr unless cycle accounting samples).
    TickSampler *sampler_ = nullptr;
    Tick sampler_period_ = 1;
    Tick sampler_last_ = 0;
};

} // namespace lazygpu

#endif // LAZYGPU_SIM_ENGINE_HH
