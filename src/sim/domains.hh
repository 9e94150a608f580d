/**
 * @file
 * DomainScheduler: conservative-lookahead parallel execution of one GPU
 * simulation, sharded by shader array (DESIGN.md §13).
 *
 * Shader arrays interact only through the banked L2/DRAM, and every
 * L1→L2 crossing pays at least the fixed hop latency (cfg.l2HopLatency).
 * That latency is the lookahead window W: each SA's clocked CUs, L1s and
 * ZL1s live in a private event domain (a full Engine with its own timing
 * wheel), each L2 bank (+ its ZL2 bank and DRAM channel) lives in a
 * memory-side bank domain, and all domains advance through the same
 * bounded window [S, S+W) in parallel. Cross-boundary messages are
 * exchanged only at window barriers, through per-(SA, bank) channels
 * drained in a fixed merge order — (when, SA index, enqueue order) for
 * requests, (when, bank domain, enqueue order) for responses — so the
 * logical event schedule is a pure function of the window sequence and
 * never of the thread count: the same simulation run with 1, 2 or 8
 * threads produces byte-identical statistics.
 *
 * The classic single-domain engine stays the default (and is literally
 * untouched code); the scheduler is only constructed when
 * GpuConfig::saThreads > 0.
 */

#ifndef LAZYGPU_SIM_DOMAINS_HH
#define LAZYGPU_SIM_DOMAINS_HH

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "mem/device.hh"
#include "sim/engine.hh"
#include "sim/types.hh"

namespace lazygpu
{

class DomainScheduler
{
  public:
    struct Options
    {
        /**
         * Conservative lookahead in ticks: the minimum latency of any
         * SA→memory-side or memory-side→SA crossing. Must be >= 1.
         */
        Tick lookahead = 1;
        /** Worker threads (the coordinator also executes domains). */
        unsigned threads = 1;
        /**
         * Host-side phase profiling (GpuConfig::profileScheduler):
         * accumulate wall time per scheduler phase and per domain into
         * profile(). Wall times are host-dependent — report them in
         * perf artifacts only, never in simulated-result artifacts.
         */
        bool profile = false;
    };

    /**
     * Where the scheduler's wall time goes, accumulated across every
     * run() while Options::profile is set. All times are seconds of the
     * coordinator's clock except domainSec, which sums each domain's
     * own window-execution time (on whichever thread ran it) — so
     * sum(domainSec) can exceed the coordinator phase times when
     * domains genuinely run in parallel.
     */
    struct Profile
    {
        double saPhaseSec = 0.0;     //!< SA-phase span (publish -> done)
        double bankPhaseSec = 0.0;   //!< bank-phase span
        double barrierWaitSec = 0.0; //!< coordinator idle in pool_done_
        /** Serial coordinator work: routing, delivery, hooks, polling. */
        double coordSerialSec = 0.0;
        std::uint64_t windows = 0;   //!< lookahead windows executed
        /** Per-domain runWindow seconds: SA domains, then bank domains. */
        std::vector<double> domainSec;
    };

    /** The accumulated profile (zeros unless Options::profile). */
    const Profile &profile() const { return profile_; }

    /**
     * A memory-side router: called at the window barrier, on the
     * coordinator, once per boundary request in the fixed merge order.
     * Arbitrates shared port state and injects the access into the
     * owning bank domain via injectBank(). `done` is empty for
     * fire-and-forget writes (no response is delivered).
     */
    using RouteFn = std::function<void(unsigned sa, Tick when,
                                       const MemAccess &acc,
                                       Completion &&done)>;

    DomainScheduler(Options opts, unsigned num_sa, unsigned num_banks);
    ~DomainScheduler();

    DomainScheduler(const DomainScheduler &) = delete;
    DomainScheduler &operator=(const DomainScheduler &) = delete;

    unsigned numSaDomains() const { return num_sa_; }
    unsigned numBankDomains() const { return num_banks_; }
    Tick lookahead() const { return opts_.lookahead; }

    /** The event domain owning SA sa's CUs, L1 and ZL1. */
    Engine &saEngine(unsigned sa) { return sa_[sa]->engine; }
    /** The event domain owning L2/ZL2 bank b and DRAM channel b. */
    Engine &bankEngine(unsigned bank) { return banks_[bank]->engine; }

    /** Register a memory-side router; returns its id for port(). */
    unsigned addRouter(RouteFn fn);

    /**
     * The SA-side endpoint of router `router` in domain `sa`: a
     * MemDevice whose access() enqueues the request into the SA's
     * outbox channel (drained at the next window barrier). Stable for
     * the scheduler's lifetime.
     */
    MemDevice &port(unsigned sa, unsigned router);

    /**
     * Schedule `target->access(acc, <wrapped done>)` at tick start in
     * bank domain `bank`. Only valid from a RouteFn (coordinator, at a
     * barrier). The completion waits in the bank's slot table; the
     * bank-side device gets one naming its slot, so when it finishes
     * the response is buffered and delivered into SA `sa`'s wheel at
     * completion tick + lookahead.
     */
    void injectBank(unsigned bank, Tick start, MemDevice *target,
                    const MemAccess &acc, unsigned sa, Completion &&done);

    /**
     * Invoked on the coordinator at every window barrier, after
     * responses have been delivered and before the idle check. The Gpu
     * uses it for deferred wavefront refill (the dispatch cursor is
     * shared across SAs and must not be touched from domain threads).
     */
    void setBarrierHook(std::function<void()> hook)
    {
        barrier_hook_ = std::move(hook);
    }

    /**
     * Watchdog channel, polled on the coordinator at every window
     * barrier: publishes an aggregated heartbeat (max domain tick +
     * total events executed) and throws SimError(Timeout) on cancel —
     * always from the coordinator thread, where the snapshot source
     * lives, so crash snapshots stay valid.
     */
    void attachControl(ExecControl *ctl) { ctl_ = ctl; }

    /**
     * Run rounds of lookahead windows until every domain is idle and
     * all channels are empty. Returns the maximum domain tick. When the
     * earliest pending event lies beyond `limit`, returns early with
     * the event still queued (detect via anyPendingEvents()), matching
     * Engine::run's cycle-limit contract.
     */
    Tick run(Tick limit = maxTick);

    /**
     * Tear down every domain wheel and cross-domain channel and re-arm
     * them empty: all domain engines reset (events discarded, clocked
     * components deregistered, time zero), outboxes and response
     * buffers cleared, routers and ports dropped. Worker threads are
     * kept parked.
     */
    void reset();

    // --- Aggregates across domains (mirror the Engine accessors) -------
    /** Maximum domain tick: the frontier the simulation has reached. */
    Tick now() const;
    std::uint64_t eventsExecuted() const;
    std::uint64_t poolChunks() const;
    std::uint64_t oversizedEvents() const;
    std::size_t numPendingEvents() const;
    bool anyPendingEvents() const { return numPendingEvents() != 0; }
    unsigned activeClocked() const;
    /** Barrier heartbeat samples, oldest first (crash snapshots). */
    std::vector<std::pair<Tick, std::uint64_t>> recentActivity() const;

  private:
    /** One SA→memory-side boundary crossing, waiting in an outbox. */
    struct Request
    {
        Tick when;
        std::uint64_t seq; //!< per-SA enqueue order
        unsigned router;
        MemAccess acc;
        Completion done;
    };

    /** One memory-side→SA completion, waiting in a response buffer. */
    struct Response
    {
        Tick when; //!< delivery tick: bank-domain completion + lookahead
        std::uint64_t seq; //!< per-bank-domain enqueue order
        unsigned sa;
        Completion done;
    };

    class BoundaryPort : public MemDevice
    {
      public:
        BoundaryPort(DomainScheduler &owner, unsigned sa, unsigned router)
            : owner_(owner), sa_(sa), router_(router)
        {
        }

        void
        access(const MemAccess &acc, Completion done) override
        {
            owner_.enqueueRequest(sa_, router_, acc, std::move(done));
        }

      private:
        DomainScheduler &owner_;
        unsigned sa_;
        unsigned router_;
    };

    struct SaDomain
    {
        Engine engine;
        std::vector<std::unique_ptr<BoundaryPort>> ports;
        // Single-writer channel: only this domain's worker appends
        // (during its window), only the coordinator drains (at the
        // barrier). No locking needed.
        std::vector<Request> outbox;
        std::uint64_t next_seq = 0;
    };

    /** A request injected into a bank domain, awaiting its response. */
    struct InFlight
    {
        unsigned sa = 0;
        Completion done;
    };

    struct BankDomain
    {
        Engine engine;
        // Single-writer, as above but written by the bank worker.
        std::vector<Response> responses;
        std::uint64_t next_seq = 0;
        // The boundary slot table: injectBank fills a slot (the
        // coordinator, at a barrier) and respond frees it (this bank's
        // worker, during its phase). The barrier orders the two, so
        // neither needs a lock.
        std::vector<InFlight> slots;
        std::vector<unsigned> free_slots;
    };

    void enqueueRequest(unsigned sa, unsigned router, const MemAccess &acc,
                        Completion &&done);
    void respond(unsigned bank, unsigned slot);

    /** Run one phase (all SA domains or all bank domains) to `end`. */
    void runPhase(bool sa_phase, Tick end, Tick limit);
    void runDomain(unsigned item);
    void workerLoop(bool arm_recoverable);
    /** Claim the next unstarted domain of generation gen, or -1. */
    int claimDomain(std::uint64_t gen);
    /** Claim-and-run until generation gen has no unstarted domains. */
    void drainClaims(std::uint64_t gen);

    /** Drain all outboxes in merge order and route the requests. */
    void routeRequests();
    /** Deliver all buffered responses into the SA wheels. */
    void deliverResponses();
    /** Publish the aggregated heartbeat; honour the cancel flag. */
    void pollControl();

    Options opts_;
    unsigned num_sa_;
    unsigned num_banks_;

    std::vector<std::unique_ptr<SaDomain>> sa_;
    std::vector<std::unique_ptr<BankDomain>> banks_;
    std::vector<RouteFn> routers_;
    std::function<void()> barrier_hook_;

    // Scratch for the barrier merge sorts (reused across rounds).
    std::vector<std::pair<unsigned, Request>> merge_requests_;
    std::vector<std::pair<unsigned, Response>> merge_responses_;

    // --- Worker pool: generation-signalled phase execution -------------
    std::vector<std::thread> workers_;
    std::mutex pool_mutex_;
    std::condition_variable pool_work_;
    std::condition_variable pool_done_;
    std::uint64_t pool_gen_ = 0;
    bool pool_exit_ = false;
    // Phase state: written by the coordinator under pool_mutex_ before
    // the generation bump; workers read it only after a successful
    // generation-checked claim (same mutex), so no phase field is ever
    // read and written concurrently.
    bool phase_is_sa_ = true;
    Tick phase_end_ = 0;
    Tick phase_limit_ = 0;
    unsigned phase_total_ = 0;
    unsigned phase_claimed_ = 0;
    unsigned phase_done_ = 0;
    std::vector<std::exception_ptr> phase_errors_;

    // --- Phase profiling (Options::profile) -----------------------------
    Profile profile_;
    /**
     * Guards profile_.domainSec only: domains run concurrently on pool
     * threads, off the pool_mutex_. The scalar phase fields are only
     * touched by the coordinator.
     */
    std::mutex profile_mutex_;

    // --- Watchdog -------------------------------------------------------
    ExecControl *ctl_ = nullptr;
    std::array<std::pair<Tick, std::uint64_t>, Engine::recentTraceSize>
        trace_{};
    std::uint64_t trace_count_ = 0;
};

} // namespace lazygpu

#endif // LAZYGPU_SIM_DOMAINS_HH
