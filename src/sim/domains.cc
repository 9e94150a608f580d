#include "sim/domains.hh"

#include <algorithm>
#include <optional>
#include <tuple>

#include "sim/logging.hh"
#include "sim/sim_error.hh"

namespace lazygpu
{

DomainScheduler::DomainScheduler(Options opts, unsigned num_sa,
                                 unsigned num_banks)
    : opts_(opts), num_sa_(num_sa), num_banks_(num_banks)
{
    panic_if(opts_.lookahead == 0, "domain lookahead must be >= 1");
    panic_if(num_sa_ == 0 || num_banks_ == 0,
             "domain scheduler needs at least one SA and one bank domain");
    sa_.reserve(num_sa_);
    for (unsigned s = 0; s < num_sa_; ++s)
        sa_.push_back(std::make_unique<SaDomain>());
    banks_.reserve(num_banks_);
    for (unsigned b = 0; b < num_banks_; ++b)
        banks_.push_back(std::make_unique<BankDomain>());
    if (opts_.profile)
        profile_.domainSec.assign(num_sa_ + num_banks_, 0.0);

    // The coordinator executes domains too, so N requested threads mean
    // N-1 pool workers. More threads than domains in the wider phase
    // could never all be busy.
    const unsigned requested = opts_.threads == 0 ? 1 : opts_.threads;
    const unsigned nthreads =
        std::min(requested, std::max(num_sa_, num_banks_));
    // Workers arm a RecoverableScope iff the coordinator had one when
    // the scheduler was built (i.e. we are inside a sweep worker), so a
    // panic on a domain thread throws a SimError that the barrier
    // rethrows instead of aborting the whole sweep. Note a worker-thrown
    // SimError carries an invalid snapshot: the thread-local snapshot
    // source lives on the coordinator (DESIGN.md §13).
    const bool arm = recoverableErrorsArmed();
    for (unsigned i = 0; i + 1 < nthreads; ++i)
        workers_.emplace_back([this, arm] { workerLoop(arm); });
}

DomainScheduler::~DomainScheduler()
{
    {
        std::lock_guard lk(pool_mutex_);
        pool_exit_ = true;
    }
    pool_work_.notify_all();
    for (std::thread &t : workers_)
        t.join();
}

unsigned
DomainScheduler::addRouter(RouteFn fn)
{
    routers_.push_back(std::move(fn));
    return static_cast<unsigned>(routers_.size() - 1);
}

MemDevice &
DomainScheduler::port(unsigned sa, unsigned router)
{
    auto &ports = sa_[sa]->ports;
    while (ports.size() <= router)
        ports.push_back(nullptr);
    if (!ports[router])
        ports[router] = std::make_unique<BoundaryPort>(*this, sa, router);
    return *ports[router];
}

void
DomainScheduler::enqueueRequest(unsigned sa, unsigned router,
                                const MemAccess &acc, Completion &&done)
{
    SaDomain &d = *sa_[sa];
    d.outbox.push_back(Request{d.engine.now(), d.next_seq++, router, acc,
                               std::move(done)});
}

void
DomainScheduler::injectBank(unsigned bank, Tick start, MemDevice *target,
                            const MemAccess &acc, unsigned sa,
                            Completion &&done)
{
    BankDomain &d = *banks_[bank];
    Completion wrapped;
    if (done) {
        unsigned slot;
        if (d.free_slots.empty()) {
            slot = static_cast<unsigned>(d.slots.size());
            d.slots.push_back(InFlight{sa, done});
        } else {
            slot = d.free_slots.back();
            d.free_slots.pop_back();
            d.slots[slot] = InFlight{sa, done};
        }
        wrapped = [this, bank, slot]() { respond(bank, slot); };
    }
    // A bank may be locally ahead of the request tick: when an SA went
    // idle mid-window and the barrier refill re-activated it behind the
    // other domains, its next window starts before banks that already
    // ran further. Clamping to the bank's own clock keeps the event out
    // of the domain's past; it happens at the barrier, on coordinator
    // state only, so it is as deterministic as the merge order itself.
    const Tick when = std::max(start, d.engine.now());
    // Captures: target (8) + acc (16) + wrapped (64) = 88 bytes, inside
    // the engine's inline event record.
    d.engine.schedule(when, [target, acc, wrapped]() {
        target->access(acc, wrapped);
    });
}

void
DomainScheduler::respond(unsigned bank, unsigned slot)
{
    BankDomain &d = *banks_[bank];
    const InFlight &f = d.slots[slot];
    // Delivery tick: the crossing back to the SA pays the same fixed
    // hop latency that defines the lookahead, which is exactly what
    // guarantees the delivery lands in the *next* window (>= any SA
    // domain's current time).
    d.responses.push_back(Response{d.engine.now() + opts_.lookahead,
                                   d.next_seq++, f.sa, f.done});
    d.free_slots.push_back(slot);
}

void
DomainScheduler::routeRequests()
{
    merge_requests_.clear();
    for (unsigned s = 0; s < num_sa_; ++s) {
        for (Request &r : sa_[s]->outbox)
            merge_requests_.emplace_back(s, std::move(r));
        sa_[s]->outbox.clear();
    }
    // Fixed merge order: (when, SA index, per-SA enqueue order). The
    // key is unique, independent of the thread count, and preserves
    // each SA's own FIFO — so shared-port arbitration (inside the
    // router) sees a deterministic request sequence.
    std::sort(merge_requests_.begin(), merge_requests_.end(),
              [](const auto &a, const auto &b) {
                  return std::tie(a.second.when, a.first, a.second.seq) <
                         std::tie(b.second.when, b.first, b.second.seq);
              });
    for (auto &[s, r] : merge_requests_)
        routers_[r.router](s, r.when, r.acc, std::move(r.done));
    merge_requests_.clear();
}

void
DomainScheduler::deliverResponses()
{
    merge_responses_.clear();
    for (unsigned b = 0; b < num_banks_; ++b) {
        for (Response &r : banks_[b]->responses)
            merge_responses_.emplace_back(b, std::move(r));
        banks_[b]->responses.clear();
    }
    // Fixed merge order per receiving SA: (when, bank domain, per-bank
    // enqueue order) — the scheduling order assigns the SA engine's
    // FIFO-within-tick sequence numbers deterministically.
    std::sort(merge_responses_.begin(), merge_responses_.end(),
              [](const auto &a, const auto &b) {
                  return std::tie(a.second.sa, a.second.when, a.first,
                                  a.second.seq) <
                         std::tie(b.second.sa, b.second.when, b.first,
                                  b.second.seq);
              });
    for (auto &[b, r] : merge_responses_) {
        // The +lookahead crossing latency puts r.when at or past every
        // SA's window end, but clamp anyway (see injectBank) so the
        // maxTick-saturated window edge can never schedule in the past.
        Engine &se = sa_[r.sa]->engine;
        se.schedule(std::max(r.when, se.now()), r.done);
    }
    merge_responses_.clear();
}

namespace
{

using ProfClock = std::chrono::steady_clock;

double
secondsSince(ProfClock::time_point t0)
{
    return std::chrono::duration<double>(ProfClock::now() - t0).count();
}

} // namespace

void
DomainScheduler::runDomain(unsigned item)
{
    try {
        Engine &e =
            phase_is_sa_ ? sa_[item]->engine : banks_[item]->engine;
        if (opts_.profile) {
            const auto t0 = ProfClock::now();
            e.runWindow(phase_end_, phase_limit_);
            const double sec = secondsSince(t0);
            const unsigned slot = phase_is_sa_ ? item : num_sa_ + item;
            std::lock_guard lk(profile_mutex_);
            profile_.domainSec[slot] += sec;
        } else {
            e.runWindow(phase_end_, phase_limit_);
        }
    } catch (...) {
        phase_errors_[item] = std::current_exception();
    }
}

int
DomainScheduler::claimDomain(std::uint64_t gen)
{
    // The generation check under the phase-publishing mutex is what
    // keeps a straggler worker (still draining a previous phase's empty
    // claim loop) from picking up an item of a phase whose parameters
    // it has not yet observed.
    std::lock_guard lk(pool_mutex_);
    if (pool_gen_ != gen || phase_claimed_ >= phase_total_)
        return -1;
    return static_cast<int>(phase_claimed_++);
}

void
DomainScheduler::drainClaims(std::uint64_t gen)
{
    while (true) {
        const int i = claimDomain(gen);
        if (i < 0)
            return;
        runDomain(static_cast<unsigned>(i));
        std::lock_guard lk(pool_mutex_);
        if (++phase_done_ == phase_total_)
            pool_done_.notify_all();
    }
}

void
DomainScheduler::workerLoop(bool arm_recoverable)
{
    std::optional<RecoverableScope> scope;
    if (arm_recoverable)
        scope.emplace();
    std::uint64_t last_gen = 0;
    while (true) {
        {
            std::unique_lock lk(pool_mutex_);
            pool_work_.wait(lk, [&] {
                return pool_exit_ || pool_gen_ != last_gen;
            });
            if (pool_exit_)
                return;
            last_gen = pool_gen_;
        }
        drainClaims(last_gen);
    }
}

void
DomainScheduler::runPhase(bool sa_phase, Tick end, Tick limit)
{
    const auto phase_t0 = ProfClock::now();
    const unsigned total = sa_phase ? num_sa_ : num_banks_;
    if (workers_.empty()) {
        phase_is_sa_ = sa_phase;
        phase_end_ = end;
        phase_limit_ = limit;
        phase_total_ = total;
        phase_errors_.assign(total, nullptr);
        for (unsigned i = 0; i < total; ++i)
            runDomain(i);
    } else {
        std::uint64_t gen;
        {
            std::lock_guard lk(pool_mutex_);
            phase_is_sa_ = sa_phase;
            phase_end_ = end;
            phase_limit_ = limit;
            phase_total_ = total;
            phase_claimed_ = 0;
            phase_done_ = 0;
            phase_errors_.assign(total, nullptr);
            gen = ++pool_gen_;
        }
        pool_work_.notify_all();
        drainClaims(gen);
        const auto wait_t0 = ProfClock::now();
        {
            std::unique_lock lk(pool_mutex_);
            pool_done_.wait(lk, [&] { return phase_done_ == total; });
        }
        if (opts_.profile)
            profile_.barrierWaitSec += secondsSince(wait_t0);
    }
    if (opts_.profile) {
        (sa_phase ? profile_.saPhaseSec : profile_.bankPhaseSec) +=
            secondsSince(phase_t0);
    }
    // Rethrow the first failure in fixed domain order so error
    // reporting is as deterministic as the simulation itself.
    for (unsigned i = 0; i < total; ++i)
        if (phase_errors_[i])
            std::rethrow_exception(phase_errors_[i]);
}

void
DomainScheduler::pollControl()
{
    const Tick t = now();
    const std::uint64_t events = eventsExecuted();
    ctl_->heartbeat.store(t + events, std::memory_order_relaxed);
    trace_[trace_count_++ % Engine::recentTraceSize] = {t, events};
    const std::uint32_t cancel =
        ctl_->cancel.load(std::memory_order_relaxed);
    if (cancel) {
        throwSimError(
            SimError::Kind::Timeout, __FILE__, __LINE__,
            detail::formatString(
                "watchdog cancelled the run at cycle %llu (%s)",
                static_cast<unsigned long long>(t),
                cancel == ExecControl::cancelStalled
                    ? "no forward progress"
                    : "wall-clock timeout exceeded"));
    }
}

Tick
DomainScheduler::run(Tick limit)
{
    while (true) {
        // Next window start: the earliest tick at which any domain has
        // work — an active clocked component ticks at its domain's
        // current time; otherwise the earliest pending event. This is a
        // global fast-forward: when every domain is stalled on
        // long-latency events, whole windows are skipped at once.
        Tick start = maxTick;
        bool any_active = false;
        auto consider = [&](const Engine &e) {
            if (e.activeClocked()) {
                any_active = true;
                if (e.now() < start)
                    start = e.now();
            }
            const Tick next = e.nextPendingTick();
            if (next < start)
                start = next;
        };
        for (const auto &d : sa_)
            consider(d->engine);
        for (const auto &d : banks_)
            consider(d->engine);

        if (!any_active && start == maxTick)
            return now(); // fully idle, all channels drained

        if (!any_active && start > limit) {
            warn("cycle limit %llu reached while idle until the next "
                 "event at %llu; returning early",
                 static_cast<unsigned long long>(limit),
                 static_cast<unsigned long long>(start));
            return now();
        }

        const Tick end = start > maxTick - opts_.lookahead
                             ? maxTick
                             : start + opts_.lookahead;
        runPhase(true, end, limit);
        if (opts_.profile) {
            const auto t0 = ProfClock::now();
            routeRequests();
            const auto t1 = ProfClock::now();
            runPhase(false, end, limit);
            const auto t2 = ProfClock::now();
            deliverResponses();
            if (barrier_hook_)
                barrier_hook_();
            if (ctl_)
                pollControl();
            profile_.coordSerialSec +=
                std::chrono::duration<double>(t1 - t0).count() +
                secondsSince(t2);
            ++profile_.windows;
        } else {
            routeRequests();
            runPhase(false, end, limit);
            deliverResponses();
            if (barrier_hook_)
                barrier_hook_();
            if (ctl_)
                pollControl();
        }
    }
}

void
DomainScheduler::reset()
{
    for (auto &d : sa_) {
        d->engine.reset();
        d->outbox.clear();
        d->next_seq = 0;
        d->ports.clear();
    }
    for (auto &d : banks_) {
        d->engine.reset();
        d->responses.clear();
        d->next_seq = 0;
        d->slots.clear();
        d->free_slots.clear();
    }
    routers_.clear();
    barrier_hook_ = nullptr;
    trace_count_ = 0;
}

Tick
DomainScheduler::now() const
{
    Tick t = 0;
    for (const auto &d : sa_)
        t = std::max(t, d->engine.now());
    for (const auto &d : banks_)
        t = std::max(t, d->engine.now());
    return t;
}

std::uint64_t
DomainScheduler::eventsExecuted() const
{
    std::uint64_t n = 0;
    for (const auto &d : sa_)
        n += d->engine.eventsExecuted();
    for (const auto &d : banks_)
        n += d->engine.eventsExecuted();
    return n;
}

std::uint64_t
DomainScheduler::poolChunks() const
{
    std::uint64_t n = 0;
    for (const auto &d : sa_)
        n += d->engine.poolChunks();
    for (const auto &d : banks_)
        n += d->engine.poolChunks();
    return n;
}

std::uint64_t
DomainScheduler::oversizedEvents() const
{
    std::uint64_t n = 0;
    for (const auto &d : sa_)
        n += d->engine.oversizedEvents();
    for (const auto &d : banks_)
        n += d->engine.oversizedEvents();
    return n;
}

std::size_t
DomainScheduler::numPendingEvents() const
{
    std::size_t n = 0;
    for (const auto &d : sa_)
        n += d->engine.numPendingEvents();
    for (const auto &d : banks_)
        n += d->engine.numPendingEvents();
    return n;
}

unsigned
DomainScheduler::activeClocked() const
{
    unsigned n = 0;
    for (const auto &d : sa_)
        n += d->engine.activeClocked();
    for (const auto &d : banks_)
        n += d->engine.activeClocked();
    return n;
}

std::vector<std::pair<Tick, std::uint64_t>>
DomainScheduler::recentActivity() const
{
    std::vector<std::pair<Tick, std::uint64_t>> out;
    const std::uint64_t n = trace_count_ < Engine::recentTraceSize
                                ? trace_count_
                                : Engine::recentTraceSize;
    out.reserve(n);
    for (std::uint64_t i = trace_count_ - n; i < trace_count_; ++i)
        out.push_back(trace_[i % Engine::recentTraceSize]);
    return out;
}

} // namespace lazygpu
