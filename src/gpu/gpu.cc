#include "gpu/gpu.hh"

#include <algorithm>
#include <cmath>
#include <mutex>

#include "sim/logging.hh"

namespace lazygpu
{

namespace
{

/** RAII around GlobalMemory's concurrent page-table mode. */
struct ConcurrentScope
{
    ConcurrentScope(GlobalMemory &mem, bool on) : mem_(mem), on_(on)
    {
        if (on_)
            mem_.setConcurrent(true);
    }
    ~ConcurrentScope()
    {
        if (on_)
            mem_.setConcurrent(false);
    }
    GlobalMemory &mem_;
    const bool on_;
};

} // namespace

std::unique_ptr<DomainScheduler>
Gpu::makeScheduler()
{
    if (cfg_.saThreads == 0)
        return nullptr;
    if (trace_) {
        // Perfetto tracks record through a single shared sink; sharded
        // domains would interleave it from many threads.
        warn("traces are not supported with sa-threads; falling back to "
             "the single-domain engine");
        cfg_.saThreads = 0;
        return nullptr;
    }
    DomainScheduler::Options o;
    o.lookahead = std::max<Tick>(1, cfg_.l2HopLatency);
    o.threads = cfg_.saThreads;
    o.profile = cfg_.profileScheduler;
    return std::make_unique<DomainScheduler>(o, cfg_.numShaderArrays,
                                             cfg_.l2Banks);
}

Gpu::Gpu(const GpuConfig &cfg, GlobalMemory &mem)
    : cfg_(cfg), mem_(mem), lifecycle_(stats_, cfg.mode),
      trace_(cfg.enableTraces
                 ? std::make_unique<TraceSink>(cfg.tracePath)
                 : nullptr),
      sched_(makeScheduler()),
      hier_(engine_, stats_, cfg_, mem_, sched_.get())
{
    // The interval sampler needs the classic engine (like traces: one
    // shared sink, and domain engines advance independently); the per-CU
    // accounts themselves work in every mode.
    if (cfg_.cycleAccounting && !sched_ && cfg_.cycacctSampleTicks > 0) {
        cyc_sampler_ = std::make_unique<cycacct::IntervalSampler>(
            stats_, trace_.get());
        engine_.attachSampler(cyc_sampler_.get(),
                              cfg_.cycacctSampleTicks);
    }

    if (trace_) {
        std::vector<std::string> cache_tracks;
        hier_.attachTrace(trace_.get(), cache_tracks);
        engine_.attachTrace(trace_.get());

        std::string meta = "{\"mode\":\"" + toString(cfg_.mode) +
                           "\",\"numShaderArrays\":" +
                           std::to_string(cfg_.numShaderArrays) +
                           ",\"cusPerSa\":" +
                           std::to_string(cfg_.cusPerSa) +
                           ",\"cacheTracks\":[";
        for (std::size_t i = 0; i < cache_tracks.size(); ++i) {
            if (i)
                meta += ',';
            meta += '"' + cache_tracks[i] + '"';
        }
        meta += "],\"seriesTracks\":[";
        if (cyc_sampler_) {
            const auto &names = cyc_sampler_->seriesNames();
            for (std::size_t i = 0; i < names.size(); ++i) {
                if (i)
                    meta += ',';
                meta += '"' + names[i] + '"';
            }
        }
        meta += "]}";
        trace_->setMeta(std::move(meta));
    }

    if (sched_) {
        // Register the merge target up front so sharded dumps have the
        // same stat-name set as classic ones even before any run.
        stats_.dist("mem.latency");
        for (unsigned sa = 0; sa < cfg_.numShaderArrays; ++sa)
            shards_.push_back(std::make_unique<SaShard>(cfg_.mode));
    }

    for (unsigned sa = 0; sa < cfg_.numShaderArrays; ++sa) {
        Engine &sa_engine = sched_ ? sched_->saEngine(sa) : engine_;
        LifecycleTracker &lc =
            sched_ ? shards_[sa]->lifecycle : lifecycle_;
        Distribution &lat =
            sched_ ? shards_[sa]->memLatency : stats_.dist("mem.latency");
        for (unsigned c = 0; c < cfg_.cusPerSa; ++c) {
            unsigned cu_id = sa * cfg_.cusPerSa + c;
            cus_.push_back(std::make_unique<ComputeUnit>(
                sa_engine, stats_, lc, lat, cfg_, mem_, hier_, window_,
                cu_id, sa, trace_.get()));
            sa_engine.addClocked(cus_.back().get());
            ComputeUnit *cu = cus_.back().get();
            if (cfg_.cycleAccounting)
                cu->enableCycleAccounting(cyc_sampler_.get());
            if (sched_) {
                // Retire runs on the SA's domain thread; dispatching a
                // replacement wave reads shared dispatch state, so defer
                // it to the window barrier (drained in SA order there).
                SaShard *shard = shards_[sa].get();
                cu->setRetireCallback(
                    [shard, cu]() { shard->pendingRefill.push_back(cu); });
            } else {
                cu->setRetireCallback([this, cu]() { refill(*cu); });
            }
        }
    }

    if (sched_) {
        sched_->setBarrierHook([this]() {
            for (auto &shard : shards_) {
                for (ComputeUnit *cu : shard->pendingRefill)
                    refill(*cu);
                shard->pendingRefill.clear();
            }
        });
    }

    if (!cfg_.injectPlan.empty()) {
        inject::InjectionPlan plan;
        std::string err;
        fatal_if(!inject::InjectionPlan::parse(cfg_.injectPlan, plan,
                                               err),
                 "bad injection plan '%s': %s", cfg_.injectPlan.c_str(),
                 err.c_str());
        fatal_if(plan.cu >= cfg_.numCus(),
                 "injection plan targets cu %u but the machine has %u "
                 "CUs",
                 plan.cu, cfg_.numCus());
        inject_ = std::make_unique<inject::Injector>(plan, stats_);
        // Only the targeted CU sees the injector; every other CU keeps
        // the null pointer and pays one predicted branch per site.
        cus_[plan.cu]->setInjector(inject_.get());
    }
}

void
Gpu::attachControl(ExecControl *ctl)
{
    engine_.attachControl(ctl);
    if (sched_)
        sched_->attachControl(ctl);
}

void
Gpu::setRetireObserver(LazyUnit::RetireObserver obs)
{
    if (sched_ && obs) {
        // Retires run concurrently on domain threads but the observer
        // (verification state) is shared: serialise invocations. The
        // observed facts are per-wave, so the state they build is
        // independent of the arrival order.
        auto mutex = std::make_shared<std::mutex>();
        obs = [mutex, inner = std::move(obs)](const Wavefront &w) {
            std::lock_guard lk(*mutex);
            inner(w);
        };
    }
    retire_obs_ = obs;
    for (auto &cu : cus_)
        cu->setRetireObserver(obs);
    if (rabbit_)
        rabbit_->setRetireObserver(obs);
}

void
Gpu::refill(ComputeUnit &cu)
{
    while (current_ && cu.hasFreeSlot() && next_wid_ < dispatch_limit_) {
        cu.addWavefront(
            std::make_unique<Wavefront>(*current_, next_wid_++));
    }
    announceDispatchExhausted();
}

void
Gpu::announceDispatchExhausted()
{
    if (dispatch_announced_ || next_wid_ < dispatch_limit_)
        return;
    dispatch_announced_ = true;
    if (!cfg_.cycleAccounting)
        return;
    // Classic mode: called from a retire callback on the one engine
    // thread. Sharded mode: refills only run at the window barrier,
    // where the domain threads are parked, so touching every CU's
    // account (on its own domain engine's clock) is race-free.
    for (auto &cu : cus_)
        cu->setDispatchExhausted(true);
}

bool
Gpu::isTimingCounter(const std::string &name)
{
    // Cache/DRAM traffic and SIMD occupancy depend on which waves ran
    // timed; everything else (transaction issue/elimination, store
    // masks, instruction counts) is counted exactly by the rabbit path.
    if (name.compare(0, 4, "mem.") == 0)
        return true;
    // Cycle buckets partition elapsed time, which is itself timing.
    if (name.find(".cyc.") != std::string::npos)
        return true;
    static const std::string simd_suffix = ".simd_busy_cycles";
    return name.size() >= simd_suffix.size() &&
           name.compare(name.size() - simd_suffix.size(),
                        simd_suffix.size(), simd_suffix) == 0;
}

KernelResult
Gpu::run(const Kernel &kernel, Tick limit_cycles)
{
    fatal_if(kernel.code.empty(), "kernel '%s' has no instructions",
             kernel.name.c_str());

    const unsigned total = kernel.numWavefronts;
    const unsigned timed = std::min(cfg_.timingWaves, total);
    const bool sampled = timed < total;

    current_ = &kernel;
    next_wid_ = 0;
    dispatch_limit_ = timed;
    // Before any wave runs: the window stays read-only while the domain
    // threads read it.
    window_.build(kernel);

    KernelResult res;
    res.startTick = sched_ ? sched_->now() : engine_.now();
    res.endTick = res.startTick;
    const SnapshotSourceScope snapshot_scope(this);

    // Snapshot the timing-dependent counters so the timed window's
    // delta can be extrapolated over the rabbit-executed waves.
    std::map<std::string, std::uint64_t> before;
    if (sampled && timed > 0) {
        for (const auto &[name, counter] : stats_.counters()) {
            if (isTimingCounter(name))
                before.emplace(name, counter.value());
        }
    }

    if (timed > 0) {
        const unsigned per_cu = cfg_.wavesPerCuForKernel(kernel.numVregs);
        for (auto &cu : cus_)
            cu->setMaxWaves(per_cu);

        // This launch has waves to hand out: an empty CU is now
        // starved (FetchEmpty), not drained.
        dispatch_announced_ = false;
        if (cfg_.cycleAccounting) {
            for (auto &cu : cus_)
                cu->setDispatchExhausted(false);
        }

        // Breadth-first initial dispatch for balance across CUs.
        bool placed = true;
        while (placed && next_wid_ < dispatch_limit_) {
            placed = false;
            for (auto &cu : cus_) {
                if (next_wid_ >= dispatch_limit_)
                    break;
                if (cu->hasFreeSlot()) {
                    cu->addWavefront(
                        std::make_unique<Wavefront>(kernel, next_wid_++));
                    placed = true;
                }
            }
        }
        announceDispatchExhausted();

        if (sched_) {
            // Domain threads hit the functional memory concurrently;
            // switch the page table to its locked + thread-cached mode
            // for the duration of the timed phase.
            const ConcurrentScope concurrent(mem_, true);
            res.endTick = sched_->run(res.startTick + limit_cycles);
        } else {
            res.endTick = engine_.run(res.startTick + limit_cycles);
        }

        fatal_if(sched_ ? sched_->anyPendingEvents()
                        : engine_.hasPendingEvents(),
                 "kernel '%s' reached the %llu-cycle limit before "
                 "completion",
                 kernel.name.c_str(),
                 static_cast<unsigned long long>(limit_cycles));

        for (const auto &cu : cus_) {
            panic_if(cu->residentWaves() != 0,
                     "kernel '%s' drained with resident wavefronts",
                     kernel.name.c_str());
        }

        if (cfg_.cycleAccounting) {
            // Close every open stall interval at each CU's own engine
            // time (domain engines stop at different ticks under
            // --sa-threads) — this is where the sum-of-buckets ==
            // elapsed-cycles invariant fires, in every build. Runs
            // before the rabbit extrapolation below so the invariant
            // sees raw timed-window buckets.
            for (auto &cu : cus_)
                cu->finalizeCycleAccounting();
            if (cyc_sampler_)
                cyc_sampler_->sample(res.endTick);
        }
    }
    res.cycles = res.endTick - res.startTick;
    res.estCycles = res.cycles;
    current_ = nullptr;

    if (sampled) {
        if (!rabbit_) {
            rabbit_ = std::make_unique<RabbitExecutor>(
                cfg_, mem_, stats_, window_, &engine_);
            if (retire_obs_)
                rabbit_->setRetireObserver(retire_obs_);
        }
        for (unsigned wid = timed; wid < total; ++wid)
            rabbit_->run(kernel, wid);

        if (timed > 0) {
            const double scale =
                static_cast<double>(total) / static_cast<double>(timed);
            for (const auto &[name, counter] : stats_.counters()) {
                if (!isTimingCounter(name))
                    continue;
                const auto it = before.find(name);
                const std::uint64_t was =
                    it == before.end() ? 0 : it->second;
                const std::uint64_t delta = counter.value() - was;
                if (delta)
                    est_extra_[name] += delta * (scale - 1.0);
            }
            res.estCycles = static_cast<Tick>(
                std::llround(res.cycles * scale));
        }
    }

    // Mirror the engine's own counters into the registry so the
    // `engine` component shows up in dumps/reports like everything
    // else (reset + add: run() may be called repeatedly and the
    // getters are cumulative).
    auto sync = [this](const char *name, std::uint64_t v) {
        Counter &c = stats_.counter(name);
        c.reset();
        c += v;
    };
    if (sched_) {
        // Aggregate across every domain wheel (plus engine_, which the
        // rabbit phase may still use for heartbeats — zero events).
        sync("engine.events_executed",
             sched_->eventsExecuted() + engine_.eventsExecuted());
        sync("engine.pool_chunks",
             sched_->poolChunks() + engine_.poolChunks());
        sync("engine.oversized_events",
             sched_->oversizedEvents() + engine_.oversizedEvents());
        mergeShardStats();
    } else {
        sync("engine.events_executed", engine_.eventsExecuted());
        sync("engine.pool_chunks", engine_.poolChunks());
        sync("engine.oversized_events", engine_.oversizedEvents());
    }

    if (trace_)
        trace_->flush();
    return res;
}

void
Gpu::mergeShardStats()
{
    // Rebuild the main-registry view from the shards: reset + merge in
    // SA order keeps cumulative totals correct across repeated runs and
    // the floating-point latency sum independent of the thread count.
    Distribution &lat = stats_.dist("mem.latency");
    lat.reset();
    lifecycle_.reset();
    for (auto &shard : shards_) {
        lat.merge(shard->memLatency);
        lifecycle_.merge(shard->lifecycle);
    }
}

namespace
{

/** Bump on any incompatible change to the checkpoint layout. */
constexpr std::uint32_t checkpointVersion = 1;

} // namespace

void
Gpu::saveCheckpoint(std::vector<std::uint8_t> &out) const
{
    fatal_if(sched_ != nullptr,
             "checkpoint/restore supports only the classic engine "
             "(--sa-threads 0)");
    fatal_if(trace_ != nullptr,
             "checkpoint/restore does not support tracing");
    fatal_if(rabbit_ != nullptr || !est_extra_.empty(),
             "checkpoint/restore does not support --timing-waves "
             "sampling");
    panic_if(!engine_.idle(),
             "checkpointing mid-kernel: the engine has pending events");
    for (const auto &cu : cus_) {
        panic_if(cu->residentWaves() != 0,
                 "checkpointing with resident wavefronts");
    }

    ByteWriter w;
    w.tag("LZGC");
    w.u32(checkpointVersion);
    const Engine::CheckpointState es = engine_.checkpointState();
    w.u64(es.now);
    w.u64(es.nextSeq);
    w.u64(es.eventsExecuted);
    w.u64(es.oversizedEvents);
    w.u64(es.poolChunks);
    mem_.checkpointTo(w);
    hier_.checkpointTo(w);
    stats_.checkpointTo(w);
    out = w.take();
}

void
Gpu::restoreCheckpoint(const std::vector<std::uint8_t> &bytes)
{
    fatal_if(sched_ != nullptr,
             "checkpoint/restore supports only the classic engine "
             "(--sa-threads 0)");
    fatal_if(trace_ != nullptr,
             "checkpoint/restore does not support tracing");
    fatal_if(rabbit_ != nullptr || !est_extra_.empty(),
             "checkpoint/restore does not support --timing-waves "
             "sampling");

    ByteReader r(bytes);
    fatal_if(!r.tag("LZGC"), "not a LazyGPU checkpoint");
    const std::uint32_t version = r.u32();
    fatal_if(version != checkpointVersion,
             "checkpoint version %u does not match this build (%u)",
             version, checkpointVersion);
    Engine::CheckpointState es;
    es.now = r.u64();
    es.nextSeq = r.u64();
    es.eventsExecuted = r.u64();
    es.oversizedEvents = r.u64();
    es.poolChunks = r.u64();
    engine_.restoreCheckpoint(es);
    mem_.restoreFrom(r);
    hier_.restoreFrom(r);
    stats_.restoreFrom(r);
    // Bucket counters were just restored with the pre-checkpoint cycles
    // already charged; re-base each account's cursor to the restored
    // clock so those cycles are not charged twice.
    for (auto &cu : cus_)
        cu->syncCycleAccounting();
    fatal_if(!r.ok() || !r.atEnd(),
             "truncated or corrupt checkpoint image (%zu of %zu bytes "
             "consumed)",
             r.pos(), bytes.size());
}

EngineSnapshot
Gpu::captureSnapshot() const
{
    EngineSnapshot snap;
    snap.valid = true;
    if (sched_) {
        snap.cycle = sched_->now();
        snap.eventsExecuted = sched_->eventsExecuted();
        snap.pendingEvents = sched_->numPendingEvents();
        snap.activeClocked = sched_->activeClocked();
        snap.recentActivity = sched_->recentActivity();
    } else {
        snap.cycle = engine_.now();
        snap.eventsExecuted = engine_.eventsExecuted();
        snap.pendingEvents = engine_.numPendingEvents();
        snap.activeClocked = engine_.activeClocked();
        snap.recentActivity = engine_.recentActivity();
    }
    for (const auto &cu : cus_)
        cu->describeInto(snap.components);
    return snap;
}

std::uint64_t
Gpu::estSumCounters(const std::string &prefix,
                    const std::string &suffix) const
{
    const std::uint64_t exact = stats_.sumCounters(prefix, suffix);
    if (est_extra_.empty())
        return exact; // no sampling happened: byte-identical totals
    double extra = 0.0;
    for (const auto &[name, v] : est_extra_) {
        if (name.size() < prefix.size() + suffix.size())
            continue;
        if (name.compare(0, prefix.size(), prefix) != 0)
            continue;
        if (!suffix.empty() &&
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) != 0) {
            continue;
        }
        extra += v;
    }
    return exact + static_cast<std::uint64_t>(std::llround(extra));
}

std::uint64_t
Gpu::l1Requests() const
{
    return estSumCounters("mem.l1.", ".hits") +
           estSumCounters("mem.l1.", ".misses") +
           estSumCounters("mem.l1.", ".write_throughs");
}

std::uint64_t
Gpu::l2Requests() const
{
    return estSumCounters("mem.l2.", ".hits") +
           estSumCounters("mem.l2.", ".misses") +
           estSumCounters("mem.l2.", ".write_throughs");
}

std::uint64_t
Gpu::dramRequests() const
{
    return estSumCounters("mem.dram.", ".reads") +
           estSumCounters("mem.dram.", ".writes");
}

} // namespace lazygpu
