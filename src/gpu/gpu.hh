/**
 * @file
 * Gpu: the top-level simulated device.
 *
 * Owns the engine, the statistics, the memory hierarchy, and the compute
 * units, and provides the host-side API: build a GlobalMemory, write your
 * buffers, construct a Gpu with a GpuConfig, and run() kernels on it.
 * Kernels run back to back on warm caches, like a real device.
 */

#ifndef LAZYGPU_GPU_GPU_HH
#define LAZYGPU_GPU_GPU_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gpu/compute_unit.hh"
#include "gpu/rabbit.hh"
#include "inject/fault.hh"
#include "isa/kernel.hh"
#include "mem/hierarchy.hh"
#include "mem/memory.hh"
#include "obs/lifecycle.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"
#include "sim/config.hh"
#include "sim/domains.hh"
#include "sim/engine.hh"
#include "sim/sim_error.hh"

namespace lazygpu
{

/** Timing outcome of one kernel launch. */
struct KernelResult
{
    Tick cycles = 0;    //!< timed-window launch-to-drain duration
    Tick startTick = 0; //!< simulated time at launch
    Tick endTick = 0;
    /**
     * Whole-kernel duration estimate. Equal to cycles when every wave
     * ran timed; under --timing-waves sampling it is cycles scaled by
     * totalWaves / timedWaves (zero timed waves estimate zero cycles:
     * there is no timing signal to extrapolate from).
     */
    Tick estCycles = 0;
};

class Gpu : public SnapshotSource
{
  public:
    Gpu(const GpuConfig &cfg, GlobalMemory &mem);

    /**
     * Execute a kernel to completion (blocking).
     *
     * While the kernel runs, this Gpu is the calling thread's
     * SnapshotSource: a recoverable panic/fatal raised anywhere below
     * carries a snapshot of this device in its SimError.
     *
     * @param limit_cycles panic guard against livelocked kernels.
     */
    KernelResult run(const Kernel &kernel,
                     Tick limit_cycles = 4'000'000'000ull);

    /** Engine counters plus per-CU wavefront states (crash forensics). */
    EngineSnapshot captureSnapshot() const override;

    /** Install a verification retire observer on every compute unit. */
    void setRetireObserver(LazyUnit::RetireObserver obs);

    /**
     * Attach the sweep watchdog. Classic mode attaches it to the single
     * engine; sharded mode (cfg.saThreads >= 1) attaches it to the
     * domain scheduler, whose window barrier aggregates heartbeats
     * across every domain thread, and also to the engine so the rabbit
     * phase keeps beating.
     */
    void attachControl(ExecControl *ctl);

    StatsRegistry &stats() { return stats_; }
    Engine &engine() { return engine_; }

    /** The sharded-mode domain scheduler; nullptr in classic mode. */
    DomainScheduler *domains() { return sched_.get(); }
    MemoryHierarchy &hierarchy() { return hier_; }
    GlobalMemory &memory() { return mem_; }
    const GpuConfig &config() const { return cfg_; }

    /** The trace sink, or nullptr when cfg.enableTraces is off. */
    TraceSink *trace() { return trace_.get(); }

    /**
     * The cycle-accounting interval sampler, or nullptr (needs
     * cfg.cycleAccounting, the classic engine, and a nonzero
     * cfg.cycacctSampleTicks).
     */
    const cycacct::IntervalSampler *cycSampler() const
    {
        return cyc_sampler_.get();
    }

    /** The armed fault injector, or nullptr (cfg.injectPlan empty). */
    const inject::Injector *injector() const { return inject_.get(); }

    /**
     * Serialize the full resumable device state (engine counters,
     * global memory, cache/DRAM/router timing state, statistics) into
     * `out`. Checkpoints are only legal at kernel-launch boundaries
     * (the engine idle, no resident wavefronts: in-flight events are
     * type-erased closures and cannot travel) and only on the classic
     * engine without traces or --timing-waves sampling; violating
     * either is a fatal error, never a silently partial checkpoint.
     * Format: DESIGN.md §15.
     */
    void saveCheckpoint(std::vector<std::uint8_t> &out) const;

    /**
     * Restore a checkpoint produced by saveCheckpoint into this
     * freshly constructed Gpu (same GpuConfig, no runs yet). After
     * restore, run() continues byte-identically to the run that took
     * the checkpoint. Fatal on a version/geometry mismatch or a
     * truncated image.
     */
    void restoreCheckpoint(const std::vector<std::uint8_t> &bytes);

    /** The per-mode lazy-load lifecycle histograms. */
    const LifecycleTracker &lifecycle() const { return lifecycle_; }

    /**
     * Total data-path memory requests seen at each level (Fig 15).
     * Under --timing-waves sampling these include the extrapolated
     * contribution of the rabbit-executed waves.
     */
    std::uint64_t l1Requests() const;
    std::uint64_t l2Requests() const;
    std::uint64_t dramRequests() const;

    /**
     * sumCounters(prefix, suffix) plus the extrapolated contribution
     * accumulated for matching counters under --timing-waves sampling.
     * Identical to stats().sumCounters when no sampling has happened.
     */
    std::uint64_t estSumCounters(const std::string &prefix,
                                 const std::string &suffix = "") const;

  private:
    /**
     * Sharded-mode per-SA statistics shard. Compute units of shader
     * array s sample their shared mutable stats (the mem.latency
     * distribution and the lifecycle histograms) into shard s, touched
     * only by SA domain s's thread; mergeShardStats() folds the shards
     * into the main registry in a fixed SA order at the end of every
     * run, so results are identical for any thread count. (Counters
     * need no sharding: every Counter object is written by exactly one
     * component on one domain thread.)
     */
    struct SaShard
    {
        StatsRegistry reg;
        LifecycleTracker lifecycle;
        Distribution &memLatency;
        /** CUs that retired a wave this window; refilled at the barrier. */
        std::vector<ComputeUnit *> pendingRefill;

        explicit SaShard(ExecMode mode)
            : lifecycle(reg, mode), memLatency(reg.dist("mem.latency"))
        {
        }
    };

    void refill(ComputeUnit &cu);
    /**
     * Flip every CU's dispatch-progress flag once the running kernel's
     * dispatch cursor is exhausted (cycle accounting's FetchEmpty vs
     * DrainedIdle split). Idempotent; no-op while waves remain.
     */
    void announceDispatchExhausted();
    /** Is this counter timing-dependent (extrapolated, not exact)? */
    static bool isTimingCounter(const std::string &name);
    /** cfg_.saThreads >= 1 -> a DomainScheduler (may clamp cfg_). */
    std::unique_ptr<DomainScheduler> makeScheduler();
    /** Fold the per-SA shard stats into the main registry (see SaShard). */
    void mergeShardStats();

    GpuConfig cfg_;
    GlobalMemory &mem_;
    Engine engine_;
    StatsRegistry stats_;
    LifecycleTracker lifecycle_;
    std::unique_ptr<TraceSink> trace_;
    /** Interval telemetry (cfg.cycleAccounting, classic engine only). */
    std::unique_ptr<cycacct::IntervalSampler> cyc_sampler_;
    /** Armed fault (cfg.injectPlan); the target CU holds a raw pointer. */
    std::unique_ptr<inject::Injector> inject_;
    /** Declared before hier_: the hierarchy places onto the domains. */
    std::unique_ptr<DomainScheduler> sched_;
    std::vector<std::unique_ptr<SaShard>> shards_;
    MemoryHierarchy hier_;
    /** The running kernel's decode window, shared by every executor. */
    DecodeWindow window_;
    std::vector<std::unique_ptr<ComputeUnit>> cus_;

    const Kernel *current_ = nullptr;
    unsigned next_wid_ = 0;
    /** Waves [0, dispatch_limit_) go to the timed CUs this launch. */
    unsigned dispatch_limit_ = 0;
    /** announceDispatchExhausted() already ran for this launch. */
    bool dispatch_announced_ = true;

    /** Constructed lazily on the first sampled launch. */
    std::unique_ptr<RabbitExecutor> rabbit_;
    LazyUnit::RetireObserver retire_obs_;
    /**
     * Extrapolated extra contribution per timing-dependent counter:
     * delta-over-the-timed-window x (total/timed - 1), accumulated
     * across sampled launches. Exact (sparsity) counters never appear
     * here. Empty when no sampling has happened, keeping default runs
     * byte-identical.
     */
    std::map<std::string, double> est_extra_;
};

} // namespace lazygpu

#endif // LAZYGPU_GPU_GPU_HH
