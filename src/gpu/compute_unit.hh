/**
 * @file
 * ComputeUnit: one GCN3-style CU with four SIMD units, the wavefront
 * scheduler, the LSU, and the paper's Lazy Unit.
 *
 * The CU implements every execution mode of the paper:
 *  - Baseline: loads issue eagerly at execute; the scoreboard (busy bits)
 *    stalls the first use.
 *  - LazyCore: loads are recorded into PendingLoad metadata; the Lazy
 *    Unit issues them when a dependent instruction first reads a busy
 *    register (Sec 4.1).
 *  - LazyCore+(1): a zero-mask fetch is launched at record time; words
 *    that are zero are materialised without memory traffic, and
 *    transactions whose every needed word is zero are eliminated
 *    (Sec 4.2).
 *  - LazyGPU (+(2)): lanes feeding an otimes instruction whose
 *    counterpart operand is zero are suspended and eliminated on
 *    overwrite/retire (Sec 4.3).
 *  - EagerZC: eager issue with zero caches probed in parallel (the
 *    comparison point of Fig 9).
 *
 * Those rules are the LazyUnit's (gpu/lazy_unit.hh), which the
 * RabbitExecutor runs too. The CU is their timed transport: it schedules
 * mask and data requests through the engine, samples the lifecycle,
 * emits trace records, runs the injector hooks, and stalls and wakes
 * waves.
 */

#ifndef LAZYGPU_GPU_COMPUTE_UNIT_HH
#define LAZYGPU_GPU_COMPUTE_UNIT_HH

#include <functional>
#include <memory>
#include <vector>

#include "gpu/lazy_unit.hh"
#include "mem/hierarchy.hh"
#include "mem/memory.hh"
#include "obs/cycacct.hh"
#include "obs/lifecycle.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"
#include "sim/config.hh"
#include "sim/engine.hh"

namespace lazygpu
{

namespace inject
{
class Injector;
}

class ComputeUnit final : public Clocked, private LazyUnit::Transport
{
  public:
    /**
     * `mem_latency` is the distribution every completed data
     * transaction's latency is sampled into. The classic engine passes
     * the registry's "mem.latency"; the sharded engine passes a per-SA
     * shard distribution (merged in a fixed order at the end of each
     * run, keeping the floating-point sum independent of thread count).
     */
    ComputeUnit(Engine &engine, StatsRegistry &stats,
                LifecycleTracker &lifecycle, Distribution &mem_latency,
                const GpuConfig &cfg, GlobalMemory &mem,
                MemoryHierarchy &hier, const DecodeWindow &window,
                unsigned cu_id, unsigned sa_id, TraceSink *trace);

    /** Occupancy limit for the running kernel (register-usage bound). */
    void setMaxWaves(unsigned n) { max_waves_ = n; }
    unsigned maxWaves() const { return max_waves_; }
    unsigned residentWaves() const
    {
        return static_cast<unsigned>(waves_.size());
    }
    bool hasFreeSlot() const { return residentWaves() < max_waves_; }

    /** Install a dispatched wavefront. */
    void addWavefront(std::unique_ptr<Wavefront> wave);

    /** Invoked whenever a wavefront fully retires (slot freed). */
    void setRetireCallback(std::function<void()> cb)
    {
        retire_cb_ = std::move(cb);
    }

    /**
     * Verification hook: invoked at retirement, before the Lazy Unit
     * eliminates still-parked loads, so the observer sees which register
     * lanes were architecturally live (Ready).
     */
    void setRetireObserver(LazyUnit::RetireObserver obs)
    {
        lazy_.setRetireObserver(std::move(obs));
    }

    /**
     * Arm (or disarm, with nullptr) fault injection on this CU. The Gpu
     * only arms the one CU the plan targets; every other CU keeps the
     * null pointer, so the injection-off path is a single predicted
     * branch per site (the trace-sink pattern).
     */
    void setInjector(inject::Injector *inj) { inject_ = inj; }

    // Clocked interface.
    void tick() override;
    bool quiescent() const override;

    // --- Cycle accounting (CPI stacks, DESIGN.md §16) --------------------
    /**
     * Enable per-CU cycle accounting: registers the bucket counters and
     * makes tick() charge every cycle it runs. When a sampler is given
     * (classic engine only) the account is registered with it so interval
     * snapshots can flush the lazy gap cursor. Must be called before the
     * first tick; off, the cost is one predicted null-pointer branch.
     */
    void enableCycleAccounting(cycacct::IntervalSampler *sampler);

    /**
     * Close the open stall interval at this CU's current engine time (its
     * domain engine under --sa-threads), then panic unless the buckets
     * sum exactly to the elapsed cycles.
     */
    void finalizeCycleAccounting();

    /**
     * Checkpoint restore: bucket counters were restored through the
     * registry; re-base the account cursor to the restored engine time so
     * the pre-checkpoint cycles are not charged twice.
     */
    void syncCycleAccounting();

    /**
     * Kernel-dispatch progress from the Gpu: false while the running
     * kernel still has undispatched wavefronts, true once the dispatch
     * cursor is exhausted. Splits empty-CU cycles into fetch-empty
     * (waiting for work that exists) vs drained-idle (tail of the run).
     */
    void setDispatchExhausted(bool exhausted);

    const cycacct::CuCycleAccount *cycleAccount() const
    {
        return cyc_.get();
    }

    /**
     * Append one state-dump line per resident wavefront (plus a CU
     * summary line) for crash snapshots, in the src/verif dump
     * vocabulary: wave/lane/pending-load/outstanding-tx terms. Pure
     * reads; safe to call from any pipeline state.
     */
    void describeInto(std::vector<std::string> &out) const;

  private:
    // --- Scheduling ------------------------------------------------------
    Wavefront *pickWave(unsigned simd);
    void executeOne(Wavefront &wave, unsigned simd);
    void executeScalar(Wavefront &wave, const Instruction &inst);
    void executeLoad(Wavefront &wave, const Instruction &inst);

    /**
     * Every wavefront status change goes through here: it maintains the
     * CU's ready-wave count and reports 0 <-> nonzero transitions to the
     * engine's active-clocked count (the quiescence protocol).
     */
    void setStatus(Wavefront &wave, WaveStatus s);
    void noteReadyDelta(int delta);

    // --- The Lazy Unit's timed transport ---------------------------------
    /** Schedule pl's zero-mask reads; each response applies its mask. */
    void requestMasks(Wavefront &wave, PendingLoad &pl);
    bool maskResident(Addr mask_addr) override;
    void send(Wavefront &wave, PendingLoad &pl, unsigned tx,
              bool short_circuit) override;
    void writeMask(Addr mask_addr) override;
    void writeData(Addr tx_addr, bool zero) override;
    void suspended(const PendingLoad &pl, unsigned lanes) override;
    void eliminated(const PendingLoad &pl, const ElimTally &tally) override;

    /** Issue one data transaction through the LSU pipe; cb on response. */
    void issueTx(Addr addr, bool write, Completion cb);
    void issueMaskTx(Addr mask_addr, bool write, Completion cb);
    void wake(Wavefront &wave);

    /** Destroy the wavefront if it is Done and fully drained. */
    void maybeFinalize(Wavefront *wave);

    /** This CU's id as a trace track (CU tracks are global CU ids). */
    std::uint16_t traceTrack() const
    {
        return static_cast<std::uint16_t>(cu_id_);
    }

    /**
     * LaneBitmapFlip landing: flip one lane's bit of the (2)-suspension
     * bitmap of the first resident register that has one to flip -- a
     * Suspended lane becomes Ready, else a Pending lane becomes
     * Suspended (the seed picks the starting lane). Does nothing in a
     * mode without optimization (2). Called from tick() after the
     * injector arms.
     */
    void corruptLaneBitmap();

    // --- Cycle accounting internals --------------------------------------
    /**
     * Exclusive stall class of a quiescent CU right now (DESIGN.md §16
     * priority order): outstanding data txs -> MshrBackpressure when the
     * SA's L1 is saturated, else MemLatency; else outstanding mask
     * probes -> SuspZero; else a Waiting wave -> ScoreboardWait; else no
     * resident waves -> FetchEmpty / DrainedIdle by dispatch progress.
     */
    cycacct::Bucket classifyStall() const;

    /**
     * Mid-gap reclassification hook, appended to every async callback
     * that can change what a quiescent CU is waiting on.
     */
    void
    restallIfQuiescent()
    {
        if (cyc_ && ready_waves_ == 0)
            cyc_->restall(engine_.now(), classifyStall());
    }

    Engine &engine_;
    StatsRegistry &stats_;
    LifecycleTracker &lifecycle_;
    TraceSink *trace_;
    inject::Injector *inject_ = nullptr;
    const GpuConfig &cfg_;
    GlobalMemory &mem_;
    MemoryHierarchy &hier_;
    const unsigned cu_id_;
    const unsigned sa_id_;
    const ExecMode mode_;

    unsigned max_waves_ = 0;
    std::vector<std::unique_ptr<Wavefront>> waves_;

    // Cycle accounting (nullptr unless cfg.cycleAccounting).
    std::unique_ptr<cycacct::CuCycleAccount> cyc_;
    /** True once the running kernel has no undispatched wavefronts. */
    bool dispatch_exhausted_ = true;

    std::vector<Tick> simd_busy_;
    std::function<void()> retire_cb_;
    /** The data response a MemRespDelay fault holds back. */
    Completion delayed_;

    /** Waves with status Ready; quiescent() is this count being zero. */
    unsigned ready_waves_ = 0;
    /** Ready waves per SIMD, so tick() skips SIMDs with nothing to pick. */
    std::vector<unsigned> ready_per_simd_;

    LazyUnit lazy_;
    Counter &simd_busy_cycles_;
    Distribution &mem_latency_;
};

} // namespace lazygpu

#endif // LAZYGPU_GPU_COMPUTE_UNIT_HH
