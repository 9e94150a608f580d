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
 */

#ifndef LAZYGPU_GPU_COMPUTE_UNIT_HH
#define LAZYGPU_GPU_COMPUTE_UNIT_HH

#include <array>
#include <functional>
#include <memory>
#include <vector>

#include "gpu/coalescer.hh"
#include "gpu/wavefront.hh"
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

class ComputeUnit : public Clocked
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
                MemoryHierarchy &hier, unsigned cu_id, unsigned sa_id,
                TraceSink *trace);

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
     * Verification hook: invoked at retire() entry, before the Lazy
     * Unit eliminates still-parked loads, so the observer sees which
     * register lanes were architecturally live (Ready) at retirement.
     */
    using RetireObserver = std::function<void(const Wavefront &)>;
    void setRetireObserver(RetireObserver obs)
    {
        retire_obs_ = std::move(obs);
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
     * domain engine under --sa-threads). Under LAZYGPU_CHECK, panics
     * unless the buckets sum exactly to the elapsed cycles.
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
    void executeValu(Wavefront &wave, const Instruction &inst);
    void executeLoad(Wavefront &wave, const Instruction &inst);
    void executeStore(Wavefront &wave, const Instruction &inst);
    void retire(Wavefront &wave);

    /**
     * Every wavefront status change goes through here: it maintains the
     * CU's ready-wave count and reports 0 <-> nonzero transitions to the
     * engine's active-clocked count (the quiescence protocol).
     */
    void setStatus(Wavefront &wave, WaveStatus s);
    void noteReadyDelta(int delta);

    /**
     * Make the given source registers readable, triggering lazy issue
     * and/or optimization (2) suspension as required.
     *
     * When inst is an otimes instruction, a busy lane of src0/src1 may be
     * suspended instead of issued if the counterpart operand's value in
     * that lane is a ready zero (Sec 4.3).
     *
     * @return true when the instruction can execute now.
     */
    bool ensureReady(Wavefront &wave, const Instruction &inst,
                     const std::vector<unsigned> &regs);

    /** WAW guard + lazy dead-on-overwrite elimination for dst regs. */
    bool prepareOverwrite(Wavefront &wave, unsigned first, unsigned nregs);

    // --- Lazy Unit ---------------------------------------------------------
    void recordLazyLoad(Wavefront &wave, const Instruction &inst);
    void issuePendingLoad(Wavefront &wave, PendingLoad &pl);

    /**
     * The Lazy Unit's decode look-ahead (Sec 4.3: otimes instructions
     * are identified at decode, ahead of execution). When the wavefront
     * stalls, every pending load whose first consumer lies within the
     * next few straight-line instructions is issued together -- the
     * bundled-issue behaviour GCN's s_waitcnt implies -- after applying
     * optimization (2) suspension using currently-known (including
     * mask-zeroed) counterpart values. Loads consumed beyond the window
     * (e.g. software-pipelined next-tile prefetches) stay lazy.
     */
    void issueSoonNeeded(Wavefront &wave);

    /** Otimes suspension for source register reg of inst, owned by pl. */
    void trySuspend(Wavefront &wave, PendingLoad &pl,
                    const Instruction &inst, unsigned reg);
    void requestMasks(Wavefront &wave, PendingLoad &pl);
    void onMaskResponse(Wavefront &wave, unsigned pl_id, Addr mask_addr);
    void eliminateForRegs(Wavefront &wave, unsigned first, unsigned nregs);
    void finishPendingIfResolved(Wavefront &wave, PendingLoad &pl);
    /** Count (and lifecycle-sample) pl's eliminated transactions. */
    void countEliminated(const PendingLoad &pl, const ElimTally &tally);

    // --- Transaction plumbing -----------------------------------------------
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
    RetireObserver retire_obs_;

    /** Waves with status Ready; quiescent() is this count being zero. */
    unsigned ready_waves_ = 0;
    /** Ready waves per SIMD, so tick() skips SIMDs with nothing to pick. */
    std::vector<unsigned> ready_per_simd_;

    // Per-issue scratch buffers, hoisted out of the execute paths so the
    // steady state allocates nothing (capacities are retained across
    // instructions; only the first few issues grow them).
    std::vector<unsigned> scratch_srcs_;
    std::vector<unsigned> scratch_issue_ids_;
    std::vector<std::uint32_t> seen_stamp_; //!< per-vreg epoch tag
    std::uint32_t seen_epoch_ = 0;
    std::array<Addr, wavefrontSize> scratch_lane_addr_{};
    std::vector<Addr> scratch_txs_;
    std::vector<Addr> scratch_mask_bytes_;
    std::vector<Addr> scratch_mask_txs_;
    std::vector<unsigned> scratch_retire_ids_;
    Coalescer coalescer_;

    // Shared GPU-wide stats (one StatsRegistry per Gpu).
    Counter &valu_insts_;
    Counter &salu_insts_;
    Counter &simd_busy_cycles_;
    Counter &load_insts_;
    Counter &store_insts_;
    Counter &txs_issued_;
    Counter &txs_completed_;
    Counter &txs_elim_zero_;
    Counter &txs_elim_otimes_;
    Counter &txs_elim_dead_;
    Counter &txs_eager_fallback_;
    Counter &store_txs_;
    Counter &store_txs_zero_skipped_;
    Counter &mask_reads_;
    Counter &mask_writes_;
    Counter &zc_short_circuits_;
    Counter &lanes_zeroed_;
    Counter &lanes_suspended_;
    Distribution &mem_latency_;
};

} // namespace lazygpu

#endif // LAZYGPU_GPU_COMPUTE_UNIT_HH
