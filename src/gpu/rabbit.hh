/**
 * @file
 * RabbitExecutor: the fast functional wavefront executor of the
 * multi-resolution (rabbit/timing) sampling scheme.
 *
 * Named after ESESC's "rabbit mode": wavefronts outside the timing
 * sampling window are interpreted straight-line -- no event engine, no
 * cache or DRAM timing, no SIMD scheduling -- while the paper's sparsity
 * machinery runs at full fidelity. Loads are recorded, zero-masked,
 * suspended, issued and eliminated by the Lazy Unit rules of
 * gpu/wavefront.hh that the timed ComputeUnit runs too (lane-mask
 * arithmetic on the scoreboard bitmaps), so every transaction-level
 * counter (txs_issued, txs_elim_*, store_txs*, mask_reads/writes, ...)
 * is accounted by the same code as in the timed pipeline. Functional
 * state (GlobalMemory, retired register values) is bit-exact with the
 * timed path for race-free kernels.
 *
 * VALU instructions execute on the vectorized plane core shared with
 * the timed ComputeUnit (isa::evalValuPlane over the Wavefront's
 * contiguous register planes, suspended lanes passed as
 * PlaneSrc::zeroed bitmaps); the LAZYGPU_SCALAR_REF environment
 * variable (isa::scalarRefEnabled) routes them through the per-lane
 * scalar interpreter instead.
 *
 * The one deliberate approximation: memory responses are instantaneous.
 * Zero masks "arrive" at record time (in the timed pipeline they arrive
 * a few cycles later but, per Fig 7, always before the data issue
 * decision), and issued data transactions resolve synchronously. For
 * EagerZC the L1 Zero Cache residency that gates short-circuits is
 * approximated by a FIFO set with the same aggregate line capacity.
 *
 * Counters are registered under "gpu.rabbit.*" with the same leaf names
 * as the per-CU counters, so existing "gpu." + ".<name>" aggregations
 * pick them up transparently. simd_busy_cycles is deliberately absent:
 * the rabbit path has no timing, and Gpu extrapolates that counter from
 * the timed window instead.
 */

#ifndef LAZYGPU_GPU_RABBIT_HH
#define LAZYGPU_GPU_RABBIT_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_set>
#include <vector>

#include "gpu/coalescer.hh"
#include "gpu/wavefront.hh"
#include "mem/memory.hh"
#include "obs/registry.hh"
#include "sim/config.hh"
#include "sim/engine.hh"

namespace lazygpu
{

class RabbitExecutor
{
  public:
    /**
     * @param engine when non-null, the executor publishes watchdog
     *        heartbeats (and honours cancellation) through
     *        Engine::externalHeartbeat while interpreting.
     */
    RabbitExecutor(const GpuConfig &cfg, GlobalMemory &mem,
                   StatsRegistry &stats, Engine *engine);

    /** Same contract as ComputeUnit::setRetireObserver. */
    using RetireObserver = std::function<void(const Wavefront &)>;
    void
    setRetireObserver(RetireObserver obs)
    {
        retire_obs_ = std::move(obs);
    }

    /**
     * Interpret one wavefront of the kernel to completion.
     *
     * @param max_insts livelock guard (fatal when exceeded).
     * @return instructions executed.
     */
    std::uint64_t run(const Kernel &kernel, unsigned wid,
                      std::uint64_t max_insts = 4'000'000);

  private:
    // --- Interpretation -------------------------------------------------
    void execScalar(Wavefront &wave, const Instruction &inst, bool &done);
    void execValu(Wavefront &wave, const Instruction &inst);
    void execLoad(Wavefront &wave, const Instruction &inst);
    void execStore(Wavefront &wave, const Instruction &inst);
    void retire(Wavefront &wave);

    // --- Lazy Unit transport (the rules are gpu/wavefront.hh's) ---------
    /**
     * Make regs readable before inst executes: requalify stale
     * suspensions, then (if anything is still Pending) run the decode
     * look-ahead window -- suspending otimes sources and issuing every
     * pending load consumed inside it, exactly like issueSoonNeeded.
     * Afterwards every lane of regs is Ready or (correctly) Suspended.
     */
    void materialize(Wavefront &wave, const Instruction &inst,
                     const std::vector<unsigned> &regs);
    void windowIssue(Wavefront &wave);

    /**
     * One statically known decode-window operand: the instruction and
     * register a scan from some pc would call consider() on. The window
     * contents depend only on the kernel text, so they are precomputed
     * per pc instead of re-decoded on every windowIssue.
     */
    struct WindowCand
    {
        const Instruction *inst;
        unsigned reg;
        bool otimesSrc;
    };
    void buildWindowCands(const Kernel &kernel);

    void recordLazyLoad(Wavefront &wave, const Instruction &inst);

    /** Zero-mask arrival at record time (optimization (1)). */
    void applyZeroing(Wavefront &wave, PendingLoad &pl);

    /** Synchronous analogue of issuePendingLoad. */
    void issuePending(Wavefront &wave, PendingLoad &pl);

    void eliminateForRegs(Wavefront &wave, unsigned first,
                          unsigned nregs);
    void finishPendingIfResolved(Wavefront &wave, PendingLoad &pl);
    void countEliminated(const ElimTally &tally);

    // --- EagerZC L1 Zero Cache residency approximation ------------------
    bool maskResident(Addr mask_addr) const;
    void insertMaskLine(Addr mask_addr);

    void heartbeat();

    const GpuConfig &cfg_;
    GlobalMemory &mem_;
    Engine *engine_;
    const ExecMode mode_;
    /** Mirrors the MemoryHierarchy construction condition. */
    const bool zc_;
    RetireObserver retire_obs_;

    /** FIFO model of the L1 Zero Caches' aggregate line capacity. */
    const Addr zl1_line_;
    const std::size_t mask_line_cap_;
    std::deque<Addr> mask_fifo_;
    std::unordered_set<Addr> mask_lines_;

    // Scratch, retained across instructions (steady state allocates
    // nothing, like the CU's execute paths).
    std::vector<unsigned> scratch_srcs_;
    std::vector<unsigned> scratch_issue_ids_;
    /** Per-pc decode-window candidates for window_kernel_. */
    const Kernel *window_kernel_ = nullptr;
    std::vector<std::vector<WindowCand>> window_cands_;
    std::array<Addr, wavefrontSize> scratch_lane_addr_{};
    std::vector<Addr> scratch_txs_;
    std::vector<Addr> scratch_mask_bytes_;
    std::vector<Addr> scratch_mask_txs_;
    std::vector<unsigned> scratch_retire_ids_;
    /** Recycled PendingLoad::txs heap blocks (see recordLazyLoad). */
    std::vector<std::vector<PendingLoad::Tx>> tx_pool_;
    static constexpr std::size_t txPoolCap = 64;
    Coalescer coalescer_;

    std::uint64_t total_insts_ = 0;
    std::uint64_t beat_countdown_;

    /** Instructions between watchdog heartbeats. */
    static constexpr std::uint64_t beatInterval = 4096;

    /** issueSoonNeeded's decode window length, verbatim. */
    static constexpr unsigned lookAhead = 12;

    Counter &valu_insts_;
    Counter &salu_insts_;
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
};

} // namespace lazygpu

#endif // LAZYGPU_GPU_RABBIT_HH
