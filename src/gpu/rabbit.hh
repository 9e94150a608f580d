/**
 * @file
 * RabbitExecutor: the fast functional wavefront executor of the
 * multi-resolution (rabbit/timing) sampling scheme.
 *
 * Named after ESESC's "rabbit mode": wavefronts outside the timing
 * sampling window are interpreted straight-line -- no event engine, no
 * cache or DRAM timing, no SIMD scheduling -- while the paper's sparsity
 * machinery runs at full fidelity. Loads are recorded, zero-masked,
 * suspended, issued and eliminated by the LazyUnit (gpu/lazy_unit.hh)
 * that the timed ComputeUnit runs too, reading the same decode window,
 * so every transaction-level counter (txs_issued, txs_elim_*,
 * store_txs*, mask_reads/writes, ...) is accounted by the same code as
 * in the timed pipeline. Besides its instruction loop, the executor is
 * only the Lazy Unit's instant transport. Functional state
 * (GlobalMemory, retired register values) is bit-exact with the timed
 * path for race-free kernels.
 *
 * VALU instructions run through execValu (gpu/wavefront.hh), the
 * timed ComputeUnit's VALU step: the vectorized plane core over the
 * Wavefront's contiguous register planes, suspended lanes passed as
 * PlaneSrc::zeroed bitmaps.
 *
 * The one deliberate approximation: memory responses are instantaneous.
 * Zero masks "arrive" at record time (in the timed pipeline they arrive
 * a few cycles later but, per Fig 7, always before the data issue
 * decision), and issued data transactions resolve synchronously. For
 * EagerZC the L1 Zero Cache residency that gates short-circuits is
 * approximated by a FIFO set with the same aggregate line capacity.
 *
 * The Lazy Unit's counters are registered under "gpu.rabbit.*" with the
 * same leaf names as the per-CU counters, so existing "gpu." +
 * ".<name>" aggregations pick them up transparently. simd_busy_cycles is
 * deliberately absent: the rabbit path has no timing, and Gpu
 * extrapolates that counter from the timed window instead. Nor does the
 * rabbit sample the load lifecycle.
 */

#ifndef LAZYGPU_GPU_RABBIT_HH
#define LAZYGPU_GPU_RABBIT_HH

#include <cstdint>
#include <deque>
#include <unordered_set>

#include "gpu/lazy_unit.hh"
#include "mem/memory.hh"
#include "obs/registry.hh"
#include "sim/config.hh"
#include "sim/engine.hh"

namespace lazygpu
{

class RabbitExecutor final : private LazyUnit::Transport
{
  public:
    /**
     * @param window the running kernel's decode window (Gpu::run)
     * @param engine when non-null, the executor publishes watchdog
     *        heartbeats (and honours cancellation) through
     *        Engine::externalHeartbeat while interpreting.
     */
    RabbitExecutor(const GpuConfig &cfg, GlobalMemory &mem,
                   StatsRegistry &stats, const DecodeWindow &window,
                   Engine *engine);

    /** Same contract as ComputeUnit::setRetireObserver. */
    void
    setRetireObserver(LazyUnit::RetireObserver obs)
    {
        lazy_.setRetireObserver(std::move(obs));
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
    void execLoad(Wavefront &wave, const Instruction &inst);

    // --- The Lazy Unit's instant transport -------------------------------
    bool maskResident(Addr mask_addr) override;
    void send(Wavefront &wave, PendingLoad &pl, unsigned tx,
              bool short_circuit) override;

    /** EagerZC: a mask read lands in the L1 Zero Cache residency model. */
    void insertMaskLine(Addr mask_addr);

    void heartbeat();

    GlobalMemory &mem_;
    Engine *engine_;
    const ExecMode mode_;

    /** FIFO model of the L1 Zero Caches' aggregate line capacity. */
    const Addr zl1_line_;
    const std::size_t mask_line_cap_;
    std::deque<Addr> mask_fifo_;
    std::unordered_set<Addr> mask_lines_;

    std::uint64_t total_insts_ = 0;
    std::uint64_t beat_countdown_;

    /** Instructions between watchdog heartbeats. */
    static constexpr std::uint64_t beatInterval = 4096;

    LazyUnit lazy_;
};

} // namespace lazygpu

#endif // LAZYGPU_GPU_RABBIT_HH
