/**
 * @file
 * LazyUnit: the paper's Lazy Unit (Sec 4, Fig 6), one copy run by both
 * executors.
 *
 * It records loads, reads their zero masks, suspends otimes operands
 * seen in the decode look-ahead, issues what the look-ahead needs, and
 * eliminates parked requests at overwrite or retire; it also accounts
 * stores and keeps the 17 instruction and transaction counters. The
 * per-transaction steps are the mask functions of gpu/wavefront.hh;
 * this class sequences them. How a request travels is the executor's
 * Transport: the timed ComputeUnit schedules it through the engine, the
 * RabbitExecutor resolves it at once.
 */

#ifndef LAZYGPU_GPU_LAZY_UNIT_HH
#define LAZYGPU_GPU_LAZY_UNIT_HH

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "gpu/coalescer.hh"
#include "gpu/wavefront.hh"
#include "obs/registry.hh"
#include "sim/config.hh"

namespace lazygpu
{

/**
 * The vector registers an instruction reads, in order: src0, src1,
 * VMacF32's accumulator, then a store's data registers. The decode
 * window's first-occurrence rule depends on this order.
 */
struct VectorReads
{
    std::array<unsigned, 6> regs{};
    unsigned size = 0;

    const unsigned *begin() const { return regs.data(); }
    const unsigned *end() const { return regs.data() + size; }
};

VectorReads vectorReads(const Instruction &inst);

/**
 * The Lazy Unit's decode look-ahead over one kernel (Sec 4.3: otimes
 * instructions are identified at decode, ahead of execution). From each
 * pc it lists the registers read by the next lookAhead straight-line
 * instructions -- a branch or s_endpgm ends the window, scalar
 * instructions are skipped -- each with its first reader, and it keeps
 * each instruction's own vectorReads. Both depend only on the kernel
 * text, so Gpu::run builds them once per launch and every CU and the
 * rabbit read them; they stay read-only while the domain threads run.
 */
class DecodeWindow
{
  public:
    static constexpr unsigned lookAhead = 12;

    struct Operand
    {
        const Instruction *inst; //!< the register's first reader
        unsigned reg;
    };

    void build(const Kernel &kernel);

    const Kernel *kernel() const { return kernel_; }

    /** The window starting at pc, in scan order. */
    std::span<const Operand>
    at(unsigned pc) const
    {
        return {ops_.data() + pcs_[pc].begin,
                ops_.data() + pcs_[pc + 1].begin};
    }

    /** vectorReads of the instruction at pc. */
    const VectorReads &reads(unsigned pc) const { return pcs_[pc].reads; }

  private:
    struct Pc
    {
        std::uint32_t begin = 0; //!< the window's offset in ops_
        VectorReads reads;
    };

    const Kernel *kernel_ = nullptr;
    std::vector<Operand> ops_;
    std::vector<Pc> pcs_; //!< per pc, plus one holding the end offset
};

class LazyUnit
{
  public:
    /** How an executor moves the requests the Lazy Unit decides on. */
    class Transport
    {
      public:
        /** EagerZC: is the mask line at mask_addr in the L1 Zero Cache? */
        virtual bool maskResident(Addr mask_addr) = 0;
        /**
         * Send transaction tx of pl, just marked Issued. short_circuit:
         * EagerZC found every busy word zero with its mask on hand, so
         * the response skips the L2 and every busy word reads zero.
         */
        virtual void send(Wavefront &wave, PendingLoad &pl, unsigned tx,
                          bool short_circuit) = 0;
        /** A store's zero-mask write. */
        virtual void writeMask(Addr) {}
        /** A store's data transaction; zero: only the Zero Cache is
         *  written (Sec 4.2). */
        virtual void writeData(Addr, bool) {}
        /** lanes of pl were just (2)-suspended. */
        virtual void suspended(const PendingLoad &, unsigned) {}
        /** Transactions of pl were just eliminated. */
        virtual void eliminated(const PendingLoad &, const ElimTally &) {}
        /** pl is fully resolved and about to be removed. */
        virtual void released(PendingLoad &) {}

      protected:
        ~Transport() = default;
    };

    /** Invoked at retire, before parked loads are eliminated. */
    using RetireObserver = std::function<void(const Wavefront &)>;

    /**
     * @param prefix counter path, "gpu.sa<S>.cu<C>." or "gpu.rabbit."
     * @param window the running kernel's decode window (Gpu::run)
     */
    LazyUnit(StatsRegistry &stats, const std::string &prefix,
             const GpuConfig &cfg, GlobalMemory &mem,
             const DecodeWindow &window, Transport &transport);
    // The transport holds this unit, so neither may move.
    LazyUnit(const LazyUnit &) = delete;
    LazyUnit &operator=(const LazyUnit &) = delete;

    void
    setRetireObserver(RetireObserver obs)
    {
        retire_obs_ = std::move(obs);
    }

    /**
     * Make vector instruction inst, the one at wave.pc, executable:
     * requalify stale suspensions of its operands and, if a lane is
     * still busy, stall-issue the decode window (bundleIssue); then,
     * past the WAW guard, eliminate the parked loads its destination
     * registers overwrite (their values are dead).
     *
     * @return true when inst can execute now: every operand lane is
     *         Ready or (correctly) Suspended and no destination fill is
     *         in flight. false: the wave waits for memory.
     */
    bool prepare(Wavefront &wave, const Instruction &inst);

    /**
     * The stall point's bundled issue, the one GCN's s_waitcnt implies:
     * every pending load read inside the decode window from wave.pc is
     * issued, after optimization (2) suspends the otimes operands whose
     * counterpart is a Ready zero; every suspension is decided against
     * pre-issue state. A load whose masks are outstanding is parked
     * instead (Fig 7 orders the Read Req after the Zero Read Rsp).
     * Loads read beyond the window (software-pipelined prefetches) stay
     * lazy.
     */
    void bundleIssue(Wavefront &wave);

    /**
     * Record load inst (Sec 4.1). txs is empty storage to reuse. A lazy
     * mode issues a load whose lanes disagree in the upper address bits
     * at once, without masks, and returns nullptr; otherwise the caller
     * reads the masks (wantsMasks) and, in an eager mode, issues.
     */
    PendingLoad *record(Wavefront &wave, const Instruction &inst, Tick now,
                        std::vector<PendingLoad::Tx> txs = {});

    /** Does this machine read a load's zero masks? */
    bool wantsMasks() const { return wants_masks_; }

    /**
     * The mask transactions covering pl's footprint (one 32 B mask
     * transaction covers 1 KiB of data), counted as mask reads. Valid
     * until the next readMasks or store.
     */
    const std::vector<Addr> &readMasks(const PendingLoad &pl);

    /**
     * Mask arrival for pl's data range [lo, hi): optimization (1)
     * zeroes its Pending zero words and eliminates the transactions left
     * with nothing to fetch; inj may invert a probe.
     */
    void maskArrived(Wavefront &wave, PendingLoad &pl, Addr lo, Addr hi,
                     inject::Injector *inj, Tick now);

    /**
     * Issue every Unissued transaction of pl with a Pending word, in
     * order, deciding EagerZC's short-circuit for each.
     */
    void issue(Wavefront &wave, PendingLoad &pl);

    /** Remove pl once every word is resolved. */
    void finishIfResolved(Wavefront &wave, PendingLoad &pl);

    /**
     * Store inst (operands ready): write memory now, then hand its
     * mask writes and then its data transactions to the transport.
     */
    void store(Wavefront &wave, const Instruction &inst);

    /**
     * Retire wave: after the retire observer, every register still owned
     * by a pending load is eliminated, in ascending register order.
     * In-flight words stay for their responses.
     */
    void retire(Wavefront &wave);

    // The shared counters, under the same leaf names for every prefix.
    // The executors bump the three they observe (instructions and
    // completed transactions); the Lazy Unit counts the rest.
    Counter &valuInsts;
    Counter &saluInsts;
    Counter &loadInsts;
    Counter &storeInsts;
    Counter &txsIssued;
    Counter &txsCompleted;
    Counter &txsElimZero;
    Counter &txsElimOtimes;
    Counter &txsElimDead;
    Counter &txsEagerFallback;
    Counter &storeTxs;
    Counter &storeTxsZeroSkipped;
    Counter &maskReads;
    Counter &maskWrites;
    Counter &zcShortCircuits;
    Counter &lanesZeroed;
    Counter &lanesSuspended;

  private:
    bool operandsReady(Wavefront &wave, const Instruction &inst);
    bool overwrite(Wavefront &wave, unsigned first, unsigned nregs);
    void eliminate(Wavefront &wave, PendingLoad &pl, unsigned reg);
    void countEliminated(const PendingLoad &pl, const ElimTally &tally);
    /** scratch_mask_bytes_ as aligned mask transactions. */
    const std::vector<Addr> &coalesceMasks();

    GlobalMemory &mem_;
    const DecodeWindow &window_;
    Transport &transport_;
    const ExecMode mode_;
    /** Mirrors the MemoryHierarchy construction condition. */
    const bool zc_;
    const bool wants_masks_;
    const bool skip_requalify_;
    RetireObserver retire_obs_;

    // Scratch, retained across calls so the steady state allocates
    // nothing.
    std::vector<unsigned> scratch_ids_;
    std::array<Addr, wavefrontSize> scratch_lane_addr_{};
    std::vector<Addr> scratch_txs_;
    std::vector<Addr> scratch_mask_bytes_;
    std::vector<Addr> scratch_mask_txs_;
    Coalescer coalescer_;
};

} // namespace lazygpu

#endif // LAZYGPU_GPU_LAZY_UNIT_HH
