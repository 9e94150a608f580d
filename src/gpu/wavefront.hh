/**
 * @file
 * Wavefront: the architectural context of one 64-lane wavefront, and
 * the Lazy Unit rules both executors share.
 *
 * Holds the program counter, scalar registers, the vector register
 * planes, the scoreboard -- per register, one LaneMask each of busy,
 * suspended and in-flight lanes (the paper's busy bits), plus a zero
 * bitmap -- and the PendingLoad records that model the lazy
 * in-register transaction metadata of Sec 4.1. A pending load names the
 * words of each 32 B transaction as one lane mask per destination
 * register, so every Lazy Unit step (record, mask zeroing, issue,
 * fill, otimes suspension, elimination) is mask arithmetic against the
 * scoreboard bitmaps, and a step that reads memory reads one
 * transaction at a time: its 32 B block or its zero-mask byte, each
 * lane's word found by its offset in the block. The free functions at
 * the end are those steps; gpu/lazy_unit.hh sequences them for both
 * executors.
 */

#ifndef LAZYGPU_GPU_WAVEFRONT_HH
#define LAZYGPU_GPU_WAVEFRONT_HH

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/exec_mode.hh"
#include "isa/kernel.hh"
#include "isa/simd.hh"
#include "sim/types.hh"

namespace lazygpu
{

class GlobalMemory;

namespace inject
{
class Injector;
}

/** Per-(vreg, lane) scoreboard state, as read off the bitmaps. */
enum class RegState : std::uint8_t
{
    Ready = 0,
    Pending,   //!< lazy load recorded, request not yet issued (busy bit)
    InFlight,  //!< request issued to the memory system (busy bit)
    Suspended, //!< optimization (2): deferred because the otimes
               //!< counterpart operand is zero
};

/** How a transaction of a pending load was finally resolved (Fig 14). */
enum class TxOutcome : std::uint8_t
{
    Unissued = 0,
    Issued,
    EliminatedZero,   //!< optimization (1)
    EliminatedOtimes, //!< optimization (2)
    EliminatedDead,   //!< overwritten / retired while still pending
};

/** Destination registers of the widest load (LoadDwordX4). */
constexpr unsigned maxLoadRegs = 4;

/**
 * One lazily recorded load instruction (Sec 4.1, Fig 6).
 *
 * The real hardware packs {inst type, offset, address low bits} into the
 * destination registers themselves and keeps the 35 shared upper bits per
 * register group; we keep the expanded form for simulation and enforce
 * the encodability rule (lanes disagreeing in the upper bits are issued
 * eagerly) at record time.
 */
struct PendingLoad
{
    unsigned id = 0; //!< unique per wavefront; see emplacePending
    Opcode op = Opcode::LoadDword;
    unsigned firstDst = 0;
    unsigned numRegs = 1;
    /** Per-lane address of the first destination register's word. */
    std::array<Addr, wavefrontSize> laneAddr{};
    unsigned masksOutstanding = 0; //!< zero-mask reads still in flight
    /**
     * A consumer asked for the data while the Zero Read Rsp was still
     * outstanding; issue as soon as the masks arrive (Fig 7 orders the
     * Read Req strictly after the Zero Read Rsp).
     */
    bool issueRequested = false;
    unsigned inflightTxs = 0; //!< issued but not yet completed
    Tick recordTick = 0; //!< when the Lazy Unit recorded the load

    /** One 32 B transaction of the load's footprint. */
    struct Tx
    {
        Addr addr = 0; //!< transaction-aligned
        /** The words this transaction feeds: lanes of firstDst + r. */
        std::array<LaneMask, maxLoadRegs> lanes{};
        /**
         * Words in lanes, the denominator of the Fig 14 zero class. A
         * partial overwrite drops the overwritten register's Ready
         * words from lanes and from this count, zeroed ones included.
         */
        unsigned words = 0;
        unsigned unresolved = 0;   //!< words still busy
        unsigned zeroedWords = 0;  //!< words resolved by the zero mask
        TxOutcome outcome = TxOutcome::Unissued;
        bool hadSuspended = false; //!< ever held a (2)-suspended word
    };

    std::vector<Tx> txs;
    unsigned wordsLeft = 0; //!< unresolved words across all txs

    /** Per-lane word address for destination register first+reg_off. */
    Addr
    wordAddr(unsigned reg_off, unsigned lane) const
    {
        return laneAddr[lane] + 4ull * reg_off;
    }
};

/** Wavefront scheduling status. */
enum class WaveStatus : std::uint8_t
{
    Ready,   //!< can be picked by the SIMD scheduler
    Waiting, //!< stalled on busy source registers
    Done,
};

class Wavefront
{
  public:
    Wavefront(const Kernel &kernel, unsigned wid);

    const Kernel &kernel() const { return *kernel_; }
    unsigned wid() const { return wid_; }

    unsigned pc = 0;
    unsigned simdId = 0; //!< the SIMD unit this wavefront is pinned to
    WaveStatus status = WaveStatus::Ready;
    bool scc = false;
    Tick nextIssue = 0; //!< earliest tick the next instruction may issue
    Tick dispatchTick = 0;
    std::uint64_t traceId = 0; //!< trace span id (0 when not tracing)

    std::vector<std::uint32_t> sregs;

    // --- Vector register file slice ------------------------------------
    //
    // Each architectural register is one contiguous 64-lane plane
    // (values_[r]) with four bitmaps: busy, suspended and in-flight
    // lanes, the scoreboard itself (suspended and in-flight are disjoint
    // subsets of busy; a busy lane in neither is Pending), and the zero
    // bitmap (bit set iff the lane's word is 0). Every write keeps the
    // zero bitmap coherent with the plane.

    std::uint32_t
    vreg(unsigned r, unsigned lane) const
    {
        return values_[r][lane];
    }

    void
    setVreg(unsigned r, unsigned lane, std::uint32_t v)
    {
        values_[r][lane] = v;
        const LaneMask bit = LaneMask(1) << lane;
        zero_[r] = (zero_[r] & ~bit) | (LaneMask(v == 0) << lane);
    }

    RegState
    regState(unsigned r, unsigned lane) const
    {
        const LaneMask bit = LaneMask(1) << lane;
        if (!(busy_[r] & bit))
            return RegState::Ready;
        if (inflight_[r] & bit)
            return RegState::InFlight;
        return susp_[r] & bit ? RegState::Suspended : RegState::Pending;
    }

    void
    setRegState(unsigned r, unsigned lane, RegState s)
    {
        const LaneMask bit = LaneMask(1) << lane;
        busy_[r] = (busy_[r] & ~bit) |
                   (LaneMask(s != RegState::Ready) << lane);
        susp_[r] = (susp_[r] & ~bit) |
                   (LaneMask(s == RegState::Suspended) << lane);
        inflight_[r] = (inflight_[r] & ~bit) |
                       (LaneMask(s == RegState::InFlight) << lane);
    }

    /** Lanes of register r in Pending/InFlight/Suspended state. */
    LaneMask busyMask(unsigned r) const { return busy_[r]; }
    /** Lanes of register r in the (2)-Suspended state. */
    LaneMask suspendedMask(unsigned r) const { return susp_[r]; }
    /** Lanes of register r with a request in the memory system. */
    LaneMask inFlightMask(unsigned r) const { return inflight_[r]; }
    /** Lanes of register r recorded but neither issued nor suspended. */
    LaneMask
    pendingMask(unsigned r) const
    {
        return busy_[r] & ~susp_[r] & ~inflight_[r];
    }

    /** Lanes of register r whose word is zero (zero-probe bitmap). */
    LaneMask zeroMask(unsigned r) const { return zero_[r]; }

    // Whole-register row for the vectorized bulk paths. A caller that
    // writes it directly must restore the zero bitmap (setZeroMask,
    // refreshZeroMask or resolveLanes) before any reader runs.
    std::uint32_t *valueRow(unsigned r) { return values_[r].data(); }
    const std::uint32_t *valueRow(unsigned r) const
    {
        return values_[r].data();
    }

    /** Record time: every lane of r becomes Pending. */
    void
    markAllPending(unsigned r)
    {
        busy_[r] = allLanes;
        susp_[r] = 0;
        inflight_[r] = 0;
    }

    /** Pending -> Suspended for the lanes in m. */
    void suspendLanes(unsigned r, LaneMask m) { susp_[r] |= m; }

    /** Suspended -> Pending (requalification) for the lanes in m. */
    void requalifyLanes(unsigned r, LaneMask m) { susp_[r] &= ~m; }

    /** Pending or Suspended -> InFlight for the lanes in m. */
    void
    issueLanes(unsigned r, LaneMask m)
    {
        inflight_[r] |= m;
        susp_[r] &= ~m;
    }

    /**
     * The lanes in m become Ready: the caller has already written their
     * values; zero_bits carries their new zero-bitmap bits (subset of m).
     */
    void
    resolveLanes(unsigned r, LaneMask m, LaneMask zero_bits)
    {
        busy_[r] &= ~m;
        susp_[r] &= ~m;
        inflight_[r] &= ~m;
        zero_[r] = (zero_[r] & ~m) | zero_bits;
    }

    /** Re-derive the zero bitmap after a bulk valueRow write. */
    void
    refreshZeroMask(unsigned r)
    {
        zero_[r] = isa::zeroLanes(values_[r].data());
    }

    /** Install a zero bitmap the bulk writer computed alongside. */
    void setZeroMask(unsigned r, LaneMask m) { zero_[r] = m; }

    /** True if any lane of register r is Pending/InFlight/Suspended. */
    bool anyNotReady(unsigned r) const { return busy_[r] != 0; }

    /** True if any lane of register r is InFlight. */
    bool anyInFlight(unsigned r) const { return inflight_[r] != 0; }

    // --- Pending (lazy) loads -------------------------------------------
    // The pending load owning register r, or nullptr. pendings_ is
    // node-based, so the owner pointers stay valid across rehashes and
    // unrelated insert/erase.
    PendingLoad *
    pendingFor(unsigned r)
    {
        return r < owner_.size() ? owner_[r] : nullptr;
    }

    const PendingLoad *
    pendingFor(unsigned r) const
    {
        return r < owner_.size() ? owner_[r] : nullptr;
    }

    /**
     * Create an empty pending load in place with a fresh id; the caller
     * fills it, then claims register ownership with claimOwners.
     */
    PendingLoad &emplacePending();

    /** Point pl's destination registers at it. */
    void claimOwners(PendingLoad &pl);

    /** Remove a fully resolved pending load by id. */
    void removePending(unsigned id);

    std::unordered_map<unsigned, PendingLoad> &pendings()
    {
        return pendings_;
    }

    const std::unordered_map<unsigned, PendingLoad> &pendings() const
    {
        return pendings_;
    }

    /** Count of this wavefront's in-flight data transactions. */
    unsigned outstanding_txs_ = 0;
    /** Count of this wavefront's in-flight zero-mask transactions. */
    unsigned outstanding_masks_ = 0;

    bool
    drained() const
    {
        return outstanding_txs_ == 0 && outstanding_masks_ == 0;
    }

  private:
    const Kernel *kernel_;
    unsigned wid_;
    std::vector<std::array<std::uint32_t, wavefrontSize>> values_;
    std::vector<LaneMask> busy_;     //!< non-Ready lanes per vreg
    std::vector<LaneMask> susp_;     //!< Suspended lanes per vreg
    std::vector<LaneMask> inflight_; //!< InFlight lanes per vreg
    std::vector<LaneMask> zero_;     //!< zero-valued lanes per vreg
    std::unordered_map<unsigned, PendingLoad> pendings_; //!< by id
    unsigned next_pending_id_ = 0;
    /** reg -> the pending load that owns it, or nullptr. */
    std::vector<PendingLoad *> owner_;
};

// --- Operand access and the otimes tests, shared by both executors -------

/** The value of operand s in one lane (lane 0 for scalar instructions). */
inline std::uint32_t
readSrc(const Wavefront &wave, const Src &s, unsigned lane)
{
    switch (s.kind) {
      case SrcKind::VReg:
        return wave.vreg(s.value, lane);
      case SrcKind::SReg:
        return wave.sregs[s.value];
      case SrcKind::Imm:
        return s.value;
      case SrcKind::None:
        return 0;
    }
    return 0;
}

/**
 * One VALU operand as a register plane. (2)-suspended lanes read as
 * zero: by construction their counterpart operand is zero, so their
 * value cannot affect the result.
 */
inline PlaneSrc
planeSrc(const Wavefront &wave, const Src &s)
{
    if (s.kind != SrcKind::VReg)
        return PlaneSrc{nullptr, readSrc(wave, s, 0), 0};
    return PlaneSrc{wave.valueRow(s.value), 0, wave.suspendedMask(s.value)};
}

/**
 * The otimes counterpart test (Sec 4.3) for source register reg of
 * inst: the lanes where inst's other source is a Ready zero, so reg's
 * value cannot affect the result. That is the counterpart register's
 * zero bitmap minus its busy bitmap, or every lane for a zero scalar or
 * immediate. Empty unless inst is an otimes instruction reading reg
 * and mode has optimization (2).
 */
inline LaneMask
zeroCounterpartLanes(const Wavefront &wave, const Instruction &inst,
                     unsigned reg, ExecMode mode)
{
    if (!isOtimes(inst.op) || !hasOtimesElimination(mode))
        return 0;
    const Src *other = nullptr;
    if (inst.src0.kind == SrcKind::VReg && inst.src0.value == reg)
        other = &inst.src1;
    else if (inst.src1.kind == SrcKind::VReg && inst.src1.value == reg)
        other = &inst.src0;
    if (!other || other->kind == SrcKind::None)
        return 0;
    if (other->kind == SrcKind::VReg)
        return wave.zeroMask(other->value) & ~wave.busyMask(other->value);
    return readSrc(wave, *other, 0) == 0 ? allLanes : 0;
}

// --- The Lazy Unit's mask steps, sequenced by gpu/lazy_unit.hh -----------

/** Transactions one call below eliminated, by Fig 14 class. */
struct ElimTally
{
    unsigned zero = 0;
    unsigned otimes = 0;
    unsigned dead = 0;
};

/**
 * Record load inst as a new pending load of wave (Sec 4.1): per-lane
 * addresses, the 32 B transactions in the order lanes first touch them
 * (lane by lane, registers in order within a lane), and every
 * destination lane Pending. txs is empty storage to reuse (the rabbit
 * recycles it); the destination registers must be Ready.
 */
PendingLoad &recordLoad(Wavefront &wave, const Instruction &inst,
                        Tick now, std::vector<PendingLoad::Tx> txs = {});

/**
 * Sec 4.1's encodability rule: true iff every lane shares lane 0's upper
 * address bits, so the load can be parked in its registers.
 */
bool encodable(const PendingLoad &pl);

/** True iff some word of tx is Pending, so issuing it fetches data. */
bool hasPendingWord(const Wavefront &wave, const PendingLoad &pl,
                    const PendingLoad::Tx &tx);

/**
 * True iff every busy word of tx reads zero in mem, from tx's zero-mask
 * byte (EagerZC's probe).
 */
bool busyWordsZero(const GlobalMemory &mem, const Wavefront &wave,
                   const PendingLoad &pl, const PendingLoad::Tx &tx);

/** Issue tx: it is Issued, and its busy words go InFlight. */
void markIssued(Wavefront &wave, const PendingLoad &pl,
                PendingLoad::Tx &tx);

/**
 * Zero-mask arrival (optimization (1)) for the Unissued transactions of
 * pl in the data range [lo, hi): every Pending word that reads zero
 * resolves as zero, without memory traffic. Each transaction's
 * zero-mask byte is read once, and a word's bit is its slot in the
 * block. inj, when non-null, is asked once per transaction with a
 * Pending word, in transaction order, and may invert the probe of that
 * transaction's first Pending word in lane-major order (ZeroMaskFlip).
 *
 * @return the words zeroed.
 */
unsigned zeroPendingWords(Wavefront &wave, PendingLoad &pl, Addr lo,
                          Addr hi, const GlobalMemory &mem,
                          inject::Injector *inj, Tick now,
                          ElimTally &tally);

/**
 * A data response for an Issued tx: the transaction's block is read
 * once, and every busy word resolves with its value from it. inj, when
 * non-null, is asked once and may corrupt the first busy word in
 * lane-major order: the lowest lane, then its lowest register
 * (MemRespFlip).
 */
void fillBusyWords(Wavefront &wave, PendingLoad &pl, PendingLoad::Tx &tx,
                   const GlobalMemory &mem, inject::Injector *inj,
                   Tick now);

/** EagerZC's short-circuit response: every busy word of tx is zero. */
void zeroBusyWords(Wavefront &wave, PendingLoad &pl, PendingLoad::Tx &tx);

/**
 * Optimization (2) for source register reg of inst, owned by pl:
 * suspend its Pending lanes whose otimes counterpart is a Ready zero,
 * and flag their transactions.
 *
 * @return the lanes suspended.
 */
LaneMask suspendForOtimes(Wavefront &wave, PendingLoad &pl,
                          const Instruction &inst, unsigned reg,
                          ExecMode mode);

/**
 * Dead-on-overwrite (or retire) elimination of register reg, owned by
 * pl: its Pending and Suspended lanes resolve as zero and are never
 * fetched. When pl survives for other registers, reg's Ready words
 * leave pl's transactions (lanes and words), so no later response of pl
 * can touch a newer owner of reg. InFlight words stay: the WAW stall
 * keeps them from an overwrite, so they only occur at retire, where the
 * data response still needs them.
 */
void eliminateRegister(Wavefront &wave, PendingLoad &pl, unsigned reg,
                       ElimTally &tally);

} // namespace lazygpu

#endif // LAZYGPU_GPU_WAVEFRONT_HH
