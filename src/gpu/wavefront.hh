/**
 * @file
 * Wavefront: the architectural context of one 64-lane wavefront.
 *
 * Holds the program counter, scalar registers, per-lane vector register
 * values, the per-(register, lane) scoreboard state that implements the
 * paper's busy bits, and the PendingLoad records that model the lazy
 * in-register transaction metadata of Sec 4.1. All members here are pure
 * state transitions; the ComputeUnit drives timing.
 */

#ifndef LAZYGPU_GPU_WAVEFRONT_HH
#define LAZYGPU_GPU_WAVEFRONT_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/exec_mode.hh"
#include "isa/kernel.hh"
#include "isa/simd.hh"
#include "sim/types.hh"

namespace lazygpu
{

/**
 * The (reg offset, lane) word list of one pending-load transaction.
 *
 * A coalesced transaction feeds at most transactionSize/4 distinct
 * words, which fit the inline buffer; broadcast access patterns (many
 * lanes reading the same word) spill to the heap. Loads are recorded on
 * the simulator's hottest paths, so keeping the common case
 * allocation-free matters -- std::vector here costs one heap round trip
 * per transaction.
 */
class TxWordList
{
  public:
    using value_type = std::pair<std::uint8_t, std::uint8_t>;
    using iterator = value_type *;
    using const_iterator = const value_type *;

    static constexpr unsigned inlineCap = transactionSize / 4;

    TxWordList() = default;
    TxWordList(const TxWordList &o) { *this = o; }
    TxWordList(TxWordList &&o) noexcept { *this = std::move(o); }
    ~TxWordList() { delete[] heap_; }

    TxWordList &
    operator=(const TxWordList &o)
    {
        if (this == &o)
            return *this;
        reset();
        if (o.size_ > inlineCap) {
            heap_ = new value_type[o.cap_];
            cap_ = o.cap_;
        }
        size_ = o.size_;
        std::copy(o.data(), o.data() + o.size_, data());
        return *this;
    }

    TxWordList &
    operator=(TxWordList &&o) noexcept
    {
        if (this == &o)
            return *this;
        reset();
        if (o.heap_) {
            heap_ = o.heap_;
            cap_ = o.cap_;
            size_ = o.size_;
            o.heap_ = nullptr;
        } else {
            size_ = o.size_;
            std::copy(o.inline_.begin(), o.inline_.begin() + o.size_,
                      inline_.begin());
        }
        o.cap_ = inlineCap;
        o.size_ = 0;
        return *this;
    }

    value_type *data() { return heap_ ? heap_ : inline_.data(); }
    const value_type *
    data() const
    {
        return heap_ ? heap_ : inline_.data();
    }
    iterator begin() { return data(); }
    iterator end() { return data() + size_; }
    const_iterator begin() const { return data(); }
    const_iterator end() const { return data() + size_; }
    unsigned size() const { return size_; }
    bool empty() const { return size_ == 0; }

    void
    reserve(unsigned n)
    {
        if (n > cap_)
            grow(n);
    }

    void
    emplace_back(std::uint8_t reg_off, std::uint8_t lane)
    {
        if (size_ == cap_)
            grow(cap_ * 2);
        data()[size_++] = value_type(reg_off, lane);
    }

    iterator
    erase(iterator first, iterator last)
    {
        std::copy(last, end(), first);
        size_ -= static_cast<unsigned>(last - first);
        return first;
    }

  private:
    void
    grow(unsigned n)
    {
        value_type *bigger = new value_type[n];
        std::copy(data(), data() + size_, bigger);
        delete[] heap_;
        heap_ = bigger;
        cap_ = n;
    }

    void
    reset()
    {
        delete[] heap_;
        heap_ = nullptr;
        cap_ = inlineCap;
        size_ = 0;
    }

    std::array<value_type, inlineCap> inline_{};
    value_type *heap_ = nullptr;
    unsigned size_ = 0;
    unsigned cap_ = inlineCap;
};

/** Per-(vreg, lane) scoreboard state. */
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
    unsigned id = 0; //!< unique per wavefront; assigned by addPending
    Opcode op = Opcode::LoadDword;
    unsigned firstDst = 0;
    unsigned numRegs = 1;
    /** Per-lane address of the first destination register's word. */
    std::array<Addr, wavefrontSize> laneAddr{};
    bool maskRequested = false;
    unsigned masksOutstanding = 0; //!< zero-mask reads still in flight
    /**
     * A consumer asked for the data while the Zero Read Rsp was still
     * outstanding; issue as soon as the masks arrive (Fig 7 orders the
     * Read Req strictly after the Zero Read Rsp).
     */
    bool issueRequested = false;
    bool dataIssued = false; //!< issue was triggered at least once
    unsigned inflightTxs = 0; //!< issued but not yet completed
    Tick recordTick = 0; //!< when the Lazy Unit recorded the load

    /** One 32 B transaction of the load's footprint. */
    struct Tx
    {
        Addr addr = 0; //!< transaction-aligned
        /** The (reg offset, lane) words this transaction feeds. */
        TxWordList words;
        TxOutcome outcome = TxOutcome::Unissued;
        unsigned unresolved = 0;   //!< words not yet Ready/eliminated
        unsigned zeroedWords = 0;  //!< words resolved by the zero mask
        bool hadSuspended = false; //!< ever held a (2)-suspended word
    };

    std::vector<Tx> txs;
    unsigned wordsLeft = 0; //!< unresolved words across all txs

    /** The transaction covering the given word, or nullptr. */
    Tx *
    txFor(Addr word_addr)
    {
        const Addr aligned = word_addr & ~Addr(transactionSize - 1);
        for (Tx &tx : txs) {
            if (tx.addr == aligned)
                return &tx;
        }
        return nullptr;
    }

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
    // (values_[r]), shadowed by three scoreboard bitmaps (busy /
    // suspended / in-flight lanes as one LaneMask each) and a zero
    // bitmap (bit set iff the lane's word is 0). Every per-lane write
    // keeps the bitmaps coherent; the bulk plane writers below take the
    // whole-mask shortcuts instead of 64 read-modify-writes.

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

    RegState regState(unsigned r, unsigned lane) const
    {
        return state_[r][lane];
    }

    void
    setRegState(unsigned r, unsigned lane, RegState s)
    {
        state_[r][lane] = s;
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

    // Whole-register rows for the vectorized bulk paths. A caller that
    // writes valueRow or stateRow directly must restore bitmap
    // coherence through the bulk helpers below before any reader runs.
    std::uint32_t *valueRow(unsigned r) { return values_[r].data(); }
    const std::uint32_t *valueRow(unsigned r) const
    {
        return values_[r].data();
    }
    RegState *stateRow(unsigned r) { return state_[r].data(); }

    /** Bulk record-time fill: every lane of r becomes Pending. */
    void
    markAllPending(unsigned r)
    {
        RegState *st = state_[r].data();
        std::fill(st, st + wavefrontSize, RegState::Pending);
        busy_[r] = allLanes;
        susp_[r] = 0;
        inflight_[r] = 0;
    }

    /** Bulk Pending -> Suspended for the lanes in m. */
    void
    suspendLanes(unsigned r, LaneMask m)
    {
        for (LaneMask t = m; t; t &= t - 1)
            state_[r][std::countr_zero(t)] = RegState::Suspended;
        susp_[r] |= m; // the lanes were Pending: already busy
    }

    /** Bulk Suspended -> Pending (requalification) for the lanes in m. */
    void
    requalifyLanes(unsigned r, LaneMask m)
    {
        for (LaneMask t = m; t; t &= t - 1)
            state_[r][std::countr_zero(t)] = RegState::Pending;
        susp_[r] &= ~m;
    }

    /**
     * Bulk resolve bookkeeping: the caller has already written the
     * value and state rows of the lanes in m (now Ready); zero_bits
     * carries their new zero-bitmap bits (subset of m).
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
    /** True iff some pending load owns register r (cheap precheck). */
    bool
    hasPendingOwner(unsigned r) const
    {
        return r < owner_.size() && owner_[r] != nullptr;
    }

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

    /** Record a new pending load; assigns it a unique id. */
    PendingLoad &addPending(PendingLoad &&pl);

    /**
     * Create an empty pending load in place (avoids moving the filled
     * record into the map); the caller fills it, then claims register
     * ownership with claimOwners.
     */
    PendingLoad &emplacePending();

    /** Point pl's destination registers at it (addPending's tail). */
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

    bool
    hasUnfinishedMemory() const
    {
        return !pendings_.empty() || outstanding_txs_ > 0;
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
    std::vector<std::array<RegState, wavefrontSize>> state_;
    std::vector<LaneMask> busy_;     //!< non-Ready lanes per vreg
    std::vector<LaneMask> susp_;     //!< Suspended lanes per vreg
    std::vector<LaneMask> inflight_; //!< InFlight lanes per vreg
    std::vector<LaneMask> zero_;     //!< zero-valued lanes per vreg
    std::unordered_map<unsigned, PendingLoad> pendings_; //!< by id
    unsigned next_pending_id_ = 0;
    /** reg -> the pending load that owns it, or nullptr. */
    std::vector<PendingLoad *> owner_;

    friend class ComputeUnit;
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

/**
 * Requalify inst's operand registers regs before it executes: a
 * Suspended lane whose counterpart is no longer a Ready zero is needed
 * after all and goes back to Pending. skip_requalify models the
 * injected fault that leaves such lanes wrongly reading as zero.
 *
 * @return true when some lane of regs is Pending or InFlight, so the
 *         instruction must wait for memory.
 */
bool requalifyOperands(Wavefront &wave, const Instruction &inst,
                       const std::vector<unsigned> &regs, ExecMode mode,
                       bool skip_requalify);

} // namespace lazygpu

#endif // LAZYGPU_GPU_WAVEFRONT_HH
