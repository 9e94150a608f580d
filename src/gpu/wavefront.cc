#include "gpu/wavefront.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "gpu/coalescer.hh"
#include "inject/fault.hh"
#include "isa/encoding.hh"
#include "mem/memory.hh"
#include "sim/logging.hh"

namespace lazygpu
{

Wavefront::Wavefront(const Kernel &kernel, unsigned wid)
    : kernel_(&kernel), wid_(wid), values_(kernel.numVregs),
      busy_(kernel.numVregs, 0), susp_(kernel.numVregs, 0),
      inflight_(kernel.numVregs, 0), zero_(kernel.numVregs, allLanes),
      owner_(kernel.numVregs, nullptr)
{
    // values_ is value-initialised by the vector fill constructor: every
    // word reads 0 without a second zeroing pass, so the zero bitmap
    // starts at allLanes, and every lane starts Ready.
    sregs.assign(kernel.numSregs, 0);
    sregs[0] = wid;
    if (kernel.initSregs)
        kernel.initSregs(wid, sregs);
}

PendingLoad &
Wavefront::emplacePending(std::unique_ptr<PendingLoad> pl)
{
    const unsigned id = next_pending_id_++;
    panic_if(findPending(id), "pending-load id reused");
    pl->id = id;
    return *pendings_.emplace_back(std::move(pl));
}

void
Wavefront::claimOwners(PendingLoad &pl)
{
    for (unsigned r = pl.firstDst; r < pl.firstDst + pl.numRegs; ++r)
        owner_[r] = &pl;
}

std::unique_ptr<PendingLoad>
Wavefront::removePending(unsigned id)
{
    auto it = std::find_if(pendings_.begin(), pendings_.end(),
                           [id](const std::unique_ptr<PendingLoad> &pl) {
                               return pl->id == id;
                           });
    if (it == pendings_.end())
        return nullptr;
    std::unique_ptr<PendingLoad> pl = std::move(*it);
    for (unsigned r = pl->firstDst; r < pl->firstDst + pl->numRegs; ++r) {
        if (owner_[r] == pl.get())
            owner_[r] = nullptr;
    }
    *it = std::move(pendings_.back());
    pendings_.pop_back();
    return pl;
}

void
execValu(Wavefront &wave, const Instruction &inst)
{
    std::uint32_t *dst = wave.valueRow(inst.dst);
    panic_if(!isa::evalValuPlane(inst.op, dst, planeSrc(wave, inst.src0),
                                 planeSrc(wave, inst.src1), wave.wid()),
             "unhandled VALU opcode %s", opcodeName(inst.op).c_str());
    wave.setZeroMask(inst.dst, isa::zeroLanes(dst));
}

namespace
{

using RegLanes = std::array<LaneMask, maxLoadRegs>;

/** The words of tx whose scoreboard lanes are in want(reg). */
template <class Want>
RegLanes
txWords(const PendingLoad &pl, const PendingLoad::Tx &tx, Want &&want)
{
    RegLanes m{};
    for (unsigned r = 0; r < pl.numRegs; ++r)
        m[r] = tx.lanes[r] & want(pl.firstDst + r);
    return m;
}

RegLanes
busyWords(const Wavefront &wave, const PendingLoad &pl,
          const PendingLoad::Tx &tx)
{
    return txWords(pl, tx, [&](unsigned r) { return wave.busyMask(r); });
}

/** The lanes with a word in m. */
LaneMask
anyLane(const PendingLoad &pl, const RegLanes &m)
{
    LaneMask any = 0;
    for (unsigned r = 0; r < pl.numRegs; ++r)
        any |= m[r];
    return any;
}

/** Lanes 0 .. n-1. */
LaneMask
lanesBelow(unsigned n)
{
    return n >= wavefrontSize ? allLanes : (LaneMask(1) << n) - 1;
}

/**
 * The first word of the non-empty m in lane-major order: the lowest
 * lane, then that lane's lowest register. The one-shot fault hooks are
 * asked about this word only (DESIGN §15).
 */
struct Word
{
    unsigned reg;
    unsigned lane;
};

Word
firstWord(const PendingLoad &pl, const RegLanes &m)
{
    const unsigned lane = std::countr_zero(anyLane(pl, m));
    unsigned r = 0;
    while (!((m[r] >> lane) & 1))
        ++r;
    return {r, lane};
}

/**
 * The words of m, all in one transaction, whose bit in that
 * transaction's zero-mask byte zm is set: bit k covers the block's
 * k-th 4 B word.
 */
RegLanes
maskedZeroWords(const PendingLoad &pl, std::uint8_t zm, const RegLanes &m)
{
    if (zm == 0xff)
        return m;
    RegLanes zero{};
    if (zm == 0)
        return zero;
    constexpr unsigned wordsPerTx = transactionSize / maskGranularity;
    for (unsigned r = 0; r < pl.numRegs; ++r) {
        for (LaneMask t = m[r]; t; t &= t - 1) {
            const unsigned lane = std::countr_zero(t);
            const unsigned k =
                pl.wordAddr(r, lane) / maskGranularity % wordsPerTx;
            zero[r] |= LaneMask((zm >> k) & 1) << lane;
        }
    }
    return zero;
}

/**
 * The value load op gives a word at byte off of its transaction's
 * block, as isa::loadRegWord defines it: sub-word loads zero-extend.
 * recordLoad guarantees the word ends inside the block.
 */
std::uint32_t
blockWord(const GlobalMemory::Block &block, Opcode op, Addr off)
{
    switch (op) {
      case Opcode::LoadByte:
        return block[off];
      case Opcode::LoadShort:
        return block[off] | (static_cast<std::uint32_t>(block[off + 1]) << 8);
      default:
        std::uint32_t v;
        std::memcpy(&v, block.data() + off, sizeof(v));
        return v;
    }
}

/** The lanes m of register r become Ready, holding zero. */
void
zeroLanes(Wavefront &wave, unsigned r, LaneMask m)
{
    std::uint32_t *row = wave.valueRow(r);
    for (LaneMask t = m; t; t &= t - 1)
        row[std::countr_zero(t)] = 0;
    wave.resolveLanes(r, m, m);
}

/** Resolve the words m of pl as zero; @return how many. */
unsigned
resolveZero(Wavefront &wave, const PendingLoad &pl, const RegLanes &m)
{
    unsigned n = 0;
    for (unsigned r = 0; r < pl.numRegs; ++r) {
        zeroLanes(wave, pl.firstDst + r, m[r]);
        n += std::popcount(m[r]);
    }
    return n;
}

/**
 * Account n newly resolved words of tx. A never-issued tx left with
 * nothing unresolved is eliminated, in the Fig 14 class of its words:
 * zero when the mask zeroed every one, else otimes when one was ever
 * suspended, else dead.
 */
void
settle(PendingLoad &pl, PendingLoad::Tx &tx, unsigned n, ElimTally &tally)
{
    panic_if(n > tx.unresolved, "transaction resolved twice");
    tx.unresolved -= n;
    pl.wordsLeft -= n;
    if (tx.unresolved != 0 || tx.outcome != TxOutcome::Unissued)
        return;
    if (tx.zeroedWords == tx.words) {
        tx.outcome = TxOutcome::EliminatedZero;
        ++tally.zero;
    } else if (tx.hadSuspended) {
        tx.outcome = TxOutcome::EliminatedOtimes;
        ++tally.otimes;
    } else {
        tx.outcome = TxOutcome::EliminatedDead;
        ++tally.dead;
    }
}

} // namespace

PendingLoad &
recordLoad(Wavefront &wave, const Instruction &inst, Tick now,
           std::unique_ptr<PendingLoad> reuse)
{
    if (reuse) {
        // Start from a fresh record, keeping the transaction storage.
        std::vector<PendingLoad::Tx> txs = std::move(reuse->txs);
        txs.clear();
        *reuse = PendingLoad{};
        reuse->txs = std::move(txs);
    } else {
        reuse = std::make_unique<PendingLoad>();
    }
    PendingLoad &pl = wave.emplacePending(std::move(reuse));
    pl.op = inst.op;
    pl.firstDst = inst.dst;
    pl.numRegs = loadDstRegs(inst.op);
    pl.recordTick = now;
    const std::uint32_t *offsets = wave.valueRow(inst.src0.value);
    for (unsigned lane = 0; lane < wavefrontSize; ++lane)
        pl.laneAddr[lane] = inst.base + offsets[lane];

    // A lane reads at most 16 B, so its words lie in its first word's
    // transaction or, spilling over, in the next one. A word straddles
    // a transaction iff its first and last byte differ above the
    // transaction offset bits.
    const unsigned bytes = std::min(loadBytes(inst.op), maskGranularity);
    Addr straddle = 0;
    for (unsigned r = 0; r < pl.numRegs; ++r) {
        for (unsigned lane = 0; lane < wavefrontSize; ++lane) {
            const Addr wa = pl.wordAddr(r, lane);
            straddle |= wa ^ (wa + bytes - 1);
        }
    }
    panic_if(txAlign(straddle) != 0,
             "load word straddles a transaction; kernels must use "
             "naturally aligned accesses");
    RegLanes spill{};
    for (unsigned r = 1; r < pl.numRegs; ++r) {
        for (unsigned lane = 0; lane < wavefrontSize; ++lane) {
            spill[r] |= LaneMask(txAlign(pl.wordAddr(r, lane)) !=
                                 txAlign(pl.laneAddr[lane]))
                        << lane;
        }
    }

    // Transactions in the order lanes first touch them (lane by lane,
    // registers in order within a lane), built one run of consecutive
    // lanes with a common first transaction at a time: a run touches
    // its first transaction, then possibly the next.
    LaneMask starts = 1;
    for (unsigned lane = 1; lane < wavefrontSize; ++lane) {
        starts |= LaneMask(txAlign(pl.laneAddr[lane]) !=
                           txAlign(pl.laneAddr[lane - 1]))
                  << lane;
    }
    pl.txs.reserve(pl.numRegs * wavefrontSize * std::size_t(bytes) /
                   transactionSize);
    const auto txAt = [&pl](Addr ta) -> PendingLoad::Tx & {
        for (PendingLoad::Tx &t : pl.txs) {
            if (t.addr == ta)
                return t;
        }
        return pl.txs.emplace_back(PendingLoad::Tx{ta});
    };
    for (LaneMask s = starts; s;) {
        const unsigned first = std::countr_zero(s);
        s &= s - 1;
        const LaneMask run =
            lanesBelow(s ? std::countr_zero(s) : wavefrontSize) &
            ~lanesBelow(first);
        const Addr ta = txAlign(pl.laneAddr[first]);
        LaneMask spilled = 0;
        PendingLoad::Tx &head = txAt(ta);
        for (unsigned r = 0; r < pl.numRegs; ++r) {
            head.lanes[r] |= run & ~spill[r];
            spilled |= run & spill[r];
        }
        if (spilled) {
            PendingLoad::Tx &next = txAt(ta + transactionSize);
            for (unsigned r = 0; r < pl.numRegs; ++r)
                next.lanes[r] |= run & spill[r];
        }
    }
    for (PendingLoad::Tx &t : pl.txs) {
        for (unsigned r = 0; r < pl.numRegs; ++r)
            t.words += std::popcount(t.lanes[r]);
        t.unresolved = t.words;
    }
    pl.wordsLeft = pl.numRegs * wavefrontSize;

    for (unsigned r = pl.firstDst; r < pl.firstDst + pl.numRegs; ++r) {
        panic_if(wave.anyNotReady(r),
                 "recording a load over a busy destination register");
        wave.markAllPending(r);
    }
    wave.claimOwners(pl);
    return pl;
}

bool
encodable(const PendingLoad &pl)
{
    Addr differ = 0;
    for (Addr a : pl.laneAddr)
        differ |= a ^ pl.laneAddr[0];
    return upperBits(differ) == 0;
}

bool
hasPendingWord(const Wavefront &wave, const PendingLoad &pl,
               const PendingLoad::Tx &tx)
{
    for (unsigned r = 0; r < pl.numRegs; ++r) {
        if (tx.lanes[r] & wave.pendingMask(pl.firstDst + r))
            return true;
    }
    return false;
}

bool
busyWordsZero(const GlobalMemory &mem, const Wavefront &wave,
              const PendingLoad &pl, const PendingLoad::Tx &tx)
{
    const RegLanes busy = busyWords(wave, pl, tx);
    return maskedZeroWords(pl, mem.zeroMaskByte(tx.addr), busy) == busy;
}

void
markIssued(Wavefront &wave, const PendingLoad &pl, PendingLoad::Tx &tx)
{
    tx.outcome = TxOutcome::Issued;
    const RegLanes busy = busyWords(wave, pl, tx);
    for (unsigned r = 0; r < pl.numRegs; ++r)
        wave.issueLanes(pl.firstDst + r, busy[r]);
}

unsigned
zeroPendingWords(Wavefront &wave, PendingLoad &pl, Addr lo, Addr hi,
                 const GlobalMemory &mem, inject::Injector *inj, Tick now,
                 ElimTally &tally)
{
    unsigned zeroed = 0;
    for (PendingLoad::Tx &tx : pl.txs) {
        if (tx.outcome != TxOutcome::Unissued || tx.addr < lo ||
            tx.addr >= hi) {
            continue;
        }
        const RegLanes pending = txWords(
            pl, tx, [&](unsigned r) { return wave.pendingMask(r); });
        // Only a transaction with a Pending word is probed, so only it
        // asks the zero-mask-flip hook (DESIGN §15).
        if (!anyLane(pl, pending))
            continue;
        RegLanes zero =
            maskedZeroWords(pl, mem.zeroMaskByte(tx.addr), pending);
        if (inj && inj->flipZeroProbe(now)) {
            const Word w = firstWord(pl, pending);
            zero[w.reg] ^= LaneMask(1) << w.lane;
        }
        const unsigned n = resolveZero(wave, pl, zero);
        tx.zeroedWords += n;
        settle(pl, tx, n, tally);
        zeroed += n;
    }
    return zeroed;
}

void
fillBusyWords(Wavefront &wave, PendingLoad &pl, PendingLoad::Tx &tx,
              const GlobalMemory &mem, inject::Injector *inj, Tick now)
{
    const RegLanes busy = busyWords(wave, pl, tx);
    const GlobalMemory::Block block = mem.readBlock(tx.addr);
    unsigned n = 0;
    for (unsigned r = 0; r < pl.numRegs; ++r) {
        std::uint32_t *row = wave.valueRow(pl.firstDst + r);
        LaneMask zero = 0;
        for (LaneMask t = busy[r]; t; t &= t - 1) {
            const unsigned lane = std::countr_zero(t);
            const std::uint32_t v =
                blockWord(block, pl.op, pl.wordAddr(r, lane) - tx.addr);
            row[lane] = v;
            zero |= LaneMask(v == 0) << lane;
        }
        wave.resolveLanes(pl.firstDst + r, busy[r], zero);
        n += std::popcount(busy[r]);
    }
    if (inj && n != 0) {
        const Word w = firstWord(pl, busy);
        const unsigned reg = pl.firstDst + w.reg;
        wave.setVreg(reg, w.lane,
                     inj->filterLoadWord(now, wave.vreg(reg, w.lane)));
    }
    ElimTally issued; // an Issued tx is never eliminated
    settle(pl, tx, n, issued);
}

void
zeroBusyWords(Wavefront &wave, PendingLoad &pl, PendingLoad::Tx &tx)
{
    ElimTally issued; // an Issued tx is never eliminated
    settle(pl, tx, resolveZero(wave, pl, busyWords(wave, pl, tx)), issued);
}

LaneMask
suspendForOtimes(Wavefront &wave, PendingLoad &pl, const Instruction &inst,
                 unsigned reg, ExecMode mode)
{
    const LaneMask m =
        wave.pendingMask(reg) & zeroCounterpartLanes(wave, inst, reg, mode);
    if (!m)
        return 0;
    wave.suspendLanes(reg, m);
    for (PendingLoad::Tx &tx : pl.txs)
        tx.hadSuspended |= (tx.lanes[reg - pl.firstDst] & m) != 0;
    return m;
}

void
eliminateRegister(Wavefront &wave, PendingLoad &pl, unsigned reg,
                  ElimTally &tally)
{
    const unsigned off = reg - pl.firstDst;
    const LaneMask dead = wave.busyMask(reg) & ~wave.inFlightMask(reg);
    zeroLanes(wave, reg, dead);
    LaneMask covered = 0;
    for (PendingLoad::Tx &tx : pl.txs) {
        if (const LaneMask words = tx.lanes[off] & dead) {
            covered |= words;
            settle(pl, tx, std::popcount(words), tally);
        }
    }
    panic_if(covered != dead, "word outside its load's footprint");
    if (pl.wordsLeft == 0)
        return; // the caller removes pl outright
    const LaneMask ready = ~wave.busyMask(reg);
    for (PendingLoad::Tx &tx : pl.txs) {
        tx.words -= std::popcount(tx.lanes[off] & ready);
        tx.lanes[off] &= ~ready;
    }
}

} // namespace lazygpu
