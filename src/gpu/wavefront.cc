#include "gpu/wavefront.hh"

#include <algorithm>
#include <bit>

#include "gpu/coalescer.hh"
#include "inject/fault.hh"
#include "isa/encoding.hh"
#include "isa/eval.hh"
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
Wavefront::emplacePending()
{
    const unsigned id = next_pending_id_++;
    auto [it, fresh] = pendings_.try_emplace(id);
    panic_if(!fresh, "pending-load id reused");
    it->second.id = id;
    return it->second;
}

void
Wavefront::claimOwners(PendingLoad &pl)
{
    for (unsigned r = pl.firstDst; r < pl.firstDst + pl.numRegs; ++r)
        owner_[r] = &pl;
}

void
Wavefront::removePending(unsigned id)
{
    auto it = pendings_.find(id);
    if (it == pendings_.end())
        return;
    const PendingLoad &pl = it->second;
    for (unsigned r = pl.firstDst; r < pl.firstDst + pl.numRegs; ++r) {
        if (owner_[r] == &pl)
            owner_[r] = nullptr;
    }
    pendings_.erase(it);
}

namespace
{

using RegLanes = std::array<LaneMask, maxLoadRegs>;

/** fn(r, lane) for every word of m, lane by lane, registers in order. */
template <class Fn>
void
forEachWord(const RegLanes &m, unsigned nregs, Fn &&fn)
{
    LaneMask any = 0;
    for (unsigned r = 0; r < nregs; ++r)
        any |= m[r];
    for (; any; any &= any - 1) {
        const unsigned lane = std::countr_zero(any);
        for (unsigned r = 0; r < nregs; ++r) {
            if ((m[r] >> lane) & 1)
                fn(r, lane);
        }
    }
}

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
           std::vector<PendingLoad::Tx> txs)
{
    PendingLoad &pl = wave.emplacePending();
    pl.op = inst.op;
    pl.firstDst = inst.dst;
    pl.numRegs = loadDstRegs(inst.op);
    pl.recordTick = now;
    for (unsigned lane = 0; lane < wavefrontSize; ++lane)
        pl.laneAddr[lane] = inst.base + wave.vreg(inst.src0.value, lane);

    // Consecutive lanes almost always hit the same transaction
    // (unit-stride loads), so only an address change searches the list.
    const unsigned bytes = std::min(loadBytes(inst.op), maskGranularity);
    pl.txs = std::move(txs);
    pl.txs.reserve(pl.numRegs * wavefrontSize * std::size_t(bytes) /
                   transactionSize);
    PendingLoad::Tx *tx = nullptr;
    for (unsigned lane = 0; lane < wavefrontSize; ++lane) {
        for (unsigned r = 0; r < pl.numRegs; ++r) {
            const Addr wa = pl.wordAddr(r, lane);
            const Addr ta = txAlign(wa);
            panic_if(txAlign(wa + bytes - 1) != ta,
                     "load word straddles a transaction; kernels must "
                     "use naturally aligned accesses");
            if (!tx || tx->addr != ta) {
                auto it = std::find_if(
                    pl.txs.begin(), pl.txs.end(),
                    [ta](const PendingLoad::Tx &t) { return t.addr == ta; });
                tx = it != pl.txs.end()
                         ? &*it
                         : &pl.txs.emplace_back(PendingLoad::Tx{ta});
            }
            tx->lanes[r] |= LaneMask(1) << lane;
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
    const std::uint64_t shared_upper = upperBits(pl.laneAddr[0]);
    for (Addr a : pl.laneAddr) {
        if (upperBits(a) != shared_upper)
            return false;
    }
    return true;
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
    for (unsigned r = 0; r < pl.numRegs; ++r) {
        for (LaneMask t = busy[r]; t; t &= t - 1) {
            if (!mem.isZeroWord(pl.wordAddr(r, std::countr_zero(t))))
                return false;
        }
    }
    return true;
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
        RegLanes zero{};
        forEachWord(pending, pl.numRegs, [&](unsigned r, unsigned lane) {
            bool z = mem.isZeroWord(pl.wordAddr(r, lane));
            if (inj)
                z ^= inj->flipZeroProbe(now);
            zero[r] |= LaneMask(z) << lane;
        });
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
    RegLanes zero{};
    forEachWord(busy, pl.numRegs, [&](unsigned r, unsigned lane) {
        std::uint32_t v = isa::loadRegWord(mem, pl.op, pl.laneAddr[lane], r);
        if (inj)
            v = inj->filterLoadWord(now, v);
        wave.valueRow(pl.firstDst + r)[lane] = v;
        zero[r] |= LaneMask(v == 0) << lane;
    });
    unsigned n = 0;
    for (unsigned r = 0; r < pl.numRegs; ++r) {
        wave.resolveLanes(pl.firstDst + r, busy[r], zero[r]);
        n += std::popcount(busy[r]);
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
