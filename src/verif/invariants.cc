#include "verif/invariants.hh"

#include <bit>
#include <vector>

#include "sim/logging.hh"

namespace lazygpu
{
namespace verif
{

void
checkWavefront(const Wavefront &wave, ExecMode mode)
{
    const unsigned nvregs = wave.kernel().numVregs;
    const unsigned wid = wave.wid();

    // A load's destination range may be partially re-owned by a newer
    // load (multi-register loads overlap); ownership is therefore
    // per-register, from the wavefront's owner map. A register with any
    // busy word in some load's transactions must be owned by exactly
    // that load -- a stale word surviving past eliminateRegister is how
    // responses corrupt a newer writer's scoreboard state. The holder
    // table is reused across calls, so the check allocates nothing once
    // it has seen the widest kernel.
    static thread_local std::vector<const PendingLoad *> holder;
    holder.assign(nvregs, nullptr);
    for (const auto &p : wave.pendings()) {
        const PendingLoad &pl = *p;
        const unsigned id = pl.id;
        panic_if(pl.firstDst + pl.numRegs > nvregs,
                 "wid %u: pending load %u claims vreg %u of %u", wid, id,
                 pl.firstDst + pl.numRegs - 1, nvregs);
        for (const auto &tx : pl.txs) {
            for (unsigned r = 0; r < pl.numRegs; ++r) {
                const unsigned reg = pl.firstDst + r;
                const LaneMask busy = tx.lanes[r] & wave.busyMask(reg);
                if (!busy)
                    continue;
                panic_if(holder[reg] != nullptr && holder[reg] != &pl,
                         "wid %u: vreg %u has unresolved words in two "
                         "pending loads", wid, reg);
                holder[reg] = &pl;
                panic_if(wave.pendingFor(reg) != &pl,
                         "wid %u: load %u holds an unresolved word of "
                         "vreg %u lane %d it no longer owns", wid, id,
                         reg, std::countr_zero(busy));
            }
        }
    }

    unsigned suspended_lanes = 0;
    for (unsigned r = 0; r < nvregs; ++r) {
        const LaneMask busy = wave.busyMask(r);
        const LaneMask susp = wave.suspendedMask(r);
        const LaneMask infl = wave.inFlightMask(r);
        panic_if(susp & ~busy,
                 "wid %u: vreg %u suspended lanes %llx are not busy", wid,
                 r, static_cast<unsigned long long>(susp & ~busy));
        panic_if(infl & ~busy,
                 "wid %u: vreg %u in-flight lanes %llx are not busy", wid,
                 r, static_cast<unsigned long long>(infl & ~busy));
        panic_if(susp & infl,
                 "wid %u: vreg %u lanes %llx are both suspended and in "
                 "flight", wid, r,
                 static_cast<unsigned long long>(susp & infl));
        LaneMask zero = 0;
        for (unsigned lane = 0; lane < wavefrontSize; ++lane)
            zero |= LaneMask(wave.vreg(r, lane) == 0) << lane;
        panic_if(zero != wave.zeroMask(r),
                 "wid %u: vreg %u zero bitmap %llx, recount %llx", wid, r,
                 static_cast<unsigned long long>(wave.zeroMask(r)),
                 static_cast<unsigned long long>(zero));
        panic_if(busy != 0 && wave.pendingFor(r) == nullptr,
                 "wid %u: vreg %u has busy lanes but no pending load",
                 wid, r);
        suspended_lanes += std::popcount(susp);
    }
    panic_if(suspended_lanes != 0 && !hasOtimesElimination(mode),
             "wid %u: %u Suspended lanes in mode %s", wid, suspended_lanes,
             toString(mode).c_str());

    unsigned inflight_txs = 0;
    for (const auto &p : wave.pendings()) {
        const PendingLoad &pl = *p;
        const unsigned id = pl.id;
        inflight_txs += pl.inflightTxs;
        unsigned words_left = 0;
        for (const auto &tx : pl.txs) {
            unsigned not_ready = 0;
            for (unsigned r = 0; r < pl.numRegs; ++r) {
                const unsigned reg = pl.firstDst + r;
                const LaneMask busy = tx.lanes[r] & wave.busyMask(reg);
                const LaneMask infl = busy & wave.inFlightMask(reg);
                const LaneMask parked = busy & ~infl;
                const LaneMask susp = busy & wave.suspendedMask(reg);
                not_ready += std::popcount(busy);
                panic_if(infl && tx.outcome != TxOutcome::Issued,
                         "wid %u: InFlight word of vreg %u lane %d in a "
                         "transaction never issued", wid, reg,
                         std::countr_zero(infl));
                panic_if(parked && tx.outcome != TxOutcome::Unissued,
                         "wid %u: %s word of vreg %u lane %d in a "
                         "resolved transaction", wid,
                         susp & parked ? "Suspended" : "Pending", reg,
                         std::countr_zero(parked));
                panic_if(susp && !tx.hadSuspended,
                         "wid %u: Suspended word of vreg %u lane %d in a "
                         "transaction not flagged hadSuspended", wid, reg,
                         std::countr_zero(susp));
            }
            panic_if(not_ready != tx.unresolved,
                     "wid %u: load %u tx 0x%llx unresolved %u, "
                     "recount %u", wid, id,
                     static_cast<unsigned long long>(tx.addr),
                     tx.unresolved, not_ready);
            words_left += tx.unresolved;
        }
        panic_if(words_left != pl.wordsLeft,
                 "wid %u: load %u wordsLeft %u, recount %u", wid, id,
                 pl.wordsLeft, words_left);
    }
    panic_if(wave.outstanding_txs_ < inflight_txs,
             "wid %u: %u outstanding data txs < %u pending-load in-flight "
             "txs", wid, wave.outstanding_txs_, inflight_txs);
}

void
checkMaskCoherence(const GlobalMemory &mem, Addr tx_addr)
{
    const Addr block = tx_addr & ~Addr(transactionSize - 1);
    const std::uint8_t mask = mem.zeroMaskByte(block);
    for (unsigned i = 0; i < transactionSize / maskGranularity; ++i) {
        const bool bit = (mask >> i) & 1;
        const bool zero = mem.isZeroWord(block + Addr(i) * maskGranularity);
        panic_if(bit != zero,
                 "zero mask of block 0x%llx bit %u says %s but the word "
                 "is %s",
                 static_cast<unsigned long long>(block), i,
                 bit ? "zero" : "nonzero", zero ? "zero" : "nonzero");
    }
}

} // namespace verif
} // namespace lazygpu
