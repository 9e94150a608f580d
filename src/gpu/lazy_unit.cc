#include "gpu/lazy_unit.hh"

#include <algorithm>
#include <bit>

#include "mem/memory.hh"
#include "sim/logging.hh"

#ifdef LAZYGPU_CHECK
#include "verif/invariants.hh"
#endif

namespace lazygpu
{

VectorReads
vectorReads(const Instruction &inst)
{
    VectorReads out;
    auto add = [&out](unsigned r) { out.regs[out.size++] = r; };
    if (inst.src0.kind == SrcKind::VReg)
        add(inst.src0.value);
    if (inst.src1.kind == SrcKind::VReg)
        add(inst.src1.value);
    if (inst.op == Opcode::VMacF32)
        add(inst.dst);
    for (unsigned r = 0; r < storeBytes(inst.op) / 4; ++r)
        add(inst.src2.value + r);
    return out;
}

void
DecodeWindow::build(const Kernel &kernel)
{
    kernel_ = &kernel;
    const auto &code = kernel.code;
    pcs_.assign(code.size() + 1, {});
    for (unsigned pc = 0; pc < code.size(); ++pc)
        pcs_[pc].reads = vectorReads(code[pc]);
    ops_.clear();
    std::vector<std::uint32_t> stamp(kernel.numVregs, 0);
    for (unsigned start = 0; start < code.size(); ++start) {
        pcs_[start].begin = static_cast<std::uint32_t>(ops_.size());
        const unsigned end = std::min<std::size_t>(start + lookAhead,
                                                   code.size());
        for (unsigned pc = start; pc < end; ++pc) {
            const Instruction &inst = code[pc];
            if (isBranch(inst.op) || inst.op == Opcode::SEndpgm)
                break;
            if (isScalar(inst.op))
                continue;
            for (unsigned reg : pcs_[pc].reads) {
                if (reg < stamp.size() && stamp[reg] != start + 1) {
                    stamp[reg] = start + 1;
                    ops_.push_back(Operand{&inst, reg});
                }
            }
        }
    }
    pcs_.back().begin = static_cast<std::uint32_t>(ops_.size());
}

LazyUnit::LazyUnit(StatsRegistry &stats, const std::string &prefix,
                   const GpuConfig &cfg, GlobalMemory &mem,
                   const DecodeWindow &window, Transport &transport)
    : valuInsts(stats.counter(prefix + "valu_insts")),
      saluInsts(stats.counter(prefix + "salu_insts")),
      loadInsts(stats.counter(prefix + "load_insts")),
      storeInsts(stats.counter(prefix + "store_insts")),
      txsIssued(stats.counter(prefix + "txs_issued")),
      txsCompleted(stats.counter(prefix + "txs_completed")),
      txsElimZero(stats.counter(prefix + "txs_elim_zero")),
      txsElimOtimes(stats.counter(prefix + "txs_elim_otimes")),
      txsElimDead(stats.counter(prefix + "txs_elim_dead")),
      txsEagerFallback(stats.counter(prefix + "txs_eager_fallback")),
      storeTxs(stats.counter(prefix + "store_txs")),
      storeTxsZeroSkipped(
          stats.counter(prefix + "store_txs_zero_skipped")),
      maskReads(stats.counter(prefix + "mask_reads")),
      maskWrites(stats.counter(prefix + "mask_writes")),
      zcShortCircuits(stats.counter(prefix + "zc_short_circuits")),
      lanesZeroed(stats.counter(prefix + "lanes_zeroed")),
      lanesSuspended(stats.counter(prefix + "lanes_suspended")),
      mem_(mem), window_(window), transport_(transport), mode_(cfg.mode),
      zc_(cfg.l1Zero.size > 0 && cfg.l2Zero.size > 0),
      wants_masks_(zc_ && (hasZeroElimination(mode_) ||
                           mode_ == ExecMode::EagerZC)),
      skip_requalify_(cfg.injectSkipSuspendRequalify)
{
}

bool
LazyUnit::prepare(Wavefront &wave, const Instruction &inst)
{
    // The registers inst overwrites: a load's destinations or a VALU
    // result. VMacF32 reads its destination; a store writes none.
    unsigned writes = 1;
    if (isLoad(inst.op))
        writes = loadDstRegs(inst.op);
    else if (isStore(inst.op) || inst.op == Opcode::VMacF32)
        writes = 0;
    return operandsReady(wave, inst) && overwrite(wave, inst.dst, writes);
}

bool
LazyUnit::operandsReady(Wavefront &wave, const Instruction &inst)
{
    // Requalify: a Suspended lane whose counterpart is no longer a Ready
    // zero is needed after all and goes back to Pending. skip_requalify_
    // models the injected fault that leaves it wrongly reading as zero.
    const VectorReads &regs = window_.reads(wave.pc);
    bool must_fetch = false;
    for (unsigned reg : regs) {
        if (!wave.anyNotReady(reg))
            continue;
        const LaneMask stale = wave.suspendedMask(reg) &
                               ~zeroCounterpartLanes(wave, inst, reg, mode_);
        if (stale && !skip_requalify_)
            wave.requalifyLanes(reg, stale);
        must_fetch |= (wave.busyMask(reg) & ~wave.suspendedMask(reg)) != 0;
    }
    if (!must_fetch)
        return true;
    bundleIssue(wave);
    for (unsigned reg : regs) {
        if ((wave.pendingMask(reg) | wave.inFlightMask(reg)) != 0)
            return false;
    }
    return true;
}

void
LazyUnit::bundleIssue(Wavefront &wave)
{
    if (wave.pendings().empty())
        return;
    panic_if(&wave.kernel() != window_.kernel(),
             "decode window built for another kernel");
    std::vector<unsigned> &ids = scratch_ids_;
    ids.clear();
    for (const DecodeWindow::Operand &op : window_.at(wave.pc)) {
        PendingLoad *pl = wave.pendingFor(op.reg);
        if (!pl)
            continue;
        if (isOtimes(op.inst->op)) {
            if (const LaneMask m =
                    suspendForOtimes(wave, *pl, *op.inst, op.reg, mode_)) {
                lanesSuspended += std::popcount(m);
                transport_.suspended(*pl, std::popcount(m));
            }
        }
        if (wave.pendingMask(op.reg) != 0 &&
            std::find(ids.begin(), ids.end(), pl->id) == ids.end()) {
            ids.push_back(pl->id);
        }
    }
    for (unsigned id : ids) {
        PendingLoad *pl = wave.findPending(id);
        if (!pl)
            continue;
        if (pl->masksOutstanding > 0)
            pl->issueRequested = true;
        else
            issue(wave, *pl);
    }
}

bool
LazyUnit::overwrite(Wavefront &wave, unsigned first, unsigned nregs)
{
    // WAW: an in-flight fill may not race the overwrite.
    for (unsigned r = first; r < first + nregs; ++r) {
        if (wave.anyInFlight(r))
            return false;
    }
    for (unsigned r = first; r < first + nregs; ++r) {
        if (PendingLoad *pl = wave.pendingFor(r))
            eliminate(wave, *pl, r);
    }
    return true;
}

PendingLoad *
LazyUnit::record(Wavefront &wave, const Instruction &inst, Tick now)
{
    ++loadInsts;
    // Reuse a recycled load so the per-load heap round trip disappears
    // in steady state.
    std::unique_ptr<PendingLoad> reuse;
    auto &pool = pool_[static_cast<unsigned>(inst.op)];
    if (!pool.empty()) {
        reuse = std::move(pool.back());
        pool.pop_back();
    }
    PendingLoad &pl = recordLoad(wave, inst, now, std::move(reuse));
    if (!isLazy(mode_) || encodable(pl))
        return &pl;
    txsEagerFallback += pl.txs.size();
    issue(wave, pl);
    return nullptr;
}

const std::vector<Addr> &
LazyUnit::coalesceMasks()
{
    coalescer_.coalesce(scratch_mask_bytes_.data(),
                        scratch_mask_bytes_.size(), 1, scratch_mask_txs_);
    return scratch_mask_txs_;
}

const std::vector<Addr> &
LazyUnit::readMasks(const PendingLoad &pl)
{
    scratch_mask_bytes_.clear();
    for (const PendingLoad::Tx &tx : pl.txs)
        scratch_mask_bytes_.push_back(GlobalMemory::maskAddr(tx.addr));
    maskReads += coalesceMasks().size();
    return scratch_mask_txs_;
}

void
LazyUnit::maskArrived(Wavefront &wave, PendingLoad &pl, Addr lo, Addr hi,
                      inject::Injector *inj, Tick now)
{
    ElimTally tally;
    lanesZeroed += zeroPendingWords(wave, pl, lo, hi, mem_, inj, now, tally);
    countEliminated(pl, tally);
    finishIfResolved(wave, pl);
}

void
LazyUnit::issue(Wavefront &wave, PendingLoad &pl)
{
    for (unsigned i = 0; i < pl.txs.size(); ++i) {
        PendingLoad::Tx &tx = pl.txs[i];
        if (tx.outcome != TxOutcome::Unissued ||
            !hasPendingWord(wave, pl, tx)) {
            continue; // entirely suspended/resolved: stays parked
        }
        // EagerZC (Fig 9): the L1 Zero Cache is probed in parallel with
        // the data path; with the mask on hand and every needed word
        // zero, the L2 access is skipped -- but the request has already
        // taken the issue slot and the LSU.
        const bool short_circuit =
            mode_ == ExecMode::EagerZC && busyWordsZero(mem_, wave, pl, tx) &&
            transport_.maskResident(GlobalMemory::maskAddr(tx.addr));
        markIssued(wave, pl, tx);
        ++(short_circuit ? zcShortCircuits : txsIssued);
        transport_.send(wave, pl, i, short_circuit);
    }
    finishIfResolved(wave, pl);
}

void
LazyUnit::finishIfResolved(Wavefront &wave, PendingLoad &pl)
{
    if (pl.wordsLeft != 0)
        return;
    auto &pool = pool_[static_cast<unsigned>(pl.op)];
    std::unique_ptr<PendingLoad> done = wave.removePending(pl.id);
    if (done && pool.size() < poolCap)
        pool.push_back(std::move(done));
}

void
LazyUnit::store(Wavefront &wave, const Instruction &inst)
{
    ++storeInsts;
    const unsigned nregs = storeBytes(inst.op) / 4;
    std::array<Addr, wavefrontSize> &lane_addr = scratch_lane_addr_;
    for (unsigned lane = 0; lane < wavefrontSize; ++lane) {
        lane_addr[lane] = inst.base + wave.vreg(inst.src0.value, lane);
        for (unsigned r = 0; r < nregs; ++r) {
            mem_.writeU32(lane_addr[lane] + 4ull * r,
                          wave.vreg(inst.src2.value + r, lane));
        }
    }
    std::vector<Addr> &txs = scratch_txs_;
    coalescer_.coalesce(lane_addr.data(), lane_addr.size(),
                        storeBytes(inst.op), txs);
#ifdef LAZYGPU_CHECK
    for (Addr ta : txs)
        verif::checkMaskCoherence(mem_, ta);
#endif
    if (zc_) {
        // Fig 7 write path: the zero masks always follow the data, so
        // the Zero Caches stay coherent.
        scratch_mask_bytes_.clear();
        for (Addr ta : txs)
            scratch_mask_bytes_.push_back(GlobalMemory::maskAddr(ta));
        for (Addr ma : coalesceMasks()) {
            ++maskWrites;
            transport_.writeMask(ma);
        }
    }
    for (Addr ta : txs) {
        const bool zero = zc_ && hasZeroElimination(mode_) &&
                          mem_.zeroMaskByte(ta) == 0xff;
        ++(zero ? storeTxsZeroSkipped : storeTxs);
        transport_.writeData(ta, zero);
    }
}

void
LazyUnit::retire(Wavefront &wave)
{
    // The observer must see which lanes were architecturally live before
    // the parked loads' values are discarded (Sec 4.3: they can never be
    // observed now).
    if (retire_obs_)
        retire_obs_(wave);
    for (unsigned r = 0; r < wave.kernel().numVregs; ++r) {
        if (PendingLoad *pl = wave.pendingFor(r))
            eliminate(wave, *pl, r);
    }
}

void
LazyUnit::eliminate(Wavefront &wave, PendingLoad &pl, unsigned reg)
{
    ElimTally tally;
    eliminateRegister(wave, pl, reg, tally);
    countEliminated(pl, tally);
    finishIfResolved(wave, pl);
}

void
LazyUnit::countEliminated(const PendingLoad &pl, const ElimTally &tally)
{
    if (tally.zero + tally.otimes + tally.dead == 0)
        return;
    txsElimZero += tally.zero;
    txsElimOtimes += tally.otimes;
    txsElimDead += tally.dead;
    transport_.eliminated(pl, tally);
}

} // namespace lazygpu
