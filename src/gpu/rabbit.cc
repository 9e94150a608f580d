#include "gpu/rabbit.hh"

#include <algorithm>
#include <bit>
#include <string>

#include "isa/eval.hh"
#include "isa/simd.hh"
#include "sim/logging.hh"

namespace lazygpu
{

namespace
{

std::string
rabbitStat(const char *leaf)
{
    return std::string("gpu.rabbit.") + leaf;
}

} // namespace

RabbitExecutor::RabbitExecutor(const GpuConfig &cfg, GlobalMemory &mem,
                               StatsRegistry &stats, Engine *engine)
    : cfg_(cfg), mem_(mem), engine_(engine), mode_(cfg.mode),
      zc_(cfg.l1Zero.size > 0 && cfg.l2Zero.size > 0),
      zl1_line_(cfg.l1Zero.lineSize ? cfg.l1Zero.lineSize : 64),
      mask_line_cap_(zc_ ? std::size_t(cfg.numShaderArrays) *
                               static_cast<std::size_t>(cfg.l1Zero.size /
                                                        zl1_line_)
                         : 0),
      beat_countdown_(beatInterval),
      valu_insts_(stats.counter(rabbitStat("valu_insts"))),
      salu_insts_(stats.counter(rabbitStat("salu_insts"))),
      load_insts_(stats.counter(rabbitStat("load_insts"))),
      store_insts_(stats.counter(rabbitStat("store_insts"))),
      txs_issued_(stats.counter(rabbitStat("txs_issued"))),
      txs_completed_(stats.counter(rabbitStat("txs_completed"))),
      txs_elim_zero_(stats.counter(rabbitStat("txs_elim_zero"))),
      txs_elim_otimes_(stats.counter(rabbitStat("txs_elim_otimes"))),
      txs_elim_dead_(stats.counter(rabbitStat("txs_elim_dead"))),
      txs_eager_fallback_(
          stats.counter(rabbitStat("txs_eager_fallback"))),
      store_txs_(stats.counter(rabbitStat("store_txs"))),
      store_txs_zero_skipped_(
          stats.counter(rabbitStat("store_txs_zero_skipped"))),
      mask_reads_(stats.counter(rabbitStat("mask_reads"))),
      mask_writes_(stats.counter(rabbitStat("mask_writes"))),
      zc_short_circuits_(stats.counter(rabbitStat("zc_short_circuits"))),
      lanes_zeroed_(stats.counter(rabbitStat("lanes_zeroed"))),
      lanes_suspended_(stats.counter(rabbitStat("lanes_suspended")))
{
}

std::uint64_t
RabbitExecutor::run(const Kernel &kernel, unsigned wid,
                    std::uint64_t max_insts)
{
    Wavefront wave(kernel, wid);
    const auto &code = kernel.code;
    std::uint64_t insts = 0;
    bool done = false;

    while (!done) {
        fatal_if(wave.pc >= code.size(),
                 "rabbit: wid %u ran past the end of '%s' (pc %u)", wid,
                 kernel.name.c_str(), wave.pc);
        fatal_if(++insts > max_insts,
                 "rabbit: wid %u exceeded %llu instructions in '%s'; "
                 "livelocked kernel",
                 wid, static_cast<unsigned long long>(max_insts),
                 kernel.name.c_str());
        ++total_insts_;
        if (--beat_countdown_ == 0) {
            beat_countdown_ = beatInterval;
            heartbeat();
        }

        const Instruction &inst = code[wave.pc];
        if (isScalar(inst.op))
            execScalar(wave, inst, done);
        else if (isLoad(inst.op))
            execLoad(wave, inst);
        else if (isStore(inst.op))
            execStore(wave, inst);
        else
            execValu(wave, inst);
    }
    heartbeat();
    return insts;
}

void
RabbitExecutor::heartbeat()
{
    if (engine_)
        engine_->externalHeartbeat(total_insts_);
}

void
RabbitExecutor::execScalar(Wavefront &wave, const Instruction &inst,
                           bool &done)
{
    ++salu_insts_;
    const isa::ScalarOutcome out =
        isa::evalScalar(inst, readSrc(wave, inst.src0, 0),
                        readSrc(wave, inst.src1, 0), wave.sregs, wave.scc,
                        wave.pc);
    panic_if(out == isa::ScalarOutcome::Unknown,
             "unhandled scalar opcode %s", opcodeName(inst.op).c_str());
    if (out == isa::ScalarOutcome::End) {
        retire(wave);
        done = true;
    }
}

void
RabbitExecutor::materialize(Wavefront &wave, const Instruction &inst,
                            const std::vector<unsigned> &regs)
{
    // ensureReady's requalification pass. InFlight never occurs on the
    // rabbit path (issue resolves synchronously), so after windowIssue
    // every lane of regs is Ready or correctly Suspended.
    if (requalifyOperands(wave, inst, regs, mode_,
                          cfg_.injectSkipSuspendRequalify)) {
        windowIssue(wave);
    }
}

void
RabbitExecutor::buildWindowCands(const Kernel &kernel)
{
    // issueSoonNeeded's decode window, verbatim. The scan order and its
    // first-occurrence-per-register dedup depend only on the kernel
    // text, so the candidate list is computed once per (kernel, pc)
    // instead of being re-decoded on every windowIssue call.
    window_kernel_ = &kernel;
    const auto &code = kernel.code;
    const unsigned nvregs = kernel.numVregs;
    window_cands_.assign(code.size(), {});

    std::vector<std::uint32_t> stamp(nvregs, 0);
    std::uint32_t epoch = 0;
    for (unsigned start = 0; start < code.size(); ++start) {
        ++epoch;
        std::vector<WindowCand> &out = window_cands_[start];
        auto consider = [&](unsigned reg, const Instruction &inst,
                            bool otimes_src) {
            if (reg >= nvregs || stamp[reg] == epoch)
                return;
            stamp[reg] = epoch;
            out.push_back(WindowCand{&inst, reg, otimes_src});
        };
        unsigned pc = start;
        for (unsigned i = 0; i < lookAhead && pc < code.size();
             ++i, ++pc) {
            const Instruction &inst = code[pc];
            if (isBranch(inst.op) || inst.op == Opcode::SEndpgm)
                break;
            if (isScalar(inst.op))
                continue;
            const bool otimes = isOtimes(inst.op);
            if (inst.src0.kind == SrcKind::VReg)
                consider(inst.src0.value, inst, otimes);
            if (inst.src1.kind == SrcKind::VReg)
                consider(inst.src1.value, inst, otimes);
            if (inst.op == Opcode::VMacF32)
                consider(inst.dst, inst, false); // accumulator read
            if (isStore(inst.op)) {
                for (unsigned r = 0; r < storeBytes(inst.op) / 4; ++r)
                    consider(inst.src2.value + r, inst, false);
            }
        }
    }
}

void
RabbitExecutor::windowIssue(Wavefront &wave)
{
    if (wave.pendings().empty())
        return;
    if (&wave.kernel() != window_kernel_)
        buildWindowCands(wave.kernel());

    // Every suspension decision is made against pre-issue scoreboard
    // state, and only then are the collected loads issued (the timed
    // pipeline's bundle issue -- responses cannot influence the scan
    // either there, since they arrive strictly later).
    std::vector<unsigned> &issue_ids = scratch_issue_ids_;
    issue_ids.clear();
    for (const WindowCand &c : window_cands_[wave.pc]) {
        PendingLoad *pl = wave.pendingFor(c.reg);
        if (!pl)
            continue;
        if (c.otimesSrc) {
            lanes_suspended_ += std::popcount(
                suspendForOtimes(wave, *pl, *c.inst, c.reg, mode_));
        }
        if (wave.pendingMask(c.reg) != 0 &&
            std::find(issue_ids.begin(), issue_ids.end(), pl->id) ==
                issue_ids.end()) {
            issue_ids.push_back(pl->id);
        }
    }

    // No masksOutstanding parking here: masks were applied at record
    // time, so the Fig 7 ordering (Read Req after Zero Read Rsp) holds
    // by construction.
    for (unsigned id : issue_ids) {
        auto it = wave.pendings().find(id);
        if (it == wave.pendings().end())
            continue;
        issuePending(wave, it->second);
    }
}

void
RabbitExecutor::execValu(Wavefront &wave, const Instruction &inst)
{
    const bool reads_dst = inst.op == Opcode::VMacF32;
    // materialize is a no-op when no operand lane is busy; skip even
    // building the operand list in that (overwhelmingly common) case.
    const bool s0_busy = inst.src0.kind == SrcKind::VReg &&
                         wave.anyNotReady(inst.src0.value);
    const bool s1_busy = inst.src1.kind == SrcKind::VReg &&
                         wave.anyNotReady(inst.src1.value);
    if (s0_busy || s1_busy ||
        (reads_dst && wave.anyNotReady(inst.dst))) {
        std::vector<unsigned> &srcs = scratch_srcs_;
        srcs.clear();
        if (inst.src0.kind == SrcKind::VReg)
            srcs.push_back(inst.src0.value);
        if (inst.src1.kind == SrcKind::VReg)
            srcs.push_back(inst.src1.value);
        if (reads_dst)
            srcs.push_back(inst.dst);
        materialize(wave, inst, srcs);
    }
    if (!reads_dst && wave.pendingFor(inst.dst))
        eliminateForRegs(wave, inst.dst, 1); // dead-on-overwrite

    ++valu_insts_;

    // After materialize, every operand lane is Ready or (correctly)
    // Suspended, and a suspended lane reads as zero.
    if (!isa::scalarRefEnabled()) {
        // The plane core, exactly as in the timed CU: suspended lanes
        // ride along as PlaneSrc::zeroed, and VMacF32's accumulator --
        // the destination plane -- stays raw.
        std::uint32_t *dst = wave.valueRow(inst.dst);
        panic_if(!isa::evalValuPlane(inst.op, dst,
                                     planeSrc(wave, inst.src0),
                                     planeSrc(wave, inst.src1), wave.wid()),
                 "unhandled VALU opcode %s", opcodeName(inst.op).c_str());
        wave.setZeroMask(inst.dst, isa::zeroLanes(dst));
        ++wave.pc;
        return;
    }

    // Scalar oracle path (LAZYGPU_SCALAR_REF): one lane at a time
    // through isa::evalValu, the single source of per-lane semantics.
    auto read = [&](const Src &s, unsigned lane) -> std::uint32_t {
        // A (2)-suspended lane is read as zero, as in the timed path.
        if (s.kind == SrcKind::VReg &&
            wave.regState(s.value, lane) == RegState::Suspended) {
            return 0;
        }
        return readSrc(wave, s, lane);
    };

    for (unsigned lane = 0; lane < wavefrontSize; ++lane) {
        const std::uint32_t a = read(inst.src0, lane);
        const std::uint32_t b = read(inst.src1, lane);
        bool known = true;
        const std::uint32_t out =
            isa::evalValu(inst.op, a, b, wave.vreg(inst.dst, lane),
                          wave.wid(), lane, known);
        panic_if(!known, "unhandled VALU opcode %s",
                 opcodeName(inst.op).c_str());
        wave.setVreg(inst.dst, lane, out);
    }
    ++wave.pc;
}

void
RabbitExecutor::execLoad(Wavefront &wave, const Instruction &inst)
{
    if (wave.anyNotReady(inst.src0.value)) {
        std::vector<unsigned> &srcs = scratch_srcs_;
        srcs.clear();
        srcs.push_back(inst.src0.value);
        materialize(wave, inst, srcs);
    }
    eliminateForRegs(wave, inst.dst, loadDstRegs(inst.op));

    ++load_insts_;
    recordLazyLoad(wave, inst);
    ++wave.pc;
}

void
RabbitExecutor::recordLazyLoad(Wavefront &wave, const Instruction &inst)
{
    // Reuse a scavenged transaction vector (already empty) so the
    // per-load heap round trip disappears in steady state.
    std::vector<PendingLoad::Tx> txs;
    if (!tx_pool_.empty()) {
        txs = std::move(tx_pool_.back());
        tx_pool_.pop_back();
    }
    PendingLoad &pl = recordLoad(wave, inst, 0, std::move(txs));

    const bool eager_issue = !isLazy(mode_);
    if (!encodable(pl) && !eager_issue) {
        // Mixed upper bits: issued promptly, no masks (as in the CU).
        txs_eager_fallback_ += pl.txs.size();
        issuePending(wave, pl); // may remove `pl`
        return;
    }

    // The Zero Read Req/Rsp pair, collapsed to record time: the Zero
    // Caches are designed for fast responses, and Fig 7 orders the data
    // Read Req strictly after the Zero Read Rsp, so by any issue
    // decision the masks have arrived. mask_reads accounting matches
    // requestMasks (one per coalesced mask transaction).
    const bool wants_masks =
        zc_ && (hasZeroElimination(mode_) || mode_ == ExecMode::EagerZC);
    if (wants_masks) {
        std::vector<Addr> &mask_words = scratch_mask_bytes_;
        mask_words.clear();
        for (const auto &tx : pl.txs)
            mask_words.push_back(GlobalMemory::maskAddr(tx.addr));
        coalescer_.coalesce(mask_words.data(), mask_words.size(), 1,
                            scratch_mask_txs_);
        mask_reads_ += scratch_mask_txs_.size();
    }

    if (!eager_issue) {
        if (wants_masks && hasZeroElimination(mode_))
            applyZeroing(wave, pl); // may remove `pl`
        return;
    }

    // Eager modes issue at record. EagerZC's residency probe must not
    // see this load's own mask fetch (still in flight at issue time in
    // the timed pipeline), so FIFO lines are inserted after the issue.
    issuePending(wave, pl); // may remove `pl`
    if (mode_ == ExecMode::EagerZC && zc_) {
        for (Addr ma : scratch_mask_txs_)
            insertMaskLine(ma);
    }
}

void
RabbitExecutor::applyZeroing(Wavefront &wave, PendingLoad &pl)
{
    // onMaskResponse over the whole footprint: every mask transaction
    // "arrives" at once.
    ElimTally tally;
    lanes_zeroed_ += zeroPendingWords(wave, pl, 0, ~Addr(0), mem_, nullptr,
                                      0, tally);
    countEliminated(tally);
    finishPendingIfResolved(wave, pl);
}

void
RabbitExecutor::issuePending(Wavefront &wave, PendingLoad &pl)
{
    for (auto &tx : pl.txs) {
        if (tx.outcome != TxOutcome::Unissued ||
            !hasPendingWord(wave, pl, tx)) {
            continue; // entirely suspended/resolved: stays parked
        }
        const bool short_circuit =
            mode_ == ExecMode::EagerZC && busyWordsZero(mem_, wave, pl, tx) &&
            maskResident(GlobalMemory::maskAddr(tx.addr));
        markIssued(wave, pl, tx);
        if (short_circuit) {
            // The request consumed the issue slot but the L2 access is
            // skipped; every needed word reads zero.
            ++zc_short_circuits_;
            zeroBusyWords(wave, pl, tx);
            continue;
        }
        ++txs_issued_;
        ++txs_completed_; // responses are instantaneous on this path
        fillBusyWords(wave, pl, tx, mem_, nullptr, 0);
    }
    finishPendingIfResolved(wave, pl);
}

void
RabbitExecutor::countEliminated(const ElimTally &tally)
{
    txs_elim_zero_ += tally.zero;
    txs_elim_otimes_ += tally.otimes;
    txs_elim_dead_ += tally.dead;
}

void
RabbitExecutor::finishPendingIfResolved(Wavefront &wave, PendingLoad &pl)
{
    if (pl.wordsLeft == 0) {
        // Scavenge the transaction vector's heap block for the next
        // recordLazyLoad; clear() destroys the elements, so no stale
        // transaction state survives the recycling.
        if (pl.txs.capacity() != 0 && tx_pool_.size() < txPoolCap) {
            pl.txs.clear();
            tx_pool_.push_back(std::move(pl.txs));
        }
        wave.removePending(pl.id);
    }
}

void
RabbitExecutor::eliminateForRegs(Wavefront &wave, unsigned first,
                                 unsigned nregs)
{
    for (unsigned r = first; r < first + nregs; ++r) {
        PendingLoad *pl = wave.pendingFor(r);
        if (!pl)
            continue;
        ElimTally tally;
        eliminateRegister(wave, *pl, r, tally);
        countEliminated(tally);
        finishPendingIfResolved(wave, *pl);
    }
}

void
RabbitExecutor::execStore(Wavefront &wave, const Instruction &inst)
{
    const unsigned nregs = storeBytes(inst.op) / 4;
    std::vector<unsigned> &srcs = scratch_srcs_;
    srcs.clear();
    srcs.push_back(inst.src0.value);
    for (unsigned r = 0; r < nregs; ++r)
        srcs.push_back(inst.src2.value + r);
    materialize(wave, inst, srcs);

    ++store_insts_;

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
    if (zc_) {
        // Zero masks are always kept coherent with the data. Mask
        // writes go around the L1 Zero Cache (WriteAround), so the
        // EagerZC residency model is deliberately not updated here.
        std::vector<Addr> &mask_bytes = scratch_mask_bytes_;
        mask_bytes.clear();
        for (Addr ta : txs)
            mask_bytes.push_back(GlobalMemory::maskAddr(ta));
        coalescer_.coalesce(mask_bytes.data(), mask_bytes.size(), 1,
                            scratch_mask_txs_);
        mask_writes_ += scratch_mask_txs_.size();
    }
    for (Addr ta : txs) {
        if (zc_ && hasZeroElimination(mode_) &&
            mem_.zeroMaskByte(ta) == 0xff) {
            ++store_txs_zero_skipped_; // only the Zero Cache is written
            continue;
        }
        ++store_txs_;
    }
    ++wave.pc;
}

void
RabbitExecutor::retire(Wavefront &wave)
{
    // Observer first, like the CU: it must see which lanes were
    // architecturally live before retirement eliminates parked loads.
    if (retire_obs_)
        retire_obs_(wave);
    std::vector<unsigned> &ids = scratch_retire_ids_;
    ids.clear();
    for (const auto &[id, pl] : wave.pendings())
        ids.push_back(id);
    // The CU walks its unordered map directly; elimination counts are
    // order-independent, so sorting here just pins rabbit's own
    // execution order across platforms.
    std::sort(ids.begin(), ids.end());
    for (unsigned id : ids) {
        auto it = wave.pendings().find(id);
        if (it == wave.pendings().end())
            continue;
        eliminateForRegs(wave, it->second.firstDst, it->second.numRegs);
    }
    wave.status = WaveStatus::Done;
}

bool
RabbitExecutor::maskResident(Addr mask_addr) const
{
    if (mask_line_cap_ == 0)
        return false;
    return mask_lines_.count(mask_addr & ~(zl1_line_ - 1)) != 0;
}

void
RabbitExecutor::insertMaskLine(Addr mask_addr)
{
    if (mask_line_cap_ == 0)
        return;
    const Addr line = mask_addr & ~(zl1_line_ - 1);
    if (!mask_lines_.insert(line).second)
        return;
    mask_fifo_.push_back(line);
    if (mask_fifo_.size() > mask_line_cap_) {
        mask_lines_.erase(mask_fifo_.front());
        mask_fifo_.pop_front();
    }
}

} // namespace lazygpu
