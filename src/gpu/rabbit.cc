#include "gpu/rabbit.hh"

#include <algorithm>
#include <bit>
#include <string>

#include "isa/encoding.hh"
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
RabbitExecutor::trySuspend(Wavefront &wave, PendingLoad &pl,
                           const Instruction &inst, unsigned reg)
{
    const LaneMask to_suspend =
        wave.pendingMask(reg) & zeroCounterpartLanes(wave, inst, reg, mode_);
    if (!to_suspend)
        return;
    wave.suspendLanes(reg, to_suspend);
    lanes_suspended_ += std::popcount(to_suspend);
    for (LaneMask t = to_suspend; t; t &= t - 1) {
        const unsigned lane = std::countr_zero(t);
        if (auto *tx = pl.txFor(pl.wordAddr(reg - pl.firstDst, lane)))
            tx->hadSuspended = true;
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
        if (c.otimesSrc)
            trySuspend(wave, *pl, *c.inst, c.reg);
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
    if (!reads_dst && wave.hasPendingOwner(inst.dst))
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
    const unsigned ndst = loadDstRegs(inst.op);
    bool dst_owned = false;
    for (unsigned r = 0; r < ndst && !dst_owned; ++r)
        dst_owned = wave.hasPendingOwner(inst.dst + r);
    if (dst_owned)
        eliminateForRegs(wave, inst.dst, ndst);

    ++load_insts_;

    std::array<Addr, wavefrontSize> &lane_addr = scratch_lane_addr_;
    for (unsigned lane = 0; lane < wavefrontSize; ++lane) {
        lane_addr[lane] =
            inst.base + wave.vreg(inst.src0.value, lane);
    }

    recordLoad(wave, inst, lane_addr);
    ++wave.pc;
}

void
RabbitExecutor::recordLoad(Wavefront &wave, const Instruction &inst,
                           const std::array<Addr, wavefrontSize> &lane_addr)
{
    const unsigned nregs = loadDstRegs(inst.op);
    const unsigned bytes_per_lane = loadBytes(inst.op);

    PendingLoad &pl = wave.emplacePending();
    pl.op = inst.op;
    pl.firstDst = inst.dst;
    pl.numRegs = nregs;
    pl.laneAddr = lane_addr;

    const unsigned bytes_per_word =
        std::min(bytes_per_lane, maskGranularity);
    if (!tx_pool_.empty()) {
        // Reuse a scavenged transaction vector (already empty) so the
        // per-load heap round trip disappears in steady state.
        pl.txs = std::move(tx_pool_.back());
        tx_pool_.pop_back();
    }
    pl.txs.reserve(nregs * wavefrontSize * std::size_t(bytes_per_word) /
                   transactionSize);
    PendingLoad::Tx *last = nullptr;
    if (nregs == 1 && bytes_per_word == 4) {
        // Single-dword loads (the dominant case): a 4-aligned dword
        // never straddles a transaction, and each lane contributes
        // exactly one word.
        for (unsigned lane = 0; lane < wavefrontSize; ++lane) {
            const Addr wa = lane_addr[lane];
            panic_if((wa & 3) != 0,
                     "load word straddles a transaction; kernels must "
                     "use naturally aligned accesses");
            const Addr ta = txAlign(wa);
            PendingLoad::Tx *tx =
                last && last->addr == ta ? last : pl.txFor(wa);
            if (!tx) {
                pl.txs.emplace_back();
                tx = &pl.txs.back();
                tx->addr = ta;
            }
            last = tx;
            tx->words.emplace_back(0, static_cast<std::uint8_t>(lane));
            ++tx->unresolved;
        }
        pl.wordsLeft = wavefrontSize;
    } else {
        for (unsigned lane = 0; lane < wavefrontSize; ++lane) {
            for (unsigned r = 0; r < nregs; ++r) {
                Addr wa = pl.wordAddr(r, lane);
                Addr ta = txAlign(wa);
                panic_if(txAlign(wa + bytes_per_word - 1) != ta,
                         "load word straddles a transaction; kernels "
                         "must use naturally aligned accesses");
                PendingLoad::Tx *tx =
                    last && last->addr == ta ? last : pl.txFor(wa);
                if (!tx) {
                    pl.txs.emplace_back();
                    tx = &pl.txs.back();
                    tx->addr = ta;
                }
                last = tx;
                tx->words.emplace_back(static_cast<std::uint8_t>(r),
                                       static_cast<std::uint8_t>(lane));
                ++tx->unresolved;
                ++pl.wordsLeft;
            }
        }
    }

    // eliminateForRegs just resolved every destination lane (and
    // InFlight never occurs on this path), so each row flips from
    // all-Ready to all-Pending wholesale.
    for (unsigned r = 0; r < nregs; ++r) {
        panic_if(wave.anyNotReady(inst.dst + r),
                 "recording a load over a busy destination register");
        wave.markAllPending(inst.dst + r);
    }

    const std::uint64_t shared_upper = upperBits(lane_addr[0]);
    bool any_fallback = false;
    for (unsigned lane = 0; lane < wavefrontSize; ++lane) {
        if (upperBits(lane_addr[lane]) != shared_upper) {
            any_fallback = true;
            break;
        }
    }

    wave.claimOwners(pl);
    PendingLoad &stored = pl;

    const bool eager_issue = !isLazy(mode_);
    if (any_fallback && !eager_issue) {
        // Mixed upper bits: issued promptly, no masks (as in the CU).
        txs_eager_fallback_ += stored.txs.size();
        issuePending(wave, stored); // may remove `stored`
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
        stored.maskRequested = true;
        std::vector<Addr> &mask_words = scratch_mask_bytes_;
        mask_words.clear();
        for (const auto &tx : stored.txs)
            mask_words.push_back(GlobalMemory::maskAddr(tx.addr));
        coalescer_.coalesce(mask_words.data(), mask_words.size(), 1,
                            scratch_mask_txs_);
        mask_reads_ += scratch_mask_txs_.size();
    }

    if (!eager_issue) {
        if (wants_masks && hasZeroElimination(mode_))
            applyZeroing(wave, stored); // may remove `stored`
        return;
    }

    // Eager modes issue at record. EagerZC's residency probe must not
    // see this load's own mask fetch (still in flight at issue time in
    // the timed pipeline), so FIFO lines are inserted after the issue.
    issuePending(wave, stored); // may remove `stored`
    if (mode_ == ExecMode::EagerZC && zc_) {
        for (Addr ma : scratch_mask_txs_)
            insertMaskLine(ma);
    }
}

void
RabbitExecutor::applyZeroing(Wavefront &wave, PendingLoad &pl)
{
    // onMaskResponse over the whole footprint (every mask transaction
    // "arrives" at once), minus the range filter.
    for (auto &tx : pl.txs) {
        if (tx.outcome != TxOutcome::Unissued)
            continue;
        for (const auto &[r, lane] : tx.words) {
            if (wave.regState(pl.firstDst + r, lane) !=
                RegState::Pending) {
                continue;
            }
            if (mem_.isZeroWord(pl.wordAddr(r, lane))) {
                ++lanes_zeroed_;
                ++tx.zeroedWords;
                resolveWord(wave, pl, tx, r, lane, 0);
            }
        }
    }
    finishPendingIfResolved(wave, pl);
}

void
RabbitExecutor::issuePending(Wavefront &wave, PendingLoad &pl)
{
    pl.dataIssued = true;
    const unsigned first_dst = pl.firstDst;

    // Only EagerZC's residency short-circuit ever reads all_zero; the
    // per-word zero probes are pure overhead for the other modes.
    const bool probe_zero = mode_ == ExecMode::EagerZC;
    const bool single = pl.numRegs == 1 && pl.op != Opcode::LoadByte &&
                        pl.op != Opcode::LoadShort;
    RegState *st_row = single ? wave.stateRow(first_dst) : nullptr;
    std::uint32_t *val_row = single ? wave.valueRow(first_dst) : nullptr;

    for (auto &tx : pl.txs) {
        if (tx.outcome != TxOutcome::Unissued)
            continue;
        bool has_pending = false;
        bool all_zero = probe_zero;
        if (single && !probe_zero) {
            for (const auto &w : tx.words) {
                if (st_row[w.second] == RegState::Pending) {
                    has_pending = true;
                    break;
                }
            }
        } else {
            for (const auto &[r, lane] : tx.words) {
                RegState st = wave.regState(first_dst + r, lane);
                if (st == RegState::Pending) {
                    has_pending = true;
                    if (!probe_zero)
                        break; // the scan learns nothing else
                }
                if (probe_zero && (st == RegState::Pending ||
                                   st == RegState::Suspended)) {
                    if (!mem_.isZeroWord(pl.wordAddr(r, lane)))
                        all_zero = false;
                }
            }
        }
        if (!has_pending)
            continue; // entirely suspended/resolved: stays parked

        if (probe_zero && all_zero &&
            maskResident(GlobalMemory::maskAddr(tx.addr))) {
            // Short-circuit: the request consumed the issue slot but the
            // L2 access is skipped; every needed word reads zero.
            ++zc_short_circuits_;
            tx.outcome = TxOutcome::Issued;
            for (const auto &[r, lane] : tx.words) {
                if (wave.regState(first_dst + r, lane) !=
                    RegState::Ready) {
                    resolveWord(wave, pl, tx, r, lane, 0);
                }
            }
            continue;
        }

        tx.outcome = TxOutcome::Issued;
        ++txs_issued_;
        ++txs_completed_; // responses are instantaneous on this path
        // Hot loop of the whole executor (one iteration per loaded
        // word): the resolveWord classification never applies to an
        // Issued transaction, so resolve in place. Single-register
        // word loads additionally hoist the row lookups and batch the
        // busy-lane bookkeeping.
        if (single) {
            // All word starts of one transaction share a page, so the
            // page pointer is hoisted; a misaligned word whose tail
            // crosses the page edge falls back to the straddle path.
            const std::uint8_t *page = mem_.pageForSpan(tx.addr);
            const auto readWord = [&](Addr a) {
                const Addr off = a & (GlobalMemory::pageSize - 1);
                if (off + 4 > GlobalMemory::pageSize)
                    return mem_.readU32(a);
                std::uint32_t v = 0;
                if (page)
                    std::memcpy(&v, page + off, sizeof(v));
                return v;
            };
            if (tx.unresolved == tx.words.size()) {
                // No word resolved yet, so no per-word Ready checks.
                LaneMask done = 0, zero_bits = 0;
                for (const auto &w : tx.words) {
                    const unsigned lane = w.second;
                    const std::uint32_t v = readWord(pl.laneAddr[lane]);
                    val_row[lane] = v;
                    st_row[lane] = RegState::Ready;
                    done |= LaneMask(1) << lane;
                    zero_bits |= LaneMask(v == 0) << lane;
                }
                wave.resolveLanes(first_dst, done, zero_bits);
                pl.wordsLeft -= tx.unresolved;
                tx.unresolved = 0;
                continue;
            }
            LaneMask done = 0, zero_bits = 0;
            for (const auto &w : tx.words) {
                const unsigned lane = w.second;
                if (st_row[lane] == RegState::Ready)
                    continue;
                const std::uint32_t v = readWord(pl.laneAddr[lane]);
                val_row[lane] = v;
                st_row[lane] = RegState::Ready;
                done |= LaneMask(1) << lane;
                zero_bits |= LaneMask(v == 0) << lane;
            }
            wave.resolveLanes(first_dst, done, zero_bits);
            const unsigned resolved = std::popcount(done);
            tx.unresolved -= resolved;
            pl.wordsLeft -= resolved;
            continue;
        }
        for (const auto &[r, lane] : tx.words) {
            if (wave.regState(first_dst + r, lane) == RegState::Ready)
                continue;
            wave.setVreg(first_dst + r, lane,
                         isa::loadRegWord(mem_, pl.op, pl.laneAddr[lane],
                                          r));
            wave.setRegState(first_dst + r, lane, RegState::Ready);
            --tx.unresolved;
            --pl.wordsLeft;
        }
    }
    finishPendingIfResolved(wave, pl);
}

void
RabbitExecutor::resolveWord(Wavefront &wave, PendingLoad &pl,
                            PendingLoad::Tx &tx, unsigned reg_off,
                            unsigned lane, std::uint32_t value)
{
    const unsigned reg = pl.firstDst + reg_off;
    if (wave.regState(reg, lane) == RegState::Ready)
        return;
    wave.setVreg(reg, lane, value);
    wave.setRegState(reg, lane, RegState::Ready);

    panic_if(tx.unresolved == 0, "transaction resolved twice");
    --tx.unresolved;
    --pl.wordsLeft;

    if (tx.unresolved == 0 && tx.outcome == TxOutcome::Unissued) {
        // Never issued; classify with the timed path's exact rules.
        if (tx.zeroedWords == tx.words.size()) {
            tx.outcome = TxOutcome::EliminatedZero;
            ++txs_elim_zero_;
        } else if (tx.hadSuspended) {
            tx.outcome = TxOutcome::EliminatedOtimes;
            ++txs_elim_otimes_;
        } else {
            tx.outcome = TxOutcome::EliminatedDead;
            ++txs_elim_dead_;
        }
    }
}

void
RabbitExecutor::finishPendingIfResolved(Wavefront &wave, PendingLoad &pl)
{
    if (pl.wordsLeft == 0) {
        // Scavenge the transaction vector's heap block for the next
        // recordLoad; clear() destroys the elements, so no stale
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
        const unsigned reg_off = r - pl->firstDst;
        // Walk the recorded transactions instead of scanning lanes and
        // re-finding each word's transaction by address: partial
        // overwrites only ever drop words whose lane is already Ready,
        // so the recorded words still cover every busy lane of r.
        for (PendingLoad::Tx &tx : pl->txs) {
            for (const auto &w : tx.words) {
                if (w.first != reg_off)
                    continue;
                RegState st = wave.regState(r, w.second);
                if (st == RegState::Pending ||
                    st == RegState::Suspended) {
                    resolveWord(wave, *pl, tx, reg_off, w.second, 0);
                }
            }
        }
        if (pl->wordsLeft == 0) {
            finishPendingIfResolved(wave, *pl);
            continue;
        }
        // Partial overwrite of a multi-register load: drop the dead
        // words so a newer owner of this register cannot be
        // reinterpreted (same rule as the CU's eliminateForRegs).
        for (PendingLoad::Tx &tx : pl->txs) {
            auto &ws = tx.words;
            ws.erase(std::remove_if(
                         ws.begin(), ws.end(),
                         [&](const std::pair<std::uint8_t,
                                             std::uint8_t> &w) {
                             return w.first == reg_off &&
                                    wave.regState(r, w.second) ==
                                        RegState::Ready;
                         }),
                     ws.end());
        }
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
