#include "gpu/compute_unit.hh"

#include <algorithm>
#include <bit>

#include "gpu/coalescer.hh"
#include "inject/fault.hh"
#include "isa/eval.hh"
#include "isa/simd.hh"
#include "sim/logging.hh"

#ifdef LAZYGPU_CHECK
#include "verif/invariants.hh"
#endif

namespace lazygpu
{

namespace
{

/** This CU's component path, e.g. "gpu.sa1.cu3." for cu_id 7, sa 1. */
std::string
cuPrefix(const GpuConfig &cfg, unsigned cu_id, unsigned sa_id)
{
    return "gpu.sa" + std::to_string(sa_id) + ".cu" +
           std::to_string(cu_id % cfg.cusPerSa) + ".";
}

} // namespace

ComputeUnit::ComputeUnit(Engine &engine, StatsRegistry &stats,
                         LifecycleTracker &lifecycle,
                         Distribution &mem_latency, const GpuConfig &cfg,
                         GlobalMemory &mem, MemoryHierarchy &hier,
                         unsigned cu_id, unsigned sa_id, TraceSink *trace)
    : engine_(engine), stats_(stats), lifecycle_(lifecycle),
      trace_(trace), cfg_(cfg), mem_(mem), hier_(hier),
      cu_id_(cu_id), sa_id_(sa_id), mode_(cfg.mode),
      simd_busy_(cfg.simdPerCu, 0), ready_per_simd_(cfg.simdPerCu, 0),
      valu_insts_(stats.counter(cuPrefix(cfg, cu_id, sa_id) +
                                "valu_insts")),
      salu_insts_(stats.counter(cuPrefix(cfg, cu_id, sa_id) +
                                "salu_insts")),
      simd_busy_cycles_(stats.counter(cuPrefix(cfg, cu_id, sa_id) +
                                      "simd_busy_cycles")),
      load_insts_(stats.counter(cuPrefix(cfg, cu_id, sa_id) +
                                "load_insts")),
      store_insts_(stats.counter(cuPrefix(cfg, cu_id, sa_id) +
                                 "store_insts")),
      txs_issued_(stats.counter(cuPrefix(cfg, cu_id, sa_id) +
                                "txs_issued")),
      txs_completed_(stats.counter(cuPrefix(cfg, cu_id, sa_id) +
                                   "txs_completed")),
      txs_elim_zero_(stats.counter(cuPrefix(cfg, cu_id, sa_id) +
                                   "txs_elim_zero")),
      txs_elim_otimes_(stats.counter(cuPrefix(cfg, cu_id, sa_id) +
                                     "txs_elim_otimes")),
      txs_elim_dead_(stats.counter(cuPrefix(cfg, cu_id, sa_id) +
                                   "txs_elim_dead")),
      txs_eager_fallback_(stats.counter(cuPrefix(cfg, cu_id, sa_id) +
                                        "txs_eager_fallback")),
      store_txs_(stats.counter(cuPrefix(cfg, cu_id, sa_id) +
                               "store_txs")),
      store_txs_zero_skipped_(stats.counter(
          cuPrefix(cfg, cu_id, sa_id) + "store_txs_zero_skipped")),
      mask_reads_(stats.counter(cuPrefix(cfg, cu_id, sa_id) +
                                "mask_reads")),
      mask_writes_(stats.counter(cuPrefix(cfg, cu_id, sa_id) +
                                 "mask_writes")),
      zc_short_circuits_(stats.counter(cuPrefix(cfg, cu_id, sa_id) +
                                       "zc_short_circuits")),
      lanes_zeroed_(stats.counter(cuPrefix(cfg, cu_id, sa_id) +
                                  "lanes_zeroed")),
      lanes_suspended_(stats.counter(cuPrefix(cfg, cu_id, sa_id) +
                                     "lanes_suspended")),
      // One shared latency distribution per engine domain: keeping the
      // sample (summation) order identical across configurations pins
      // the golden avgMemLatency digits.
      mem_latency_(mem_latency)
{
}

void
ComputeUnit::addWavefront(std::unique_ptr<Wavefront> wave)
{
    panic_if(!hasFreeSlot(), "cu.%u: dispatch beyond occupancy limit",
             cu_id_);
    // Pin the wavefront to the least-loaded SIMD.
    std::vector<unsigned> load(cfg_.simdPerCu, 0);
    for (const auto &w : waves_)
        ++load[w->simdId];
    unsigned best = 0;
    for (unsigned s = 1; s < cfg_.simdPerCu; ++s) {
        if (load[s] < load[best])
            best = s;
    }
    wave->simdId = best;
    wave->dispatchTick = engine_.now();
    if (trace_) {
        wave->traceId = trace_->nextId();
        trace_->emit(TraceKind::WaveBegin, traceTrack(), 0,
                     engine_.now(), wave->traceId, wave->wid());
    }
    waves_.push_back(std::move(wave));
    // Fresh wavefronts arrive Ready; account for them in the quiescence
    // protocol (the engine no longer polls every component).
    ++ready_per_simd_[best];
    noteReadyDelta(1);
}

bool
ComputeUnit::quiescent() const
{
    return ready_waves_ == 0;
}

namespace
{

const char *
waveStatusName(WaveStatus s)
{
    switch (s) {
    case WaveStatus::Ready: return "Ready";
    case WaveStatus::Waiting: return "Waiting";
    case WaveStatus::Done: return "Done";
    }
    return "?";
}

} // namespace

void
ComputeUnit::describeInto(std::vector<std::string> &out) const
{
    if (waves_.empty())
        return;
    out.push_back(detail::formatString(
        "cu %u: %u resident waves (max %u), %u ready", cu_id_,
        residentWaves(), max_waves_, ready_waves_));
    for (const auto &w : waves_) {
        unsigned busy_regs = 0;
        for (unsigned r = 0; r < w->kernel().numVregs; ++r)
            busy_regs += w->anyNotReady(r) ? 1 : 0;
        out.push_back(detail::formatString(
            "cu %u wave %u simd %u: pc %u status %s, %zu pending "
            "loads, %u busy vregs, %u txs + %u masks outstanding",
            cu_id_, w->wid(), w->simdId, w->pc,
            waveStatusName(w->status), w->pendings().size(), busy_regs,
            w->outstanding_txs_, w->outstanding_masks_));
    }
}

void
ComputeUnit::setStatus(Wavefront &wave, WaveStatus s)
{
    const bool was_ready = wave.status == WaveStatus::Ready;
    const bool is_ready = s == WaveStatus::Ready;
    wave.status = s;
    if (was_ready != is_ready) {
        ready_per_simd_[wave.simdId] += is_ready ? 1 : -1u;
        noteReadyDelta(is_ready ? 1 : -1);
    }
}

void
ComputeUnit::noteReadyDelta(int delta)
{
    if (delta > 0) {
        if (ready_waves_ == 0)
            engine_.noteActivated();
        ready_waves_ += static_cast<unsigned>(delta);
    } else if (delta < 0) {
        panic_if(ready_waves_ < static_cast<unsigned>(-delta),
                 "cu.%u: ready-wave count underflow", cu_id_);
        ready_waves_ -= static_cast<unsigned>(-delta);
        if (ready_waves_ == 0)
            engine_.noteDeactivated();
    }
}

Wavefront *
ComputeUnit::pickWave(unsigned simd)
{
    const Tick now = engine_.now();
    Wavefront *best = nullptr;
    for (const auto &w : waves_) {
        if (w->simdId != simd || w->status != WaveStatus::Ready ||
            w->nextIssue > now) {
            continue;
        }
        if (!best || w->dispatchTick < best->dispatchTick)
            best = w.get();
    }
    return best;
}

void
ComputeUnit::tick()
{
    const Tick now = engine_.now();
    if (inject_) {
        if (inject_->wantLaneBitmapFlip(now))
            corruptLaneBitmap();
        if (inject_->stallThisCycle(now)) {
            // An injected pipeline stall eats the issue slot exactly
            // like a scoreboard conflict.
            if (cyc_)
                cyc_->chargeCycle(cycacct::Bucket::ScoreboardWait, now);
            return;
        }
    }
    bool busy = false;
    for (unsigned s = 0; s < cfg_.simdPerCu; ++s) {
        if (simd_busy_[s] > now) {
            busy = true; // mid-execution (multi-cycle VALU occupancy)
            continue;
        }
        if (ready_per_simd_[s] == 0)
            continue;
        if (Wavefront *wave = pickWave(s)) {
            executeOne(*wave, s);
            busy = true;
        }
    }
    if (!cyc_)
        return;
    cyc_->chargeCycle(busy ? cycacct::Bucket::Busy
                           : cycacct::Bucket::ScoreboardWait,
                      now);
    // Execution may have stalled or retired the last ready wave; the
    // engine will not tick this CU again until something wakes it, so
    // classify the gap that starts next cycle.
    if (ready_waves_ == 0)
        cyc_->setGapClass(classifyStall());
}

cycacct::Bucket
ComputeUnit::classifyStall() const
{
    if (waves_.empty()) {
        return dispatch_exhausted_ ? cycacct::Bucket::DrainedIdle
                                   : cycacct::Bucket::FetchEmpty;
    }
    bool txs = false, masks = false, waiting = false;
    for (const auto &w : waves_) {
        if (w->outstanding_txs_ > 0)
            txs = true;
        if (w->outstanding_masks_ > 0)
            masks = true;
        if (w->status == WaveStatus::Waiting)
            waiting = true;
    }
    if (txs) {
        return hier_.l1(sa_id_).saturated()
                   ? cycacct::Bucket::MshrBackpressure
                   : cycacct::Bucket::MemLatency;
    }
    if (masks)
        return cycacct::Bucket::SuspZero;
    if (waiting)
        return cycacct::Bucket::ScoreboardWait;
    // Residual: resident waves, none ready/waiting/outstanding (e.g. a
    // Ready wave throttled by nextIssue). The pipeline is the holdup.
    return cycacct::Bucket::ScoreboardWait;
}

void
ComputeUnit::enableCycleAccounting(cycacct::IntervalSampler *sampler)
{
    cyc_ = std::make_unique<cycacct::CuCycleAccount>(
        stats_, cuPrefix(cfg_, cu_id_, sa_id_));
    if (sampler)
        sampler->registerAccount(cyc_.get());
}

void
ComputeUnit::finalizeCycleAccounting()
{
    if (!cyc_)
        return;
    cyc_->finalize(engine_.now());
#ifdef LAZYGPU_CHECK
    panic_if(cyc_->total() != engine_.now(),
             "cu.%u: cycle buckets sum to %llu but %llu cycles elapsed",
             cu_id_, static_cast<unsigned long long>(cyc_->total()),
             static_cast<unsigned long long>(engine_.now()));
#endif
}

void
ComputeUnit::syncCycleAccounting()
{
    if (cyc_)
        cyc_->syncTo(engine_.now());
}

void
ComputeUnit::setDispatchExhausted(bool exhausted)
{
    dispatch_exhausted_ = exhausted;
    // A quiescent, empty CU flips between FetchEmpty and DrainedIdle the
    // moment dispatch progress changes.
    restallIfQuiescent();
}

void
ComputeUnit::executeOne(Wavefront &wave, unsigned simd)
{
    const Instruction &inst = wave.kernel().code[wave.pc];
    const Tick now = engine_.now();

#ifdef LAZYGPU_CHECK
    verif::checkWavefront(wave, mode_);
#endif

    if (isScalar(inst.op)) {
        executeScalar(wave, inst);
        simd_busy_[simd] = now + 1;
        ++simd_busy_cycles_;
        return;
    }
    if (isLoad(inst.op)) {
        executeLoad(wave, inst);
        if (wave.status == WaveStatus::Ready) {
            simd_busy_[simd] = now + 1;
            ++simd_busy_cycles_;
        }
        return;
    }
    if (isStore(inst.op)) {
        executeStore(wave, inst);
        if (wave.status == WaveStatus::Ready) {
            simd_busy_[simd] = now + 1;
            ++simd_busy_cycles_;
        }
        return;
    }

    // VALU: a 64-lane wavefront occupies the 16-wide SIMD for 4 cycles.
    executeValu(wave, inst);
    if (wave.status == WaveStatus::Ready) {
        simd_busy_[simd] = now + cfg_.aluLatency;
        wave.nextIssue = now + cfg_.aluLatency;
        simd_busy_cycles_ += cfg_.aluLatency;
    }
}

void
ComputeUnit::executeScalar(Wavefront &wave, const Instruction &inst)
{
    ++salu_insts_;
    const isa::ScalarOutcome out =
        isa::evalScalar(inst, readSrc(wave, inst.src0, 0),
                        readSrc(wave, inst.src1, 0), wave.sregs, wave.scc,
                        wave.pc);
    panic_if(out == isa::ScalarOutcome::Unknown,
             "unhandled scalar opcode %s", opcodeName(inst.op).c_str());
    if (out == isa::ScalarOutcome::End)
        retire(wave);
}

void
ComputeUnit::trySuspend(Wavefront &wave, PendingLoad &pl,
                        const Instruction &inst, unsigned reg)
{
    const unsigned n =
        std::popcount(suspendForOtimes(wave, pl, inst, reg, mode_));
    lanes_suspended_ += n;
    const Tick age = engine_.now() - pl.recordTick;
    for (unsigned i = 0; i < n; ++i)
        lifecycle_.suspended(age);
}

void
ComputeUnit::countEliminated(const PendingLoad &pl, const ElimTally &tally)
{
    txs_elim_zero_ += tally.zero;
    txs_elim_otimes_ += tally.otimes;
    txs_elim_dead_ += tally.dead;
    const Tick age = engine_.now() - pl.recordTick;
    for (unsigned i = 0; i < tally.zero; ++i)
        lifecycle_.eliminatedZero(age);
    for (unsigned i = 0; i < tally.otimes; ++i)
        lifecycle_.eliminatedOtimes(age);
    for (unsigned i = 0; i < tally.dead; ++i)
        lifecycle_.eliminatedDead(age);
}

void
ComputeUnit::issueSoonNeeded(Wavefront &wave)
{
    if (wave.pendings().empty())
        return;

    // Decode runs ahead of execute, so the Lazy Unit sees the next few
    // straight-line instructions; this is where otimes instructions are
    // identified (Sec 4.3). Pending loads consumed inside the window
    // are issued together (the bundled stall GCN's s_waitcnt implies);
    // later consumers (software-pipelined prefetches) stay lazy.
    constexpr unsigned look_ahead = 12;
    const auto &code = wave.kernel().code;

    // Reused scratch: issue ids plus an epoch-stamped per-vreg "seen"
    // set, so neither is reallocated (or even cleared) per issue.
    const unsigned nvregs = wave.kernel().numVregs;
    std::vector<unsigned> &issue_ids = scratch_issue_ids_;
    issue_ids.clear();
    if (seen_stamp_.size() < nvregs)
        seen_stamp_.resize(nvregs, 0);
    if (++seen_epoch_ == 0) {
        std::fill(seen_stamp_.begin(), seen_stamp_.end(), 0);
        seen_epoch_ = 1;
    }

    auto consider = [&](unsigned reg, const Instruction &inst,
                        bool otimes_src) {
        if (reg >= nvregs || seen_stamp_[reg] == seen_epoch_)
            return;
        seen_stamp_[reg] = seen_epoch_;
        PendingLoad *pl = wave.pendingFor(reg);
        if (!pl)
            return;
        if (otimes_src)
            trySuspend(wave, *pl, inst, reg);
        const bool has_pending = wave.pendingMask(reg) != 0;
        if (has_pending &&
            std::find(issue_ids.begin(), issue_ids.end(), pl->id) ==
                issue_ids.end()) {
            issue_ids.push_back(pl->id);
        }
    };

    unsigned pc = wave.pc;
    for (unsigned i = 0; i < look_ahead && pc < code.size(); ++i, ++pc) {
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

    for (unsigned id : issue_ids) {
        auto it = wave.pendings().find(id);
        if (it == wave.pendings().end())
            continue;
        if (it->second.masksOutstanding > 0) {
            // Fig 7: the Read Req may only be issued once the Zero
            // Read Rsp is back; park until the masks arrive.
            it->second.issueRequested = true;
        } else {
            issuePendingLoad(wave, it->second);
        }
    }
}

bool
ComputeUnit::ensureReady(Wavefront &wave, const Instruction &inst,
                         const std::vector<unsigned> &regs)
{
    if (!requalifyOperands(wave, inst, regs, mode_,
                           cfg_.injectSkipSuspendRequalify)) {
        return true;
    }

    // The stall point: bundle-issue everything the next instructions
    // will touch (with optimization (2) filtering), then wait for
    // whatever is genuinely outstanding.
    issueSoonNeeded(wave);

    bool must_wait = false;
    for (unsigned reg : regs) {
        if (wave.pendingMask(reg) != 0 || wave.inFlightMask(reg) != 0) {
            must_wait = true;
            break;
        }
    }
    if (must_wait)
        setStatus(wave, WaveStatus::Waiting);
    return !must_wait;
}

bool
ComputeUnit::prepareOverwrite(Wavefront &wave, unsigned first,
                              unsigned nregs)
{
    // WAW: an in-flight fill may not race the overwrite.
    for (unsigned r = first; r < first + nregs; ++r) {
        if (wave.anyInFlight(r)) {
            setStatus(wave, WaveStatus::Waiting);
            return false;
        }
    }
    // Pending/Suspended words under the overwrite are dead: their values
    // can never be observed, so their requests are permanently eliminated.
    eliminateForRegs(wave, first, nregs);
    return true;
}

void
ComputeUnit::executeValu(Wavefront &wave, const Instruction &inst)
{
    std::vector<unsigned> &srcs = scratch_srcs_;
    srcs.clear();
    if (inst.src0.kind == SrcKind::VReg)
        srcs.push_back(inst.src0.value);
    if (inst.src1.kind == SrcKind::VReg)
        srcs.push_back(inst.src1.value);
    const bool reads_dst = inst.op == Opcode::VMacF32;
    if (reads_dst)
        srcs.push_back(inst.dst);

    if (!ensureReady(wave, inst, srcs))
        return;
    if (!reads_dst && !prepareOverwrite(wave, inst.dst, 1))
        return;

    ++valu_insts_;

    // Every operand lane is now Ready or (correctly) Suspended; VMacF32's
    // accumulator, the destination plane, is read raw.
    std::uint32_t *dst = wave.valueRow(inst.dst);
    panic_if(!isa::evalValuPlane(inst.op, dst, planeSrc(wave, inst.src0),
                                 planeSrc(wave, inst.src1), wave.wid()),
             "unhandled VALU opcode %s", opcodeName(inst.op).c_str());
    wave.setZeroMask(inst.dst, isa::zeroLanes(dst));
    ++wave.pc;
}

void
ComputeUnit::executeLoad(Wavefront &wave, const Instruction &inst)
{
    // The address register is a source; reading it may trigger lazy
    // issue of an earlier load.
    std::vector<unsigned> &srcs = scratch_srcs_;
    srcs.clear();
    srcs.push_back(inst.src0.value);
    if (!ensureReady(wave, inst, srcs))
        return;
    const unsigned nregs = loadDstRegs(inst.op);
    if (!prepareOverwrite(wave, inst.dst, nregs))
        return;

    ++load_insts_;
    recordLazyLoad(wave, inst);
    ++wave.pc;
}

void
ComputeUnit::recordLazyLoad(Wavefront &wave, const Instruction &inst)
{
    PendingLoad &pl = recordLoad(wave, inst, engine_.now());

    const bool eager_issue = !isLazy(mode_);
    if (!encodable(pl) && !eager_issue) {
        // Mixed upper bits: per the paper these requests are promptly
        // issued; we fall back to eager issue for the whole instruction.
        txs_eager_fallback_ += pl.txs.size();
        issuePendingLoad(wave, pl);
        return;
    }

    if (hasZeroElimination(mode_))
        requestMasks(wave, pl);

    if (eager_issue) {
        if (mode_ == ExecMode::EagerZC)
            requestMasks(wave, pl); // concurrent mask fetch
        issuePendingLoad(wave, pl);
    }
}

void
ComputeUnit::issuePendingLoad(Wavefront &wave, PendingLoad &pl)
{
    Wavefront *wp = &wave;
    const unsigned pl_id = pl.id;
    // Only EagerZC's short-circuit reads the zero probe.
    const bool probe_zero = mode_ == ExecMode::EagerZC;

    for (unsigned tx_idx = 0; tx_idx < pl.txs.size(); ++tx_idx) {
        PendingLoad::Tx &tx = pl.txs[tx_idx];
        if (tx.outcome != TxOutcome::Unissued ||
            !hasPendingWord(wave, pl, tx)) {
            continue; // entirely suspended/resolved: stays parked
        }
        const Addr tx_addr = tx.addr;

        // EagerZC (Fig 9 comparison): the L1 Zero Cache is probed in
        // parallel with the data path; if the mask is on hand and every
        // needed word is zero the L2 access is short-circuited -- but
        // the request has already consumed the issue slot and LSU.
        const bool short_circuit =
            probe_zero && busyWordsZero(mem_, wave, pl, tx) &&
            hier_.maskResidentInL1(sa_id_, GlobalMemory::maskAddr(tx_addr));
        markIssued(wave, pl, tx);
        ++wave.outstanding_txs_;
        if (short_circuit) {
            ++zc_short_circuits_;
            if (trace_) {
                trace_->emit(TraceKind::ZcShortCircuit, traceTrack(), 0,
                             engine_.now(), 0, tx_addr);
            }
            engine_.scheduleIn(
                cfg_.lsuPipeLatency + cfg_.l1HitLatency,
                [this, wp, pl_id, tx_idx]() {
                    Wavefront &w = *wp;
                    --w.outstanding_txs_;
                    auto it = w.pendings().find(pl_id);
                    if (it != w.pendings().end()) {
                        PendingLoad &p = it->second;
                        zeroBusyWords(w, p, p.txs[tx_idx]);
                        finishPendingIfResolved(w, p);
                    }
                    wake(w);
                    maybeFinalize(wp);
                    restallIfQuiescent();
                });
            continue;
        }

        ++pl.inflightTxs;
        ++txs_issued_;

        const Tick issue_tick = engine_.now();
        const Tick record_tick = pl.recordTick;
        lifecycle_.issued(issue_tick - record_tick);
        std::uint64_t span_id = 0;
        if (trace_) {
            span_id = trace_->nextId();
            trace_->emit(TraceKind::TxBegin, traceTrack(), 0,
                         issue_tick, span_id, tx_addr);
        }
        issueTx(tx_addr, false,
                [this, wp, pl_id, tx_idx, tx_addr, issue_tick, record_tick,
                 span_id]() {
            Wavefront &w = *wp;
            --w.outstanding_txs_;
            ++txs_completed_;
            const Tick lat = engine_.now() - issue_tick;
            mem_latency_.sample(static_cast<double>(lat));
            lifecycle_.resolved(engine_.now() - record_tick);
            if (trace_) {
                trace_->emit(TraceKind::TxEnd, traceTrack(), 0,
                             engine_.now(), span_id, tx_addr);
            }
            auto it = w.pendings().find(pl_id);
            bool load_drained = true;
            if (it != w.pendings().end()) {
                PendingLoad &p = it->second;
                --p.inflightTxs;
                load_drained = p.inflightTxs == 0;
                if (inject_ &&
                    inject_->wantScoreboardFlip(engine_.now())) {
                    p.wordsLeft += 1;
                }
                fillBusyWords(w, p, p.txs[tx_idx], mem_, inject_,
                              engine_.now());
                finishPendingIfResolved(w, p);
            }
            // Waking per transaction would burn issue slots on futile
            // re-executions; wake once the whole load's data is in.
            if (load_drained)
                wake(w);
            maybeFinalize(wp);
            restallIfQuiescent();
        });
    }
}

void
ComputeUnit::requestMasks(Wavefront &wave, PendingLoad &pl)
{
    if (pl.maskRequested || !hier_.hasZeroCaches())
        return;
    pl.maskRequested = true;

    // One mask transaction covers transactionSize * 8 * maskGranularity
    // bytes of data (1 KiB); a load's footprint usually needs one or two.
    std::vector<Addr> &mask_words = scratch_mask_bytes_;
    mask_words.clear();
    for (const auto &tx : pl.txs)
        mask_words.push_back(GlobalMemory::maskAddr(tx.addr));
    std::vector<Addr> &mask_txs = scratch_mask_txs_;
    coalescer_.coalesce(mask_words.data(), mask_words.size(), 1, mask_txs);

    Wavefront *wp = &wave;
    const unsigned pl_id = pl.id;
    const bool lazy_elim = hasZeroElimination(mode_);

    pl.masksOutstanding += static_cast<unsigned>(mask_txs.size());
    const Tick record_tick = pl.recordTick;
    for (Addr ma : mask_txs) {
        ++mask_reads_;
        ++wave.outstanding_masks_;
        std::uint64_t span_id = 0;
        if (trace_) {
            span_id = trace_->nextId();
            trace_->emit(TraceKind::MaskBegin, traceTrack(), 0,
                         engine_.now(), span_id, ma);
        }
        issueMaskTx(ma, false, [this, wp, pl_id, ma, lazy_elim,
                                record_tick, span_id]() {
            Wavefront &w = *wp;
            --w.outstanding_masks_;
            lifecycle_.maskProbed(engine_.now() - record_tick);
            if (trace_) {
                trace_->emit(TraceKind::MaskEnd, traceTrack(), 0,
                             engine_.now(), span_id, ma);
            }
            bool masks_done = true;
            if (auto it = w.pendings().find(pl_id);
                it != w.pendings().end()) {
                --it->second.masksOutstanding;
                masks_done = it->second.masksOutstanding == 0;
            }
            if (lazy_elim)
                onMaskResponse(w, pl_id, ma);
            // The mask may have resolved everything; otherwise honour a
            // parked issue request now that the Zero Read Rsp is back
            // (re-running the look-ahead so optimization (2) sees the
            // freshly zeroed counterpart values).
            if (auto it = w.pendings().find(pl_id);
                it != w.pendings().end() && masks_done &&
                it->second.issueRequested &&
                w.status != WaveStatus::Done) {
                issueSoonNeeded(w);
                if (auto it2 = w.pendings().find(pl_id);
                    it2 != w.pendings().end() &&
                    it2->second.issueRequested) {
                    issuePendingLoad(w, it2->second);
                }
            }
            if (masks_done)
                wake(w);
            maybeFinalize(wp);
            restallIfQuiescent();
        });
    }
}

void
ComputeUnit::onMaskResponse(Wavefront &wave, unsigned pl_id,
                            Addr mask_addr)
{
    auto it = wave.pendings().find(pl_id);
    if (it == wave.pendings().end())
        return;
    PendingLoad &pl = it->second;

    // Data region covered by this 32 B mask transaction: 1 KiB.
    const Addr lo = GlobalMemory::maskedDataAddr(mask_addr);
    const Addr hi = GlobalMemory::maskedDataAddr(mask_addr +
                                                 transactionSize);

    ElimTally tally;
    lanes_zeroed_ += zeroPendingWords(wave, pl, lo, hi, mem_, inject_,
                                      engine_.now(), tally);
    countEliminated(pl, tally);
    finishPendingIfResolved(wave, pl);
}

void
ComputeUnit::finishPendingIfResolved(Wavefront &wave, PendingLoad &pl)
{
    if (pl.wordsLeft == 0)
        wave.removePending(pl.id);
}

void
ComputeUnit::eliminateForRegs(Wavefront &wave, unsigned first,
                              unsigned nregs)
{
    for (unsigned r = first; r < first + nregs; ++r) {
        PendingLoad *pl = wave.pendingFor(r);
        if (!pl)
            continue;
        ElimTally tally;
        eliminateRegister(wave, *pl, r, tally);
        countEliminated(*pl, tally);
        finishPendingIfResolved(wave, *pl);
    }
}

void
ComputeUnit::executeStore(Wavefront &wave, const Instruction &inst)
{
    const unsigned nregs = storeBytes(inst.op) / 4;
    std::vector<unsigned> &srcs = scratch_srcs_;
    srcs.clear();
    srcs.push_back(inst.src0.value);
    for (unsigned r = 0; r < nregs; ++r)
        srcs.push_back(inst.src2.value + r);
    if (!ensureReady(wave, inst, srcs))
        return;

    ++store_insts_;

    // Functional write, immediately (timing below is fire-and-forget).
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
    const bool zc = hier_.hasZeroCaches();
    if (zc) {
        // Fig 7 write path: the zero masks are always updated to keep
        // the Zero Caches coherent with the data. Mask bytes of all the
        // store's transactions coalesce into aligned mask transactions.
        std::vector<Addr> &mask_bytes = scratch_mask_bytes_;
        mask_bytes.clear();
        for (Addr ta : txs)
            mask_bytes.push_back(GlobalMemory::maskAddr(ta));
        coalescer_.coalesce(mask_bytes.data(), mask_bytes.size(), 1,
                            scratch_mask_txs_);
        for (Addr ma : scratch_mask_txs_) {
            ++mask_writes_;
            if (trace_) {
                trace_->emit(TraceKind::MaskWrite, traceTrack(), 0,
                             engine_.now(), 0, ma);
            }
            issueMaskTx(ma, true, nullptr);
        }
    }
    for (Addr ta : txs) {
        if (zc && hasZeroElimination(mode_) &&
            mem_.zeroMaskByte(ta) == 0xff) {
            // All-zero block: only the Zero Cache is written (Sec 4.2).
            ++store_txs_zero_skipped_;
            if (trace_) {
                trace_->emit(TraceKind::StoreTx, traceTrack(), 1,
                             engine_.now(), 0, ta);
            }
            continue;
        }
        ++store_txs_;
        if (trace_) {
            trace_->emit(TraceKind::StoreTx, traceTrack(), 0,
                         engine_.now(), 0, ta);
        }
        issueTx(ta, true, nullptr); // posted write
    }
    ++wave.pc;
}

void
ComputeUnit::issueTx(Addr addr, bool write, Completion cb)
{
    if (inject_ && cb) {
        const Tick now = engine_.now();
        if (inject_->dropResponse(now)) {
            // The hierarchy still services the access; the completion
            // never reaches the LSU (a lost response packet).
            cb = nullptr;
        } else if (const Tick d = inject_->extraResponseDelay(now)) {
            cb = [this, d, inner = std::move(cb)]() mutable {
                engine_.scheduleIn(d, std::move(inner));
            };
        }
    }
    engine_.scheduleIn(cfg_.lsuPipeLatency,
                       [this, addr, write, cb = std::move(cb)]() mutable {
                           hier_.accessData(sa_id_, addr, transactionSize,
                                            write, std::move(cb));
                       });
}

void
ComputeUnit::issueMaskTx(Addr mask_addr, bool write, Completion cb)
{
    engine_.scheduleIn(cfg_.lsuPipeLatency,
                       [this, mask_addr, write,
                        cb = std::move(cb)]() mutable {
                           hier_.accessMask(sa_id_, mask_addr, write,
                                            std::move(cb));
                       });
}

void
ComputeUnit::corruptLaneBitmap()
{
    // Flip one bit of the (2)-suspension bitmap. Losing a set bit
    // (Suspended -> Ready) makes the lane read stale register data
    // instead of the architectural zero AND strands the scoreboard word
    // the bit covered (no resolve path visits a Ready lane, so the
    // retire invariant can fire). Gaining a spurious bit (Pending ->
    // Suspended) zeroes a live operand until the next consumer
    // requalifies it. A mode without optimization (2) holds no
    // suspension bits, so there is nothing to corrupt.
    if (!hasOtimesElimination(mode_))
        return;
    // The first lane of m at or after the seeded one, cyclically.
    const unsigned want = inject_->laneFromSeed();
    const auto pick = [want](LaneMask m) {
        return (want + std::countr_zero(std::rotr(m, int(want)))) %
               wavefrontSize;
    };
    for (const auto &w : waves_) {
        for (unsigned r = 0; r < w->kernel().numVregs; ++r) {
            if (const LaneMask m = w->suspendedMask(r)) {
                w->setRegState(r, pick(m), RegState::Ready);
                return;
            }
        }
    }
    for (const auto &w : waves_) {
        for (unsigned r = 0; r < w->kernel().numVregs; ++r) {
            if (const LaneMask m = w->pendingMask(r)) {
                w->setRegState(r, pick(m), RegState::Suspended);
                return;
            }
        }
    }
}

void
ComputeUnit::wake(Wavefront &wave)
{
    if (wave.status == WaveStatus::Waiting)
        setStatus(wave, WaveStatus::Ready);
}

void
ComputeUnit::retire(Wavefront &wave)
{
    if (retire_obs_)
        retire_obs_(wave);
    // Permanently eliminate every still-parked request: the wavefront is
    // complete, so their values can never be observed (Sec 4.3).
    std::vector<unsigned> &ids = scratch_retire_ids_;
    ids.clear();
    for (const auto &[id, pl] : wave.pendings())
        ids.push_back(id);
    for (unsigned id : ids) {
        auto it = wave.pendings().find(id);
        if (it == wave.pendings().end())
            continue;
        eliminateForRegs(wave, it->second.firstDst, it->second.numRegs);
    }
    setStatus(wave, WaveStatus::Done);
    maybeFinalize(&wave);
}


void
ComputeUnit::maybeFinalize(Wavefront *wave)
{
    if (wave->status != WaveStatus::Done || !wave->drained())
        return;
    panic_if(!wave->pendings().empty(),
             "retiring wavefront with unresolved pending loads");
    auto it = std::find_if(waves_.begin(), waves_.end(),
                           [wave](const std::unique_ptr<Wavefront> &w) {
                               return w.get() == wave;
                           });
    panic_if(it == waves_.end(), "finalizing an unknown wavefront");
    if (trace_) {
        trace_->emit(TraceKind::WaveEnd, traceTrack(), 0, engine_.now(),
                     wave->traceId, wave->wid());
    }
    waves_.erase(it);
    if (retire_cb_)
        retire_cb_();
}

} // namespace lazygpu
