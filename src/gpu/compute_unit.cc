#include "gpu/compute_unit.hh"

#include <algorithm>
#include <bit>

#include "inject/fault.hh"
#include "isa/eval.hh"
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
                         const DecodeWindow &window, unsigned cu_id,
                         unsigned sa_id, TraceSink *trace)
    : engine_(engine), stats_(stats), lifecycle_(lifecycle),
      trace_(trace), cfg_(cfg), mem_(mem), hier_(hier),
      cu_id_(cu_id), sa_id_(sa_id), mode_(cfg.mode),
      simd_busy_(cfg.simdPerCu, 0), ready_per_simd_(cfg.simdPerCu, 0),
      lazy_(stats, cuPrefix(cfg, cu_id, sa_id), cfg, mem, window, *this),
      simd_busy_cycles_(stats.counter(cuPrefix(cfg, cu_id, sa_id) +
                                      "simd_busy_cycles")),
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
    panic_if(cyc_->total() != engine_.now(),
             "cu.%u: cycle buckets sum to %llu but %llu cycles elapsed",
             cu_id_, static_cast<unsigned long long>(cyc_->total()),
             static_cast<unsigned long long>(engine_.now()));
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

    Tick busy = 1;
    if (isScalar(inst.op)) {
        executeScalar(wave, inst); // may retire and destroy the wave
    } else if (!lazy_.prepare(wave, inst)) {
        setStatus(wave, WaveStatus::Waiting);
        return;
    } else if (isLoad(inst.op)) {
        executeLoad(wave, inst);
    } else if (isStore(inst.op)) {
        lazy_.store(wave, inst);
        ++wave.pc;
    } else {
        // VALU: a 64-lane wavefront occupies the 16-wide SIMD for 4
        // cycles.
        ++lazy_.valuInsts;
        execValu(wave, inst);
        ++wave.pc;
        busy = cfg_.aluLatency;
        wave.nextIssue = now + busy;
    }
    simd_busy_[simd] = now + busy;
    simd_busy_cycles_ += busy;
}

void
ComputeUnit::executeScalar(Wavefront &wave, const Instruction &inst)
{
    ++lazy_.saluInsts;
    const isa::ScalarOutcome out =
        isa::evalScalar(inst, readSrc(wave, inst.src0, 0),
                        readSrc(wave, inst.src1, 0), wave.sregs, wave.scc,
                        wave.pc);
    panic_if(out == isa::ScalarOutcome::Unknown,
             "unhandled scalar opcode %s", opcodeName(inst.op).c_str());
    if (out != isa::ScalarOutcome::End)
        return;
    lazy_.retire(wave);
    setStatus(wave, WaveStatus::Done);
    maybeFinalize(&wave);
}

void
ComputeUnit::executeLoad(Wavefront &wave, const Instruction &inst)
{
    if (PendingLoad *pl = lazy_.record(wave, inst, engine_.now())) {
        // An EagerZC load's mask reads enter the LSU before its data
        // reads.
        if (lazy_.wantsMasks())
            requestMasks(wave, *pl);
        if (!isLazy(mode_))
            lazy_.issue(wave, *pl);
    }
    ++wave.pc;
}

void
ComputeUnit::suspended(const PendingLoad &pl, unsigned lanes)
{
    const Tick age = engine_.now() - pl.recordTick;
    for (unsigned i = 0; i < lanes; ++i)
        lifecycle_.suspended(age);
}

void
ComputeUnit::eliminated(const PendingLoad &pl, const ElimTally &tally)
{
    const Tick age = engine_.now() - pl.recordTick;
    for (unsigned i = 0; i < tally.zero; ++i)
        lifecycle_.eliminatedZero(age);
    for (unsigned i = 0; i < tally.otimes; ++i)
        lifecycle_.eliminatedOtimes(age);
    for (unsigned i = 0; i < tally.dead; ++i)
        lifecycle_.eliminatedDead(age);
}

bool
ComputeUnit::maskResident(Addr mask_addr)
{
    return hier_.maskResidentInL1(sa_id_, mask_addr);
}

void
ComputeUnit::send(Wavefront &wave, PendingLoad &pl, unsigned tx_idx,
                  bool short_circuit)
{
    Wavefront *wp = &wave;
    const unsigned pl_id = pl.id;
    const Addr tx_addr = pl.txs[tx_idx].addr;
    ++wave.outstanding_txs_;
    if (short_circuit) {
        if (trace_) {
            trace_->emit(TraceKind::ZcShortCircuit, traceTrack(), 0,
                         engine_.now(), 0, tx_addr);
        }
        engine_.scheduleIn(
            cfg_.lsuPipeLatency + cfg_.l1HitLatency,
            [this, wp, pl_id, tx_idx]() {
                Wavefront &w = *wp;
                --w.outstanding_txs_;
                if (PendingLoad *p = w.findPending(pl_id)) {
                    zeroBusyWords(w, *p, p->txs[tx_idx]);
                    lazy_.finishIfResolved(w, *p);
                }
                wake(w);
                maybeFinalize(wp);
                restallIfQuiescent();
            });
        return;
    }

    ++pl.inflightTxs;
    const Tick issue_tick = engine_.now();
    const Tick record_tick = pl.recordTick;
    lifecycle_.issued(issue_tick - record_tick);
    std::uint64_t span_id = 0;
    if (trace_) {
        span_id = trace_->nextId();
        trace_->emit(TraceKind::TxBegin, traceTrack(), 0, issue_tick,
                     span_id, tx_addr);
    }
    issueTx(tx_addr, false,
            [this, wp, pl_id, tx_idx, tx_addr, issue_tick, record_tick,
             span_id]() {
        Wavefront &w = *wp;
        --w.outstanding_txs_;
        ++lazy_.txsCompleted;
        const Tick lat = engine_.now() - issue_tick;
        mem_latency_.sample(static_cast<double>(lat));
        lifecycle_.resolved(engine_.now() - record_tick);
        if (trace_) {
            trace_->emit(TraceKind::TxEnd, traceTrack(), 0, engine_.now(),
                         span_id, tx_addr);
        }
        bool load_drained = true;
        if (PendingLoad *p = w.findPending(pl_id)) {
            --p->inflightTxs;
            load_drained = p->inflightTxs == 0;
            if (inject_ && inject_->wantScoreboardFlip(engine_.now()))
                p->wordsLeft += 1;
            fillBusyWords(w, *p, p->txs[tx_idx], mem_, inject_,
                          engine_.now());
            lazy_.finishIfResolved(w, *p);
        }
        // Waking per transaction would burn issue slots on futile
        // re-executions; wake once the whole load's data is in.
        if (load_drained)
            wake(w);
        maybeFinalize(wp);
        restallIfQuiescent();
    });
}

void
ComputeUnit::requestMasks(Wavefront &wave, PendingLoad &pl)
{
    const std::vector<Addr> &masks = lazy_.readMasks(pl);
    Wavefront *wp = &wave;
    const unsigned pl_id = pl.id;
    const Tick record_tick = pl.recordTick;
    pl.masksOutstanding += static_cast<unsigned>(masks.size());
    for (Addr ma : masks) {
        ++wave.outstanding_masks_;
        std::uint64_t span_id = 0;
        if (trace_) {
            span_id = trace_->nextId();
            trace_->emit(TraceKind::MaskBegin, traceTrack(), 0,
                         engine_.now(), span_id, ma);
        }
        issueMaskTx(ma, false, [this, wp, pl_id, ma, record_tick,
                                span_id]() {
            Wavefront &w = *wp;
            --w.outstanding_masks_;
            lifecycle_.maskProbed(engine_.now() - record_tick);
            if (trace_) {
                trace_->emit(TraceKind::MaskEnd, traceTrack(), 0,
                             engine_.now(), span_id, ma);
            }
            bool masks_done = true;
            if (PendingLoad *p = w.findPending(pl_id)) {
                masks_done = --p->masksOutstanding == 0;
                // EagerZC reads masks only for its Zero Cache.
                if (hasZeroElimination(mode_)) {
                    // This 32 B mask transaction covers 1 KiB of data.
                    lazy_.maskArrived(
                        w, *p, GlobalMemory::maskedDataAddr(ma),
                        GlobalMemory::maskedDataAddr(ma + transactionSize),
                        inject_, engine_.now());
                }
            }
            // The mask may have resolved everything; otherwise honour a
            // parked issue request now that the Zero Read Rsp is back
            // (re-running the look-ahead so optimization (2) sees the
            // freshly zeroed counterpart values).
            if (const PendingLoad *p = w.findPending(pl_id);
                p && masks_done && p->issueRequested &&
                w.status != WaveStatus::Done) {
                lazy_.bundleIssue(w);
                if (PendingLoad *p2 = w.findPending(pl_id);
                    p2 && p2->issueRequested) {
                    lazy_.issue(w, *p2);
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
ComputeUnit::writeMask(Addr mask_addr)
{
    if (trace_) {
        trace_->emit(TraceKind::MaskWrite, traceTrack(), 0, engine_.now(),
                     0, mask_addr);
    }
    issueMaskTx(mask_addr, true, nullptr);
}

void
ComputeUnit::writeData(Addr tx_addr, bool zero)
{
    if (trace_) {
        trace_->emit(TraceKind::StoreTx, traceTrack(), zero ? 1 : 0,
                     engine_.now(), 0, tx_addr);
    }
    if (!zero)
        issueTx(tx_addr, true, nullptr); // posted write
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
            // The hook fires once per run, so one held completion
            // suffices.
            delayed_ = cb;
            cb = [this, d]() { engine_.scheduleIn(d, delayed_); };
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
