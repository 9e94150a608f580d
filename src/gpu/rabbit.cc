#include "gpu/rabbit.hh"

#include "isa/eval.hh"
#include "sim/logging.hh"

namespace lazygpu
{

RabbitExecutor::RabbitExecutor(const GpuConfig &cfg, GlobalMemory &mem,
                               StatsRegistry &stats,
                               const DecodeWindow &window, Engine *engine)
    : mem_(mem), engine_(engine), mode_(cfg.mode),
      zl1_line_(cfg.l1Zero.lineSize ? cfg.l1Zero.lineSize : 64),
      mask_line_cap_(cfg.l1Zero.size > 0 && cfg.l2Zero.size > 0
                         ? std::size_t(cfg.numShaderArrays) *
                               static_cast<std::size_t>(cfg.l1Zero.size /
                                                        zl1_line_)
                         : 0),
      beat_countdown_(beatInterval),
      lazy_(stats, "gpu.rabbit.", cfg, mem, window, *this)
{
}

std::uint64_t
RabbitExecutor::run(const Kernel &kernel, unsigned wid,
                    std::uint64_t max_insts)
{
    Wavefront wave(kernel, wid);
    const auto &code = kernel.code;
    std::uint64_t insts = 0;

    while (wave.status != WaveStatus::Done) {
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
        if (isScalar(inst.op)) {
            ++lazy_.saluInsts;
            const isa::ScalarOutcome out = isa::evalScalar(
                inst, readSrc(wave, inst.src0, 0),
                readSrc(wave, inst.src1, 0), wave.sregs, wave.scc,
                wave.pc);
            panic_if(out == isa::ScalarOutcome::Unknown,
                     "unhandled scalar opcode %s",
                     opcodeName(inst.op).c_str());
            if (out == isa::ScalarOutcome::End) {
                lazy_.retire(wave);
                wave.status = WaveStatus::Done;
            }
            continue;
        }
        // Issue resolves at once here, so prepare always succeeds.
        lazy_.prepare(wave, inst);
        if (isLoad(inst.op)) {
            execLoad(wave, inst);
        } else if (isStore(inst.op)) {
            lazy_.store(wave, inst);
        } else {
            ++lazy_.valuInsts;
            execValu(wave, inst);
        }
        ++wave.pc;
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
RabbitExecutor::execLoad(Wavefront &wave, const Instruction &inst)
{
    PendingLoad *pl = lazy_.record(wave, inst, 0);
    if (!pl)
        return; // issued at once: mixed upper address bits
    // The Zero Read Req/Rsp pair, collapsed to record time: the Zero
    // Caches are designed for fast responses, and Fig 7 orders the data
    // Read Req strictly after the Zero Read Rsp, so by any issue
    // decision the masks have arrived -- every mask transaction at once.
    const std::vector<Addr> *masks =
        lazy_.wantsMasks() ? &lazy_.readMasks(*pl) : nullptr;
    if (isLazy(mode_)) {
        if (masks)
            lazy_.maskArrived(wave, *pl, 0, ~Addr(0), nullptr, 0);
        return;
    }
    // Eager modes issue at record. EagerZC's residency probe must not
    // see this load's own mask reads (still in flight at issue time in
    // the timed pipeline), so their lines land after the issue.
    lazy_.issue(wave, *pl);
    if (masks) {
        for (Addr ma : *masks)
            insertMaskLine(ma);
    }
}

void
RabbitExecutor::send(Wavefront &wave, PendingLoad &pl, unsigned tx,
                     bool short_circuit)
{
    if (short_circuit) {
        zeroBusyWords(wave, pl, pl.txs[tx]);
        return;
    }
    ++lazy_.txsCompleted; // responses are instantaneous on this path
    fillBusyWords(wave, pl, pl.txs[tx], mem_, nullptr, 0);
}

bool
RabbitExecutor::maskResident(Addr mask_addr)
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
