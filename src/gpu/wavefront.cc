#include "gpu/wavefront.hh"

#include "sim/logging.hh"

namespace lazygpu
{

Wavefront::Wavefront(const Kernel &kernel, unsigned wid)
    : kernel_(&kernel), wid_(wid), values_(kernel.numVregs),
      state_(kernel.numVregs), busy_(kernel.numVregs, 0),
      susp_(kernel.numVregs, 0), inflight_(kernel.numVregs, 0),
      zero_(kernel.numVregs, allLanes), owner_(kernel.numVregs, nullptr)
{
    // values_ and state_ are value-initialised by the vector fill
    // constructor: every word reads 0 and every reg state reads Ready
    // (== 0) without a second zeroing pass; the zero bitmap starts at
    // allLanes to match.
    static_assert(static_cast<std::uint8_t>(RegState::Ready) == 0);

    sregs.assign(kernel.numSregs, 0);
    sregs[0] = wid;
    if (kernel.initSregs)
        kernel.initSregs(wid, sregs);
}

PendingLoad &
Wavefront::addPending(PendingLoad &&pl)
{
    const unsigned id = next_pending_id_++;
    pl.id = id;
    auto [it, fresh] = pendings_.insert_or_assign(id, std::move(pl));
    panic_if(!fresh, "pending-load id reused");
    claimOwners(it->second);
    return it->second;
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

bool
requalifyOperands(Wavefront &wave, const Instruction &inst,
                  const std::vector<unsigned> &regs, ExecMode mode,
                  bool skip_requalify)
{
    bool must_fetch = false;
    for (unsigned reg : regs) {
        if (!wave.anyNotReady(reg))
            continue;
        const LaneMask stale = wave.suspendedMask(reg) &
                               ~zeroCounterpartLanes(wave, inst, reg, mode);
        if (stale && !skip_requalify)
            wave.requalifyLanes(reg, stale);
        must_fetch |= (wave.busyMask(reg) & ~wave.suspendedMask(reg)) != 0;
    }
    return must_fetch;
}

} // namespace lazygpu
