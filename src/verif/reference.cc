#include "verif/reference.hh"

#include <algorithm>
#include <cstring>

#include "isa/eval.hh"
#include "isa/simd.hh"
#include "sim/logging.hh"

namespace lazygpu
{
namespace verif
{

namespace
{

std::uint32_t
readSrc(const RefWaveState &w, const Src &s, unsigned lane)
{
    switch (s.kind) {
      case SrcKind::VReg:
        return w.vregs[s.value][lane];
      case SrcKind::SReg:
        return w.sregs[s.value];
      case SrcKind::Imm:
        return s.value;
      case SrcKind::None:
        return 0;
    }
    return 0;
}

/** One VALU operand of the reference's plane path (no suspension). */
PlaneSrc
planeSrc(RefWaveState &w, const Src &s)
{
    PlaneSrc p;
    switch (s.kind) {
      case SrcKind::VReg:
        p.row = w.vregs[s.value].data();
        break;
      case SrcKind::SReg:
        p.imm = w.sregs[s.value];
        break;
      case SrcKind::Imm:
        p.imm = s.value;
        break;
      case SrcKind::None:
        break;
    }
    return p;
}

/**
 * One scalar instruction of either reference loop. Sets done at
 * s_endpgm; records an error in res and returns false on an unknown
 * opcode.
 */
bool
execScalar(RefWaveState &w, const Instruction &inst, bool &scc,
           unsigned &pc, bool &done, RefResult &res)
{
    const isa::ScalarOutcome out =
        isa::evalScalar(inst, readSrc(w, inst.src0, 0),
                        readSrc(w, inst.src1, 0), w.sregs, scc, pc);
    if (out == isa::ScalarOutcome::Unknown) {
        res.error = "unhandled scalar opcode " + opcodeName(inst.op);
        return false;
    }
    done = out == isa::ScalarOutcome::End;
    return true;
}

/**
 * True iff every lane's address offset is base_off + stride*lane, the
 * unit-stride pattern whose whole-wavefront footprint is one contiguous
 * span (the batched load/store fast path below).
 */
bool
contiguousLanes(const std::array<std::uint32_t, wavefrontSize> &off,
                std::uint32_t stride)
{
    // The guard keeps base + stride*lane from wrapping in 32 bits, so
    // a match really is 64-bit-address contiguity.
    const std::uint32_t base = off[0];
    if (std::uint64_t(base) + std::uint64_t(stride) * wavefrontSize >
        std::uint64_t(1) << 32) {
        return false;
    }
    bool contig = true;
    for (unsigned lane = 0; lane < wavefrontSize; ++lane)
        contig &= off[lane] == base + stride * lane;
    return contig;
}

} // namespace

RefResult
runReferenceScalar(const Kernel &kernel, GlobalMemory &mem,
                   std::uint64_t max_insts_per_wave)
{
    RefResult res;
    if (kernel.code.empty()) {
        res.error = "kernel '" + kernel.name + "' has no instructions";
        return res;
    }
    res.waves.reserve(kernel.numWavefronts);

    for (unsigned wid = 0; wid < kernel.numWavefronts; ++wid) {
        RefWaveState w;
        w.sregs.assign(std::max(kernel.numSregs, 1u), 0);
        w.sregs[0] = wid;
        if (kernel.initSregs)
            kernel.initSregs(wid, w.sregs);
        w.vregs.assign(kernel.numVregs, {});

        bool scc = false;
        unsigned pc = 0;
        std::uint64_t insts = 0;
        bool done = false;

        while (!done) {
            if (pc >= kernel.code.size()) {
                res.error = detail::formatString(
                    "wid %u ran past the end of '%s' (pc %u)", wid,
                    kernel.name.c_str(), pc);
                return res;
            }
            if (++insts > max_insts_per_wave) {
                res.error = detail::formatString(
                    "wid %u exceeded %llu instructions in '%s'; "
                    "livelocked kernel", wid,
                    static_cast<unsigned long long>(max_insts_per_wave),
                    kernel.name.c_str());
                return res;
            }

            const Instruction &inst = kernel.code[pc];
            if (isScalar(inst.op)) {
                if (!execScalar(w, inst, scc, pc, done, res))
                    return res;
            } else if (isLoad(inst.op)) {
                const unsigned nregs = loadDstRegs(inst.op);
                for (unsigned lane = 0; lane < wavefrontSize; ++lane) {
                    const Addr addr =
                        inst.base + w.vregs[inst.src0.value][lane];
                    for (unsigned r = 0; r < nregs; ++r) {
                        w.vregs[inst.dst + r][lane] =
                            isa::loadRegWord(mem, inst.op, addr, r);
                    }
                }
                ++pc;
            } else if (isStore(inst.op)) {
                const unsigned nregs = storeBytes(inst.op) / 4;
                for (unsigned lane = 0; lane < wavefrontSize; ++lane) {
                    const Addr addr =
                        inst.base + w.vregs[inst.src0.value][lane];
                    for (unsigned r = 0; r < nregs; ++r) {
                        mem.writeU32(addr + 4ull * r,
                                     w.vregs[inst.src2.value + r][lane]);
                        res.writeLog[addr + 4ull * r] = StoreOrigin{
                            wid, pc, static_cast<std::uint8_t>(lane)};
                    }
                }
                ++pc;
            } else {
                for (unsigned lane = 0; lane < wavefrontSize; ++lane) {
                    const std::uint32_t a = readSrc(w, inst.src0, lane);
                    const std::uint32_t b = readSrc(w, inst.src1, lane);
                    const std::uint32_t acc = w.vregs[inst.dst][lane];
                    bool known = true;
                    const std::uint32_t out =
                        isa::evalValu(inst.op, a, b, acc, wid, lane, known);
                    if (!known) {
                        res.error = "unhandled VALU opcode " +
                                    opcodeName(inst.op);
                        return res;
                    }
                    w.vregs[inst.dst][lane] = out;
                }
                ++pc;
            }
        }

        res.instsExecuted += insts;
        res.waves.push_back(std::move(w));
    }
    return res;
}

RefResult
runReference(const Kernel &kernel, GlobalMemory &mem,
             std::uint64_t max_insts_per_wave)
{
    RefResult res;
    if (kernel.code.empty()) {
        res.error = "kernel '" + kernel.name + "' has no instructions";
        return res;
    }
    res.waves.reserve(kernel.numWavefronts);

    for (unsigned wid = 0; wid < kernel.numWavefronts; ++wid) {
        RefWaveState w;
        w.sregs.assign(std::max(kernel.numSregs, 1u), 0);
        w.sregs[0] = wid;
        if (kernel.initSregs)
            kernel.initSregs(wid, w.sregs);
        w.vregs.assign(kernel.numVregs, {});

        bool scc = false;
        unsigned pc = 0;
        std::uint64_t insts = 0;
        bool done = false;

        while (!done) {
            if (pc >= kernel.code.size()) {
                res.error = detail::formatString(
                    "wid %u ran past the end of '%s' (pc %u)", wid,
                    kernel.name.c_str(), pc);
                return res;
            }
            if (++insts > max_insts_per_wave) {
                res.error = detail::formatString(
                    "wid %u exceeded %llu instructions in '%s'; "
                    "livelocked kernel", wid,
                    static_cast<unsigned long long>(max_insts_per_wave),
                    kernel.name.c_str());
                return res;
            }

            const Instruction &inst = kernel.code[pc];
            if (isVectorAlu(inst.op)) {
                // The hot case, classified first: one opcode dispatch
                // per instruction, lanes as one dense loop over the
                // contiguous register planes.
                const PlaneSrc a = planeSrc(w, inst.src0);
                const PlaneSrc b = planeSrc(w, inst.src1);
                if (!isa::evalValuPlane(inst.op,
                                        w.vregs[inst.dst].data(), a, b,
                                        wid)) {
                    res.error =
                        "unhandled VALU opcode " + opcodeName(inst.op);
                    return res;
                }
                ++pc;
            } else if (isScalar(inst.op)) {
                if (!execScalar(w, inst, scc, pc, done, res))
                    return res;
            } else if (isLoad(inst.op)) {
                const unsigned nregs = loadDstRegs(inst.op);
                const unsigned bytes = loadBytes(inst.op);
                const auto &off = w.vregs[inst.src0.value];
                // Unit-stride word loads cover one contiguous span; if
                // it sits inside a single page, the whole wavefront is
                // one memcpy (deinterleaved per destination register
                // for the multi-register widths).
                const Addr a0 = inst.base + off[0];
                const Addr poff = a0 & (GlobalMemory::pageSize - 1);
                const std::uint64_t span = 4ull * nregs * wavefrontSize;
                if (bytes == 4 * nregs && (a0 & 3) == 0 &&
                    poff + span <= GlobalMemory::pageSize &&
                    contiguousLanes(off, 4 * nregs)) {
                    const std::uint8_t *page = mem.pageForSpan(a0);
                    if (nregs == 1) {
                        std::uint32_t *dst = w.vregs[inst.dst].data();
                        if (page)
                            std::memcpy(dst, page + poff, span);
                        else
                            std::fill(dst, dst + wavefrontSize, 0u);
                    } else {
                        for (unsigned r = 0; r < nregs; ++r) {
                            std::uint32_t *dst =
                                w.vregs[inst.dst + r].data();
                            if (!page) {
                                std::fill(dst, dst + wavefrontSize, 0u);
                                continue;
                            }
                            for (unsigned lane = 0; lane < wavefrontSize;
                                 ++lane) {
                                std::memcpy(
                                    dst + lane,
                                    page + poff + 4ull * (nregs * lane + r),
                                    4);
                            }
                        }
                    }
                    ++pc;
                    continue;
                }
                for (unsigned lane = 0; lane < wavefrontSize; ++lane) {
                    const Addr addr = inst.base + off[lane];
                    for (unsigned r = 0; r < nregs; ++r) {
                        w.vregs[inst.dst + r][lane] =
                            isa::loadRegWord(mem, inst.op, addr, r);
                    }
                }
                ++pc;
            } else if (isStore(inst.op)) {
                const unsigned nregs = storeBytes(inst.op) / 4;
                const auto &off = w.vregs[inst.src0.value];
                const Addr a0 = inst.base + off[0];
                const Addr poff = a0 & (GlobalMemory::pageSize - 1);
                const std::uint64_t span = 4ull * nregs * wavefrontSize;
                if ((a0 & 3) == 0 &&
                    poff + span <= GlobalMemory::pageSize &&
                    contiguousLanes(off, 4 * nregs)) {
                    std::uint8_t *page = mem.pageForSpanWrite(a0);
                    for (unsigned r = 0; r < nregs; ++r) {
                        const std::uint32_t *src =
                            w.vregs[inst.src2.value + r].data();
                        for (unsigned lane = 0; lane < wavefrontSize;
                             ++lane) {
                            std::memcpy(
                                page + poff + 4ull * (nregs * lane + r),
                                src + lane, 4);
                        }
                    }
                    // Distinct addresses: insertion order is free, the
                    // final log equals the scalar path's exactly.
                    for (unsigned lane = 0; lane < wavefrontSize; ++lane) {
                        for (unsigned r = 0; r < nregs; ++r) {
                            res.writeLog[a0 +
                                         4ull * (nregs * lane + r)] =
                                StoreOrigin{wid, pc,
                                            static_cast<std::uint8_t>(
                                                lane)};
                        }
                    }
                    ++pc;
                    continue;
                }
                for (unsigned lane = 0; lane < wavefrontSize; ++lane) {
                    const Addr addr = inst.base + off[lane];
                    for (unsigned r = 0; r < nregs; ++r) {
                        mem.writeU32(addr + 4ull * r,
                                     w.vregs[inst.src2.value + r][lane]);
                        res.writeLog[addr + 4ull * r] = StoreOrigin{
                            wid, pc, static_cast<std::uint8_t>(lane)};
                    }
                }
                ++pc;
            } else {
                res.error = "unhandled opcode " + opcodeName(inst.op);
                return res;
            }
        }

        res.instsExecuted += insts;
        res.waves.push_back(std::move(w));
    }
    return res;
}

} // namespace verif
} // namespace lazygpu
