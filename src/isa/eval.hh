/**
 * @file
 * Shared functional ISA semantics.
 *
 * The scalar instructions (evalScalar), run by every executor: the
 * timed ComputeUnit, the rabbit fast-path executor and the verification
 * reference executor. And two per-lane specifications. evalValu is the
 * one the vectorized plane core (isa/simd.hh), the only VALU path the
 * executors run, must match bit for bit; the SimdEquiv tests and
 * verif::runReferenceScalar call it by name. loadRegWord, the per-word
 * load semantics the reference executor runs, is the one the Lazy
 * Unit's per-transaction block reads (gpu/wavefront.cc) must match word
 * for word (tests/test_lazy_walk.cc).
 */

#ifndef LAZYGPU_ISA_EVAL_HH
#define LAZYGPU_ISA_EVAL_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "isa/instruction.hh"
#include "isa/opcode.hh"
#include "mem/memory.hh"
#include "sim/types.hh"

namespace lazygpu
{
namespace isa
{

inline float
bitsToF32(std::uint32_t bits)
{
    float f;
    std::memcpy(&f, &bits, sizeof(f));
    return f;
}

inline std::uint32_t
f32ToBits(float f)
{
    std::uint32_t bits;
    std::memcpy(&bits, &f, sizeof(bits));
    return bits;
}

/**
 * Evaluate one VALU lane. acc is the destination's old value (VMacF32
 * reads it); known is cleared when op is not a VALU opcode.
 */
inline std::uint32_t
evalValu(Opcode op, std::uint32_t a, std::uint32_t b, std::uint32_t acc,
         unsigned wid, unsigned lane, bool &known)
{
    const auto asF = bitsToF32;
    const auto asU = f32ToBits;
    switch (op) {
      case Opcode::VMov:
        return a;
      case Opcode::VAddF32:
        return asU(asF(a) + asF(b));
      case Opcode::VSubF32:
        return asU(asF(a) - asF(b));
      case Opcode::VMulF32:
        return asU(asF(a) * asF(b));
      case Opcode::VMacF32:
        return asU(asF(acc) + asF(a) * asF(b));
      case Opcode::VMaxF32:
        return asU(std::max(asF(a), asF(b)));
      case Opcode::VMinF32:
        return asU(std::min(asF(a), asF(b)));
      case Opcode::VRcpF32:
        return asU(1.0f / asF(a));
      case Opcode::VSqrtF32:
        return asU(std::sqrt(asF(a)));
      case Opcode::VCmpGtF32:
        return asU(asF(a) > asF(b) ? 1.0f : 0.0f);
      case Opcode::VCmpLtF32:
        return asU(asF(a) < asF(b) ? 1.0f : 0.0f);
      case Opcode::VAddU32:
        return a + b;
      case Opcode::VSubU32:
        return a - b;
      case Opcode::VMulU32:
        return a * b;
      case Opcode::VShlU32:
        return a << (b & 31);
      case Opcode::VShrU32:
        return a >> (b & 31);
      case Opcode::VAndB32:
        return a & b;
      case Opcode::VOrB32:
        return a | b;
      case Opcode::VXorB32:
        return a ^ b;
      case Opcode::VCmpEqU32:
        return (a == b) ? 1u : 0u;
      case Opcode::VMinU32:
        return std::min(a, b);
      case Opcode::VCvtF32U32:
        return asU(static_cast<float>(a));
      case Opcode::VThreadId:
        return wid * wavefrontSize + lane;
      case Opcode::VLaneId:
        return lane;
      default:
        known = false;
        return 0;
    }
}

/** What evalScalar did. */
enum class ScalarOutcome : std::uint8_t
{
    Next,    //!< pc moved on: past the instruction, or to a branch target
    End,     //!< s_endpgm: the wavefront is done, pc is unchanged
    Unknown, //!< not a scalar opcode: nothing changed
};

/**
 * Execute one scalar instruction on a wavefront's scalar state. a and b
 * are the values of src0 and src1 (lane 0 of a vector operand).
 */
inline ScalarOutcome
evalScalar(const Instruction &inst, std::uint32_t a, std::uint32_t b,
           std::vector<std::uint32_t> &sregs, bool &scc, unsigned &pc)
{
    switch (inst.op) {
      case Opcode::SMov:
        sregs[inst.dst] = a;
        break;
      case Opcode::SAddU32:
        sregs[inst.dst] = a + b;
        break;
      case Opcode::SMulU32:
        sregs[inst.dst] = a * b;
        break;
      case Opcode::SCmpLtU32:
        scc = a < b;
        break;
      case Opcode::SCBranch1:
        pc = scc ? static_cast<unsigned>(inst.target) : pc + 1;
        return ScalarOutcome::Next;
      case Opcode::SCBranch0:
        pc = !scc ? static_cast<unsigned>(inst.target) : pc + 1;
        return ScalarOutcome::Next;
      case Opcode::SBranch:
        pc = static_cast<unsigned>(inst.target);
        return ScalarOutcome::Next;
      case Opcode::SEndpgm:
        return ScalarOutcome::End;
      default:
        return ScalarOutcome::Unknown;
    }
    ++pc;
    return ScalarOutcome::Next;
}

/**
 * Functional load of destination register first+reg_off's word: sub-word
 * loads zero-extend, wider loads read the lane's reg_off-th dword.
 */
inline std::uint32_t
loadRegWord(const GlobalMemory &mem, Opcode op, Addr addr,
            unsigned reg_off)
{
    switch (op) {
      case Opcode::LoadByte:
        return mem.readByte(addr);
      case Opcode::LoadShort:
        return mem.readByte(addr) |
               (static_cast<std::uint32_t>(mem.readByte(addr + 1)) << 8);
      default:
        return mem.readU32(addr + 4ull * reg_off);
    }
}

} // namespace isa
} // namespace lazygpu

#endif // LAZYGPU_ISA_EVAL_HH
