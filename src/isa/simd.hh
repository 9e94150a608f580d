/**
 * @file
 * Vectorized SIMD functional backend: execute a wavefront's 64 lanes as
 * one auto-vectorizable loop per opcode over contiguous register planes.
 *
 * A register plane is the 64-lane word row the Wavefront and the
 * reference executor already store contiguously; evalValuPlane runs one
 * VALU instruction over whole planes with a single opcode dispatch, so
 * the per-lane work is a branch-free loop the compiler turns into SSE/
 * AVX code. It is the simulator's only VALU path: the timed
 * ComputeUnit, the rabbit and the reference all run their VALU
 * instructions here. Per-lane semantics are exactly isa::evalValu's,
 * the specification the SimdEquiv tests hold every opcode to; the
 * vectorization guard in the same suite fails if the loops stop
 * beating a per-lane evalValu loop by a wide margin.
 *
 * Predication follows the Lazy Unit's optimization-(2) contract: a
 * source operand carries a LaneMask of lanes that read as zero (the
 * Suspended lanes); VMacF32's accumulator (the destination plane) is
 * always read raw.
 *
 * Zero probes fold into per-plane zero bitmaps: zeroLanes computes the
 * "lane value == 0" mask of a plane in one vectorizable pass, and the
 * Wavefront maintains the same bitmap incrementally on writes, so the
 * Lazy Unit's counterpart-zero scans become 64-bit bitwise tests.
 */

#ifndef LAZYGPU_ISA_SIMD_HH
#define LAZYGPU_ISA_SIMD_HH

#include <cstdint>

#include "isa/opcode.hh"
#include "sim/types.hh"

namespace lazygpu
{

/**
 * One VALU source operand in plane form: either a 64-lane register row
 * (row != nullptr) or a lane-invariant splat (immediate / scalar
 * register / missing operand). zeroed marks lanes that read as zero
 * regardless of the stored value -- the (2)-suspended lanes.
 */
struct PlaneSrc
{
    const std::uint32_t *row = nullptr;
    std::uint32_t imm = 0;
    LaneMask zeroed = 0;
};

namespace isa
{

/**
 * Execute one VALU opcode over a full 64-lane plane, bit-exact with
 * isa::evalValu lane by lane. dst may alias a source row (lanes are
 * independent). VMacF32 reads dst as the accumulator, raw.
 *
 * @return false iff op is not a VALU opcode (dst untouched).
 */
bool evalValuPlane(Opcode op, std::uint32_t *dst, const PlaneSrc &a,
                   const PlaneSrc &b, unsigned wid);

/** Bitmap of lanes whose word in the plane is zero. */
LaneMask zeroLanes(const std::uint32_t *row);

} // namespace isa

} // namespace lazygpu

#endif // LAZYGPU_ISA_SIMD_HH
