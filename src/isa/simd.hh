/**
 * @file
 * Vectorized SIMD functional backend: execute a wavefront's 64 lanes as
 * one auto-vectorizable loop per opcode over contiguous register planes.
 *
 * A register plane is the 64-lane word row the Wavefront and the
 * reference executor already store contiguously; evalValuPlane runs one
 * VALU instruction over whole planes with a single opcode dispatch, so
 * the per-lane work is a branch-free loop the compiler turns into SSE/
 * AVX code. All three executors -- the timed ComputeUnit, the rabbit
 * and the reference -- run their VALU instructions here. Per-lane
 * semantics are exactly isa::evalValu's; the scalar one-lane-at-a-time
 * interpreters remain the differential oracle.
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
 *
 * The whole translation unit is compiled twice: once normally (namespace
 * lazygpu::isa) and once with -fno-tree-vectorize under the
 * LAZYGPU_SIMD_NOVEC define (namespace lazygpu::isa_novec). The twin is
 * the fixed reference point of the vectorization A/B guard: a refactor
 * that silently breaks auto-vectorization makes the two builds run at
 * the same speed and fails the guard test instead of quietly regressing.
 *
 * Scalar-oracle switch: setting the LAZYGPU_SCALAR_REF environment
 * variable (to anything but 0) routes the reference executor and the
 * rabbit executor through the scalar per-lane interpreters;
 * scalarRefEnabled() is what they consult. The timed ComputeUnit always
 * runs the plane core, so an oracle run checks it against the scalar
 * specification.
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

#ifdef LAZYGPU_SIMD_NOVEC
namespace isa_novec
#else
namespace isa
#endif
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

} // namespace isa / isa_novec

#ifndef LAZYGPU_SIMD_NOVEC
/** Declarations of the -fno-tree-vectorize twin (A/B guard reference).
 *  Only resolvable by targets that link the lazygpu_simd_novec object
 *  library; the simulator itself never calls these. */
namespace isa_novec
{
bool evalValuPlane(Opcode op, std::uint32_t *dst, const PlaneSrc &a,
                   const PlaneSrc &b, unsigned wid);
LaneMask zeroLanes(const std::uint32_t *row);
} // namespace isa_novec
#endif

namespace isa
{

/**
 * True when the reference and rabbit executors should run the scalar
 * one-lane-at-a-time interpreters (the differential oracle): when the
 * LAZYGPU_SCALAR_REF environment variable is set to anything but 0,
 * read once per process.
 */
bool scalarRefEnabled();

/**
 * Test hook: 0/1 force a path, -1 restores the process default.
 * Not thread-safe; call only from single-threaded test setup.
 */
void setScalarRefForTesting(int force);

} // namespace isa

} // namespace lazygpu

#endif // LAZYGPU_ISA_SIMD_HH
