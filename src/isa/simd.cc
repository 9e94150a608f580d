/**
 * @file
 * The vectorized functional core's per-opcode plane loops.
 *
 * Every loop body is branch-free over dense operand rows, the shape the
 * auto-vectorizer rewards: operands are materialised up front into
 * plane-sized rows (splat expansion and suspended-lane zeroing happen
 * there), so each opcode is a single dense 64-lane loop. A source row
 * may be the destination plane itself (in-place ops are common); rows
 * are whole planes, so pointers are either equal or fully disjoint, and
 * the element-wise loops are safe for the exact-overlap case -- the
 * `GCC ivdep` pragma tells the vectorizer so without paying either a
 * defensive copy or a runtime overlap check.
 */

#include "isa/simd.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace lazygpu
{

namespace isa
{

namespace
{

inline float
asF(std::uint32_t bits)
{
    float f;
    std::memcpy(&f, &bits, sizeof(f));
    return f;
}

inline std::uint32_t
asU(float f)
{
    std::uint32_t bits;
    std::memcpy(&bits, &f, sizeof(bits));
    return bits;
}

/**
 * Resolve a PlaneSrc to a dense row the opcode loops can read
 * unconditionally. Uses buf (and returns it) when the operand is a
 * splat or has suspended lanes to zero; a plain register row is
 * returned as-is, even when it is the destination plane (the opcode
 * loops tolerate exact overlap).
 */
inline const std::uint32_t *
materialize(const PlaneSrc &s, std::uint32_t *buf)
{
    if (s.row && s.zeroed == 0)
        return s.row;
    if (!s.row) {
        const std::uint32_t v = s.imm;
        for (unsigned lane = 0; lane < unsigned(wavefrontSize); ++lane)
            buf[lane] = ((s.zeroed >> lane) & 1) ? 0u : v;
        return buf;
    }
    const std::uint32_t *row = s.row;
    for (unsigned lane = 0; lane < unsigned(wavefrontSize); ++lane)
        buf[lane] = ((s.zeroed >> lane) & 1) ? 0u : row[lane];
    return buf;
}

} // namespace

bool
evalValuPlane(Opcode op, std::uint32_t *dst, const PlaneSrc &a,
              const PlaneSrc &b, unsigned wid)
{
    alignas(64) std::uint32_t abuf[wavefrontSize];
    alignas(64) std::uint32_t bbuf[wavefrontSize];
    const std::uint32_t *pa = materialize(a, abuf);
    const std::uint32_t *pb = materialize(b, bbuf);

// One dense 64-lane loop per opcode; the dispatch runs once per
// instruction, outside the loop. pa/pb may equal dst (in-place ops);
// rows are whole planes so pointers never partially overlap, which
// makes the element-wise loops exact-overlap-safe -- ivdep asserts
// that so the vectorizer emits neither a copy nor a runtime check.
#define LAZYGPU_PLANE_OP(expr)                                           \
    do {                                                                 \
        _Pragma("GCC ivdep")                                             \
        for (unsigned lane = 0; lane < unsigned(wavefrontSize); ++lane)  \
            dst[lane] = (expr);                                          \
        return true;                                                     \
    } while (0)

    switch (op) {
      case Opcode::VMov:
        LAZYGPU_PLANE_OP(pa[lane]);
      case Opcode::VAddF32:
        LAZYGPU_PLANE_OP(asU(asF(pa[lane]) + asF(pb[lane])));
      case Opcode::VSubF32:
        LAZYGPU_PLANE_OP(asU(asF(pa[lane]) - asF(pb[lane])));
      case Opcode::VMulF32:
        LAZYGPU_PLANE_OP(asU(asF(pa[lane]) * asF(pb[lane])));
      case Opcode::VMacF32:
        // The accumulator is the destination plane, read raw (the timed
        // pipeline never zeroes a suspended accumulator read either).
        LAZYGPU_PLANE_OP(
            asU(asF(dst[lane]) + asF(pa[lane]) * asF(pb[lane])));
      case Opcode::VMaxF32:
        LAZYGPU_PLANE_OP(asU(std::max(asF(pa[lane]), asF(pb[lane]))));
      case Opcode::VMinF32:
        LAZYGPU_PLANE_OP(asU(std::min(asF(pa[lane]), asF(pb[lane]))));
      case Opcode::VRcpF32:
        LAZYGPU_PLANE_OP(asU(1.0f / asF(pa[lane])));
      case Opcode::VSqrtF32:
        LAZYGPU_PLANE_OP(asU(std::sqrt(asF(pa[lane]))));
      case Opcode::VCmpGtF32:
        LAZYGPU_PLANE_OP(
            asU(asF(pa[lane]) > asF(pb[lane]) ? 1.0f : 0.0f));
      case Opcode::VCmpLtF32:
        LAZYGPU_PLANE_OP(
            asU(asF(pa[lane]) < asF(pb[lane]) ? 1.0f : 0.0f));
      case Opcode::VAddU32:
        LAZYGPU_PLANE_OP(pa[lane] + pb[lane]);
      case Opcode::VSubU32:
        LAZYGPU_PLANE_OP(pa[lane] - pb[lane]);
      case Opcode::VMulU32:
        LAZYGPU_PLANE_OP(pa[lane] * pb[lane]);
      case Opcode::VShlU32:
        LAZYGPU_PLANE_OP(pa[lane] << (pb[lane] & 31));
      case Opcode::VShrU32:
        LAZYGPU_PLANE_OP(pa[lane] >> (pb[lane] & 31));
      case Opcode::VAndB32:
        LAZYGPU_PLANE_OP(pa[lane] & pb[lane]);
      case Opcode::VOrB32:
        LAZYGPU_PLANE_OP(pa[lane] | pb[lane]);
      case Opcode::VXorB32:
        LAZYGPU_PLANE_OP(pa[lane] ^ pb[lane]);
      case Opcode::VCmpEqU32:
        LAZYGPU_PLANE_OP(pa[lane] == pb[lane] ? 1u : 0u);
      case Opcode::VMinU32:
        LAZYGPU_PLANE_OP(std::min(pa[lane], pb[lane]));
      case Opcode::VCvtF32U32:
        LAZYGPU_PLANE_OP(asU(static_cast<float>(pa[lane])));
      case Opcode::VThreadId:
        LAZYGPU_PLANE_OP(wid * unsigned(wavefrontSize) + lane);
      case Opcode::VLaneId:
        LAZYGPU_PLANE_OP(lane);
      default:
        return false;
    }
#undef LAZYGPU_PLANE_OP
}

LaneMask
zeroLanes(const std::uint32_t *row)
{
#if defined(__SSE2__)
    // movmskps turns four lane-zero compares into four mask bits per
    // step; 16 steps cover the plane.
    LaneMask m = 0;
    const __m128i zero = _mm_setzero_si128();
    for (unsigned c = 0; c < unsigned(wavefrontSize) / 4; ++c) {
        const __m128i v = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(row + 4 * c));
        const int bits =
            _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(v, zero)));
        m |= LaneMask(bits) << (4 * c);
    }
    return m;
#else
    // Chunked so full unrolling leaves only constant shifts.
    LaneMask m = 0;
    for (unsigned c = 0; c < unsigned(wavefrontSize) / 8; ++c) {
        unsigned bits = 0;
        for (unsigned i = 0; i < 8; ++i)
            bits |= unsigned(row[8 * c + i] == 0) << i;
        m |= LaneMask(bits) << (8 * c);
    }
    return m;
#endif
}

} // namespace isa

} // namespace lazygpu
