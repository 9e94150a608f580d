/**
 * @file
 * Property tests of the vectorized SIMD functional backend
 * (src/isa/simd.cc), the simulator's only VALU path, against its
 * per-lane specifications: bit-equivalence of the 64-lane plane loops
 * with isa::evalValu for every VALU opcode under random operands and
 * suspension masks, the zero-bitmap probe, the plane reference executor
 * (verif::runReference) against the per-lane one
 * (verif::runReferenceScalar) on the fuzz corpus and seed bands and
 * across every access width of its batched load/store paths, the
 * Wavefront scoreboard bitmap coherence, functional verification of the
 * rabbit in all five ExecModes, and the guard that fails if
 * auto-vectorization of the plane core silently breaks.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "analysis/harness.hh"
#include "gpu/wavefront.hh"
#include "isa/eval.hh"
#include "isa/kernel.hh"
#include "isa/simd.hh"
#include "mem/memory.hh"
#include "verif/differential.hh"
#include "verif/kernel_gen.hh"
#include "verif/reference.hh"
#include "workloads/suite.hh"

namespace lazygpu
{
namespace
{

constexpr std::array<Opcode, 24> kValuOps = {
    Opcode::VMov,      Opcode::VAddF32,   Opcode::VSubF32,
    Opcode::VMulF32,   Opcode::VMacF32,   Opcode::VMaxF32,
    Opcode::VMinF32,   Opcode::VRcpF32,   Opcode::VSqrtF32,
    Opcode::VCmpGtF32, Opcode::VCmpLtF32, Opcode::VAddU32,
    Opcode::VSubU32,   Opcode::VMulU32,   Opcode::VShlU32,
    Opcode::VShrU32,   Opcode::VAndB32,   Opcode::VOrB32,
    Opcode::VXorB32,   Opcode::VCmpEqU32, Opcode::VMinU32,
    Opcode::VCvtF32U32, Opcode::VThreadId, Opcode::VLaneId};

/**
 * Random 32-bit patterns weighted toward the values where float
 * semantics can diverge between implementations: zeros of both signs,
 * infinities, NaN, denormals, and small "ordinary" floats.
 */
std::uint32_t
randWord(std::mt19937_64 &rng)
{
    static constexpr std::uint32_t specials[] = {
        0x00000000u, 0x80000000u, // +/- 0
        0x3f800000u, 0xbf800000u, // +/- 1.0f
        0x7f800000u, 0xff800000u, // +/- inf
        0x7fc00000u,              // quiet NaN
        0x00000001u, 0x00400000u, // denormals
        0x7f7fffffu, 0xffffffffu, // FLT_MAX, -NaN
    };
    switch (rng() & 3) {
      case 0:
        return specials[rng() % (sizeof(specials) / sizeof(specials[0]))];
      case 1: {
        const float f =
            (static_cast<int>(rng() % 512) - 256) / 16.0f;
        std::uint32_t u;
        std::memcpy(&u, &f, 4);
        return u;
      }
      default:
        return static_cast<std::uint32_t>(rng());
    }
}

using Plane = std::array<std::uint32_t, wavefrontSize>;

/**
 * Float-arithmetic opcodes get NaN operands replaced by same-signed
 * infinities. With two NaN operands the propagated payload depends on
 * operand order, which the compiler may legally commute differently in
 * the plane loops and the per-lane spec, so bit-equality over NaN
 * *inputs* is not a property the backend can promise. NaN *generation*
 * (inf - inf, 0 * inf, sqrt of negative, ...) is deterministic and stays
 * covered through the infinities and signed zeros this mapping
 * preserves.
 */
bool
floatArith(Opcode op)
{
    switch (op) {
      case Opcode::VAddF32:
      case Opcode::VSubF32:
      case Opcode::VMulF32:
      case Opcode::VMacF32:
      case Opcode::VMaxF32:
      case Opcode::VMinF32:
      case Opcode::VRcpF32:
      case Opcode::VSqrtF32:
      case Opcode::VCmpGtF32:
      case Opcode::VCmpLtF32:
        return true;
      default:
        return false;
    }
}

std::uint32_t
noNan(std::uint32_t u)
{
    const bool is_nan =
        (u & 0x7f800000u) == 0x7f800000u && (u & 0x007fffffu) != 0;
    return is_nan ? (u & 0xff800000u) : u; // -> same-signed infinity
}

void
noNanPlane(Plane &p)
{
    for (std::uint32_t &v : p)
        v = noNan(v);
}

Plane
randPlane(std::mt19937_64 &rng)
{
    Plane p;
    for (std::uint32_t &v : p)
        v = randWord(rng);
    return p;
}

/** The per-lane source value the plane path must observe. */
std::uint32_t
srcLane(const PlaneSrc &s, unsigned lane)
{
    if ((s.zeroed >> lane) & 1)
        return 0;
    return s.row ? s.row[lane] : s.imm;
}

/**
 * Run op through the plane core and the per-lane spec and expect them
 * to agree bit-for-bit on every lane.
 */
void
expectPlaneMatchesScalar(Opcode op, const PlaneSrc &a, const PlaneSrc &b,
                         const Plane &acc, unsigned wid,
                         const std::string &what)
{
    Plane vec = acc;
    ASSERT_TRUE(isa::evalValuPlane(op, vec.data(), a, b, wid)) << what;
    for (unsigned lane = 0; lane < wavefrontSize; ++lane) {
        bool known = true;
        const std::uint32_t want =
            isa::evalValu(op, srcLane(a, lane), srcLane(b, lane),
                          acc[lane], wid, lane, known);
        ASSERT_TRUE(known) << what;
        EXPECT_EQ(want, vec[lane]) << what << " lane " << lane;
    }
}

TEST(SimdEquiv, PlaneMatchesScalarEveryOpcode)
{
    std::mt19937_64 rng(20260808);
    for (const Opcode op : kValuOps) {
        for (unsigned trial = 0; trial < 40; ++trial) {
            Plane arow = randPlane(rng);
            Plane brow = randPlane(rng);
            Plane acc = randPlane(rng);
            if (floatArith(op)) {
                noNanPlane(arow);
                noNanPlane(brow);
                if (op == Opcode::VMacF32)
                    noNanPlane(acc); // the accumulator is an operand
            }

            PlaneSrc a;
            if (trial & 1) {
                a.row = arow.data();
            } else {
                a.imm = floatArith(op) ? noNan(randWord(rng))
                                       : randWord(rng);
            }
            PlaneSrc b;
            if (trial & 2) {
                b.row = brow.data();
            } else {
                b.imm = floatArith(op) ? noNan(randWord(rng))
                                       : randWord(rng);
            }
            // Half the trials carry suspension masks (lanes read as 0).
            if (trial & 4) {
                a.zeroed = rng();
                b.zeroed = rng();
            }
            const unsigned wid = static_cast<unsigned>(rng() % 1024);
            expectPlaneMatchesScalar(op, a, b, acc, wid,
                                     opcodeName(op) + " trial " +
                                         std::to_string(trial));
        }
    }
}

// In-place ops are the common case (dst is also a source row); the
// plane loops must tolerate the exact-overlap aliasing without a copy.
TEST(SimdEquiv, PlaneMatchesScalarInPlace)
{
    std::mt19937_64 rng(99);
    for (const Opcode op : kValuOps) {
        for (unsigned which = 0; which < 2; ++which) {
            Plane start = randPlane(rng);
            Plane other = randPlane(rng);
            if (floatArith(op)) {
                noNanPlane(start);
                noNanPlane(other);
            }

            Plane vec = start;
            PlaneSrc a;
            PlaneSrc b;
            if (which == 0) {
                a.row = vec.data(); // dst == src0
                b.row = other.data();
            } else {
                a.row = other.data();
                b.row = vec.data(); // dst == src1
            }
            ASSERT_TRUE(isa::evalValuPlane(op, vec.data(), a, b, 3));

            for (unsigned lane = 0; lane < wavefrontSize; ++lane) {
                bool known = true;
                const std::uint32_t sa =
                    which == 0 ? start[lane] : other[lane];
                const std::uint32_t sb =
                    which == 0 ? other[lane] : start[lane];
                const std::uint32_t want = isa::evalValu(
                    op, sa, sb, start[lane], 3, lane, known);
                ASSERT_TRUE(known);
                EXPECT_EQ(want, vec[lane])
                    << opcodeName(op) << " in-place src" << which
                    << " lane " << lane;
            }
        }
    }
}

TEST(SimdEquiv, ZeroLanesMatchesManualScan)
{
    std::mt19937_64 rng(7);
    for (unsigned trial = 0; trial < 200; ++trial) {
        Plane row = randPlane(rng);
        // Plant extra zeros so the bitmap is never trivially sparse.
        for (unsigned lane = 0; lane < wavefrontSize; ++lane) {
            if (rng() & 1)
                row[lane] = 0;
        }
        LaneMask want = 0;
        for (unsigned lane = 0; lane < wavefrontSize; ++lane)
            want |= LaneMask(row[lane] == 0) << lane;
        EXPECT_EQ(want, isa::zeroLanes(row.data()));
    }
}

// --- Reference executor: per-lane spec vs plane core ---------------------

void
expectRefEqual(const verif::RefResult &s, const verif::RefResult &v,
               const std::string &what)
{
    ASSERT_EQ(s.error, v.error) << what;
    EXPECT_EQ(s.instsExecuted, v.instsExecuted) << what;
    ASSERT_EQ(s.waves.size(), v.waves.size()) << what;
    for (std::size_t w = 0; w < s.waves.size(); ++w) {
        EXPECT_EQ(s.waves[w].sregs, v.waves[w].sregs)
            << what << " wid " << w;
        ASSERT_EQ(s.waves[w].vregs.size(), v.waves[w].vregs.size())
            << what << " wid " << w;
        for (std::size_t r = 0; r < s.waves[w].vregs.size(); ++r) {
            EXPECT_EQ(s.waves[w].vregs[r], v.waves[w].vregs[r])
                << what << " wid " << w << " v" << r;
        }
    }
    ASSERT_EQ(s.writeLog.size(), v.writeLog.size()) << what;
    for (const auto &[addr, origin] : s.writeLog) {
        const auto it = v.writeLog.find(addr);
        ASSERT_NE(v.writeLog.end(), it) << what << " addr " << addr;
        EXPECT_EQ(origin.wid, it->second.wid) << what << " addr " << addr;
        EXPECT_EQ(origin.pc, it->second.pc) << what << " addr " << addr;
        EXPECT_EQ(origin.lane, it->second.lane)
            << what << " addr " << addr;
    }
}

/** Registers, write logs and checked memory of both reference paths. */
void
expectReferencesAgree(const verif::GeneratedCase &c, const std::string &what)
{
    GlobalMemory mem_s = c.image;
    GlobalMemory mem_v = c.image;
    const verif::RefResult rs = verif::runReferenceScalar(c.kernel, mem_s);
    const verif::RefResult rv = verif::runReference(c.kernel, mem_v);
    expectRefEqual(rs, rv, what);
    for (const auto &[base, bytes] : c.checkRegions) {
        for (std::uint64_t off = 0; off < bytes; off += 4) {
            ASSERT_EQ(mem_s.readU32(base + off), mem_v.readU32(base + off))
                << what << " addr " << (base + off);
        }
    }
}

// The committed corpus plus the bands verif_fuzz sweeps with
// generator-derived options: seeds 0:2000, and 2000:2400 at sparsity
// 0.95 (dense zero masks). The differential sweeps check the timed
// pipeline against runReference, so this pins it to the per-lane spec
// too.
TEST(SimdEquiv, ReferenceSimdMatchesScalarOnFuzzKernels)
{
    const auto files = verif::listCorpusFiles(LAZYGPU_CORPUS_DIR);
    EXPECT_FALSE(files.empty())
        << "no *.case files under " LAZYGPU_CORPUS_DIR;
    for (const std::string &path : files) {
        const verif::CorpusCase cc = verif::loadCorpusFile(path);
        const verif::GeneratedCase probe = verif::generateCase(cc.opt);
        expectReferencesAgree(
            verif::generateCase(cc.opt,
                                verif::enabledMask(cc, probe.numActions)),
            path);
    }
    for (std::uint64_t seed = 0; seed < 2400; ++seed) {
        verif::GenOptions gen;
        gen.seed = seed;
        if (seed >= 2000)
            gen.sparsity = 0.95;
        expectReferencesAgree(verif::generateCase(gen),
                              "seed " + std::to_string(seed));
        if (HasFatalFailure())
            return;
    }
}

// Targeted widths: every load/store opcode over unit-stride (the
// batched single-span fast path), strided and broadcast offsets (the
// per-lane fallback), a page-straddling span, and a misaligned base.
TEST(SimdEquiv, ReferenceLoadStoreWidths)
{
    GlobalMemory mem;
    const std::uint64_t threads = 3ull * wavefrontSize;
    const Addr in = mem.alloc(threads * 16 + 64);
    const Addr in_straddle = mem.alloc(2 * GlobalMemory::pageSize);
    const Addr out = mem.alloc(threads * 16 * 6);
    {
        std::vector<std::uint32_t> vals(threads * 4 + 16);
        std::mt19937_64 rng(11);
        for (std::size_t i = 0; i < vals.size(); ++i)
            vals[i] = (rng() & 7) ? randWord(rng) : 0;
        mem.writeU32Array(in, vals);
        mem.writeU32Array(in_straddle + GlobalMemory::pageSize - 128,
                          vals);
    }
    // Base chosen so the 256 B dword span crosses the page boundary.
    const Addr straddle_base = in_straddle + GlobalMemory::pageSize - 128;

    KernelBuilder b("widths");
    b.threadId(0);
    b.valu(Opcode::VShlU32, 1, Src::vreg(0), Src::imm(2)); // stride 4
    b.valu(Opcode::VShlU32, 2, Src::vreg(0), Src::imm(3)); // stride 8
    b.valu(Opcode::VShlU32, 3, Src::vreg(0), Src::imm(4)); // stride 16
    b.valu(Opcode::VMov, 4, Src::vreg(0));                 // stride 1
    b.valu(Opcode::VShlU32, 5, Src::vreg(0), Src::imm(1)); // stride 2
    b.valu(Opcode::VMulU32, 6, Src::vreg(0), Src::imm(12)); // strided
    b.valu(Opcode::VMov, 7, Src::imm(16));                 // broadcast

    b.load(Opcode::LoadByte, 8, 4, in);
    b.load(Opcode::LoadShort, 9, 5, in);
    b.load(Opcode::LoadDword, 10, 1, in);
    b.load(Opcode::LoadDwordX2, 11, 2, in); // v11..v12
    b.load(Opcode::LoadDwordX4, 13, 3, in); // v13..v16
    b.load(Opcode::LoadDword, 17, 6, in);   // strided fallback
    b.load(Opcode::LoadDword, 18, 7, in);   // broadcast fallback
    b.load(Opcode::LoadDword, 19, 1, straddle_base); // page straddle
    b.load(Opcode::LoadDword, 20, 1, in + 1);        // misaligned

    b.store(Opcode::StoreDword, 1, 10, out);
    b.store(Opcode::StoreDwordX2, 2, 11, out + threads * 16);
    b.store(Opcode::StoreDwordX4, 3, 13, out + threads * 32);
    b.store(Opcode::StoreDword, 6, 17, out + threads * 64); // strided
    b.store(Opcode::StoreDword, 1, 19, out + threads * 80);
    b.endpgm();
    const Kernel k = b.build(3);

    GlobalMemory mem_s = mem;
    GlobalMemory mem_v = mem;
    const verif::RefResult rs = verif::runReferenceScalar(k, mem_s);
    const verif::RefResult rv = verif::runReference(k, mem_v);
    ASSERT_TRUE(rs.ok()) << rs.error;
    expectRefEqual(rs, rv, "widths kernel");
    for (std::uint64_t off = 0; off < threads * 16 * 6; off += 4) {
        ASSERT_EQ(mem_s.readU32(out + off), mem_v.readU32(out + off))
            << "out+" << off;
    }
}

// --- Wavefront scoreboard bitmaps ------------------------------------------

Kernel
tinyKernel()
{
    KernelBuilder b("tiny");
    b.valu(Opcode::VMov, 3, Src::imm(0)); // sizes the register file
    b.endpgm();
    return b.build(1);
}

TEST(SimdEquiv, WavefrontBitmapsTrackPerLaneWrites)
{
    const Kernel k = tinyKernel();
    Wavefront w(k, 0);

    // Registers start zero-valued and Ready.
    EXPECT_EQ(allLanes, w.zeroMask(2));
    EXPECT_EQ(0u, w.busyMask(2));

    w.setVreg(2, 5, 7);
    EXPECT_EQ(allLanes & ~(LaneMask(1) << 5), w.zeroMask(2));
    w.setVreg(2, 5, 0);
    EXPECT_EQ(allLanes, w.zeroMask(2));

    w.setRegState(1, 9, RegState::Pending);
    EXPECT_EQ(LaneMask(1) << 9, w.busyMask(1));
    EXPECT_EQ(LaneMask(1) << 9, w.pendingMask(1));
    w.setRegState(1, 9, RegState::InFlight);
    EXPECT_EQ(LaneMask(1) << 9, w.inFlightMask(1));
    EXPECT_EQ(0u, w.pendingMask(1));
    w.setRegState(1, 9, RegState::Suspended);
    EXPECT_EQ(LaneMask(1) << 9, w.suspendedMask(1));
    EXPECT_EQ(0u, w.inFlightMask(1));
    w.setRegState(1, 9, RegState::Ready);
    EXPECT_EQ(0u, w.busyMask(1));
    EXPECT_FALSE(w.anyNotReady(1));
}

TEST(SimdEquiv, WavefrontBulkHelpersKeepBitmapsCoherent)
{
    const Kernel k = tinyKernel();
    Wavefront w(k, 0);

    w.markAllPending(1);
    EXPECT_EQ(allLanes, w.busyMask(1));
    EXPECT_EQ(allLanes, w.pendingMask(1));
    for (unsigned lane = 0; lane < wavefrontSize; ++lane)
        EXPECT_EQ(RegState::Pending, w.regState(1, lane));

    const LaneMask susp = 0xF0F0F0F0F0F0F0F0ull;
    w.suspendLanes(1, susp);
    EXPECT_EQ(susp, w.suspendedMask(1));
    EXPECT_EQ(allLanes & ~susp, w.pendingMask(1));
    EXPECT_EQ(RegState::Suspended, w.regState(1, 4));

    const LaneMask requal = 0x00F000F000F000F0ull;
    w.requalifyLanes(1, requal);
    EXPECT_EQ(susp & ~requal, w.suspendedMask(1));
    EXPECT_EQ(RegState::Pending, w.regState(1, 4));

    // Resolve half the lanes: write values, then the bulk bookkeeping
    // must fold busy/susp/inflight and the zero bitmap.
    const LaneMask done = 0x00000000FFFFFFFFull;
    LaneMask zero_bits = 0;
    for (unsigned lane = 0; lane < 32; ++lane) {
        const std::uint32_t v = (lane & 1) ? 0u : lane;
        w.valueRow(1)[lane] = v;
        zero_bits |= LaneMask(v == 0) << lane;
    }
    w.resolveLanes(1, done, zero_bits);
    EXPECT_EQ(allLanes & ~done, w.busyMask(1));
    EXPECT_EQ((susp & ~requal) & ~done, w.suspendedMask(1));
    // Upper lanes keep their initial zero bits; lower carry the new.
    EXPECT_EQ((allLanes & ~done) | zero_bits, w.zeroMask(1));

    // Bulk value writes re-derive the bitmap on request.
    for (unsigned lane = 0; lane < wavefrontSize; ++lane)
        w.valueRow(3)[lane] = (lane % 3) ? 0u : 1u;
    w.refreshZeroMask(3);
    EXPECT_EQ(isa::zeroLanes(w.valueRow(3)), w.zeroMask(3));
    LaneMask want = 0;
    for (unsigned lane = 0; lane < wavefrontSize; ++lane)
        want |= LaneMask((lane % 3) != 0) << lane;
    EXPECT_EQ(want, w.zeroMask(3));
}

// --- Rabbit functional verification across ExecModes ----------------------

// The harness verifies the rabbit-executed memory against the
// reference, in all five ExecModes.
TEST(SimdEquiv, RabbitVerifiesAllModes)
{
    WorkloadParams p;
    p.sparsity = 0.9; // sparse data drives the elimination machinery
    p.scale = 16;
    for (const ExecMode mode : verif::allModes()) {
        GpuConfig cfg = hasZeroCaches(mode) ? GpuConfig::lazyGpu(mode)
                                            : GpuConfig::r9Nano();
        cfg = cfg.scaled(16);
        cfg.mode = mode;
        cfg.timingWaves = 0; // pure rabbit: every wave functional
        // Natural wave count: verify() checks the whole output matrix,
        // so the kernel must cover every element.
        Workload w = makeMM(p);
        const RunResult r = runWorkload(cfg, w, true);
        EXPECT_EQ(RunStatus::Ok, r.status) << toString(mode);
        EXPECT_TRUE(r.verifyError.empty())
            << toString(mode) << ": " << r.verifyError;
    }
}

// --- Guard: the plane core must beat the per-lane spec by a wide margin ---

// Only meaningful on optimized, unsanitized builds; elsewhere neither
// side is vectorized and the ratio is noise.
#if defined(__OPTIMIZE__) && !defined(__SANITIZE_THREAD__) && \
    !defined(__SANITIZE_ADDRESS__)
/**
 * The per-lane spec run over a plane: what the plane core would cost if
 * its loops did not vectorize. Out of line, so the optimizer cannot
 * fold it into the timing loop.
 */
[[gnu::noinline]] bool
evalValuPerLane(Opcode op, std::uint32_t *dst, const PlaneSrc &a,
                const PlaneSrc &b, unsigned wid)
{
    bool known = true;
    for (unsigned lane = 0; lane < wavefrontSize; ++lane) {
        dst[lane] = isa::evalValu(op, srcLane(a, lane), srcLane(b, lane),
                                  dst[lane], wid, lane, known);
    }
    return known;
}

TEST(SimdEquiv, VectorizedPlaneBeatsPerLaneSpec)
{
    alignas(64) std::uint32_t arow[wavefrontSize];
    alignas(64) std::uint32_t brow[wavefrontSize];
    alignas(64) std::uint32_t dst[wavefrontSize];
    for (unsigned lane = 0; lane < wavefrontSize; ++lane) {
        const float fa = 1.0f + 0.015625f * static_cast<float>(lane);
        const float fb = 0.75f + 0.03125f * static_cast<float>(lane);
        std::memcpy(&arow[lane], &fa, 4);
        std::memcpy(&brow[lane], &fb, 4);
        dst[lane] = 0;
    }
    static constexpr Opcode kOps[] = {
        Opcode::VMulF32, Opcode::VAddF32, Opcode::VMacF32,
        Opcode::VMinF32, Opcode::VAddU32, Opcode::VXorB32};
    constexpr unsigned kReps = 20'000;

    std::uint64_t sink = 0;
    const auto bestOf = [&](auto eval) {
        double best = 1e30;
        for (unsigned run = 0; run < 5; ++run) {
            const auto t0 = std::chrono::steady_clock::now();
            PlaneSrc a;
            a.row = arow;
            PlaneSrc b;
            b.row = brow;
            for (unsigned r = 0; r < kReps; ++r) {
                for (const Opcode op : kOps)
                    eval(op, dst, a, b, 0);
            }
            const double secs =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
            sink += dst[0] ^ dst[wavefrontSize - 1];
            best = std::min(best, secs);
        }
        return best;
    };

    const double plane = bestOf(isa::evalValuPlane);
    const double per_lane = bestOf(evalValuPerLane);

    // Measured on a 4-vCPU x86-64 VM (Release + LTO, GCC 12.2): the
    // plane core runs 9-24x faster than the per-lane loop, and only
    // 2.5-3.7x faster with simd.cc built -fno-tree-vectorize
    // -fno-tree-slp-vectorize. The floor fails a core whose loops
    // silently stopped vectorizing and leaves a vectorized one
    // headroom for a loaded host.
    EXPECT_GE(per_lane / plane, 6.0)
        << "plane " << plane * 1e3 << " ms vs per-lane " << per_lane * 1e3
        << " ms (sink " << sink << ")";
}
#endif // __OPTIMIZE__ && !__SANITIZE_THREAD__ && !__SANITIZE_ADDRESS__

} // namespace
} // namespace lazygpu
