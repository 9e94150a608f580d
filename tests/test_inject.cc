/**
 * @file
 * Fault injection: InjectionPlan's textual form, the inertness of an
 * armed-but-never-firing injector, and the campaign classifier's
 * verdicts on faults with known-by-construction outcomes.
 */

#include <gtest/gtest.h>

#include <string>

#include "analysis/harness.hh"
#include "gpu/gpu.hh"
#include "inject/campaign.hh"
#include "inject/fault.hh"
#include "isa/kernel.hh"
#include "sim/sim_error.hh"
#include "workloads/suite.hh"

namespace lazygpu
{
namespace
{

WorkloadParams
injParams()
{
    WorkloadParams p;
    p.sparsity = 0.5;
    p.scale = 16;
    return p;
}

GpuConfig
injCfg()
{
    return GpuConfig::lazyGpu(ExecMode::LazyGPU).scaled(4);
}

constexpr Tick kLimitCycles = 2'000'000;

TEST(InjectionPlan, ToStringParseRoundTrips)
{
    for (inject::FaultSite site : inject::allFaultSites) {
        inject::InjectionPlan plan;
        plan.site = site;
        plan.cycle = 12345;
        plan.cu = 3;
        plan.seed = 99;
        if (site == inject::FaultSite::MemRespFlip)
            plan.bit = 17;

        inject::InjectionPlan parsed;
        std::string err;
        ASSERT_TRUE(
            inject::InjectionPlan::parse(plan.toString(), parsed, err))
            << plan.toString() << ": " << err;
        EXPECT_EQ(plan.toString(), parsed.toString());
        EXPECT_EQ(plan.site, parsed.site);
        EXPECT_EQ(plan.cycle, parsed.cycle);
        EXPECT_EQ(plan.cu, parsed.cu);
        EXPECT_EQ(plan.seed, parsed.seed);
        EXPECT_EQ(plan.flipBit(), parsed.flipBit());
    }
}

TEST(InjectionPlan, ParseRejectsMalformedSpecs)
{
    inject::InjectionPlan plan;
    std::string err;
    EXPECT_FALSE(inject::InjectionPlan::parse("", plan, err));
    EXPECT_FALSE(inject::InjectionPlan::parse("site=warp-drive", plan,
                                              err));
    EXPECT_NE(std::string::npos, err.find("warp-drive"));
    EXPECT_FALSE(inject::InjectionPlan::parse(
        "site=mem-resp-flip,cycle=soon", plan, err));
    EXPECT_FALSE(inject::InjectionPlan::parse(
        "site=mem-resp-flip,frobnicate=1", plan, err));
    EXPECT_FALSE(inject::InjectionPlan::parse("cycle=100", plan, err))
        << "a plan without a site must not parse";
}

TEST(InjectionPlan, VerdictNamesRoundTrip)
{
    for (inject::Verdict v :
         {inject::Verdict::Detected, inject::Verdict::Masked,
          inject::Verdict::Perturbed, inject::Verdict::Sdc}) {
        inject::Verdict parsed;
        ASSERT_TRUE(
            inject::verdictFromString(inject::toString(v), parsed));
        EXPECT_EQ(v, parsed);
    }
    inject::Verdict parsed;
    EXPECT_FALSE(inject::verdictFromString("benign", parsed));
}

TEST(Inject, ArmedNeverFiringInjectorIsInert)
{
    // An injector armed at a cycle the run never reaches must not
    // change a single simulated result — the "one predicted branch per
    // site" contract that lets injection stay compiled in.
    const WorkloadParams p = injParams();
    Workload off_w = makeMM(p, 64);
    GpuConfig off_cfg = injCfg();
    const RunResult off = runWorkload(off_cfg, off_w, true);

    Workload armed_w = makeMM(p, 64);
    GpuConfig armed_cfg = injCfg();
    armed_cfg.injectPlan =
        "site=mem-resp-flip,cycle=4611686018427387904,cu=0,seed=1";
    const RunResult armed = runWorkload(armed_cfg, armed_w, true);

    EXPECT_EQ(off.cycles, armed.cycles);
    EXPECT_EQ(off.txsIssued, armed.txsIssued);
    EXPECT_EQ(off.txsElimZero, armed.txsElimZero);
    EXPECT_EQ(off.txsElimOtimes, armed.txsElimOtimes);
    EXPECT_EQ(off.l1Requests, armed.l1Requests);
    EXPECT_EQ(off.verifyError, armed.verifyError);
    EXPECT_EQ(off_w.mem->contentHash(), armed_w.mem->contentHash());
}

TEST(Inject, ScoreboardFlipClassifiesDetected)
{
    const RecoverableScope scope;
    const WorkloadParams p = injParams();
    inject::InjectionPlan plan;
    plan.site = inject::FaultSite::TxScoreboardFlip;
    plan.cycle = 0;
    const RunResult r = inject::runFaultCell(
        injCfg(), [p]() { return makeMM(p, 64); }, plan, nullptr,
        kLimitCycles);
    EXPECT_EQ("detected", r.tag);
}

TEST(Inject, DroppedResponseClassifiesDetected)
{
    const RecoverableScope scope;
    const WorkloadParams p = injParams();
    inject::InjectionPlan plan;
    plan.site = inject::FaultSite::MemRespDrop;
    plan.cycle = 100;
    const RunResult r = inject::runFaultCell(
        injCfg(), [p]() { return makeMM(p, 64); }, plan, nullptr,
        kLimitCycles);
    EXPECT_EQ("detected", r.tag);
}

TEST(Inject, NeverFiringFaultClassifiesMasked)
{
    const RecoverableScope scope;
    const WorkloadParams p = injParams();
    inject::InjectionPlan plan;
    plan.site = inject::FaultSite::MemRespFlip;
    plan.cycle = Tick(-1) / 2;
    const RunResult r = inject::runFaultCell(
        injCfg(), [p]() { return makeMM(p, 64); }, plan, nullptr,
        kLimitCycles);
    EXPECT_EQ("masked", r.tag);
    EXPECT_EQ("", r.verifyError);
}

TEST(Inject, LoadWordFlipOnFirClassifiesSdc)
{
    // FIR writes every output element exactly once, so a corrupted
    // load must surface in the image — and the untimed reference
    // corroborates the divergence through verifyError.
    const RecoverableScope scope;
    const WorkloadParams p = injParams();
    inject::InjectionPlan plan;
    plan.site = inject::FaultSite::MemRespFlip;
    plan.cycle = 1000;
    plan.seed = 7;
    const RunResult r = inject::runFaultCell(
        injCfg(), [p]() { return makeFIR(p); }, plan, nullptr,
        kLimitCycles);
    EXPECT_EQ("sdc", r.tag);
    EXPECT_NE("", r.verifyError);
}

TEST(Inject, LaneBitmapFlipIsLiveOnlyUnderSuspension)
{
    // The lane-bitmap site corrupts per-lane suspension state, so it is
    // mode-dependent by construction: under LazyGPU a Suspended lane
    // flipped to Ready strands the scoreboard word it covered and the
    // retire invariant fires; under LazyCore optimization (2) is off,
    // no lane is ever suspended, and the same plan changes nothing.
    const RecoverableScope scope;
    const WorkloadParams p = injParams();
    inject::InjectionPlan plan;
    plan.site = inject::FaultSite::LaneBitmapFlip;
    plan.cycle = 1000;
    plan.seed = 7;
    const auto make = [p]() { return makeMM(p, 256); };

    const RunResult lazygpu =
        inject::runFaultCell(injCfg(), make, plan, nullptr, kLimitCycles);
    EXPECT_EQ("detected", lazygpu.tag);

    GpuConfig core = GpuConfig::lazyGpu(ExecMode::LazyCore).scaled(4);
    const RunResult lazycore =
        inject::runFaultCell(core, make, plan, nullptr, kLimitCycles);
    EXPECT_EQ("masked", lazycore.tag);
}

/** The one-CU machine of mode, with plan armed on its CU. */
GpuConfig
oneCuWithPlan(ExecMode mode, const char *plan)
{
    GpuConfig cfg = mode == ExecMode::Baseline ? GpuConfig::r9Nano()
                                               : GpuConfig::lazyGpu(mode);
    cfg.numShaderArrays = 1;
    cfg.cusPerSa = 1;
    cfg.l2Banks = 1;
    cfg.injectPlan = plan;
    return cfg;
}

/**
 * One wave loads word(r, lane) from in + 16 * lane + 4 * r with a
 * LoadDwordX4 and stores register r to out + 256 * r + 4 * lane.
 */
template <class Word>
Kernel
x4RoundTrip(GlobalMemory &mem, Addr in, Addr out, Word word)
{
    for (unsigned lane = 0; lane < wavefrontSize; ++lane) {
        for (unsigned r = 0; r < 4; ++r)
            mem.writeU32(in + 16ull * lane + 4 * r, word(r, lane));
    }
    KernelBuilder kb("x4_round_trip");
    kb.threadId(0);
    kb.valu(Opcode::VShlU32, 1, Src::vreg(0), Src::imm(4));
    kb.load(Opcode::LoadDwordX4, 4, 1, in);
    kb.valu(Opcode::VShlU32, 2, Src::vreg(0), Src::imm(2));
    for (unsigned r = 0; r < 4; ++r)
        kb.store(Opcode::StoreDword, 2, 4 + r, out + 256 * r);
    return kb.build(1);
}

TEST(Inject, MemRespFlipWalksWordsLaneByLane)
{
    // The flip lands on the first word a data response resolves, so it
    // pins the fill order: lane by lane, registers in order within a
    // lane. Every input word is nonzero except register 0 of lane 0,
    // which the zero mask resolves in the modes that have one; there
    // the flip moves on to register 1 of lane 0.
    const auto word = [](unsigned r, unsigned lane) {
        return r == 0 && lane == 0 ? 0u : (r << 8) | (lane + 1);
    };
    for (ExecMode mode : {ExecMode::Baseline, ExecMode::LazyCore,
                          ExecMode::LazyZC, ExecMode::LazyGPU}) {
        SCOPED_TRACE(toString(mode));
        GlobalMemory mem;
        const Addr in = mem.alloc(4096);
        const Addr out = mem.alloc(4096);
        const Kernel k = x4RoundTrip(mem, in, out, word);
        Gpu gpu(oneCuWithPlan(
                    mode, "site=mem-resp-flip,cycle=0,cu=0,seed=1,bit=31"),
                mem);
        gpu.run(k);

        const unsigned flipped = hasZeroElimination(mode) ? 1 : 0;
        for (unsigned r = 0; r < 4; ++r) {
            for (unsigned lane = 0; lane < wavefrontSize; ++lane) {
                std::uint32_t want = word(r, lane);
                if (r == flipped && lane == 0)
                    want ^= 0x80000000u;
                EXPECT_EQ(want, mem.readU32(out + 256 * r + 4 * lane))
                    << "register " << r << " lane " << lane;
            }
        }
    }
}

/** What a zero-mask-flip run on the one-CU machine changed. */
struct ZeroFlipRun
{
    std::uint64_t lanesZeroed = 0;
    std::uint64_t fired = 0;
};

ZeroFlipRun
runZeroMaskFlip(ExecMode mode, GlobalMemory &mem, const Kernel &k)
{
    Gpu gpu(oneCuWithPlan(mode, "site=zero-mask-flip,cycle=0,cu=0,seed=1"),
            mem);
    gpu.run(k);
    return {gpu.stats().sumCounters("gpu.", ".lanes_zeroed"),
            gpu.stats().counter("inject.fired").value()};
}

TEST(Inject, ZeroMaskFlipInvertsTheFirstProbeLaneByLane)
{
    // The zero-probe hook is asked about a load's first Pending word:
    // its first transaction, lowest lane, lowest register. Every input
    // word is nonzero, so the inverted probe zeroes register 0 of lane 0
    // and nothing else; modes without a zero probe never ask the hook.
    const auto word = [](unsigned r, unsigned lane) {
        return (r << 8) | (lane + 1);
    };
    for (ExecMode mode : {ExecMode::Baseline, ExecMode::LazyCore,
                          ExecMode::EagerZC, ExecMode::LazyZC,
                          ExecMode::LazyGPU}) {
        SCOPED_TRACE(toString(mode));
        GlobalMemory mem;
        const Addr in = mem.alloc(4096);
        const Addr out = mem.alloc(4096);
        const ZeroFlipRun run =
            runZeroMaskFlip(mode, mem, x4RoundTrip(mem, in, out, word));

        const bool probed = hasZeroElimination(mode);
        EXPECT_EQ(probed ? 1u : 0u, run.lanesZeroed);
        EXPECT_EQ(probed ? 1u : 0u, run.fired);
        for (unsigned r = 0; r < 4; ++r) {
            for (unsigned lane = 0; lane < wavefrontSize; ++lane) {
                const std::uint32_t want =
                    probed && r == 0 && lane == 0 ? 0 : word(r, lane);
                EXPECT_EQ(want, mem.readU32(out + 256 * r + 4 * lane))
                    << "register " << r << " lane " << lane;
            }
        }
    }
}

TEST(Inject, ZeroMaskFlipFollowsTransactionOrder)
{
    // Lane l reads word 63 - l, holding l + 1, so lane 0 touches the
    // highest transaction first. The hook follows first-touch order and
    // zeroes lane 0; a walk in address order would zero lane 56.
    for (ExecMode mode : {ExecMode::LazyZC, ExecMode::LazyGPU}) {
        SCOPED_TRACE(toString(mode));
        GlobalMemory mem;
        const Addr in = mem.alloc(4096);
        const Addr out = mem.alloc(4096);
        for (unsigned lane = 0; lane < wavefrontSize; ++lane)
            mem.writeU32(in + 4ull * (63 - lane), lane + 1);
        KernelBuilder kb("zero_flip_reversed");
        kb.threadId(0);
        kb.valu(Opcode::VSubU32, 1, Src::imm(63), Src::vreg(0));
        kb.valu(Opcode::VShlU32, 1, Src::vreg(1), Src::imm(2));
        kb.load(Opcode::LoadDword, 3, 1, in);
        kb.valu(Opcode::VShlU32, 2, Src::vreg(0), Src::imm(2));
        kb.store(Opcode::StoreDword, 2, 3, out);
        const ZeroFlipRun run = runZeroMaskFlip(mode, mem, kb.build(1));

        EXPECT_EQ(1u, run.lanesZeroed);
        EXPECT_EQ(1u, run.fired);
        for (unsigned lane = 0; lane < wavefrontSize; ++lane) {
            EXPECT_EQ(lane == 0 ? 0u : lane + 1,
                      mem.readU32(out + 4 * lane))
                << "lane " << lane;
        }
    }
}

TEST(Inject, VerdictsAreDeterministic)
{
    const RecoverableScope scope;
    const WorkloadParams p = injParams();
    inject::InjectionPlan plan;
    plan.site = inject::FaultSite::MemRespFlip;
    plan.cycle = 1000;
    plan.seed = 7;
    const auto make = [p]() { return makeFIR(p); };
    const RunResult a =
        inject::runFaultCell(injCfg(), make, plan, nullptr, kLimitCycles);
    const RunResult b =
        inject::runFaultCell(injCfg(), make, plan, nullptr, kLimitCycles);
    EXPECT_EQ(a.tag, b.tag);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.verifyError, b.verifyError);
    EXPECT_EQ(a.txsIssued, b.txsIssued);
}

} // namespace
} // namespace lazygpu
