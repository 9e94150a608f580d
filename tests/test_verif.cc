/**
 * @file
 * Tier-1 tests of the differential correctness subsystem (src/verif):
 * the untimed reference executor, the random kernel generator, the
 * differential checker (including its injected-fault self-test), the
 * invariant checkers, and the committed regression corpus.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "gpu/gpu.hh"
#include "isa/kernel.hh"
#include "verif/differential.hh"
#include "verif/invariants.hh"
#include "verif/kernel_gen.hh"
#include "verif/reference.hh"

namespace lazygpu
{
namespace
{

using verif::CorpusCase;
using verif::DiffOptions;
using verif::DiffReport;
using verif::GeneratedCase;
using verif::GenOptions;
using verif::RefResult;

std::uint32_t
bitsOf(float f)
{
    std::uint32_t b;
    std::memcpy(&b, &f, sizeof(b));
    return b;
}

// --- Reference executor -----------------------------------------------------

TEST(ReferenceExecutor, MatchesHandComputedKernel)
{
    GlobalMemory mem;
    const Addr in = mem.alloc(4096);
    const Addr out = mem.alloc(4096);
    for (unsigned i = 0; i < 2 * wavefrontSize; ++i)
        mem.writeF32(in + 4ull * i, static_cast<float>(i));

    KernelBuilder kb("axpy1");
    kb.threadId(0);
    kb.valu(Opcode::VShlU32, 1, Src::vreg(0), Src::imm(2));
    kb.load(Opcode::LoadDword, 2, 1, in);
    kb.valu(Opcode::VAddF32, 3, Src::vreg(2), Src::immF(1.0f));
    kb.store(Opcode::StoreDword, 1, 3, out);
    const Kernel k = kb.build(2);

    const RefResult res = verif::runReference(k, mem);
    ASSERT_TRUE(res.ok()) << res.error;
    ASSERT_EQ(2u, res.waves.size());
    for (unsigned i = 0; i < 2 * wavefrontSize; ++i) {
        EXPECT_EQ(bitsOf(static_cast<float>(i) + 1.0f),
                  mem.readU32(out + 4ull * i))
            << "thread " << i;
    }
    // Final register state: v2 holds the loaded value, v3 the sum.
    EXPECT_EQ(bitsOf(65.0f), res.waves[1].vregs[2][1]);
    EXPECT_EQ(bitsOf(66.0f), res.waves[1].vregs[3][1]);
    // The write log attributes each stored word to its store.
    const auto it = res.writeLog.find(out + 4ull * 65);
    ASSERT_NE(res.writeLog.end(), it);
    EXPECT_EQ(1u, it->second.wid);
    EXPECT_EQ(1u, it->second.lane);
    EXPECT_TRUE(isStore(k.code[it->second.pc].op));
}

TEST(ReferenceExecutor, FlagsLivelockedKernel)
{
    KernelBuilder kb("spin");
    kb.valu(Opcode::VMov, 0, Src::imm(0));
    const int top = kb.label();
    kb.place(top);
    kb.branch(top);
    const Kernel k = kb.build(1);

    GlobalMemory mem;
    const RefResult res = verif::runReference(k, mem, 1000);
    EXPECT_FALSE(res.ok());
    EXPECT_NE(std::string::npos, res.error.find("livelock"));
}

TEST(ReferenceExecutor, FlagsRunPastEnd)
{
    Kernel k;
    k.name = "no-end";
    k.numVregs = 1;
    k.numSregs = 1;
    Instruction mov;
    mov.op = Opcode::VMov;
    mov.dst = 0;
    mov.src0 = Src::imm(7);
    k.code.push_back(mov); // no SEndpgm

    GlobalMemory mem;
    const RefResult res = verif::runReference(k, mem);
    EXPECT_FALSE(res.ok());
    EXPECT_NE(std::string::npos, res.error.find("ran past the end"));
}

// --- Directed differential: optimization (2) suspension -------------------

/**
 * A kernel whose LazyGPU execution must suspend whole transactions:
 * operand A is zero across aligned 8-lane blocks, so the counterpart
 * load B is (2)-suspended for those blocks at the otimes multiply, then
 * requalified by the non-otimes add. The injected fault in
 * LazyUnit::prepare skips exactly that requalification.
 */
struct SuspendCase
{
    GlobalMemory image;
    Kernel kernel;
    std::vector<std::pair<Addr, std::uint64_t>> regions;
};

SuspendCase
makeSuspendCase()
{
    SuspendCase c;
    const Addr a = c.image.alloc(4096);
    const Addr b = c.image.alloc(4096);
    const Addr out1 = c.image.alloc(4096);
    const Addr out2 = c.image.alloc(4096);
    for (unsigned lane = 0; lane < wavefrontSize; ++lane) {
        const bool zero_block = (lane / 8) % 2 == 0;
        c.image.writeF32(a + 4ull * lane, zero_block ? 0.0f : 1.5f);
        c.image.writeF32(b + 4ull * lane, 2.0f);
    }

    KernelBuilder kb("suspend_requalify");
    kb.threadId(0);
    kb.valu(Opcode::VShlU32, 1, Src::vreg(0), Src::imm(2));
    kb.load(Opcode::LoadDword, 2, 1, a);
    kb.load(Opcode::LoadDword, 3, 1, b);
    kb.valu(Opcode::VMulF32, 4, Src::vreg(2), Src::vreg(3));
    kb.valu(Opcode::VAddF32, 5, Src::vreg(3), Src::vreg(3));
    kb.store(Opcode::StoreDword, 1, 4, out1);
    kb.store(Opcode::StoreDword, 1, 5, out2);
    c.kernel = kb.build(1);

    const std::uint64_t bytes = 4ull * wavefrontSize;
    c.regions = {{a, bytes}, {b, bytes}, {out1, bytes}, {out2, bytes}};
    return c;
}

TEST(Differential, DirectedSuspendKernelMatchesEverywhere)
{
    const SuspendCase c = makeSuspendCase();
    const DiffReport rep =
        verif::runDifferential(c.kernel, c.image, c.regions);
    EXPECT_TRUE(rep.ok()) << rep.firstDivergence();
    EXPECT_EQ(verif::allModes().size(), rep.modes.size());
}

TEST(Differential, CatchesInjectedSuspendBugOnDirectedKernel)
{
    const SuspendCase c = makeSuspendCase();
    DiffOptions opt;
    opt.injectSuspendBug = true;
    const DiffReport rep =
        verif::runDifferential(c.kernel, c.image, c.regions, opt);
    ASSERT_EQ(verif::allModes().size(), rep.modes.size());
    for (const verif::ModeReport &m : rep.modes) {
        if (m.mode == ExecMode::LazyGPU) {
            // The (2) fault must be visible, with full attribution.
            EXPECT_TRUE(m.diverged);
            EXPECT_NE(std::string::npos, m.detail.find("0x"));
        } else {
            // No other mode suspends lanes; the fault is inert there.
            EXPECT_FALSE(m.diverged) << toString(m.mode) << ": "
                                     << m.detail;
        }
    }
}

TEST(Differential, CatchesInjectedSuspendBugOnGeneratedKernels)
{
    // The acceptance self-test in miniature: a short seed sweep of
    // generated kernels must catch the armed fault (the fuzz binary's
    // --inject-bug mode runs the same check over a wider range).
    DiffOptions opt;
    opt.injectSuspendBug = true;
    opt.modes = {ExecMode::LazyGPU};
    bool caught = false;
    for (std::uint64_t seed = 0; seed < 25 && !caught; ++seed) {
        GenOptions gen;
        gen.seed = seed;
        caught = !verif::runDifferential(verif::generateCase(gen), opt)
                      .ok();
    }
    EXPECT_TRUE(caught)
        << "no generated seed in [0,25) exposed the injected fault";
}

// --- Generated differential sweep (small; tier2 runs the wide one) ---------

class VerifSeeds : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(VerifSeeds, AllModesMatchReference)
{
    GenOptions gen;
    gen.seed = GetParam();
    const GeneratedCase c = verif::generateCase(gen);
    const DiffReport rep = verif::runDifferential(c);
    EXPECT_TRUE(rep.ok()) << c.summary << "\n  " << rep.firstDivergence();
}

INSTANTIATE_TEST_SUITE_P(Quick, VerifSeeds,
                         ::testing::Range<std::uint64_t>(0, 6));

// --- Kernel generator ------------------------------------------------------

TEST(KernelGen, DeterministicAcrossCalls)
{
    GenOptions gen;
    gen.seed = 42;
    const GeneratedCase a = verif::generateCase(gen);
    const GeneratedCase b = verif::generateCase(gen);
    EXPECT_EQ(a.summary, b.summary);
    ASSERT_EQ(a.kernel.code.size(), b.kernel.code.size());
    EXPECT_EQ(a.numActions, b.numActions);
    EXPECT_EQ(a.checkRegions, b.checkRegions);
    for (std::size_t i = 0; i < a.kernel.code.size(); ++i) {
        EXPECT_EQ(a.kernel.code[i].toString(),
                  b.kernel.code[i].toString());
    }
}

TEST(KernelGen, MaskDropsActionsWithoutShiftingTheRest)
{
    GenOptions gen;
    gen.seed = 7;
    const GeneratedCase full = verif::generateCase(gen);
    ASSERT_GT(full.numActions, 2u);

    std::vector<bool> enabled(full.numActions, true);
    enabled[0] = false;
    enabled[full.numActions / 2] = false;
    const GeneratedCase masked = verif::generateCase(gen, enabled);
    EXPECT_LT(masked.kernel.code.size(), full.kernel.code.size());
    EXPECT_EQ(full.numActions, masked.numActions);
    // Stable layout: the launch images are identical (bases are keyed
    // by action index, not emission order).
    EXPECT_EQ(full.checkRegions, masked.checkRegions);
    // A masked case must still verify: dropping actions cannot create
    // divergence.
    const DiffReport rep = verif::runDifferential(masked);
    EXPECT_TRUE(rep.ok()) << rep.firstDivergence();
}

TEST(KernelGen, CorpusRoundTrip)
{
    CorpusCase c;
    c.opt.seed = 1234;
    c.opt.waves = 2;
    c.opt.sparsity = 0.7;
    c.opt.bodyOps = 19;
    c.disabled = {0, 3, 11};
    c.note = "round trip";

    const CorpusCase back =
        verif::parseCorpusText(verif::formatCorpusCase(c), "<test>");
    EXPECT_EQ(c.opt.seed, back.opt.seed);
    EXPECT_EQ(c.opt.waves, back.opt.waves);
    EXPECT_DOUBLE_EQ(c.opt.sparsity, back.opt.sparsity);
    EXPECT_EQ(c.opt.bodyOps, back.opt.bodyOps);
    EXPECT_EQ(c.disabled, back.disabled);
    EXPECT_EQ(c.note, back.note);
}

TEST(KernelGen, CorpusReplayAllCommittedCases)
{
    const auto files = verif::listCorpusFiles(LAZYGPU_CORPUS_DIR);
    EXPECT_FALSE(files.empty())
        << "no *.case files under " LAZYGPU_CORPUS_DIR;
    for (const std::string &path : files) {
        const CorpusCase cc = verif::loadCorpusFile(path);
        const GeneratedCase probe = verif::generateCase(cc.opt);
        const GeneratedCase c = verif::generateCase(
            cc.opt, verif::enabledMask(cc, probe.numActions));
        const DiffReport rep = verif::runDifferential(c);
        EXPECT_TRUE(rep.ok())
            << path << " (" << c.summary << ")\n  "
            << rep.firstDivergence();
    }
}

// --- Invariants -------------------------------------------------------------

TEST(Invariants, MaskStaysCoherentThroughWrites)
{
    GlobalMemory mem;
    const Addr buf = mem.alloc(4096);
    verif::checkMaskCoherence(mem, buf); // untouched: all-zero mask
    mem.writeF32(buf + 12, 3.25f);
    verif::checkMaskCoherence(mem, buf);
    EXPECT_EQ(0xff & ~(1u << 3), mem.zeroMaskByte(buf));
    mem.writeF32(buf + 12, 0.0f);
    verif::checkMaskCoherence(mem, buf);
    EXPECT_EQ(0xffu, mem.zeroMaskByte(buf));
}

TEST(Invariants, RetireTimeChecksPassOnGeneratedRuns)
{
    // checkInvariants defaults to on inside runDifferential: every
    // wavefront of every mode is validated at retirement (a violation
    // panics, failing the test hard). A couple of feature-heavy seeds.
    for (std::uint64_t seed : {3ull, 9ull, 17ull}) {
        GenOptions gen;
        gen.seed = seed;
        gen.sparsity = 0.7;
        const DiffReport rep =
            verif::runDifferential(verif::generateCase(gen));
        EXPECT_TRUE(rep.ok()) << rep.firstDivergence();
    }
}

} // namespace
} // namespace lazygpu
