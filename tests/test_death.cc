/**
 * @file
 * Death tests for the simulator's panic/fatal guard rails: the engine
 * livelock guard, configuration validation, kernel-builder misuse, and
 * the architectural invariant checkers. Each EXPECT_DEATH forks, so
 * these stay cheap despite exercising process-terminating paths.
 */

#include <gtest/gtest.h>

#include "gpu/gpu.hh"
#include "isa/kernel.hh"
#include "sim/config.hh"
#include "verif/invariants.hh"

namespace lazygpu
{
namespace
{

GpuConfig
tiny()
{
    GpuConfig cfg = GpuConfig::lazyGpu();
    cfg.numShaderArrays = 1;
    cfg.cusPerSa = 1;
    cfg.l2Banks = 1;
    return cfg;
}

TEST(EngineDeathTest, LivelockedKernelTripsTheGuard)
{
    KernelBuilder kb("spin");
    kb.valu(Opcode::VMov, 0, Src::imm(1));
    const int top = kb.label();
    kb.place(top);
    kb.branch(top);
    const Kernel k = kb.build(1);

    EXPECT_DEATH(
        {
            GlobalMemory mem;
            Gpu gpu(tiny(), mem);
            gpu.run(k, 20000);
        },
        "livelock suspected");
}

TEST(GpuDeathTest, EmptyKernelIsRejected)
{
    Kernel k;
    k.name = "empty";
    k.numVregs = 1;
    EXPECT_DEATH(
        {
            GlobalMemory mem;
            Gpu gpu(tiny(), mem);
            gpu.run(k);
        },
        "has no instructions");
}

TEST(ConfigDeathTest, ZeroSizedCacheIsRejected)
{
    GpuConfig cfg = tiny();
    cfg.l1.size = 0;
    EXPECT_DEATH(
        {
            GlobalMemory mem;
            Gpu gpu(cfg, mem);
        },
        "zero-sized cache");
}

TEST(ConfigDeathTest, KernelRegisterUseIsValidated)
{
    EXPECT_DEATH(GpuConfig::r9Nano().wavesPerCuForKernel(0),
                 "kernel uses 0 vregs");
    EXPECT_DEATH(GpuConfig::r9Nano().wavesPerCuForKernel(100000),
                 "kernel uses 100000 vregs");
}

TEST(ConfigDeathTest, ZeroCacheSplitMustLeaveRoom)
{
    EXPECT_DEATH(GpuConfig::withZeroCacheSplit(1, 8),
                 "leave room for the normal cache");
}

TEST(ConfigDeathTest, ScaleFactorMustBePositive)
{
    EXPECT_DEATH(GpuConfig::r9Nano().scaled(0), "scale factor");
}

TEST(KernelBuilderDeathTest, LabelPlacedTwice)
{
    EXPECT_DEATH(
        {
            KernelBuilder kb("twice");
            const int l = kb.label();
            kb.place(l);
            kb.place(l);
        },
        "placed twice");
}

TEST(KernelBuilderDeathTest, LabelNeverPlaced)
{
    EXPECT_DEATH(
        {
            KernelBuilder kb("unplaced");
            kb.valu(Opcode::VMov, 0, Src::imm(0));
            kb.branch(kb.label());
            kb.build(1);
        },
        "never placed");
}

TEST(KernelBuilderDeathTest, ValuRejectsMemoryOpcodes)
{
    EXPECT_DEATH(
        {
            KernelBuilder kb("bad-valu");
            kb.valu(Opcode::LoadDword, 0, Src::imm(0));
        },
        "requires a VALU opcode");
}

TEST(KernelBuilderDeathTest, LoadRejectsNonLoadOpcodes)
{
    EXPECT_DEATH(
        {
            KernelBuilder kb("bad-load");
            kb.load(Opcode::VAddF32, 0, 1, 0x1000);
        },
        "requires a load opcode");
}

TEST(KernelBuilderDeathTest, StoreRejectsNonStoreOpcodes)
{
    EXPECT_DEATH(
        {
            KernelBuilder kb("bad-store");
            kb.store(Opcode::LoadDword, 0, 1, 0x1000);
        },
        "requires a store opcode");
}

TEST(InvariantsDeathTest, CorruptScoreboardIsDetected)
{
    KernelBuilder kb("corrupt");
    kb.valu(Opcode::VMov, 0, Src::imm(0));
    const Kernel k = kb.build(1);
    Wavefront wave(k, 0);
    // A busy lane with no owning pending load is impossible in a
    // correct pipeline; the checker must say exactly that.
    wave.setRegState(0, 3, RegState::Pending);
    EXPECT_DEATH(verif::checkWavefront(wave, ExecMode::LazyGPU),
                 "busy lanes but no pending load");
}

TEST(InvariantsDeathTest, SuspendedInFlightLaneIsDetected)
{
    KernelBuilder kb("corrupt");
    kb.valu(Opcode::VMov, 0, Src::imm(0));
    const Kernel k = kb.build(1);
    Wavefront wave(k, 0);
    // Suspending a lane whose request is already in the memory system
    // leaves it in two scoreboard states at once.
    wave.setRegState(0, 3, RegState::InFlight);
    wave.suspendLanes(0, LaneMask(1) << 3);
    EXPECT_DEATH(verif::checkWavefront(wave, ExecMode::LazyGPU),
                 "both suspended and in flight");
}

} // namespace
} // namespace lazygpu
