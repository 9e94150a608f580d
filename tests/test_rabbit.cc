/**
 * @file
 * Tier-1 tests of the multi-resolution (rabbit/timing) sampling scheme:
 * the RabbitExecutor's functional+accounting equivalence with the timed
 * pipeline, the --timing-waves window plumbing through Gpu, the
 * extrapolation model, the watchdog heartbeat on the rabbit path, and
 * the convergence checker across all five ExecModes.
 */

#include <gtest/gtest.h>

#include "analysis/harness.hh"
#include "gpu/gpu.hh"
#include "sim/sim_error.hh"
#include "verif/convergence.hh"
#include "verif/differential.hh"
#include "verif/kernel_gen.hh"
#include "workloads/suite.hh"

namespace lazygpu
{
namespace
{

WorkloadParams
sparseParams()
{
    WorkloadParams p;
    p.sparsity = 0.9;
    p.scale = 16;
    return p;
}

GpuConfig
testConfig(ExecMode mode)
{
    GpuConfig cfg = hasZeroCaches(mode) ? GpuConfig::lazyGpu(mode)
                                        : GpuConfig::r9Nano();
    cfg = cfg.scaled(16);
    cfg.mode = mode;
    return cfg;
}

// --- Default-path byte identity ---------------------------------------------

TEST(RabbitSampling, DefaultConfigDisablesSampling)
{
    const GpuConfig cfg;
    EXPECT_EQ(GpuConfig::timingWavesAll, cfg.timingWaves);
}

// timingWaves == numWavefronts arms the flag but leaves every wave
// timed: results must be bit-identical to an unsampled run, and no
// rabbit counters may appear.
TEST(RabbitSampling, AllWavesTimedIsBitIdentical)
{
    const WorkloadParams p = sparseParams();

    Workload full = makeMM(p, 64);
    const RunResult r_full =
        runWorkload(testConfig(ExecMode::LazyGPU), full, true);
    ASSERT_EQ(RunStatus::Ok, r_full.status);
    ASSERT_TRUE(r_full.verifyError.empty()) << r_full.verifyError;

    GpuConfig cfg = testConfig(ExecMode::LazyGPU);
    cfg.timingWaves = 64; // == numWavefronts: window covers everything
    Workload armed = makeMM(p, 64);
    const RunResult r_armed = runWorkload(cfg, armed, true);

    EXPECT_EQ(r_full.cycles, r_armed.cycles);
    EXPECT_EQ(r_full.txsIssued, r_armed.txsIssued);
    EXPECT_EQ(r_full.txsElimZero, r_armed.txsElimZero);
    EXPECT_EQ(r_full.txsElimOtimes, r_armed.txsElimOtimes);
    EXPECT_EQ(r_full.txsElimDead, r_armed.txsElimDead);
    EXPECT_EQ(r_full.storeTxs, r_armed.storeTxs);
    EXPECT_EQ(r_full.l1Requests, r_armed.l1Requests);
    EXPECT_EQ(r_full.l2Requests, r_armed.l2Requests);
    EXPECT_EQ(r_full.dramRequests, r_armed.dramRequests);
    EXPECT_TRUE(r_armed.verifyError.empty()) << r_armed.verifyError;
}

TEST(RabbitSampling, UnsampledRunRegistersNoRabbitCounters)
{
    Workload w = makeMM(sparseParams(), 16);
    Gpu gpu(testConfig(ExecMode::LazyGPU), *w.mem);
    for (const Kernel &k : w.kernels)
        gpu.run(k);
    EXPECT_EQ(0u, gpu.stats().sumCounters("gpu.rabbit."));
    for (const auto &[name, c] : gpu.stats().counters())
        EXPECT_NE(0u, name.rfind("gpu.rabbit.", 0)) << name;
}

// --- Exact accounting -------------------------------------------------------

// The rabbit's transaction counters at the golden-stat settings
// (test_golden_stats.cc), pinned exactly: the convergence checker only
// bounds them within its tolerance band.
TEST(RabbitSampling, PinsTransactionCountersExactly)
{
    struct Row
    {
        const char *workload;
        double sparsity;
        ExecMode mode;
        std::uint64_t issued, zero, otimes, dead, store;
    };
    const Row rows[] = {
        {"MM", 0.50, ExecMode::Baseline, 19008, 0, 0, 0, 512},
        {"MM", 0.50, ExecMode::LazyCore, 16896, 0, 0, 2112, 512},
        {"MM", 0.50, ExecMode::LazyZC, 16739, 2231, 0, 38, 512},
        {"MM", 0.50, ExecMode::LazyGPU, 8593, 2231, 8146, 38, 512},
        {"MM", 0.50, ExecMode::EagerZC, 16798, 0, 0, 0, 512},
        {"SPMV", 0.70, ExecMode::LazyGPU, 29829, 10404, 7954, 0, 128},
        {"SPMV", 0.70, ExecMode::EagerZC, 37825, 0, 0, 0, 128},
    };
    for (const Row &row : rows) {
        SCOPED_TRACE(std::string(row.workload) + " " + toString(row.mode));
        WorkloadParams p;
        p.sparsity = row.sparsity;
        p.scale = 16;
        GpuConfig cfg = hasZeroCaches(row.mode)
                            ? GpuConfig::lazyGpu(row.mode).scaled(8)
                            : GpuConfig::r9Nano().scaled(8);
        cfg.mode = row.mode;
        cfg.timingWaves = 0;
        Workload w = makeSuiteWorkload(row.workload, p);
        const RunResult r = runWorkload(cfg, w, true);
        EXPECT_EQ("", r.verifyError);
        EXPECT_EQ(row.issued, r.txsIssued);
        EXPECT_EQ(row.zero, r.txsElimZero);
        EXPECT_EQ(row.otimes, r.txsElimOtimes);
        EXPECT_EQ(row.dead, r.txsElimDead);
        EXPECT_EQ(row.store, r.storeTxs);
        EXPECT_EQ(0u, r.txsEagerFallback);
        EXPECT_EQ(0u, r.storeTxsZeroSkipped);
    }
}

// --- Functional equivalence -------------------------------------------------

// timingWaves == 0: the engine never runs; memory must still verify and
// there is no timing signal, so cycles and estCycles are both zero.
TEST(RabbitSampling, PureRabbitVerifiesFunctionally)
{
    for (ExecMode mode : verif::allModes()) {
        GpuConfig cfg = testConfig(mode);
        cfg.timingWaves = 0;
        Workload w = makeMM(sparseParams(), 64);
        const RunResult r = runWorkload(cfg, w, true);
        EXPECT_EQ(RunStatus::Ok, r.status) << toString(mode);
        EXPECT_TRUE(r.verifyError.empty())
            << toString(mode) << ": " << r.verifyError;
        EXPECT_EQ(0u, r.cycles) << toString(mode);
        EXPECT_EQ(0u, r.dramRequests) << toString(mode);
    }
}

// Sampled runs keep memory bit-exact: the differential checker compares
// the sampled simulator against the untimed reference for every mode at
// the window edge cases.
TEST(RabbitSampling, SampledDifferentialAcrossWindows)
{
    verif::GenOptions gen;
    gen.seed = 7;
    const verif::GeneratedCase c = verif::generateCase(gen);
    const unsigned waves = c.kernel.numWavefronts;

    for (unsigned window : {0u, 1u, waves ? waves - 1 : 0u, waves}) {
        verif::DiffOptions dopt;
        dopt.timingWaves = window;
        const verif::DiffReport rep = verif::runDifferential(c, dopt);
        EXPECT_TRUE(rep.ok())
            << "window " << window << ": " << rep.firstDivergence();
    }
}

// --- Extrapolation model ----------------------------------------------------

TEST(RabbitSampling, EstCyclesScalesByWindowFraction)
{
    Workload w = makeMM(sparseParams(), 64);
    GpuConfig cfg = testConfig(ExecMode::LazyGPU);
    cfg.timingWaves = 16;
    Gpu gpu(cfg, *w.mem);
    ASSERT_EQ(1u, w.kernels.size());
    const KernelResult res = gpu.run(w.kernels[0]);
    EXPECT_GT(res.cycles, 0u);
    // 16 of 64 waves timed: the estimate is exactly cycles * 4.
    EXPECT_EQ(res.cycles * 4, res.estCycles);
    // Rabbit counters exist, and no rabbit SIMD-occupancy counter does
    // (that statistic is extrapolated, never counted functionally).
    EXPECT_GT(gpu.stats().sumCounters("gpu.rabbit.valu_insts"), 0u);
    EXPECT_EQ(0u, gpu.stats().sumCounters("gpu.rabbit.simd_busy_cycles"));
}

TEST(RabbitSampling, EstSumCountersExtrapolatesMemoryTraffic)
{
    const WorkloadParams p = sparseParams();

    Workload full = makeMM(p, 64);
    Gpu gpu_full(testConfig(ExecMode::LazyGPU), *full.mem);
    for (const Kernel &k : full.kernels)
        gpu_full.run(k);

    GpuConfig cfg = testConfig(ExecMode::LazyGPU);
    cfg.timingWaves = 32;
    Workload sampled = makeMM(p, 64);
    Gpu gpu_sampled(cfg, *sampled.mem);
    for (const Kernel &k : sampled.kernels)
        gpu_sampled.run(k);

    // The raw counters only saw half the waves; the estimate projects
    // the missing half, so it must land far closer to the full run.
    const std::uint64_t raw =
        gpu_sampled.stats().sumCounters("mem.dram.", ".reads") +
        gpu_sampled.stats().sumCounters("mem.dram.", ".writes");
    const std::uint64_t est = gpu_sampled.dramRequests();
    const std::uint64_t truth = gpu_full.dramRequests();
    ASSERT_GT(truth, 0u);
    EXPECT_LT(raw, truth);
    const auto dist = [](std::uint64_t a, std::uint64_t b) {
        return a > b ? a - b : b - a;
    };
    EXPECT_LT(dist(est, truth), dist(raw, truth));
}

// --- Watchdog ---------------------------------------------------------------

TEST(RabbitSampling, RabbitPathHonoursWatchdogCancel)
{
    Workload w = makeMM(sparseParams(), 16);
    GpuConfig cfg = testConfig(ExecMode::LazyGPU);
    cfg.timingWaves = 0;
    Gpu gpu(cfg, *w.mem);
    ExecControl ctl;
    ctl.cancel.store(ExecControl::cancelWallClock);
    gpu.engine().attachControl(&ctl);
    try {
        gpu.run(w.kernels[0]);
        FAIL() << "cancelled rabbit run did not throw";
    } catch (const SimError &e) {
        EXPECT_EQ(SimError::Kind::Timeout, e.kind());
    }
}

// --- Convergence checker (ISSUE 6 acceptance) -------------------------------

TEST(RabbitSampling, ConvergenceAcrossAllModes)
{
    // ReLU streams: every wave touches distinct data, so per-wave
    // traffic is uniform and the window extrapolation must land within
    // tolerance. (Reuse-heavy kernels like MM legitimately diverge —
    // the timed window sees the cold caches; see DESIGN.md section 12.)
    WorkloadParams p;
    p.sparsity = 0.9;
    p.scale = 64; // 1024 wavefronts
    verif::ConvergenceOptions opt;
    opt.scale = 16;
    opt.timingWaves = 256;
    const verif::ConvergenceReport rep = verif::checkConvergence(
        [&p] { return makeReLU(p); }, opt);
    ASSERT_EQ(verif::allModes().size(), rep.cells.size());
    EXPECT_TRUE(rep.ok()) << rep.firstFailure();
}

TEST(RabbitSampling, ConvergenceCheckerFlagsDivergence)
{
    // Self-test: an absurdly tight tolerance must trip on a sampled
    // statistic that is extrapolated (cycles differ from full timing),
    // proving the checker is not vacuously green.
    const WorkloadParams p = sparseParams();
    verif::ConvergenceOptions opt;
    opt.scale = 16;
    opt.timingWaves = 1; // unrepresentative window
    opt.relTol = 0.0;
    opt.timingRelTol = 0.0;
    opt.rateSlack = 0.0;
    opt.absSlack = 0;
    opt.modes = {ExecMode::LazyGPU};
    const verif::ConvergenceReport rep = verif::checkConvergence(
        [&p] { return makeMM(p, 64); }, opt);
    EXPECT_FALSE(rep.ok());
    EXPECT_FALSE(rep.firstFailure().empty());
}

} // namespace
} // namespace lazygpu
