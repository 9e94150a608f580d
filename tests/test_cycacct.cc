/**
 * @file
 * Tests for the cycle-accounting subsystem (DESIGN.md §16): the
 * CuCycleAccount interval arithmetic, the sum-of-buckets == elapsed
 * cycles invariant across every ExecMode, the interval sampler's
 * TimeSeries output, the encode/decode tag round trip, byte-identical
 * BENCH_cpistack.json documents across --jobs and --sa-threads, and
 * the p999 percentile reporting added alongside.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "bench/cpistack_common.hh"
#include "gpu/gpu.hh"
#include "obs/cycacct.hh"
#include "obs/registry.hh"
#include "workloads/suite.hh"

namespace lazygpu
{
namespace
{

// --- CuCycleAccount interval arithmetic ----------------------------------

TEST(CuCycleAccount, TickedCyclesAndGapsArePartitioned)
{
    StatsRegistry st;
    cycacct::CuCycleAccount acct(st, "gpu.sa0.cu0.");

    // Two ticked busy cycles at 0 and 1.
    acct.chargeCycle(cycacct::Bucket::Busy, 0);
    acct.chargeCycle(cycacct::Bucket::Busy, 1);
    // Quiescent gap [2, 10) classified as a memory wait.
    acct.setGapClass(cycacct::Bucket::MemLatency);
    // Mid-gap reclassification at 6: [2, 6) memory, then lazy wait.
    acct.restall(6, cycacct::Bucket::SuspZero);
    // Ticked scoreboard cycle at 10 closes the gap [6, 10).
    acct.chargeCycle(cycacct::Bucket::ScoreboardWait, 10);
    acct.finalize(11);

    EXPECT_EQ(2u, acct.value(cycacct::Bucket::Busy));
    EXPECT_EQ(4u, acct.value(cycacct::Bucket::MemLatency));
    EXPECT_EQ(4u, acct.value(cycacct::Bucket::SuspZero));
    EXPECT_EQ(1u, acct.value(cycacct::Bucket::ScoreboardWait));
    EXPECT_EQ(11u, acct.total());
}

TEST(CuCycleAccount, FinalizeIsIdempotentAndSyncRebases)
{
    StatsRegistry st;
    cycacct::CuCycleAccount acct(st, "gpu.sa0.cu0.");
    acct.setGapClass(cycacct::Bucket::DrainedIdle);
    acct.finalize(100);
    acct.finalize(100);
    EXPECT_EQ(100u, acct.total());
    // After a checkpoint restore the counters carry the restored
    // values; syncTo must prevent double-charging [0, now).
    acct.syncTo(100);
    acct.finalize(100);
    EXPECT_EQ(100u, acct.total());
}

TEST(CycAcct, EncodeDecodeRoundTrip)
{
    std::array<std::uint64_t, cycacct::numBuckets> in = {
        1, 0, 123456789, 42, 7, 0, 99};
    std::array<std::uint64_t, cycacct::numBuckets> out{};
    ASSERT_TRUE(cycacct::decodeTotals(cycacct::encodeTotals(in), out));
    EXPECT_EQ(in, out);
    EXPECT_FALSE(cycacct::decodeTotals("", out));
    EXPECT_FALSE(cycacct::decodeTotals("masked", out));
    EXPECT_FALSE(cycacct::decodeTotals("cyc 1 2 3", out));
    EXPECT_FALSE(cycacct::decodeTotals("cyc 1 2 3 4 5 6 7 8", out));
}

// --- The sum-of-buckets invariant across every mode ----------------------

class CycAcctInvariant
    : public ::testing::TestWithParam<std::tuple<ExecMode, std::string>>
{};

TEST_P(CycAcctInvariant, BucketsSumToElapsedCuCycles)
{
    const auto [mode, wl_name] = GetParam();
    WorkloadParams p;
    p.scale = 16;
    Workload w = wl_name == "mm" ? makeMM(p) : makeFIR(p);

    GpuConfig cfg = configFor(mode);
    cfg.cycleAccounting = true;
    Gpu gpu(cfg, *w.mem);
    for (const Kernel &k : w.kernels)
        gpu.run(k);

    // Classic engine: every CU's account spans [0, engine.now()), so
    // the GPU-wide totals sum to numCus * now. (The per-CU equality in
    // every mode, including sharded, is asserted at the end of each
    // launch in every build.)
    const auto totals = cycacct::sumBuckets(gpu.stats());
    std::uint64_t sum = 0;
    for (std::uint64_t v : totals)
        sum += v;
    EXPECT_GT(gpu.engine().now(), 0u);
    EXPECT_EQ(gpu.engine().now() * cfg.numCus(), sum);
    // The run did real work, so some cycles must be busy.
    EXPECT_GT(totals[static_cast<unsigned>(cycacct::Bucket::Busy)], 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, CycAcctInvariant,
    ::testing::Combine(::testing::Values(ExecMode::Baseline,
                                         ExecMode::LazyCore,
                                         ExecMode::LazyZC,
                                         ExecMode::LazyGPU,
                                         ExecMode::EagerZC),
                       ::testing::Values(std::string("mm"),
                                         std::string("fir"))),
    [](const auto &info) {
        return toString(std::get<0>(info.param)) == "LazyCore+1"
                   ? "LazyZC_" + std::get<1>(info.param)
                   : toString(std::get<0>(info.param)) + "_" +
                         std::get<1>(info.param);
    });

// --- The interval sampler ------------------------------------------------

TEST(CycAcctSampler, SeriesAreSampledAndEndAtTheFinalTotals)
{
    WorkloadParams p;
    p.scale = 16;
    Workload w = makeMM(p);
    GpuConfig cfg = configFor(ExecMode::LazyGPU);
    cfg.cycleAccounting = true;
    cfg.cycacctSampleTicks = 256;
    Gpu gpu(cfg, *w.mem);
    ASSERT_NE(nullptr, gpu.cycSampler());
    for (const Kernel &k : w.kernels)
        gpu.run(k);

    const auto &names = gpu.cycSampler()->seriesNames();
    ASSERT_EQ(cycacct::numBuckets + 3, names.size());
    const auto totals = cycacct::sumBuckets(gpu.stats());
    for (unsigned i = 0; i < cycacct::numBuckets; ++i) {
        const TimeSeries &s = gpu.stats().series(names[i]);
        ASSERT_FALSE(s.points().empty()) << names[i];
        // Cumulative counters: samples are monotone and the final
        // sample (taken at end-of-run) equals the finalized total.
        double prev = -1.0;
        for (const TimeSeries::Point &pt : s.points()) {
            EXPECT_GE(pt.value, prev) << names[i];
            prev = pt.value;
        }
        EXPECT_EQ(static_cast<double>(totals[i]),
                  s.points().back().value)
            << names[i];
    }
}

TEST(CycAcctSampler, OffByDefaultRegistersNothing)
{
    WorkloadParams p;
    p.scale = 16;
    Workload w = makeMM(p);
    const GpuConfig cfg = configFor(ExecMode::LazyGPU);
    Gpu gpu(cfg, *w.mem);
    EXPECT_EQ(nullptr, gpu.cycSampler());
    for (const Kernel &k : w.kernels)
        gpu.run(k);
    EXPECT_EQ(0u, cycacct::sumBuckets(gpu.stats())[0]);
    EXPECT_EQ(0u, gpu.stats().allSeries().count("cyc.busy"));
}

// --- BENCH_cpistack.json determinism -------------------------------------

/** Run the shared cpistack grid and render the artifact document. */
std::string
cpistackDocFor(unsigned jobs, unsigned sa_threads)
{
    SweepOptions opts;
    opts.saThreads = sa_threads;
    ParallelRunner runner(jobs, opts);
    const std::vector<RunResult> res =
        runner.run(cpistack::buildJobs(/*quick=*/true));
    EXPECT_EQ(0u, runner.failures());
    return cpistack::buildDoc(/*quick=*/true, res).dump();
}

TEST(CpiStackArtifact, ByteIdenticalAcrossJobsAndSaThreads)
{
    // --jobs must never change the document (cells are independent and
    // results are submission-ordered); --sa-threads must not either
    // (sharded results are N-independent for N >= 1, and the bucket
    // counters are plain tick arithmetic with one writer per domain).
    const std::string jobs1_sa1 = cpistackDocFor(1, 1);
    const std::string jobs4_sa2 = cpistackDocFor(4, 2);
    const std::string jobs4_sa8 = cpistackDocFor(4, 8);
    EXPECT_EQ(jobs1_sa1, jobs4_sa2);
    EXPECT_EQ(jobs4_sa2, jobs4_sa8);
    // And the stack is present: LazyGPU rows must decode a real tag.
    EXPECT_NE(std::string::npos, jobs1_sa1.find("\"busy\""));
}

// --- p999 percentile reporting -------------------------------------------

TEST(HistogramP999, BoundariesAndOrdering)
{
    Histogram h;
    EXPECT_EQ(0.0, h.percentile(99.9));
    h.sample(7);
    // A single-valued histogram is exact at every percentile.
    EXPECT_EQ(7.0, h.percentile(99.9));
    for (std::uint64_t v = 0; v < 1000; ++v)
        h.sample(v);
    // Percentiles are monotone and clamped to the observed extremes.
    EXPECT_LE(h.percentile(99.0), h.percentile(99.9));
    EXPECT_LE(h.percentile(99.9), static_cast<double>(h.max()));
    EXPECT_GE(h.percentile(99.9), h.percentile(50.0));
}

TEST(HistogramP999, AppearsInEveryRendering)
{
    StatsRegistry st;
    st.hist("mem.lat").sample(100);
    EXPECT_NE(std::string::npos, st.dump().find("mem.lat.p999 "));
    EXPECT_NE(std::string::npos, st.report().find("p999="));
    EXPECT_NE(std::string::npos, st.dumpJson().find("\"p999\""));
}

TEST(StatsRegistry, DumpJsonIsParsableShapedAndDeterministic)
{
    StatsRegistry st;
    st.counter("gpu.sa0.cu0.txs_issued") += 5;
    st.dist("mem.latency").sample(146.5);
    st.hist("mem.lat").sample(100);
    st.series("cyc.busy").sample(256, 17.0);
    const std::string a = st.dumpJson();
    EXPECT_EQ(a, st.dumpJson());
    EXPECT_NE(std::string::npos, a.find("\"counters\""));
    EXPECT_NE(std::string::npos,
              a.find("\"gpu.sa0.cu0.txs_issued\": 5"));
    EXPECT_NE(std::string::npos, a.find("\"distributions\""));
    EXPECT_NE(std::string::npos, a.find("\"histograms\""));
    EXPECT_NE(std::string::npos, a.find("\"series\""));
    EXPECT_NE(std::string::npos, a.find("[256, 17]"));
}

} // namespace
} // namespace lazygpu
