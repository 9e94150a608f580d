/**
 * @file
 * Golden-stats regression for the scheduler swap: the timing-wheel /
 * pooled-event engine must reproduce, bit for bit, the simulated results
 * the original std::function priority-queue engine produced. The numbers
 * below were captured from the pre-swap engine (rows added later pin the
 * then-current engine so every ExecMode has a cell); any drift means
 * event ordering (and therefore every BENCH_*.json artifact) changed.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <string>

#include "analysis/harness.hh"
#include "workloads/suite.hh"

namespace lazygpu
{
namespace
{

struct GoldenCase
{
    const char *workload;
    double sparsity;
    ExecMode mode;
    std::uint64_t cycles;
    std::uint64_t txsIssued;
    std::uint64_t txsElimZero;
    std::uint64_t txsElimOtimes;
    std::uint64_t txsElimDead;
    std::uint64_t l1Requests;
    std::uint64_t l2Requests;
    std::uint64_t dramRequests;
    double avgMemLatency;
};

// ctest names each case after its printed parameter. gtest's default
// printer dumps the struct's bytes, and the `workload` pointer among them
// moves with address-space randomisation, so print the workload by name.
void
PrintTo(const GoldenCase &g, std::ostream *os)
{
    *os << g.workload;
}

// Captured with: r9Nano (lazyGpu split for zero-cache modes), scaled(8),
// WorkloadParams{sparsity, scale=16, seed=42}.
const GoldenCase kGolden[] = {
    {"MM", 0.00, ExecMode::Baseline,
     9994ull, 19008ull, 0ull, 0ull, 0ull, 19520ull, 944ull, 529ull,
     1759.5508207070707},
    {"MM", 0.00, ExecMode::LazyCore,
     9133ull, 16896ull, 0ull, 0ull, 2112ull, 17408ull, 896ull, 512ull,
     940.43619791666663},
    // ElimZero/ElimDead re-pinned after the stale-tx-word fix: a
    // transaction whose surviving words were all mask-zeroed counts as
    // zero-eliminated even when a partial overwrite killed the rest
    // (21 txs reclassified; totals and timing are unchanged).
    {"MM", 0.50, ExecMode::LazyZC,
     9104ull, 16739ull, 2231ull, 0ull, 38ull, 17251ull, 896ull, 530ull,
     902.81265308560842},
    {"MM", 0.50, ExecMode::LazyGPU,
     5189ull, 9128ull, 2214ull, 7628ull, 38ull, 9640ull, 896ull, 530ull,
     481.15709903593341},
    {"MM", 0.50, ExecMode::EagerZC,
     9059ull, 16867ull, 0ull, 0ull, 0ull, 17379ull, 911ull, 530ull,
     1738.5543961581786},
    {"SPMV", 0.70, ExecMode::Baseline,
     27305ull, 48187ull, 0ull, 0ull, 0ull, 67746ull, 23708ull, 2368ull,
     777.90854379811981},
    {"SPMV", 0.70, ExecMode::LazyCore,
     27309ull, 48187ull, 0ull, 0ull, 0ull, 67823ull, 23747ull, 2368ull,
     758.36453815344385},
    {"SPMV", 0.70, ExecMode::LazyZC,
     26684ull, 37783ull, 10404ull, 0ull, 0ull, 62113ull, 23627ull, 2442ull,
     699.74597040997276},
    {"SPMV", 0.70, ExecMode::EagerZC,
     26326ull, 37869ull, 0ull, 0ull, 0ull, 62482ull, 23742ull, 2442ull,
     731.59193535609597},
    {"SPMV", 0.70, ExecMode::LazyGPU,
     22073ull, 37783ull, 10404ull, 0ull, 0ull, 56840ull, 19479ull, 2442ull,
     522.31974697615328},
    {"FIR", 0.30, ExecMode::LazyGPU,
     84649ull, 159981ull, 1811ull, 0ull, 0ull, 176380ull, 47653ull,
     10285ull, 1455.3175689613142},
    {"SC", 0.40, ExecMode::LazyZC,
     44876ull, 80243ull, 1165ull, 0ull, 0ull, 97412ull, 27895ull, 10480ull,
     1366.3150804431539},
};

class GoldenStats : public ::testing::TestWithParam<GoldenCase>
{
};

TEST_P(GoldenStats, MatchesPreSwapEngine)
{
    const GoldenCase &g = GetParam();

    WorkloadParams p;
    p.sparsity = g.sparsity;
    p.scale = 16;
    GpuConfig cfg = hasZeroCaches(g.mode)
                        ? GpuConfig::lazyGpu(g.mode).scaled(8)
                        : GpuConfig::r9Nano().scaled(8);
    cfg.mode = g.mode;

    Workload w = makeSuiteWorkload(g.workload, p);
    const RunResult r = runWorkload(cfg, w, true);

    EXPECT_EQ("", r.verifyError);
    EXPECT_EQ(g.cycles, r.cycles);
    EXPECT_EQ(g.txsIssued, r.txsIssued);
    EXPECT_EQ(g.txsElimZero, r.txsElimZero);
    EXPECT_EQ(g.txsElimOtimes, r.txsElimOtimes);
    EXPECT_EQ(g.txsElimDead, r.txsElimDead);
    EXPECT_EQ(g.l1Requests, r.l1Requests);
    EXPECT_EQ(g.l2Requests, r.l2Requests);
    EXPECT_EQ(g.dramRequests, r.dramRequests);
    EXPECT_DOUBLE_EQ(g.avgMemLatency, r.avgMemLatency);
}

std::string
goldenName(const ::testing::TestParamInfo<GoldenCase> &info)
{
    std::string name = std::string(info.param.workload) + "_" +
                       toString(info.param.mode) + "_s" +
                       std::to_string(
                           static_cast<int>(info.param.sparsity * 100));
    for (char &c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    }
    return name;
}

INSTANTIATE_TEST_SUITE_P(SchedulerSwap, GoldenStats,
                         ::testing::ValuesIn(kGolden), goldenName);

} // namespace
} // namespace lazygpu
