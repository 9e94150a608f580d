/**
 * @file
 * Allocation counts inside Gpu::run (DESIGN.md §8, §12). The timed
 * memory path and the Lazy Unit take what they need per transaction
 * from pools and flat tables, so the heap allocations of a run grow
 * with its waves, not with its transactions: the counts barely move
 * with sparsity, and every run stays under a per-wave bound.
 *
 * This is its own executable, lazygpu_alloc_tests: the counting global
 * operator new below replaces the allocator for the whole program,
 * which must not happen to the main test binary (or to the sanitizers'
 * new/delete checks there).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "gpu/gpu.hh"
#include "workloads/suite.hh"

namespace
{

std::atomic<bool> counting{false};
std::atomic<std::uint64_t> allocations{0};

void *
countedAlloc(std::size_t n)
{
    if (counting.load(std::memory_order_relaxed))
        allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
countedAlignedAlloc(std::size_t n, std::align_val_t a)
{
    if (counting.load(std::memory_order_relaxed))
        allocations.fetch_add(1, std::memory_order_relaxed);
    // aligned_alloc wants a size that is a multiple of the alignment.
    const std::size_t align = static_cast<std::size_t>(a);
    const std::size_t size = (n + align - 1) / align * align;
    if (void *p = std::aligned_alloc(align, size ? size : align))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void *
operator new(std::size_t n, std::align_val_t a)
{
    return countedAlignedAlloc(n, a);
}
void *
operator new[](std::size_t n, std::align_val_t a)
{
    return countedAlignedAlloc(n, a);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace lazygpu
{
namespace
{

struct AllocCount
{
    std::uint64_t allocs = 0;
    std::uint64_t waves = 0;

    double perWave() const { return double(allocs) / double(waves); }
};

/**
 * Run every kernel of w on a Gpu built from cfg, counting the heap
 * allocations made inside Gpu::run only; workload generation and Gpu
 * construction are outside the count. Also checks that every engine
 * event fit its inline record.
 */
AllocCount
countRun(const std::string &label, const GpuConfig &cfg, Workload w)
{
    Gpu gpu(cfg, *w.mem);
    AllocCount c;
    for (const Kernel &k : w.kernels) {
        allocations = 0;
        counting = true;
        gpu.run(k);
        counting = false;
        c.allocs += allocations;
        c.waves += k.numWavefronts;
    }
    EXPECT_EQ(0u, gpu.stats().counter("engine.oversized_events").value())
        << label;
    std::printf("alloc %-26s %9llu allocations, %6llu waves, %.1f per "
                "wave\n",
                label.c_str(), static_cast<unsigned long long>(c.allocs),
                static_cast<unsigned long long>(c.waves), c.perWave());
    return c;
}

/** DESIGN §12's LazyGPU MM: the full machine, the default scale. */
AllocCount
lazyMM(const std::string &label, double sparsity, unsigned waves,
       unsigned timing_waves = GpuConfig::timingWavesAll,
       unsigned sa_threads = 0)
{
    WorkloadParams p;
    p.sparsity = sparsity;
    GpuConfig cfg = GpuConfig::lazyGpu(ExecMode::LazyGPU);
    cfg.timingWaves = timing_waves;
    cfg.saThreads = sa_threads;
    return countRun(label, cfg, makeMM(p, waves));
}

/** A Baseline suite kernel on a quarter machine: MSHRs run full. */
AllocCount
baselineSuite(const std::string &name)
{
    WorkloadParams p;
    p.sparsity = 0.5;
    GpuConfig cfg = GpuConfig::r9Nano().scaled(4);
    cfg.mode = ExecMode::Baseline;
    return countRun("Baseline " + name, cfg, makeSuiteWorkload(name, p));
}

// Per-wave ceilings, about 40% above the measured counts (DESIGN §12):
// a wave's own state (registers, scoreboard, its pending-load vector)
// allocates; a transaction does not. Before the pools and flat tables
// the timed MM runs made 263-781 allocations per wave and the Baseline
// suite runs 3,023-6,684. The suite ceiling is SPMV's: with 32 waves,
// a run's start-up allocations weigh more per wave.
constexpr double timedPerWave = 48;
constexpr double rabbitPerWave = 17;
constexpr double suitePerWave = 63;

TEST(Alloc, TimedRunsAllocatePerWaveNotPerTransaction)
{
    // Sparsity changes how many transactions are issued, eliminated or
    // zero-probed, but not how many waves run.
    const AllocCount dense = lazyMM("timed 1024 s0.0", 0.0, 1024);
    const AllocCount half = lazyMM("timed 1024 s0.5", 0.5, 1024);
    const AllocCount sparse = lazyMM("timed 1024 s0.9", 0.9, 1024);
    for (const AllocCount *c : {&dense, &sparse}) {
        EXPECT_NEAR(double(half.allocs), double(c->allocs),
                    0.02 * double(half.allocs));
    }
    for (const AllocCount *c : {&dense, &half, &sparse})
        EXPECT_LE(c->perWave(), timedPerWave);
    EXPECT_LE(lazyMM("timed 4096 s0.5", 0.5, 4096).perWave(),
              timedPerWave);
}

TEST(Alloc, RabbitOnlyRunAllocatesPerWave)
{
    EXPECT_LE(lazyMM("rabbit 1024 s0.5", 0.5, 1024, 0).perWave(),
              rabbitPerWave);
}

TEST(Alloc, ShardedRunAllocatesPerWave)
{
    // The bank domains' boundary slot tables replace a boxed response
    // wrapper per crossing.
    EXPECT_LE(lazyMM("saThreads 2 1024 s0.5", 0.5, 1024,
                     GpuConfig::timingWavesAll, 2)
                  .perWave(),
              timedPerWave);
}

TEST(Alloc, FullMshrsParkWithoutAllocating)
{
    // Baseline SPMV and BFS on a quarter machine keep the MSHRs full,
    // so most misses wait in the parked-request FIFO.
    EXPECT_LE(baselineSuite("SPMV").perWave(), suitePerWave);
    EXPECT_LE(baselineSuite("BFS").perWave(), suitePerWave);
}

} // namespace
} // namespace lazygpu
