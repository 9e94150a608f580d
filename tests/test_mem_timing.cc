/**
 * @file
 * Unit tests for the timing memory system: caches (hits, LRU, MSHRs,
 * write policies), DRAM channels (bandwidth occupancy), the bank
 * router, and the end-to-end latencies of Table 2's hierarchy.
 */

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <type_traits>

#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/hierarchy.hh"
#include "sim/config.hh"

namespace lazygpu
{
namespace
{

// Completion's contract, checked at compile time: a fixed inline
// callable that is copied as bytes, so a capture that does not fit or
// owns resources must not convert to one.
TEST(Completion, HoldsOnlySmallTriviallyCopyableCallables)
{
    static_assert(std::is_trivially_copyable_v<Completion>);
    static_assert(sizeof(Completion) <= 64);

    const std::array<std::uint64_t, 7> seven{};
    const auto fits = [seven]() { (void)seven; };
    static_assert(sizeof(fits) == Completion::capacity);
    static_assert(std::is_constructible_v<Completion, decltype(fits)>);

    const std::array<std::uint64_t, 8> eight{};
    const auto too_big = [eight]() { (void)eight; };
    static_assert(sizeof(too_big) == 64);
    static_assert(!std::is_constructible_v<Completion, decltype(too_big)>);

    const std::string name;
    const auto owning = [name]() { (void)name; };
    static_assert(!std::is_constructible_v<Completion, decltype(owning)>);

    // A copy calls the same capture; an empty completion tests false.
    int calls = 0;
    Completion c = [&calls]() { ++calls; };
    Completion copy = c;
    c();
    copy();
    EXPECT_EQ(2, calls);
    EXPECT_TRUE(c);
    EXPECT_FALSE(Completion{});
    EXPECT_FALSE(Completion{nullptr});
}

struct Fixture
{
    Engine engine;
    StatsRegistry stats;
};

/** Run an access and return its completion tick. */
Tick
timedAccess(Engine &engine, MemDevice &dev, Addr addr, bool write = false)
{
    Tick done = maxTick;
    dev.access(MemAccess{addr, transactionSize, write},
               [&]() { done = engine.now(); });
    engine.run();
    return done;
}

TEST(DramChannel, AddsAccessLatency)
{
    Fixture f;
    DramChannel dram(f.engine, f.stats, "d", 32, 100);
    EXPECT_EQ(101u, timedAccess(f.engine, dram, 0)); // 1 occupancy + 100
}

TEST(DramChannel, BandwidthOccupancySerialisesBursts)
{
    Fixture f;
    // 8 B/cycle: each 32 B transaction occupies 4 cycles.
    DramChannel dram(f.engine, f.stats, "d", 8, 100);
    std::vector<Tick> done;
    for (int i = 0; i < 4; ++i) {
        dram.access(MemAccess{Addr(i) * 32, 32, false},
                    [&, i]() { done.push_back(f.engine.now()); });
    }
    f.engine.run();
    ASSERT_EQ(4u, done.size());
    EXPECT_EQ(104u, done[0]);
    EXPECT_EQ(108u, done[1]);
    EXPECT_EQ(116u, done[3]); // queuing latency is emergent
    EXPECT_GT(f.stats.dist("d.queue_delay").max(), 0.0);
}

TEST(DramChannel, CountsReadsAndWrites)
{
    Fixture f;
    DramChannel dram(f.engine, f.stats, "d", 32, 10);
    dram.access(MemAccess{0, 32, false}, nullptr);
    dram.access(MemAccess{64, 32, true}, nullptr);
    dram.access(MemAccess{128, 32, true}, nullptr);
    f.engine.run();
    EXPECT_EQ(1u, f.stats.counter("d.reads").value());
    EXPECT_EQ(2u, f.stats.counter("d.writes").value());
}

class CacheFixture : public ::testing::Test
{
  public:
    CacheFixture()
        : dram_(f_.engine, f_.stats, "d", 32, 100),
          params_(makeParams()),
          cache_(f_.engine, f_.stats, "c", params_,
                 Cache::WritePolicy::WriteBack, dram_)
    {
    }

    static CacheParams
    makeParams()
    {
        CacheParams p;
        p.size = 4 * 1024; // 4 KiB, 4-way, 64 B lines -> 16 sets
        p.assoc = 4;
        p.lineSize = 64;
        p.mshrs = 2;
        p.bytesPerCycle = 64;
        p.latency = 10;
        return p;
    }

    Fixture f_;
    DramChannel dram_;
    CacheParams params_;
    Cache cache_;
};

TEST_F(CacheFixture, MissThenHit)
{
    Tick first = timedAccess(f_.engine, cache_, 0x1000);
    EXPECT_EQ(1u, f_.stats.counter("c.misses").value());
    EXPECT_GT(first, 100u); // went to DRAM

    Tick t0 = f_.engine.now();
    Tick second = timedAccess(f_.engine, cache_, 0x1000);
    EXPECT_EQ(1u, f_.stats.counter("c.hits").value());
    EXPECT_EQ(t0 + 10, second); // hit latency only
}

TEST_F(CacheFixture, SameLineDifferentTransactionHits)
{
    timedAccess(f_.engine, cache_, 0x1000);
    timedAccess(f_.engine, cache_, 0x1020); // other half of the line
    EXPECT_EQ(1u, f_.stats.counter("c.misses").value());
    EXPECT_EQ(1u, f_.stats.counter("c.hits").value());
}

TEST_F(CacheFixture, SecondaryMissCoalescesIntoMshr)
{
    int completions = 0;
    cache_.access(MemAccess{0x2000, 32, false}, [&]() { ++completions; });
    cache_.access(MemAccess{0x2020, 32, false}, [&]() { ++completions; });
    f_.engine.run();
    EXPECT_EQ(2, completions);
    EXPECT_EQ(2u, f_.stats.counter("c.misses").value());
    // Only one fill travelled to DRAM.
    EXPECT_EQ(1u, f_.stats.counter("d.reads").value());
}

TEST_F(CacheFixture, MshrExhaustionQueuesRequests)
{
    int completions = 0;
    // 4 distinct lines with only 2 MSHRs.
    for (Addr a = 0; a < 4; ++a) {
        cache_.access(MemAccess{0x4000 + a * 64, 32, false},
                      [&]() { ++completions; });
    }
    f_.engine.run();
    EXPECT_EQ(4, completions);
    EXPECT_GT(f_.stats.dist("c.mshr_wait").count(), 0u);
    EXPECT_GT(f_.stats.dist("c.mshr_wait").max(), 0.0);
}

TEST_F(CacheFixture, MshrOverflowSamplesWaitOnBothPaths)
{
    int completions = 0;
    // Two read misses claim both MSHRs; then one read and one write to
    // further lines overflow into the pending FIFO. Both overflowed
    // requests must contribute an mshr_wait sample (the write path used
    // to be dropped, skewing the Table 5 congestion stats).
    for (Addr a = 0; a < 2; ++a) {
        cache_.access(MemAccess{0x5000 + a * 64, 32, false},
                      [&]() { ++completions; });
    }
    cache_.access(MemAccess{0x5080, 32, false}, [&]() { ++completions; });
    cache_.access(MemAccess{0x50C0, 32, true}, [&]() { ++completions; });
    f_.engine.run();
    EXPECT_EQ(4, completions);
    EXPECT_EQ(2u, f_.stats.dist("c.mshr_wait").count());
}

TEST_F(CacheFixture, ParkedNullCompletionsStillGetTheirEvent)
{
    int completions = 0;
    // Two read misses claim both MSHRs (DRAM fills at 102 and 104);
    // then a read (parked at 2) and a write (parked at 3), both with
    // null completions, wait for them. Each parked request still gets
    // its own completion event, 10 cycles after its fill (204 -> 214,
    // 206 -> 216): that is where its wait is sampled and the written
    // line marked dirty. Eleven events: three delayed lookups, four
    // fills, four completions.
    for (Addr a = 0; a < 2; ++a) {
        cache_.access(MemAccess{0x6000 + a * 64, 32, false},
                      [&]() { ++completions; });
    }
    cache_.access(MemAccess{0x6080, 32, false}, nullptr);
    cache_.access(MemAccess{0x60C0, 32, true}, nullptr);
    f_.engine.run();
    EXPECT_EQ(2, completions);
    EXPECT_EQ(11u, f_.engine.eventsExecuted());
    const Distribution &wait = f_.stats.dist("c.mshr_wait");
    EXPECT_EQ(2u, wait.count());
    EXPECT_EQ(double((214 - 2) + (216 - 3)), wait.sum());
    EXPECT_EQ(4u, f_.stats.counter("d.reads").value());
    EXPECT_EQ(0u, f_.stats.counter("d.writes").value());
}

TEST_F(CacheFixture, ParkedWriteAllocateLineWritesBackOnce)
{
    // Both MSHRs busy, so the write to 0x60C0 parks; it allocates once
    // they free and its line ends dirty.
    for (Addr a = 0; a < 2; ++a)
        cache_.access(MemAccess{0x6000 + a * 64, 32, false}, nullptr);
    cache_.access(MemAccess{0x60C0, 32, true}, nullptr);
    f_.engine.run();
    EXPECT_TRUE(cache_.contains(0x60C0));
    EXPECT_EQ(0u, f_.stats.counter("d.writes").value());
    // Four more lines of its set (0x400 apart) push it out: exactly one
    // writeback.
    for (Addr w = 1; w <= 4; ++w)
        timedAccess(f_.engine, cache_, 0x60C0 + w * 0x400);
    EXPECT_FALSE(cache_.contains(0x60C0));
    EXPECT_EQ(1u, f_.stats.counter("c.evictions").value());
    EXPECT_EQ(1u, f_.stats.counter("d.writes").value());
}

TEST_F(CacheFixture, WriteAllocateMarksDirtyAtItsCompletionNotAtFill)
{
    // Three lines of set 0 resident, one way free.
    for (Addr w = 0; w < 3; ++w)
        timedAccess(f_.engine, cache_, 0x10000 + w * 0x400);
    const Tick t0 = f_.engine.now();
    // A write miss to a fourth line of the set fills at t0 + 102, and
    // a read miss to a fifth at t0 + 104. In between, probes make the
    // written line the set's LRU, so the second fill evicts it before
    // its completion event (t0 + 112) would have marked it dirty: the
    // line leaves clean and nothing is written back.
    cache_.access(MemAccess{0x10C00, 32, true}, nullptr);
    cache_.access(MemAccess{0x11000, 32, false}, nullptr);
    f_.engine.schedule(t0 + 103, [this]() {
        for (Addr w = 0; w < 3; ++w)
            EXPECT_TRUE(cache_.probe(0x10000 + w * 0x400));
    });
    f_.engine.run();
    EXPECT_FALSE(cache_.contains(0x10C00));
    EXPECT_TRUE(cache_.contains(0x11000));
    EXPECT_EQ(0u, f_.stats.counter("c.evictions").value());
    EXPECT_EQ(0u, f_.stats.counter("d.writes").value());
}

TEST_F(CacheFixture, LruEvictsTheColdestWay)
{
    // Fill one set (16 sets: addresses 0x1000 apart share set 0).
    for (Addr w = 0; w < 4; ++w)
        timedAccess(f_.engine, cache_, 0x10000 + w * 0x400);
    // Touch the first three again, then bring in a fifth line.
    for (Addr w = 0; w < 3; ++w)
        timedAccess(f_.engine, cache_, 0x10000 + w * 0x400);
    timedAccess(f_.engine, cache_, 0x10000 + 4 * 0x400);
    // Way 3 (0x10C00) was LRU and must be gone; way 0 must survive.
    EXPECT_TRUE(cache_.contains(0x10000));
    EXPECT_FALSE(cache_.contains(0x10000 + 3 * 0x400));
}

TEST_F(CacheFixture, ProbeRefreshesRecencyAndKeepsHotLinesResident)
{
    // Fill all four ways of one set (set-conflicting addresses are
    // 0x400 apart), oldest first.
    for (Addr w = 0; w < 4; ++w)
        timedAccess(f_.engine, cache_, 0x10000 + w * 0x400);
    // A successful probe counts as a use: way 0 becomes most recent.
    EXPECT_TRUE(cache_.probe(0x10000));
    EXPECT_FALSE(cache_.probe(0x90000));
    // Bringing in a fifth line must now evict way 1 (the true LRU),
    // not the probed way 0.
    timedAccess(f_.engine, cache_, 0x10000 + 4 * 0x400);
    EXPECT_TRUE(cache_.contains(0x10000));
    EXPECT_FALSE(cache_.contains(0x10000 + 0x400));
}

TEST(HierarchyProbe, MaskProbeRefreshesL1ZeroCacheRecency)
{
    // The EagerZC short-circuit probes the L1 Zero Cache; the probe must
    // protect hot mask lines from eviction (they are under active reuse).
    Fixture f;
    GlobalMemory mem;
    GpuConfig cfg = GpuConfig::lazyGpu();
    MemoryHierarchy hier(f.engine, f.stats, cfg, mem);
    ASSERT_TRUE(hier.hasZeroCaches());

    Addr ma = GlobalMemory::maskAddr(0x200000);
    hier.accessMask(0, ma & ~Addr(31), false, nullptr);
    f.engine.run();
    EXPECT_TRUE(hier.maskResidentInL1(0, ma));
    // (recency effects under pressure are covered at the Cache level;
    // here we assert the probe still reports residency correctly)
    EXPECT_FALSE(hier.maskResidentInL1(1, ma));
}

TEST_F(CacheFixture, WriteBackMarksDirtyAndWritesBackOnEviction)
{
    timedAccess(f_.engine, cache_, 0x20000, true); // write-allocate
    EXPECT_EQ(0u, f_.stats.counter("d.writes").value());
    // Evict it by filling the set with reads.
    for (Addr w = 1; w <= 4; ++w)
        timedAccess(f_.engine, cache_, 0x20000 + w * 0x400);
    f_.engine.run();
    EXPECT_EQ(1u, f_.stats.counter("c.evictions").value());
    EXPECT_EQ(1u, f_.stats.counter("d.writes").value());
}

TEST(CacheWriteAround, WritesBypassAndInvalidate)
{
    Fixture f;
    DramChannel dram(f.engine, f.stats, "d", 32, 50);
    CacheParams p = CacheFixture::makeParams();
    Cache cache(f.engine, f.stats, "c", p,
                Cache::WritePolicy::WriteAround, dram);

    timedAccess(f.engine, cache, 0x3000); // fill
    EXPECT_TRUE(cache.contains(0x3000));
    timedAccess(f.engine, cache, 0x3000, true); // write around
    EXPECT_FALSE(cache.contains(0x3000));
    EXPECT_EQ(1u, f.stats.counter("c.write_throughs").value());
    EXPECT_EQ(1u, f.stats.counter("d.writes").value());
}

TEST(BankRouter, RoutesByInterleaving)
{
    Fixture f;
    DramChannel d0(f.engine, f.stats, "d0", 32, 10);
    DramChannel d1(f.engine, f.stats, "d1", 32, 10);
    BankRouter router(f.engine, 128, 256);
    router.addBank(&d0);
    router.addBank(&d1);

    EXPECT_EQ(0u, router.bankFor(0));
    EXPECT_EQ(0u, router.bankFor(127));
    EXPECT_EQ(1u, router.bankFor(128));
    EXPECT_EQ(0u, router.bankFor(256));

    router.access(MemAccess{0, 32, false}, nullptr);
    router.access(MemAccess{128, 32, false}, nullptr);
    router.access(MemAccess{160, 32, false}, nullptr);
    f.engine.run();
    EXPECT_EQ(1u, f.stats.counter("d0.reads").value());
    EXPECT_EQ(2u, f.stats.counter("d1.reads").value());
}

TEST(Hierarchy, RoundTripLatenciesMatchTable2)
{
    // L1 hit 60, L2 hit 112, DRAM 146 (MGPUSim defaults).
    Fixture f;
    GlobalMemory mem;
    GpuConfig cfg = GpuConfig::r9Nano();
    MemoryHierarchy hier(f.engine, f.stats, cfg, mem);

    Tick done = maxTick;
    hier.accessData(0, 0x100000, 32, false,
                    [&]() { done = f.engine.now(); });
    f.engine.run();
    Tick dram_trip = done;
    EXPECT_NEAR(146.0, static_cast<double>(dram_trip), 4.0);

    Tick start = f.engine.now();
    hier.accessData(0, 0x100000, 32, false,
                    [&]() { done = f.engine.now(); });
    f.engine.run();
    EXPECT_NEAR(60.0, static_cast<double>(done - start), 2.0);

    // A different SA misses its own L1 but hits the shared L2.
    start = f.engine.now();
    hier.accessData(1, 0x100000, 32, false,
                    [&]() { done = f.engine.now(); });
    f.engine.run();
    EXPECT_NEAR(112.0, static_cast<double>(done - start), 3.0);
}

TEST(Hierarchy, MaskPathUsesTheZeroCaches)
{
    Fixture f;
    GlobalMemory mem;
    GpuConfig cfg = GpuConfig::lazyGpu();
    MemoryHierarchy hier(f.engine, f.stats, cfg, mem);
    ASSERT_TRUE(hier.hasZeroCaches());

    Addr ma = GlobalMemory::maskAddr(0x200000);
    EXPECT_FALSE(hier.maskResidentInL1(0, ma));
    hier.accessMask(0, ma & ~Addr(31), false, nullptr);
    f.engine.run();
    EXPECT_TRUE(hier.maskResidentInL1(0, ma));
    EXPECT_FALSE(hier.maskResidentInL1(1, ma)); // per-SA L1 Zero Caches
    EXPECT_EQ(1u, f.stats.sumCounters("mem.zl1.", ".misses"));
    EXPECT_EQ(0u, f.stats.sumCounters("mem.l1.", ".misses"));
}

TEST(HierarchyDeath, MaskAccessWithoutZeroCachesPanics)
{
    Fixture f;
    GlobalMemory mem;
    GpuConfig cfg = GpuConfig::r9Nano();
    MemoryHierarchy hier(f.engine, f.stats, cfg, mem);
    EXPECT_DEATH(hier.accessMask(0, GlobalMemory::maskBase, false,
                                 nullptr),
                 "Zero Caches");
}

} // namespace
} // namespace lazygpu
