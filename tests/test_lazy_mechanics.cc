/**
 * @file
 * Focused tests of the paper's core mechanisms on hand-written
 * micro-kernels: busy-bit stalling, lazy deferral, optimization (1)
 * zero elimination, optimization (2) suspension / requalification /
 * overwrite & retire elimination, the upper-bit encoding fallback, and
 * zero-store absorption.
 */

#include <gtest/gtest.h>

#include "analysis/harness.hh"
#include "gpu/gpu.hh"
#include "isa/kernel.hh"

namespace lazygpu
{
namespace
{

/** A one-CU machine so per-kernel stats are easy to reason about. */
GpuConfig
oneCu(ExecMode mode)
{
    GpuConfig cfg = mode == ExecMode::Baseline
                        ? GpuConfig::r9Nano()
                        : GpuConfig::lazyGpu(mode);
    cfg.numShaderArrays = 1;
    cfg.cusPerSa = 1;
    cfg.l2Banks = 1;
    return cfg;
}

std::uint64_t
ctr(const Gpu &gpu, const char *name)
{
    // Per-CU counters live under "gpu.sa<S>.cu<C>.<name>"; sum them.
    auto &st = const_cast<Gpu &>(gpu).stats();
    return st.sumCounters("gpu.", std::string(".") + name);
}

TEST(LazyMechanics, UnusedLoadIsNeverIssuedOnLazyCore)
{
    // Load into v2 and retire without reading it: a dead load. The
    // baseline fetches it; LazyCore eliminates it at retirement.
    for (ExecMode mode : {ExecMode::Baseline, ExecMode::LazyCore}) {
        GlobalMemory mem;
        Addr buf = mem.alloc(4096);
        KernelBuilder kb("dead_load");
        kb.threadId(0);
        kb.valu(Opcode::VShlU32, 1, Src::vreg(0), Src::imm(2));
        kb.load(Opcode::LoadDword, 2, 1, buf);
        Kernel k = kb.build(1);

        Gpu gpu(oneCu(mode), mem);
        gpu.run(k);
        if (mode == ExecMode::Baseline) {
            EXPECT_EQ(8u, ctr(gpu, "txs_issued"));
        } else {
            EXPECT_EQ(0u, ctr(gpu, "txs_issued"));
            EXPECT_EQ(8u, ctr(gpu, "txs_elim_dead"));
        }
    }
}

TEST(LazyMechanics, OverwrittenPendingLoadIsEliminated)
{
    GlobalMemory mem;
    Addr buf = mem.alloc(4096);
    KernelBuilder kb("overwrite");
    kb.threadId(0);
    kb.valu(Opcode::VShlU32, 1, Src::vreg(0), Src::imm(2));
    kb.load(Opcode::LoadDword, 2, 1, buf);
    kb.valu(Opcode::VMov, 2, Src::immF(1.0f)); // overwrite before use
    kb.valu(Opcode::VAddF32, 3, Src::vreg(2), Src::immF(1.0f));
    kb.store(Opcode::StoreDword, 1, 3, buf + 2048);
    Kernel k = kb.build(1);

    Gpu gpu(oneCu(ExecMode::LazyCore), mem);
    gpu.run(k);
    EXPECT_EQ(0u, ctr(gpu, "txs_issued"));
    EXPECT_EQ(8u, ctr(gpu, "txs_elim_dead"));
    // The overwrite's value flows through correctly.
    EXPECT_FLOAT_EQ(2.0f, mem.readF32(buf + 2048));
}

TEST(LazyMechanics, ZeroCacheEliminatesAllZeroLoads)
{
    // Buffer contents are entirely zero: optimization (1) must remove
    // every data transaction and still produce correct (zero) results.
    GlobalMemory mem;
    Addr in = mem.alloc(4096);
    Addr out = mem.alloc(4096);
    // Touch the buffer so it exists but stays zero.
    mem.writeU32(in, 0);

    KernelBuilder kb("all_zero");
    kb.threadId(0);
    kb.valu(Opcode::VShlU32, 1, Src::vreg(0), Src::imm(2));
    kb.load(Opcode::LoadDword, 2, 1, in);
    kb.valu(Opcode::VAddF32, 3, Src::vreg(2), Src::immF(5.0f));
    kb.store(Opcode::StoreDword, 1, 3, out);
    Kernel k = kb.build(1);

    Gpu gpu(oneCu(ExecMode::LazyZC), mem);
    gpu.run(k);
    EXPECT_EQ(0u, ctr(gpu, "txs_issued"));
    EXPECT_EQ(8u, ctr(gpu, "txs_elim_zero"));
    EXPECT_EQ(64u, ctr(gpu, "lanes_zeroed"));
    EXPECT_GT(ctr(gpu, "mask_reads"), 0u);
    for (unsigned i = 0; i < wavefrontSize; ++i)
        EXPECT_FLOAT_EQ(5.0f, mem.readF32(out + 4ull * i));
}

TEST(LazyMechanics, PartialZeroLanesAreZeroedButTxStillIssues)
{
    // Half the words in each transaction are non-zero: the transaction
    // must be fetched, but zero lanes are materialised from the mask.
    GlobalMemory mem;
    Addr in = mem.alloc(4096);
    Addr out = mem.alloc(4096);
    for (unsigned i = 0; i < wavefrontSize; ++i)
        mem.writeF32(in + 4ull * i, i % 2 ? 3.0f : 0.0f);

    KernelBuilder kb("half_zero");
    kb.threadId(0);
    kb.valu(Opcode::VShlU32, 1, Src::vreg(0), Src::imm(2));
    kb.load(Opcode::LoadDword, 2, 1, in);
    kb.valu(Opcode::VAddF32, 3, Src::vreg(2), Src::immF(1.0f));
    kb.store(Opcode::StoreDword, 1, 3, out);
    Kernel k = kb.build(1);

    Gpu gpu(oneCu(ExecMode::LazyZC), mem);
    gpu.run(k);
    EXPECT_EQ(8u, ctr(gpu, "txs_issued"));
    EXPECT_EQ(0u, ctr(gpu, "txs_elim_zero"));
    EXPECT_EQ(32u, ctr(gpu, "lanes_zeroed"));
    for (unsigned i = 0; i < wavefrontSize; ++i) {
        EXPECT_FLOAT_EQ(i % 2 ? 4.0f : 1.0f,
                        mem.readF32(out + 4ull * i));
    }
}

TEST(LazyMechanics, OtimesSuspendsLoadsWithZeroCounterpart)
{
    // v2 holds zero (an immediate), v3 is a pending load multiplied by
    // v2: the load is dead under optimization (2) and must never issue.
    GlobalMemory mem;
    Addr in = mem.alloc(4096);
    Addr out = mem.alloc(4096);
    for (unsigned i = 0; i < wavefrontSize; ++i)
        mem.writeF32(in + 4ull * i, 7.0f); // decidedly non-zero data

    KernelBuilder kb("otimes_dead");
    kb.threadId(0);
    kb.valu(Opcode::VShlU32, 1, Src::vreg(0), Src::imm(2));
    kb.valu(Opcode::VMov, 2, Src::immF(0.0f));
    kb.load(Opcode::LoadDword, 3, 1, in);
    kb.valu(Opcode::VMulF32, 4, Src::vreg(2), Src::vreg(3));
    kb.store(Opcode::StoreDword, 1, 4, out);
    Kernel k = kb.build(1);

    Gpu gpu(oneCu(ExecMode::LazyGPU), mem);
    gpu.run(k);
    EXPECT_EQ(0u, ctr(gpu, "txs_issued"));
    EXPECT_EQ(8u, ctr(gpu, "txs_elim_otimes"));
    EXPECT_EQ(64u, ctr(gpu, "lanes_suspended"));
    for (unsigned i = 0; i < wavefrontSize; ++i)
        EXPECT_FLOAT_EQ(0.0f, mem.readF32(out + 4ull * i));
}

TEST(LazyMechanics, SuspendedLoadRequalifiesWhenValueIsNeeded)
{
    // The mul suspends the load, but a later add genuinely reads it:
    // the request must be issued after all, with the correct value.
    GlobalMemory mem;
    Addr in = mem.alloc(4096);
    Addr out = mem.alloc(4096);
    for (unsigned i = 0; i < wavefrontSize; ++i)
        mem.writeF32(in + 4ull * i, 2.5f);

    KernelBuilder kb("requalify");
    kb.threadId(0);
    kb.valu(Opcode::VShlU32, 1, Src::vreg(0), Src::imm(2));
    kb.valu(Opcode::VMov, 2, Src::immF(0.0f));
    kb.load(Opcode::LoadDword, 3, 1, in);
    kb.valu(Opcode::VMulF32, 4, Src::vreg(2), Src::vreg(3)); // suspend
    kb.valu(Opcode::VAddF32, 5, Src::vreg(3), Src::immF(1.0f)); // need!
    kb.store(Opcode::StoreDword, 1, 5, out);
    Kernel k = kb.build(1);

    Gpu gpu(oneCu(ExecMode::LazyGPU), mem);
    gpu.run(k);
    EXPECT_EQ(8u, ctr(gpu, "txs_issued"));
    EXPECT_EQ(0u, ctr(gpu, "txs_elim_otimes"));
    for (unsigned i = 0; i < wavefrontSize; ++i)
        EXPECT_FLOAT_EQ(3.5f, mem.readF32(out + 4ull * i));
}

TEST(LazyMechanics, MacUsesMaskZeroedCounterpartToKillWeightLoads)
{
    // The Fig 8 flow end to end: activations (a) are all zero and come
    // from memory; weights (w) are non-zero. The mask zeroes a's
    // registers, then mac a*w suspends and ultimately eliminates the
    // weight fetch.
    GlobalMemory mem;
    Addr a = mem.alloc(4096);
    Addr w = mem.alloc(4096);
    Addr out = mem.alloc(4096);
    mem.writeU32(a, 0); // materialise, all zero
    for (unsigned i = 0; i < wavefrontSize; ++i)
        mem.writeF32(w + 4ull * i, 4.0f);

    KernelBuilder kb("fig8");
    kb.threadId(0);
    kb.valu(Opcode::VShlU32, 1, Src::vreg(0), Src::imm(2));
    kb.load(Opcode::LoadDword, 2, 1, a);
    kb.load(Opcode::LoadDword, 3, 1, w);
    kb.valu(Opcode::VMov, 4, Src::immF(9.0f));
    kb.mac(4, Src::vreg(2), Src::vreg(3));
    kb.store(Opcode::StoreDword, 1, 4, out);
    Kernel k = kb.build(1);

    Gpu gpu(oneCu(ExecMode::LazyGPU), mem);
    gpu.run(k);
    // a's 8 transactions eliminated by (1); w's by (2).
    EXPECT_EQ(8u, ctr(gpu, "txs_elim_zero"));
    EXPECT_EQ(8u, ctr(gpu, "txs_elim_otimes"));
    EXPECT_EQ(0u, ctr(gpu, "txs_issued"));
    for (unsigned i = 0; i < wavefrontSize; ++i)
        EXPECT_FLOAT_EQ(9.0f, mem.readF32(out + 4ull * i));
}

TEST(LazyMechanics, MixedUpperBitsFallBackToEagerIssue)
{
    // Lane 0 reads near address 0, lane 1 reads 2^29 bytes away: the
    // in-register encoding cannot hold both, so the load must be
    // issued promptly without lazy execution (Sec 4.1).
    GlobalMemory mem;
    Addr lo = mem.alloc(4096);
    KernelBuilder kb("split_upper");
    kb.threadId(0);
    kb.valu(Opcode::VShlU32, 1, Src::vreg(0), Src::imm(2));
    // offset += lane0 ? 0 : 2^30 (register offsets are 32-bit).
    kb.valu(Opcode::VCmpEqU32, 2, Src::vreg(0), Src::imm(0));
    kb.valu(Opcode::VShlU32, 2, Src::vreg(2), Src::imm(30));
    kb.valu(Opcode::VAddU32, 1, Src::vreg(1), Src::vreg(2));
    kb.load(Opcode::LoadDword, 3, 1, lo);
    kb.valu(Opcode::VAddF32, 4, Src::vreg(3), Src::immF(1.0f));
    kb.store(Opcode::StoreDword, 1, 4, lo + 2048);
    Kernel k = kb.build(1);

    Gpu gpu(oneCu(ExecMode::LazyGPU), mem);
    gpu.run(k);
    EXPECT_GT(ctr(gpu, "txs_eager_fallback"), 0u);
}

TEST(LazyMechanics, AllZeroStoresOnlyTouchTheZeroCache)
{
    GlobalMemory mem;
    Addr out = mem.alloc(4096);
    KernelBuilder kb("zero_store");
    kb.threadId(0);
    kb.valu(Opcode::VShlU32, 1, Src::vreg(0), Src::imm(2));
    kb.valu(Opcode::VMov, 2, Src::immF(0.0f));
    kb.store(Opcode::StoreDword, 1, 2, out);
    Kernel k = kb.build(1);

    Gpu gpu(oneCu(ExecMode::LazyGPU), mem);
    gpu.run(k);
    EXPECT_EQ(0u, ctr(gpu, "store_txs"));
    EXPECT_EQ(8u, ctr(gpu, "store_txs_zero_skipped"));
    EXPECT_GT(ctr(gpu, "mask_writes"), 0u);
}

TEST(LazyMechanics, NonZeroStoresWriteBothPaths)
{
    GlobalMemory mem;
    Addr out = mem.alloc(4096);
    KernelBuilder kb("store");
    kb.threadId(0);
    kb.valu(Opcode::VShlU32, 1, Src::vreg(0), Src::imm(2));
    kb.valu(Opcode::VMov, 2, Src::immF(1.0f));
    kb.store(Opcode::StoreDword, 1, 2, out);
    Kernel k = kb.build(1);

    Gpu gpu(oneCu(ExecMode::LazyGPU), mem);
    gpu.run(k);
    EXPECT_EQ(8u, ctr(gpu, "store_txs"));
    EXPECT_EQ(0u, ctr(gpu, "store_txs_zero_skipped"));
    EXPECT_GT(ctr(gpu, "mask_writes"), 0u);
}

TEST(LazyMechanics, BaselineIssuesEverythingAtExecute)
{
    GlobalMemory mem;
    Addr in = mem.alloc(4096);
    mem.writeU32(in, 0);
    KernelBuilder kb("base");
    kb.threadId(0);
    kb.valu(Opcode::VShlU32, 1, Src::vreg(0), Src::imm(2));
    kb.load(Opcode::LoadDword, 2, 1, in);
    kb.valu(Opcode::VMulF32, 3, Src::vreg(2), Src::immF(0.0f));
    kb.store(Opcode::StoreDword, 1, 3, in + 2048);
    Kernel k = kb.build(1);

    Gpu gpu(oneCu(ExecMode::Baseline), mem);
    gpu.run(k);
    EXPECT_EQ(8u, ctr(gpu, "txs_issued"));
    EXPECT_EQ(0u, ctr(gpu, "txs_elim_zero") +
                      ctr(gpu, "txs_elim_otimes") +
                      ctr(gpu, "txs_elim_dead"));
}

TEST(LazyMechanics, MultiRegisterLoadsTrackPerRegisterBusyBits)
{
    // An x4 load whose registers are consumed one by one; each use must
    // see correct data (per-register busy bits, Sec 4.1).
    GlobalMemory mem;
    Addr in = mem.alloc(8192);
    Addr out = mem.alloc(8192);
    for (unsigned i = 0; i < wavefrontSize * 4; ++i)
        mem.writeF32(in + 4ull * i, static_cast<float>(i));

    KernelBuilder kb("x4");
    kb.threadId(0);
    kb.valu(Opcode::VShlU32, 1, Src::vreg(0), Src::imm(4)); // 16 B/lane
    kb.load(Opcode::LoadDwordX4, 4, 1, in);
    kb.valu(Opcode::VMov, 8, Src::immF(0.0f));
    for (unsigned r = 0; r < 4; ++r)
        kb.valu(Opcode::VAddF32, 8, Src::vreg(8), Src::vreg(4 + r));
    kb.valu(Opcode::VShlU32, 2, Src::vreg(0), Src::imm(2));
    kb.store(Opcode::StoreDword, 2, 8, out);
    Kernel k = kb.build(1);

    for (ExecMode mode : {ExecMode::Baseline, ExecMode::LazyGPU}) {
        GlobalMemory m2 = mem; // fresh copy of the functional image
        Gpu gpu(oneCu(mode), m2);
        gpu.run(k);
        for (unsigned lane = 0; lane < wavefrontSize; ++lane) {
            float expect = static_cast<float>(4 * lane) +
                           (4 * lane + 1) + (4 * lane + 2) +
                           (4 * lane + 3);
            EXPECT_FLOAT_EQ(expect, m2.readF32(out + 4ull * lane))
                << toString(mode) << " lane " << lane;
        }
    }
}

/**
 * Fig 14 classes of an x4 load whose first register is overwritten
 * while its zero mask is outstanding. Register 0 of each lane holds
 * 1 + lane, registers 1-3 hold zero, so the mask zeroes six of each
 * transaction's eight words. The consumer of v5 is optional.
 */
Kernel
partialOverwriteKernel(Addr in, Addr out, bool consume)
{
    KernelBuilder kb("partial_overwrite");
    kb.threadId(0);
    kb.valu(Opcode::VShlU32, 1, Src::vreg(0), Src::imm(4)); // 16 B/lane
    kb.load(Opcode::LoadDwordX4, 4, 1, in);
    kb.valu(Opcode::VMov, 4, Src::immF(1.0f));
    if (consume) {
        kb.valu(Opcode::VAddF32, 8, Src::vreg(5), Src::immF(1.0f));
        kb.valu(Opcode::VShlU32, 2, Src::vreg(0), Src::imm(2));
        kb.store(Opcode::StoreDword, 2, 8, out);
    }
    return kb.build(1);
}

struct Fig14Counts
{
    std::uint64_t zero, dead, zeroed, issued;
};

Fig14Counts
runPartialOverwrite(ExecMode mode, bool rabbit, bool consume)
{
    GlobalMemory mem;
    Addr in = mem.alloc(4096);
    Addr out = mem.alloc(4096);
    for (unsigned lane = 0; lane < wavefrontSize; ++lane)
        mem.writeU32(in + 16ull * lane, 1 + lane);
    GpuConfig cfg = oneCu(mode);
    cfg.timingWaves = rabbit ? 0 : GpuConfig::timingWavesAll;
    Gpu gpu(cfg, mem);
    gpu.run(partialOverwriteKernel(in, out, consume));
    return {ctr(gpu, "txs_elim_zero"), ctr(gpu, "txs_elim_dead"),
            ctr(gpu, "lanes_zeroed"), ctr(gpu, "txs_issued")};
}

TEST(LazyMechanics, PartialOverwriteKeepsFig14Classes)
{
    // Timed, the overwrite drops v4's words from each transaction
    // before the mask arrives, so the six zeroed words are all its
    // words: the zero class. The rabbit applies the mask at record
    // time, before the overwrite, so 6 of 8 words are zero and the
    // overwrite leaves the dead class (the known timed / rabbit Fig 14
    // split, pinned so that changing it is a deliberate choice).
    for (ExecMode mode : {ExecMode::LazyZC, ExecMode::LazyGPU}) {
        SCOPED_TRACE(toString(mode));
        const Fig14Counts timed = runPartialOverwrite(mode, false, true);
        EXPECT_EQ(32u, timed.zero);
        EXPECT_EQ(0u, timed.dead);
        EXPECT_EQ(192u, timed.zeroed);
        const Fig14Counts rabbit = runPartialOverwrite(mode, true, true);
        EXPECT_EQ(0u, rabbit.zero);
        EXPECT_EQ(32u, rabbit.dead);
        EXPECT_EQ(192u, rabbit.zeroed);

        // Retired unread: the timed mask never lands, the rabbit's did.
        const Fig14Counts timed_dead =
            runPartialOverwrite(mode, false, false);
        EXPECT_EQ(32u, timed_dead.dead);
        EXPECT_EQ(0u, timed_dead.zeroed);
        const Fig14Counts rabbit_dead =
            runPartialOverwrite(mode, true, false);
        EXPECT_EQ(32u, rabbit_dead.dead);
        EXPECT_EQ(192u, rabbit_dead.zeroed);
    }
    for (bool rabbit : {false, true}) {
        EXPECT_EQ(32u,
                  runPartialOverwrite(ExecMode::LazyCore, rabbit, true)
                      .issued)
            << (rabbit ? "rabbit" : "timed");
    }
}

/** Counters of one run of a hand-written kernel, timed or in the rabbit. */
struct TxCounts
{
    std::uint64_t issued, zero, otimes, dead, zeroed;
};

TxCounts
runCounting(ExecMode mode, bool rabbit, GlobalMemory &mem, const Kernel &k)
{
    GpuConfig cfg = oneCu(mode);
    cfg.timingWaves = rabbit ? 0 : GpuConfig::timingWavesAll;
    Gpu gpu(cfg, mem);
    gpu.run(k);
    return {ctr(gpu, "txs_issued"), ctr(gpu, "txs_elim_zero"),
            ctr(gpu, "txs_elim_otimes"), ctr(gpu, "txs_elim_dead"),
            ctr(gpu, "lanes_zeroed")};
}

/**
 * The decode window's length and branch rule. The first stall, at pc 4,
 * looks ahead over pc 4..15. pc 5 overwrites v3 before its only reader
 * at pc `reader`, which the window cannot see: a reader inside the
 * window issues v3's load anyway, one outside leaves it to die at the
 * overwrite, and a branch at pc 5 (to the next instruction) ends the
 * window before the reader.
 */
TxCounts
runDecodeWindow(ExecMode mode, bool rabbit, unsigned reader, bool branch)
{
    GlobalMemory mem;
    Addr a = mem.alloc(4096);
    Addr b = mem.alloc(4096);
    Addr out = mem.alloc(4096);
    for (unsigned i = 0; i < wavefrontSize; ++i) {
        mem.writeF32(a + 4ull * i, 5.0f);
        mem.writeF32(b + 4ull * i, 7.0f);
    }
    KernelBuilder kb("decode_window");
    kb.threadId(0);
    kb.valu(Opcode::VShlU32, 1, Src::vreg(0), Src::imm(2));
    kb.load(Opcode::LoadDword, 2, 1, a);
    kb.load(Opcode::LoadDword, 3, 1, b);
    kb.valu(Opcode::VAddF32, 4, Src::vreg(2), Src::immF(1.0f)); // pc 4
    unsigned pc = 5;
    if (branch) {
        const int next = kb.label();
        kb.branch(next);
        kb.place(next);
        ++pc;
    }
    kb.valu(Opcode::VMov, 3, Src::immF(2.0f));
    for (++pc; pc < reader; ++pc)
        kb.valu(Opcode::VMov, 6, Src::immF(0.5f));
    kb.valu(Opcode::VAddF32, 5, Src::vreg(3), Src::immF(1.0f));
    kb.store(Opcode::StoreDword, 1, 5, out);
    kb.store(Opcode::StoreDword, 1, 4, out + 2048);
    const Kernel k = kb.build(1);
    EXPECT_EQ(Opcode::VAddF32, k.code[reader].op);

    const TxCounts c = runCounting(mode, rabbit, mem, k);
    for (unsigned i = 0; i < wavefrontSize; ++i)
        EXPECT_FLOAT_EQ(3.0f, mem.readF32(out + 4ull * i)) << "lane " << i;
    return c;
}

TEST(LazyMechanics, DecodeWindowSpansTwelveInstructionsAndStopsAtBranches)
{
    for (ExecMode mode :
         {ExecMode::LazyCore, ExecMode::LazyZC, ExecMode::LazyGPU}) {
        for (bool rabbit : {false, true}) {
            SCOPED_TRACE(toString(mode) + (rabbit ? " rabbit" : " timed"));
            const TxCounts inside = runDecodeWindow(mode, rabbit, 15, false);
            EXPECT_EQ(16u, inside.issued);
            EXPECT_EQ(0u, inside.dead);
            const TxCounts beyond = runDecodeWindow(mode, rabbit, 16, false);
            EXPECT_EQ(8u, beyond.issued);
            EXPECT_EQ(8u, beyond.dead);
            const TxCounts branch = runDecodeWindow(mode, rabbit, 15, true);
            EXPECT_EQ(8u, branch.issued);
            EXPECT_EQ(8u, branch.dead);
        }
    }
}

TEST(LazyMechanics, RetireEliminatesParkedRegistersInAscendingOrder)
{
    // Two x4 loads, the second over v6..v9, so the first keeps v4 and
    // v5; both are still parked at retire. Word 0 of each lane of `in`
    // and word 2 of `in2` are nonzero: the rabbit's masks zero the other
    // 192 words of each load. Retiring v6 and v7 first drops their
    // zeroed words from the second load's transactions, so v8 settles
    // them as dead; retiring v9 first would leave them all zero words,
    // and the zero class.
    for (ExecMode mode :
         {ExecMode::LazyCore, ExecMode::LazyZC, ExecMode::LazyGPU}) {
        for (bool rabbit : {false, true}) {
            SCOPED_TRACE(toString(mode) + (rabbit ? " rabbit" : " timed"));
            GlobalMemory mem;
            Addr in = mem.alloc(4096);
            Addr in2 = mem.alloc(4096);
            for (unsigned lane = 0; lane < wavefrontSize; ++lane) {
                mem.writeU32(in + 16ull * lane, 1 + lane);
                mem.writeU32(in2 + 16ull * lane + 8, 7 + lane);
            }
            KernelBuilder kb("retire_walk");
            kb.threadId(0);
            kb.valu(Opcode::VShlU32, 1, Src::vreg(0), Src::imm(4));
            kb.load(Opcode::LoadDwordX4, 4, 1, in);
            kb.load(Opcode::LoadDwordX4, 6, 1, in2);
            const TxCounts c = runCounting(mode, rabbit, mem, kb.build(1));
            EXPECT_EQ(0u, c.issued);
            EXPECT_EQ(0u, c.zero);
            EXPECT_EQ(0u, c.otimes);
            EXPECT_EQ(64u, c.dead);
            const bool masked = rabbit && mode != ExecMode::LazyCore;
            EXPECT_EQ(masked ? 384u : 0u, c.zeroed);
        }
    }
}

} // namespace
} // namespace lazygpu
