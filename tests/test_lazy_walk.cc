/**
 * @file
 * The Lazy Unit's per-transaction mask steps against a per-word walk.
 *
 * recordLoad, zeroPendingWords, busyWordsZero and fillBusyWords work on
 * whole 32 B transactions: one block or zero-mask byte per transaction,
 * each lane's word found by slot arithmetic on the lane masks. This
 * file writes the same steps out word by word -- lane by lane,
 * registers in order within a lane, through isa::loadRegWord and
 * GlobalMemory::isZeroWord -- and requires identical transactions,
 * values, zero bitmaps and Fig 14 tallies for every load opcode over
 * lane-address patterns the simulated workloads barely reach: multi-
 * register loads whose words span two transactions, sub-word loads at
 * every offset, shuffled and untouched addresses.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "gpu/coalescer.hh"
#include "gpu/wavefront.hh"
#include "isa/encoding.hh"
#include "isa/eval.hh"
#include "isa/kernel.hh"
#include "mem/memory.hh"

namespace lazygpu
{
namespace
{

using LaneOffsets = std::array<std::uint32_t, wavefrontSize>;

/** One load's transactions, built word by word in first-touch order. */
struct RefTx
{
    Addr addr = 0;
    std::array<LaneMask, maxLoadRegs> lanes{};
    unsigned words = 0;
};

std::vector<RefTx>
referenceTxs(const std::array<Addr, wavefrontSize> &lane_addr,
             unsigned nregs)
{
    std::vector<RefTx> txs;
    for (unsigned lane = 0; lane < wavefrontSize; ++lane) {
        for (unsigned r = 0; r < nregs; ++r) {
            const Addr ta = txAlign(lane_addr[lane] + 4ull * r);
            auto it = std::find_if(txs.begin(), txs.end(),
                                   [ta](const RefTx &t) {
                                       return t.addr == ta;
                                   });
            if (it == txs.end())
                it = txs.insert(txs.end(), RefTx{ta});
            it->lanes[r] |= LaneMask(1) << lane;
            ++it->words;
        }
    }
    return txs;
}

/**
 * Record op over base + offsets, optionally zero-probe it, then issue
 * and fill what is left, checking every step against the word walk.
 */
void
checkWalk(const GlobalMemory &mem, Opcode op, Addr base,
          const LaneOffsets &offsets, bool probe)
{
    constexpr unsigned firstDst = 4;
    const unsigned nregs = loadDstRegs(op);
    KernelBuilder kb("walk");
    kb.load(op, firstDst, 1, base);
    const Kernel k = kb.build(1);
    Wavefront wave(k, 0);
    std::array<Addr, wavefrontSize> lane_addr{};
    for (unsigned lane = 0; lane < wavefrontSize; ++lane) {
        wave.setVreg(1, lane, offsets[lane]);
        lane_addr[lane] = base + offsets[lane];
    }

    PendingLoad &pl = recordLoad(wave, k.code[0], 0);
    EXPECT_EQ(lane_addr, pl.laneAddr);
    bool shared_upper = true;
    for (Addr a : lane_addr)
        shared_upper &= upperBits(a) == upperBits(lane_addr[0]);
    EXPECT_EQ(shared_upper, encodable(pl));

    const std::vector<RefTx> ref = referenceTxs(lane_addr, nregs);
    ASSERT_EQ(ref.size(), pl.txs.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
        SCOPED_TRACE("transaction " + std::to_string(i));
        EXPECT_EQ(ref[i].addr, pl.txs[i].addr);
        for (unsigned r = 0; r < maxLoadRegs; ++r)
            EXPECT_EQ(ref[i].lanes[r], pl.txs[i].lanes[r]) << "reg " << r;
        EXPECT_EQ(ref[i].words, pl.txs[i].words);
        EXPECT_EQ(ref[i].words, pl.txs[i].unresolved);
    }
    EXPECT_EQ(nregs * wavefrontSize, pl.wordsLeft);

    // The zero probe resolves exactly the words isZeroWord calls zero,
    // and eliminates the transactions it leaves with nothing to fetch.
    const auto probedZero = [&](unsigned r, unsigned lane) {
        return probe && mem.isZeroWord(pl.wordAddr(r, lane));
    };
    ElimTally tally;
    const unsigned zeroed =
        probe ? zeroPendingWords(wave, pl, 0, ~Addr(0), mem, nullptr, 0,
                                 tally)
              : 0;
    unsigned want_zeroed = 0, want_elim = 0;
    for (std::size_t i = 0; i < ref.size(); ++i) {
        unsigned z = 0;
        for (unsigned r = 0; r < nregs; ++r) {
            for (unsigned lane = 0; lane < wavefrontSize; ++lane) {
                if ((ref[i].lanes[r] >> lane) & 1)
                    z += probedZero(r, lane);
            }
        }
        want_zeroed += z;
        want_elim += z == ref[i].words;
        EXPECT_EQ(z, pl.txs[i].zeroedWords) << "transaction " << i;
        EXPECT_EQ(z == ref[i].words ? TxOutcome::EliminatedZero
                                    : TxOutcome::Unissued,
                  pl.txs[i].outcome)
            << "transaction " << i;
    }
    EXPECT_EQ(want_zeroed, zeroed);
    EXPECT_EQ(want_elim, tally.zero);
    EXPECT_EQ(0u, tally.otimes);
    EXPECT_EQ(0u, tally.dead);
    for (unsigned r = 0; r < nregs; ++r) {
        for (unsigned lane = 0; lane < wavefrontSize; ++lane) {
            EXPECT_EQ(probedZero(r, lane) ? RegState::Ready
                                          : RegState::Pending,
                      wave.regState(firstDst + r, lane))
                << "reg " << r << " lane " << lane;
        }
    }

    // EagerZC's probe, then the data responses.
    for (PendingLoad::Tx &tx : pl.txs) {
        if (tx.outcome != TxOutcome::Unissued)
            continue;
        bool all_zero = true;
        bool pending = false;
        for (unsigned r = 0; r < nregs; ++r) {
            for (unsigned lane = 0; lane < wavefrontSize; ++lane) {
                if ((tx.lanes[r] >> lane) & 1 &&
                    wave.regState(firstDst + r, lane) != RegState::Ready) {
                    pending = true;
                    all_zero &= mem.isZeroWord(pl.wordAddr(r, lane));
                }
            }
        }
        EXPECT_EQ(pending, hasPendingWord(wave, pl, tx));
        EXPECT_EQ(all_zero, busyWordsZero(mem, wave, pl, tx));
        markIssued(wave, pl, tx);
        fillBusyWords(wave, pl, tx, mem, nullptr, 0);
    }
    EXPECT_EQ(0u, pl.wordsLeft);
    for (unsigned r = 0; r < nregs; ++r) {
        for (unsigned lane = 0; lane < wavefrontSize; ++lane) {
            const std::uint32_t want =
                probedZero(r, lane)
                    ? 0
                    : isa::loadRegWord(mem, op, lane_addr[lane], r);
            EXPECT_EQ(want, wave.vreg(firstDst + r, lane))
                << "reg " << r << " lane " << lane;
            EXPECT_EQ(LaneMask(want == 0),
                      (wave.zeroMask(firstDst + r) >> lane) & 1)
                << "reg " << r << " lane " << lane;
            EXPECT_EQ(RegState::Ready, wave.regState(firstDst + r, lane));
        }
    }
}

/** lane -> start + lane * stride. */
LaneOffsets
strided(std::uint32_t start, std::uint32_t stride)
{
    LaneOffsets o{};
    for (unsigned lane = 0; lane < wavefrontSize; ++lane)
        o[lane] = start + lane * stride;
    return o;
}

struct WalkCase
{
    std::string name;
    Addr base;
    LaneOffsets offsets;
};

TEST(LazyWalk, TransactionStepsMatchTheWordWalk)
{
    // 8 KiB of data with about half of its words zero; the nonzero ones
    // sometimes have a zero low half, so narrow loads read zero from
    // nonzero words too.
    GlobalMemory mem;
    const Addr data = mem.alloc(8192, 4096);
    const Addr untouched = mem.alloc(4096, 4096);
    std::mt19937 rng(2025);
    for (Addr a = data; a < data + 8192; a += 4) {
        std::uint32_t v = rng();
        if (rng() & 1)
            v = 0;
        else if (rng() % 4 == 0)
            v &= 0xffff0000u;
        mem.writeU32(a, v);
    }

    for (Opcode op : {Opcode::LoadByte, Opcode::LoadShort,
                      Opcode::LoadDword, Opcode::LoadDwordX2,
                      Opcode::LoadDwordX4}) {
        const unsigned width = loadBytes(op);
        std::vector<WalkCase> cases = {
            {"all lanes equal", data + 64, strided(0, 0)},
            {"unit stride", data, strided(0, width)},
            {"32 B stride", data, strided(0, 32)},
            {"36 B stride", data, strided(0, 36)},
            {"untouched page", untouched, strided(0, width)},
        };
        // The 64 16 B slots of 1 KiB in a seeded order, each lane at a
        // random naturally aligned position inside its slot.
        const unsigned align = std::min(width, 4u);
        LaneOffsets shuffled = strided(0, 16);
        std::shuffle(shuffled.begin(), shuffled.end(), rng);
        for (std::uint32_t &o : shuffled)
            o += rng() % ((16 - width) / align + 1) * align;
        cases.push_back({"shuffle within 1 KiB", data, shuffled});
        LaneOffsets far = strided(0, width);
        far[63] += 1u << 29; // another upper-address region
        cases.push_back({"mixed upper bits", data, far});
        if (op == Opcode::LoadDwordX2)
            cases.push_back({"x2 at offset 28", data, strided(28, 8)});
        if (op == Opcode::LoadDwordX4) {
            cases.push_back({"x4 at offset 8", data, strided(8, 16)});
            cases.push_back({"x4 at offset 24", data, strided(24, 16)});
        }
        if (width <= 2) {
            for (std::uint32_t off = 0; off + width <= transactionSize;
                 ++off) {
                cases.push_back({"offset " + std::to_string(off), data,
                                 strided(off, 32)});
            }
        }
        for (const WalkCase &c : cases) {
            for (bool probe : {false, true}) {
                SCOPED_TRACE(opcodeName(op) + ", " + c.name +
                             (probe ? ", zero-probed" : ", filled"));
                checkWalk(mem, op, c.base, c.offsets, probe);
            }
        }
    }
}

} // namespace
} // namespace lazygpu
