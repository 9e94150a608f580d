/**
 * @file
 * Architectural invariant checkers for the lazy-execution machinery.
 *
 * These walk a wavefront's scoreboard and PendingLoad metadata (and the
 * functional zero masks) and panic() on any internal inconsistency. They
 * are deliberately O(vregs x lanes) per call -- far too slow for the
 * default build -- so the in-pipeline call sites in compute_unit.cc are
 * compiled only under -DLAZYGPU_CHECK=ON (see the top-level CMake
 * option). The functions themselves are always built, so tests and the
 * differential checker can invoke them from a retire observer at full
 * speed in any build.
 */

#ifndef LAZYGPU_VERIF_INVARIANTS_HH
#define LAZYGPU_VERIF_INVARIANTS_HH

#include "core/exec_mode.hh"
#include "gpu/wavefront.hh"
#include "mem/memory.hh"

namespace lazygpu
{
namespace verif
{

/**
 * Check every scoreboard / Lazy Unit invariant of one wavefront:
 *
 *  - per register, the suspended and in-flight bitmaps are disjoint
 *    subsets of the busy bitmap, and the zero bitmap equals a fresh
 *    recount of zero-valued lanes;
 *  - every register with busy lanes is owned by some pending load, and
 *    only its owner's transactions hold its busy words;
 *  - per pending load, wordsLeft equals the sum of its transactions'
 *    unresolved counts, and each transaction's unresolved count equals
 *    its number of busy destination words;
 *  - InFlight words live in Issued transactions, Pending/Suspended
 *    words in Unissued ones;
 *  - Suspended states appear only when optimization (2) is active, and
 *    only in transactions flagged hadSuspended;
 *  - the wavefront's outstanding-transaction count covers the sum of
 *    its pending loads' in-flight transactions.
 *
 * Panics with a precise description on the first violation.
 */
void checkWavefront(const Wavefront &wave, ExecMode mode);

/**
 * Check that the zero-mask byte of the 32 B block containing tx_addr
 * agrees bit-for-bit with the block's data words (mask bit i set iff
 * word i is zero). Called after stores: the write path must keep the
 * Zero Cache view coherent with the data (Fig 7).
 */
void checkMaskCoherence(const GlobalMemory &mem, Addr tx_addr);

} // namespace verif
} // namespace lazygpu

#endif // LAZYGPU_VERIF_INVARIANTS_HH
