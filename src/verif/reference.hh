/**
 * @file
 * Functional reference executor: runs a Kernel untimed, straight from
 * the ISA semantics.
 *
 * The executor is the oracle of the differential checker: it is
 * deliberately independent of the timed pipeline (no scoreboard, no lazy
 * issue, no elimination, no event engine), executing each wavefront to
 * completion in wid order. For race-free kernels -- no two wavefronts
 * touching the same address with at least one store, the discipline every
 * shipped workload and every generated fuzz kernel obeys -- the final
 * global memory and register state are architecturally equal to any
 * timed interleaving.
 */

#ifndef LAZYGPU_VERIF_REFERENCE_HH
#define LAZYGPU_VERIF_REFERENCE_HH

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "isa/kernel.hh"
#include "mem/memory.hh"
#include "sim/types.hh"

namespace lazygpu
{
namespace verif
{

/** Final architectural register state of one wavefront. */
struct RefWaveState
{
    std::vector<std::uint32_t> sregs;
    std::vector<std::array<std::uint32_t, wavefrontSize>> vregs;
};

/** Which instruction last stored to a memory word (divergence reports). */
struct StoreOrigin
{
    unsigned wid = 0;
    unsigned pc = 0;
    std::uint8_t lane = 0;
};

/** Outcome of one reference execution. */
struct RefResult
{
    /** Empty on success; a livelock/ill-formed-kernel description else. */
    std::string error;
    /** Final register state, indexed by wid. */
    std::vector<RefWaveState> waves;
    /** word-aligned address -> last store that wrote it. */
    std::unordered_map<Addr, StoreOrigin> writeLog;
    std::uint64_t instsExecuted = 0;

    bool ok() const { return error.empty(); }
};

/**
 * Execute every wavefront of the kernel to completion, untimed,
 * mutating mem (pass a copy of the launch image). Routes to the
 * vectorized plane executor unless the LAZYGPU_SCALAR_REF environment
 * variable (isa::scalarRefEnabled) selects the scalar oracle; both produce
 * bit-identical RefResults.
 *
 * @param max_insts_per_wave livelock guard; exceeded -> error set.
 */
RefResult runReference(const Kernel &kernel, GlobalMemory &mem,
                       std::uint64_t max_insts_per_wave = 4'000'000);

/**
 * The frozen scalar oracle: one lane at a time through isa::evalValu /
 * loadRegWord / writeU32, deliberately independent of the vectorized
 * plane core so the two paths check each other differentially.
 */
RefResult runReferenceScalar(const Kernel &kernel, GlobalMemory &mem,
                             std::uint64_t max_insts_per_wave = 4'000'000);

/**
 * The vectorized executor: VALU ops as one dense 64-lane loop per
 * opcode over contiguous register planes (isa::evalValuPlane), and
 * unit-stride loads/stores batched through the pageForSpan fast path.
 */
RefResult runReferenceSimd(const Kernel &kernel, GlobalMemory &mem,
                           std::uint64_t max_insts_per_wave = 4'000'000);

} // namespace verif
} // namespace lazygpu

#endif // LAZYGPU_VERIF_REFERENCE_HH
