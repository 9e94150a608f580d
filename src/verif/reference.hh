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
 * mutating mem (pass a copy of the launch image). VALU instructions run
 * as one dense 64-lane loop per opcode over contiguous register planes
 * (isa::evalValuPlane), and unit-stride loads/stores are batched
 * through the pageForSpan fast path.
 *
 * @param max_insts_per_wave livelock guard; exceeded -> error set.
 */
RefResult runReference(const Kernel &kernel, GlobalMemory &mem,
                       std::uint64_t max_insts_per_wave = 4'000'000);

/**
 * The per-lane specification of runReference: one lane at a time
 * through isa::evalValu / loadRegWord / writeU32, independent of the
 * plane core and the batched memory paths. The SimdEquiv tests compare
 * runReference against it; the simulator never calls it.
 */
RefResult runReferenceScalar(const Kernel &kernel, GlobalMemory &mem,
                             std::uint64_t max_insts_per_wave = 4'000'000);

} // namespace verif
} // namespace lazygpu

#endif // LAZYGPU_VERIF_REFERENCE_HH
