/**
 * @file
 * Seeded, deterministic hardware fault injection.
 *
 * LazyGPU's correctness-critical sparsity metadata — zero-mask probes,
 * wavefront lane bitmaps, pending-transaction scoreboards — stands in
 * for real data movement, so a single flipped bit silently changes
 * computation. This subsystem models that vulnerability class with
 * structured single-fault models armed at component boundaries:
 *
 *  - MemRespFlip   flip one bit of a data-response word at the
 *                  LSU <-> hierarchy response boundary (models a
 *                  mem/cache or mem/dram response corruption);
 *  - MemRespDrop   swallow a data-response completion (the wavefront
 *                  never drains; the drain invariants fire);
 *  - MemRespDelay  deliver a data response N cycles late (timing-only);
 *  - ZeroMaskFlip  invert one zero-mask probe result inside the Lazy
 *                  Unit's Zero Read Rsp handling (the ZL1 metadata);
 *  - LaneBitmapFlip flip one lane's optimization-(2) suspension bit
 *                  (the per-vreg lane metadata); a mode without
 *                  optimization 2 has no such bit, and nothing happens;
 *  - TxScoreboardFlip corrupt a PendingLoad's words-left scoreboard
 *                  (the retire invariants fire);
 *  - CuStall       freeze the target CU's issue stage for N cycles.
 *
 * One fault per run, described by an InjectionPlan (site x cycle x
 * seed), armed on exactly one target CU. Every hook is reached through
 * a single null-checked pointer (the trace-sink pattern), so a build
 * with injection compiled in but not armed pays one predicted branch
 * per site. Decisions are pure functions of (plan, simulated time,
 * call sequence), so a fixed plan injects identically across --jobs
 * and repeated runs.
 */

#ifndef LAZYGPU_INJECT_FAULT_HH
#define LAZYGPU_INJECT_FAULT_HH

#include <cstdint>
#include <string>

#include "obs/registry.hh"
#include "sim/types.hh"

namespace lazygpu
{

namespace inject
{

enum class FaultSite : std::uint8_t
{
    None = 0,
    MemRespFlip,
    MemRespDrop,
    MemRespDelay,
    ZeroMaskFlip,
    LaneBitmapFlip,
    TxScoreboardFlip,
    CuStall,
};

/** Spec name of the site ("mem-resp-flip", ...). */
const char *toString(FaultSite s);

/** Inverse of toString; false when name is not a site. */
bool faultSiteFromString(const std::string &name, FaultSite &out);

/** Every injectable site, for campaign grids. */
constexpr FaultSite allFaultSites[] = {
    FaultSite::MemRespFlip,    FaultSite::MemRespDrop,
    FaultSite::MemRespDelay,   FaultSite::ZeroMaskFlip,
    FaultSite::LaneBitmapFlip, FaultSite::TxScoreboardFlip,
    FaultSite::CuStall,
};

/**
 * One planned fault. The textual form (parse/toString round-trip) is
 * what --inject-plan takes and what GpuConfig carries:
 *
 *   site=mem-resp-flip,cycle=1000,cu=0,seed=7[,bit=3][,delay=64][,stall=128]
 *
 * The fault arms at the first site opportunity at or after `cycle` on
 * compute unit `cu`, fires exactly once (CuStall fires once for `stall`
 * consecutive cycles), and derives any unpinned choice (which bit to
 * flip, which lane) from `seed`.
 */
struct InjectionPlan
{
    FaultSite site = FaultSite::None;
    Tick cycle = 0;
    unsigned cu = 0;
    std::uint64_t seed = 1;
    /** Bit to flip for MemRespFlip (bitFromSeed when unset). */
    unsigned bit = unsetBit;
    Tick delay = 64;      //!< MemRespDelay extra response cycles
    unsigned stall = 128; //!< CuStall frozen-issue cycles

    static constexpr unsigned unsetBit = ~0u;

    /** The data bit this plan flips (explicit, or seed-derived). */
    unsigned flipBit() const;

    std::string toString() const;

    /**
     * Parse the textual form. Returns false (with a message in err)
     * on an unknown site, unknown key, or malformed number.
     */
    static bool parse(const std::string &spec, InjectionPlan &out,
                      std::string &err);
};

/**
 * The armed runtime fault, owned by the Gpu and handed (as a nullable
 * pointer) to the one compute unit the plan targets. All hooks are
 * one-shot: the first call satisfying the arming condition fires the
 * fault and every later call is inert, so a run experiences exactly
 * one architectural upset.
 */
class Injector
{
  public:
    Injector(const InjectionPlan &plan, StatsRegistry &stats);

    const InjectionPlan &plan() const { return plan_; }
    bool forCu(unsigned cu_id) const { return plan_.cu == cu_id; }
    bool fired() const { return fired_; }
    Tick firedAt() const { return fired_at_; }

    /** MemRespFlip: possibly flip one bit of a resolving load word. */
    std::uint32_t
    filterLoadWord(Tick now, std::uint32_t value)
    {
        if (plan_.site == FaultSite::MemRespFlip && arm(now))
            return value ^ (std::uint32_t(1) << plan_.flipBit());
        return value;
    }

    /** MemRespDrop: true when this data response must be swallowed. */
    bool
    dropResponse(Tick now)
    {
        return plan_.site == FaultSite::MemRespDrop && arm(now);
    }

    /** MemRespDelay: extra cycles to hold this data response. */
    Tick
    extraResponseDelay(Tick now)
    {
        if (plan_.site == FaultSite::MemRespDelay && arm(now))
            return plan_.delay;
        return 0;
    }

    /** ZeroMaskFlip: true when this zero-probe result must invert. */
    bool
    flipZeroProbe(Tick now)
    {
        return plan_.site == FaultSite::ZeroMaskFlip && arm(now);
    }

    /** LaneBitmapFlip: true when the CU must corrupt a lane bitmap. */
    bool
    wantLaneBitmapFlip(Tick now)
    {
        return plan_.site == FaultSite::LaneBitmapFlip && arm(now);
    }

    /** TxScoreboardFlip: true when a pending-load scoreboard corrupts. */
    bool
    wantScoreboardFlip(Tick now)
    {
        return plan_.site == FaultSite::TxScoreboardFlip && arm(now);
    }

    /** CuStall: true while the CU's issue stage is frozen this cycle. */
    bool
    stallThisCycle(Tick now)
    {
        if (plan_.site != FaultSite::CuStall)
            return false;
        if (stall_left_ == 0 && arm(now))
            stall_left_ = plan_.stall;
        if (stall_left_ == 0)
            return false;
        --stall_left_;
        return true;
    }

    /** Seed-derived lane index in [0, 64). */
    unsigned laneFromSeed() const;

  private:
    /** One-shot arming: first call at/after the planned cycle fires. */
    bool
    arm(Tick now)
    {
        if (fired_ || now < plan_.cycle)
            return false;
        fired_ = true;
        fired_at_ = now;
        ++fired_counter_;
        fired_at_counter_.restore(now);
        return true;
    }

    InjectionPlan plan_;
    bool fired_ = false;
    Tick fired_at_ = 0;
    unsigned stall_left_ = 0;

    Counter &armed_counter_;   //!< inject.armed: 1 per armed injector
    Counter &fired_counter_;   //!< inject.fired: 1 once the fault fired
    Counter &fired_at_counter_; //!< inject.fired_at: tick of the upset
};

} // namespace inject

} // namespace lazygpu

#endif // LAZYGPU_INJECT_FAULT_HH
