/**
 * @file
 * Per-CU cycle accounting: the CPI-stack subsystem (DESIGN.md §16).
 *
 * Every compute-unit cycle is classified into exactly one exclusive
 * bucket, so the buckets of one CU always sum to that CU's elapsed
 * engine time (asserted at the end of every launch). The account is
 * maintained *incrementally* around the engine's hybrid cycle/event
 * execution: cycles the CU actually ticks are charged one at a time
 * (issue-busy vs scoreboard-wait), and the quiescent gaps the engine
 * fast-forwards across are charged lazily as intervals — the stall
 * class of a gap is decided when the CU goes quiescent and re-decided
 * whenever an in-flight response changes what the CU is waiting on, so
 * a lazy wait that turns into a memory wait mid-gap splits the interval
 * correctly.
 *
 * Buckets are pure tick arithmetic over per-CU Counters (one writer per
 * engine domain), so enabling the account never perturbs simulated
 * results and bucket totals are byte-identical across --jobs and
 * --sa-threads. The off path is the trace-sink pattern: a null pointer
 * in the CU and one predicted branch per site.
 */

#ifndef LAZYGPU_OBS_CYCACCT_HH
#define LAZYGPU_OBS_CYCACCT_HH

#include <array>
#include <cstdint>
#include <string>

#include "obs/registry.hh"
#include "sim/engine.hh"
#include "sim/types.hh"

namespace lazygpu
{

class TraceSink;

namespace cycacct
{

/**
 * The exclusive cycle buckets, in fixed reporting order. A cycle's
 * class is decided by the first matching rule (exclusivity priority,
 * DESIGN.md §16): ticked-and-issued -> Busy; ticked-without-issue ->
 * ScoreboardWait; quiescent gaps classify by what the resident waves
 * are waiting on — outstanding data transactions (MshrBackpressure
 * when the SA's L1 is saturated, else MemLatency), else outstanding
 * zero-mask probes (SuspZero, the lazy wait), else a dependency wait
 * (ScoreboardWait), else no resident waves (FetchEmpty while the
 * kernel still has undispatched work, DrainedIdle otherwise).
 */
enum class Bucket : unsigned
{
    Busy = 0,         //!< at least one SIMD issued or was executing
    ScoreboardWait,   //!< ticked (or waiting) with no issuable wave
    SuspZero,         //!< suspended on zero-mask probes (lazy wait)
    MemLatency,       //!< waiting on outstanding data transactions
    MshrBackpressure, //!< memory wait while the SA's L1 is saturated
    FetchEmpty,       //!< no resident waves; dispatch not yet exhausted
    DrainedIdle,      //!< no resident waves and nothing left to run
};

constexpr unsigned numBuckets = 7;

/** Stat-name component of bucket b ("busy", "scoreboard", ...). */
const char *bucketName(Bucket b);

/**
 * One CU's cycle account: numBuckets Counters registered as
 * "<cuPrefix>cyc.<bucket>" plus the lazy-interval cursor. `last_` is
 * the first unaccounted tick; the half-open interval [last_, now) is
 * charged to `gap_class_` whenever the account is brought up to date.
 */
class CuCycleAccount
{
  public:
    CuCycleAccount(StatsRegistry &stats, const std::string &cu_prefix);

    /** Charge [last_, now) to the current gap class. */
    void
    closeGap(Tick now)
    {
        if (now > last_) {
            *buckets_[static_cast<unsigned>(gap_class_)] += now - last_;
            last_ = now;
        }
    }

    /** Account one ticked cycle at `now` as bucket b. */
    void
    chargeCycle(Bucket b, Tick now)
    {
        closeGap(now);
        ++*buckets_[static_cast<unsigned>(b)];
        last_ = now + 1;
    }

    /** The upcoming (or continuing) gap accrues as bucket b. */
    void setGapClass(Bucket b) { gap_class_ = b; }

    /**
     * Mid-gap reclassification: close the interval accrued so far under
     * the old class and continue under b (e.g. a zero-mask response
     * turns a SuspZero wait into a MemLatency wait).
     */
    void
    restall(Tick now, Bucket b)
    {
        closeGap(now);
        gap_class_ = b;
    }

    /** Bring the account up to date at the end of a run. */
    void finalize(Tick end) { closeGap(end); }

    /**
     * Checkpoint restore: the bucket Counters were restored through the
     * registry; re-base the cursor so [0, now) is not double-charged.
     */
    void syncTo(Tick now) { last_ = now; }

    std::uint64_t
    value(Bucket b) const
    {
        return buckets_[static_cast<unsigned>(b)]->value();
    }

    /** Sum of every bucket; equals the CU's engine time once finalized. */
    std::uint64_t total() const;

  private:
    std::array<Counter *, numBuckets> buckets_;
    Tick last_ = 0; //!< first unaccounted tick
    Bucket gap_class_ = Bucket::DrainedIdle;
};

/**
 * GPU-wide bucket totals summed over every CU's account, in bucket
 * order; the unit of the JSON artifacts and the encode/decode tag.
 */
std::array<std::uint64_t, numBuckets>
sumBuckets(const StatsRegistry &stats);

/**
 * Compact deterministic text form of GPU-wide bucket totals
 * ("cyc busy scoreboard ..." as decimal fields). Used as the
 * RunResult::tag of fig_cpistack cells so sweep journals round-trip
 * the stack and resumed artifacts stay byte-identical.
 */
std::string encodeTotals(const std::array<std::uint64_t, numBuckets> &t);

/** Inverse of encodeTotals; false when tag is not an encoded stack. */
bool decodeTotals(const std::string &tag,
                  std::array<std::uint64_t, numBuckets> &out);

/**
 * The interval sampler (Engine::TickSampler): every sample period it
 * flushes each CU account to `now` and snapshots the GPU-wide bucket
 * totals plus a few headline counters (txs issued / eliminated, mask
 * reads) into TimeSeries stats named "cyc.<name>". When a trace sink
 * is attached, each sample also emits one StatSample record per
 * series (track = index into the "seriesTracks" meta list), which
 * trace_export renders as Perfetto counter tracks generically.
 */
class IntervalSampler : public TickSampler
{
  public:
    IntervalSampler(StatsRegistry &stats, TraceSink *trace);

    /** The series names, in track order (embedded in the trace meta). */
    const std::vector<std::string> &seriesNames() const { return names_; }

    void registerAccount(CuCycleAccount *acct)
    {
        accounts_.push_back(acct);
    }

    void sample(Tick now) override;

  private:
    StatsRegistry &stats_;
    TraceSink *trace_;
    std::vector<CuCycleAccount *> accounts_;
    std::vector<std::string> names_;
    std::vector<TimeSeries *> series_;
};

} // namespace cycacct

} // namespace lazygpu

#endif // LAZYGPU_OBS_CYCACCT_HH
