/**
 * @file
 * A set-associative, non-blocking, timing-only cache.
 *
 * Tags are modelled; data is not (function lives in GlobalMemory). The
 * cache supports the two policies the evaluated GPU uses: write-around
 * (L1 vector caches: writes bypass and invalidate) and write-back with
 * write-allocate (memory-side L2 banks). Misses allocate MSHRs with
 * same-line coalescing; when MSHRs are exhausted requests wait in a FIFO,
 * which is where the paper's queuing congestion comes from. The MSHRs,
 * their waiters and the FIFO live in flat storage that is reused, so a
 * miss allocates nothing once the high-water marks are reached.
 */

#ifndef LAZYGPU_MEM_CACHE_HH
#define LAZYGPU_MEM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "mem/device.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"
#include "sim/config.hh"
#include "sim/engine.hh"

namespace lazygpu
{

class Cache : public MemDevice
{
  public:
    enum class WritePolicy
    {
        WriteAround, //!< forward writes below; invalidate local copy
        WriteBack,   //!< write-allocate; dirty eviction writes below
    };

    Cache(Engine &engine, StatsRegistry &stats, const std::string &name,
          const CacheParams &params, WritePolicy policy,
          MemDevice &below);

    void access(const MemAccess &acc, Completion done) override;

    /**
     * Probe the tags without any side effects at all (testing and
     * introspection only; does not count as a use of the line).
     */
    bool contains(Addr addr) const;

    /**
     * Tag probe that counts as a use: when the line is present its LRU
     * recency is refreshed so actively probed lines are not evicted.
     * Used by the EagerZC model's concurrent L1 Zero Cache check.
     */
    bool probe(Addr addr);

    const std::string &name() const { return name_; }

    /**
     * True while the miss path is saturated: every MSHR is in use or
     * requests are already parked in the FIFO. Used by cycle accounting
     * to split memory-bound CU stalls into latency vs backpressure.
     */
    bool
    saturated() const
    {
        return mshrs_busy_ >= mshr_limit_ || parked_count_ != 0;
    }

    /** Sample MSHR/pending occupancy into `trace` as track `track`. */
    void
    attachTrace(TraceSink *trace, std::uint16_t track)
    {
        trace_ = trace;
        track_ = track;
    }

    /**
     * Serialize the resumable tag-array state (valid lines, LRU clock,
     * port occupancy). Only legal while the cache is transaction-
     * quiescent — no MSHRs and no parked requests — which holds at the
     * engine-idle kernel boundaries where checkpoints are taken.
     */
    void checkpointTo(ByteWriter &w) const;

    /** Restore state saved by checkpointTo into this (idle) cache. */
    void restoreFrom(ByteReader &r);

  private:
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t lruStamp = 0;
    };

    /**
     * A request's completion plus what its completion event must do
     * besides calling it: sample a parked request's MSHR wait, mark a
     * write-allocated line dirty. Both happen when that event runs, not
     * at fill, and a waiter with either flag gets its event even when
     * its completion is empty.
     */
    struct Waiter
    {
        Completion done;
        Tick enqueued = 0; //!< when it parked (sampleWait)
        Addr line = 0;     //!< the line to mark (markDirty)
        bool sampleWait = false;
        bool markDirty = false;

        bool active() const { return done || sampleWait || markDirty; }
    };

    /** A request parked behind full MSHRs. */
    struct Parked
    {
        MemAccess acc;
        Waiter waiter;
    };

    /** Line address of a free MSHR slot (no line is all ones). */
    static constexpr Addr noLine = ~Addr(0);

    Addr lineAddr(Addr a) const { return a & ~Addr(line_size_ - 1); }
    std::uint64_t setIndex(Addr line_addr) const;
    Line *findLine(Addr line_addr);
    const Line *findLine(Addr line_addr) const;
    Line &victimLine(Addr line_addr);

    /** Start the tag lookup once the port accepts the request. */
    void lookup(const MemAccess &acc, const Waiter &w);
    void handleRead(Addr line_addr, const Waiter &w);
    void handleWrite(const MemAccess &acc, Waiter w);
    /** The MSHR slot tracking line_addr, or -1. */
    int findMshr(Addr line_addr) const;
    /** Claim a free MSHR for line_addr and send its fill below. */
    void allocateMshr(Addr line_addr, const Waiter &w);
    void park(const MemAccess &acc, Waiter w);
    /** Schedule w's completion event, latency_ from now, if active. */
    void scheduleComplete(const Waiter &w);
    void complete(Waiter &w);
    void fill(unsigned slot);
    void drainPending();

    /** Occupancy changed: one depth record when tracing is attached. */
    void
    traceDepth()
    {
        if (trace_) {
            trace_->emit(TraceKind::CacheDepth, track_, 0,
                         engine_.now(), mshrs_busy_, parked_count_);
        }
    }

    Engine &engine_;
    const std::string name_;
    const unsigned line_size_;
    const unsigned assoc_;
    const unsigned num_sets_;
    const unsigned mshr_limit_;
    const unsigned bytes_per_cycle_;
    const Tick latency_;
    const WritePolicy policy_;
    MemDevice &below_;

    std::vector<Line> lines_; //!< num_sets_ x assoc_
    // mshr_limit_ MSHR slots: the line each tracks (noLine when free)
    // and its waiters in arrival order, each vector keeping its
    // capacity across uses.
    std::vector<Addr> mshr_line_;
    std::vector<std::vector<Waiter>> mshr_waiters_;
    unsigned mshrs_busy_ = 0;
    // The parked-request FIFO: a ring that grows and never shrinks.
    std::vector<Parked> parked_;
    std::size_t parked_head_ = 0;
    std::size_t parked_count_ = 0;
    Tick port_busy_ = 0;
    std::uint64_t lru_clock_ = 0;
    TraceSink *trace_ = nullptr;
    std::uint16_t track_ = 0;

    Counter &hits_;
    Counter &misses_;
    Counter &write_throughs_;
    Counter &evictions_;
    Distribution &mshr_wait_;
};

} // namespace lazygpu

#endif // LAZYGPU_MEM_CACHE_HH
