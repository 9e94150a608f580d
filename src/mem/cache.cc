#include "mem/cache.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace lazygpu
{

Cache::Cache(Engine &engine, StatsRegistry &stats, const std::string &name,
             const CacheParams &params, WritePolicy policy,
             MemDevice &below)
    : engine_(engine), name_(name), line_size_(params.lineSize),
      assoc_(params.assoc),
      num_sets_(std::max<unsigned>(
          1, params.size / (params.lineSize * params.assoc))),
      mshr_limit_(params.mshrs),
      bytes_per_cycle_(std::max(1u, params.bytesPerCycle)),
      latency_(params.latency), policy_(policy), below_(below),
      lines_(num_sets_ * assoc_), mshr_line_(mshr_limit_, noLine),
      mshr_waiters_(mshr_limit_),
      hits_(stats.counter(name + ".hits")),
      misses_(stats.counter(name + ".misses")),
      write_throughs_(stats.counter(name + ".write_throughs")),
      evictions_(stats.counter(name + ".evictions")),
      mshr_wait_(stats.dist(name + ".mshr_wait"))
{
    panic_if(params.size == 0, "%s: zero-sized cache instantiated",
             name.c_str());
}

std::uint64_t
Cache::setIndex(Addr line_addr) const
{
    return (line_addr / line_size_) % num_sets_;
}

Cache::Line *
Cache::findLine(Addr line_addr)
{
    Line *set = &lines_[setIndex(line_addr) * assoc_];
    for (unsigned w = 0; w < assoc_; ++w) {
        if (set[w].valid && set[w].tag == line_addr)
            return &set[w];
    }
    return nullptr;
}

const Cache::Line *
Cache::findLine(Addr line_addr) const
{
    return const_cast<Cache *>(this)->findLine(line_addr);
}

Cache::Line &
Cache::victimLine(Addr line_addr)
{
    Line *set = &lines_[setIndex(line_addr) * assoc_];
    Line *victim = &set[0];
    for (unsigned w = 0; w < assoc_; ++w) {
        if (!set[w].valid)
            return set[w];
        if (set[w].lruStamp < victim->lruStamp)
            victim = &set[w];
    }
    return *victim;
}

bool
Cache::contains(Addr addr) const
{
    return findLine(lineAddr(addr)) != nullptr;
}

bool
Cache::probe(Addr addr)
{
    if (Line *line = findLine(lineAddr(addr))) {
        line->lruStamp = ++lru_clock_;
        return true;
    }
    return false;
}

void
Cache::access(const MemAccess &acc, Completion done)
{
    // Transactions never straddle a line: they are <= 32 B and aligned.
    panic_if(lineAddr(acc.addr) != lineAddr(acc.addr + acc.size - 1),
             "%s: access straddles a cache line", name_.c_str());

    const Tick now = engine_.now();
    const Tick service = std::max<Tick>(
        1, (acc.size + bytes_per_cycle_ - 1) / bytes_per_cycle_);
    const Tick start = std::max(now, port_busy_);
    port_busy_ = start + service;

    if (start == now) {
        lookup(acc, Waiter{done});
    } else {
        engine_.schedule(start,
                         [this, acc, done]() { lookup(acc, Waiter{done}); });
    }
}

void
Cache::lookup(const MemAccess &acc, const Waiter &w)
{
    if (acc.write)
        handleWrite(acc, w);
    else
        handleRead(lineAddr(acc.addr), w);
}

int
Cache::findMshr(Addr line_addr) const
{
    if (mshrs_busy_ == 0)
        return -1;
    for (unsigned i = 0; i < mshr_limit_; ++i) {
        if (mshr_line_[i] == line_addr)
            return static_cast<int>(i);
    }
    return -1;
}

void
Cache::allocateMshr(Addr line_addr, const Waiter &w)
{
    unsigned slot = 0;
    while (mshr_line_[slot] != noLine)
        ++slot;
    mshr_line_[slot] = line_addr;
    ++mshrs_busy_;
    if (w.active())
        mshr_waiters_[slot].push_back(w);
    traceDepth();
    below_.access(MemAccess{line_addr, line_size_, false},
                  [this, slot]() { fill(slot); });
}

void
Cache::park(const MemAccess &acc, Waiter w)
{
    // Structural stall: this is the congestion LazyCore relieves. Reads
    // and writes both sample the wait, so the congestion distribution
    // covers both request kinds.
    w.enqueued = engine_.now();
    w.sampleWait = true;
    if (parked_count_ == parked_.size()) {
        // Full: make the ring linear, oldest first, then double it.
        std::rotate(parked_.begin(), parked_.begin() + parked_head_,
                    parked_.end());
        parked_head_ = 0;
        parked_.resize(std::max<std::size_t>(8, 2 * parked_.size()));
    }
    parked_[(parked_head_ + parked_count_) % parked_.size()] =
        Parked{acc, w};
    ++parked_count_;
    traceDepth();
}

void
Cache::scheduleComplete(const Waiter &w)
{
    if (w.active())
        engine_.scheduleIn(latency_,
                           [this, waiter = w]() mutable { complete(waiter); });
}

void
Cache::complete(Waiter &w)
{
    if (w.sampleWait)
        mshr_wait_.sample(static_cast<double>(engine_.now() - w.enqueued));
    if (w.markDirty) {
        if (Line *line = findLine(w.line))
            line->dirty = true;
    }
    if (w.done)
        w.done();
}

void
Cache::handleRead(Addr line_addr, const Waiter &w)
{
    if (Line *line = findLine(line_addr)) {
        ++hits_;
        line->lruStamp = ++lru_clock_;
        scheduleComplete(w);
        return;
    }
    ++misses_;

    if (const int slot = findMshr(line_addr); slot >= 0) {
        // Secondary miss: ride the outstanding fill.
        if (w.active())
            mshr_waiters_[slot].push_back(w);
        return;
    }
    if (mshrs_busy_ >= mshr_limit_) {
        park(MemAccess{line_addr, line_size_, false}, w);
        return;
    }
    allocateMshr(line_addr, w);
}

void
Cache::handleWrite(const MemAccess &acc, Waiter w)
{
    if (policy_ == WritePolicy::WriteAround) {
        // Writes bypass this level entirely; drop any stale local copy.
        // Only write-back misses park, so w carries no flag here.
        if (Line *line = findLine(lineAddr(acc.addr)))
            line->valid = false;
        ++write_throughs_;
        below_.access(acc, w.done);
        return;
    }

    // Write-back, write-allocate.
    Addr la = lineAddr(acc.addr);
    if (Line *line = findLine(la)) {
        ++hits_;
        line->dirty = true;
        line->lruStamp = ++lru_clock_;
        scheduleComplete(w);
        return;
    }
    ++misses_;

    w.line = la;
    w.markDirty = true;
    if (const int slot = findMshr(la); slot >= 0) {
        mshr_waiters_[slot].push_back(w);
        return;
    }
    if (mshrs_busy_ >= mshr_limit_) {
        park(MemAccess{acc.addr, acc.size, true}, w);
        return;
    }
    allocateMshr(la, w);
}

void
Cache::fill(unsigned slot)
{
    const Addr line_addr = mshr_line_[slot];
    panic_if(line_addr == noLine, "%s: fill without an MSHR",
             name_.c_str());
    Line &victim = victimLine(line_addr);
    if (victim.valid && victim.dirty) {
        ++evictions_;
        // Fire-and-forget writeback; it consumes downstream bandwidth.
        below_.access(MemAccess{victim.tag, line_size_, true}, nullptr);
    }
    victim.tag = line_addr;
    victim.valid = true;
    victim.dirty = false;
    victim.lruStamp = ++lru_clock_;

    std::vector<Waiter> &waiters = mshr_waiters_[slot];
    for (const Waiter &w : waiters)
        scheduleComplete(w);
    waiters.clear();
    mshr_line_[slot] = noLine;
    --mshrs_busy_;
    drainPending();
    traceDepth();
}

void
Cache::drainPending()
{
    while (parked_count_ != 0 && mshrs_busy_ < mshr_limit_) {
        const Parked p = parked_[parked_head_];
        parked_head_ = (parked_head_ + 1) % parked_.size();
        --parked_count_;
        lookup(p.acc, p.waiter);
        // A pending hit or coalesce does not consume an MSHR, so keep
        // draining; the loop terminates because each iteration pops.
    }
}

void
Cache::checkpointTo(ByteWriter &w) const
{
    panic_if(mshrs_busy_ != 0 || parked_count_ != 0,
             "checkpointing cache '%s' with transactions in flight",
             name_.c_str());
    w.tag("CACH");
    w.u64(lru_clock_);
    w.u64(port_busy_);
    w.u64(lines_.size());
    std::uint64_t n_valid = 0;
    for (const Line &line : lines_) {
        if (line.valid)
            ++n_valid;
    }
    w.u64(n_valid);
    for (std::size_t i = 0; i < lines_.size(); ++i) {
        const Line &line = lines_[i];
        if (!line.valid)
            continue;
        w.u64(i);
        w.u64(line.tag);
        w.u8(line.dirty ? 1 : 0);
        w.u64(line.lruStamp);
    }
}

void
Cache::restoreFrom(ByteReader &r)
{
    panic_if(mshrs_busy_ != 0 || parked_count_ != 0,
             "restoring cache '%s' with transactions in flight",
             name_.c_str());
    if (!r.tag("CACH"))
        return;
    lru_clock_ = r.u64();
    port_busy_ = r.u64();
    const std::uint64_t n_lines = r.u64();
    if (n_lines != lines_.size()) {
        // Geometry mismatch means the restoring Gpu was built from a
        // different configuration; the caller checks r.ok() and fatals.
        while (r.ok())
            r.u8();
        return;
    }
    for (Line &line : lines_)
        line = Line{};
    const std::uint64_t n_valid = r.u64();
    for (std::uint64_t i = 0; i < n_valid && r.ok(); ++i) {
        const std::uint64_t idx = r.u64();
        if (idx >= lines_.size())
            return;
        Line &line = lines_[idx];
        line.valid = true;
        line.tag = r.u64();
        line.dirty = r.u8() != 0;
        line.lruStamp = r.u64();
    }
}

} // namespace lazygpu
