/**
 * @file
 * simbench: the simulator's benchmark.
 *
 *   simbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *            [--spans FILE]
 *
 * One invocation runs one workload grid (mm_dense, suite_sparse or
 * paper64_sampled; see grids below) in repeated passes until S seconds
 * of host time have gone, then prints its metrics. The last line of
 * stdout is one JSON object:
 *
 *   {"correct":true,"attempted":48,"failed":0,"metrics":{...}}
 *
 * Every cell is driven through the public API, one cell at a time:
 * generator -> Gpu constructor -> Gpu::run per kernel -> collectMetrics,
 * inside a ParallelRunner at one job with keepGoing, so a cell that
 * panics, fatals or times out is counted as a failed operation while the
 * rest of the grid still reports. Every cell builds a fresh Gpu, so the
 * modelled caches start empty. The seed reaches the simulator only
 * through WorkloadParams::seed.
 *
 * --trace 0 reports the end-to-end metrics from untraced passes.
 * --trace 1 alternates untraced and traced passes and reports the
 * per-layer metrics. A traced pass turns on cycle accounting, the
 * domain-scheduler profiler and a retire observer (which splits
 * Gpu::run into its timed and rabbit parts), and records a span around
 * every public call; --spans writes them as Chrome trace-event JSON.
 *
 * Correctness is checked outside the timed region. Each cell's final
 * image hash must equal the one verif::runReference produces on a
 * regenerated image, and the workload's own verify must pass where the
 * kernel writes its whole output. Every pass, traced or not, must give
 * the same digest of simulated results. A self-test checks that a
 * corrupted image hash and a panicking cell are each counted as failed.
 */

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "analysis/json_writer.hh"
#include "analysis/parallel_runner.hh"
#include "obs/cycacct.hh"
#include "sim/logging.hh"
#include "sim/sim_error.hh"
#include "verif/reference.hh"
#include "workloads/suite.hh"

using namespace lazygpu;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

double
geomean(const std::vector<double> &v)
{
    double log_sum = 0.0;
    for (double x : v)
        log_sum += std::log(x);
    return v.empty() ? 0.0 : std::exp(log_sum / static_cast<double>(v.size()));
}

/**
 * The figures' machine for a mode: the R9 Nano for Baseline, LazyGPU's
 * cache split otherwise, shrunk by scale. Defined here, not taken from
 * the figure benches, so the workloads stay fixed when those change.
 */
GpuConfig
machine(ExecMode mode, unsigned scale)
{
    const GpuConfig cfg = mode == ExecMode::Baseline
                              ? GpuConfig::r9Nano()
                              : GpuConfig::lazyGpu(mode);
    return cfg.scaled(scale);
}

// --- Grids ---------------------------------------------------------------

/** One grid cell: a configuration and the generator of its input. */
struct Cell
{
    std::string key;
    /** Cells with equal input start from identical memory images. */
    std::string input;
    GpuConfig cfg;
    std::function<Workload()> make;
    /** The kernel writes its whole output, so the workload's verify applies. */
    bool verify = true;
    /** Self-test only: report a deliberately wrong image hash. */
    bool corruptHash = false;
};

/** A workload: its cells in (Baseline, lazy-mode) pairs. */
struct Grid
{
    std::string name;
    std::vector<Cell> cells;
    /** The paper's geomean speedup for this grid; 0 when it has none. */
    double paperSpeedup = 0.0;
};

/**
 * Fig 3a's grid: dense MM at 32..4096 waves on the 16-CU machine. The
 * timed CU issue, the Lazy Unit and the per-lane VALU do the work; the
 * Zero Caches, the rabbit and the domain scheduler do nothing.
 */
Grid
mmDense(std::uint64_t seed)
{
    WorkloadParams p;
    p.sparsity = 0.0;
    p.scale = 16;
    p.seed = seed;
    // makeMM's verify checks all of C; with fewer waves than its own
    // launch the kernel writes only part of C, and the hash is the check.
    const unsigned full_waves = makeMM(p).kernels.front().numWavefronts;
    GpuConfig base = GpuConfig::r9Nano().scaled(4);
    GpuConfig lazy = base;
    lazy.mode = ExecMode::LazyCore;

    Grid g{"mm_dense", {}};
    for (unsigned waves = 32; waves <= 4096; waves *= 2) {
        const std::string input = "waves-" + std::to_string(waves);
        auto make = [p, waves]() { return makeMM(p, waves); };
        const bool covers = waves >= full_waves;
        g.cells.push_back({input + "/base", input, base, make, covers});
        g.cells.push_back(
            {input + "/lazycore", input, lazy, make, covers});
    }
    return g;
}

/**
 * Fig 12's 50% column: the 17-kernel suite at sparsity 0.5. The memory
 * hierarchy, Zero Caches and otimes elimination do the work.
 */
Grid
suiteSparse(std::uint64_t seed)
{
    WorkloadParams p;
    p.sparsity = 0.5;
    p.seed = seed;
    // Fig 12's 50% geomean, as bench/fig12_suite.cc and EXPERIMENTS.md
    // give it.
    Grid g{"suite_sparse", {}, 1.28};
    for (const std::string &name : suiteNames()) {
        auto make = [name, p]() { return makeSuiteWorkload(name, p); };
        g.cells.push_back({name + "/base", name,
                           machine(ExecMode::Baseline, 4), make});
        g.cells.push_back({name + "/lazygpu", name,
                           machine(ExecMode::LazyGPU, 4), make});
    }
    return g;
}

/**
 * The paper's unscaled 64-CU machine on MM at 50% sparsity, sampled:
 * the first 2048 waves run timed on the domain-sharded engine, the rest
 * in the rabbit executor. The sharded schedule runs on one domain
 * thread: it still exercises the window barriers, and at two threads
 * host scheduling noise doubled the run-to-run spread of wall_s.
 */
Grid
paper64Sampled(std::uint64_t seed)
{
    WorkloadParams p;
    p.sparsity = 0.5;
    p.scale = 16;
    p.seed = seed;
    constexpr unsigned waves = 16384;
    auto make = [p]() { return makeMM(p, waves); };
    Grid g{"paper64_sampled", {}};
    for (ExecMode mode : {ExecMode::Baseline, ExecMode::LazyGPU}) {
        GpuConfig cfg = machine(mode, 1);
        cfg.timingWaves = 2048;
        cfg.saThreads = 1;
        g.cells.push_back({"waves-16384/" + toString(mode), "waves-16384",
                           cfg, make});
    }
    return g;
}

const std::map<std::string, Grid (*)(std::uint64_t)> &
grids()
{
    static const std::map<std::string, Grid (*)(std::uint64_t)> all = {
        {"mm_dense", mmDense},
        {"suite_sparse", suiteSparse},
        {"paper64_sampled", paper64Sampled},
    };
    return all;
}

// --- Running a pass ------------------------------------------------------

/** Host-time stamps of one Gpu::run call. */
struct KernelTimes
{
    Clock::time_point start, split, end; //!< split: timed -> rabbit
};

/** What one cell did in one pass. */
struct CellRun
{
    RunResult res; //!< from the runner: status set for failed cells

    Clock::time_point start;       //!< before the generator call
    Clock::time_point generated;   //!< generator returned
    Clock::time_point constructed; //!< Gpu constructor returned
    std::vector<KernelTimes> kernels;
    Clock::time_point ran;       //!< last Gpu::run returned
    Clock::time_point collected; //!< collectMetrics returned
    Clock::time_point checked;   //!< harvest and output check done
    bool reachedCollect = false;

    // Layer counters read after collectMetrics.
    std::uint64_t insts = 0;
    std::uint64_t rabbitInsts = 0;
    std::uint64_t events = 0;
    /** SIMD-cycles available: the denominator of aluUtilization. */
    double simdCycles = 0.0;
    double latencySum = 0.0;
    std::uint64_t latencyCount = 0;
    std::array<std::uint64_t, cycacct::numBuckets> cyc{};
    DomainScheduler::Profile sched;

    // Output check.
    std::uint64_t imageHash = 0;
    bool verifyRan = false;
    std::string verifyError;

    double genS() const { return secondsBetween(start, generated); }
    double constructS() const
    {
        return secondsBetween(generated, constructed);
    }
    double collectS() const { return secondsBetween(ran, collected); }
    double runS() const
    {
        double s = 0.0;
        for (const KernelTimes &k : kernels)
            s += secondsBetween(k.start, k.end);
        return s;
    }
    double timedS() const
    {
        double s = 0.0;
        for (const KernelTimes &k : kernels)
            s += secondsBetween(k.start, k.split);
        return s;
    }
};

/** One pass over a grid. */
struct Pass
{
    bool traced = false;
    std::vector<CellRun> cells;
    /** First generator call to last collectMetrics, checks excluded. */
    double wallS = 0.0;
    /** Generator calls plus Gpu constructors. */
    double setupS = 0.0;
    /** Sum of the cells' spans (generator call to collectMetrics). */
    double cellsS = 0.0;
    Clock::time_point sweepStart, sweepEnd; //!< around runSweep
};

/** Read the layer counters the simulator keeps. */
void
harvest(Gpu &gpu, CellRun &o)
{
    const StatsRegistry &st = gpu.stats();
    for (const char *leaf :
         {"valu_insts", "salu_insts", "load_insts", "store_insts"}) {
        o.insts += st.sumCounters("gpu.", std::string(".") + leaf);
        o.rabbitInsts += st.sumCounters("gpu.rabbit.", leaf);
    }
    o.events = st.sumCounters("engine.events_executed");
    const auto lat = st.dists().find("mem.latency");
    if (lat != st.dists().end()) {
        o.latencySum = lat->second.sum();
        o.latencyCount = lat->second.count();
    }
    for (unsigned b = 0; b < cycacct::numBuckets; ++b)
        o.cyc[b] = st.sumCounters(
            "gpu.", std::string(".cyc.") +
                        cycacct::bucketName(static_cast<cycacct::Bucket>(b)));
    if (gpu.domains())
        o.sched = gpu.domains()->profile();
}

/** The cell body: one fresh workload on one fresh Gpu. */
RunResult
runCell(const Cell &c, GpuConfig cfg, ExecControl *ctl, bool traced,
        CellRun &o)
{
    o.start = Clock::now();
    Workload w = c.make();
    o.generated = Clock::now();
    cfg.cycleAccounting = traced;
    cfg.profileScheduler = traced;
    // Declared before the Gpu: its retire observer writes them.
    bool split_seen = false;
    Clock::time_point split;
    Gpu gpu(cfg, *w.mem);
    gpu.attachControl(ctl);
    o.constructed = Clock::now();

    // The first retirement of a wave past the timing window marks where
    // Gpu::run hands over from timed simulation to the rabbit executor.
    const unsigned window = cfg.timingWaves;
    if (traced && window != GpuConfig::timingWavesAll) {
        gpu.setRetireObserver([&, window](const Wavefront &wave) {
            if (!split_seen && wave.wid() >= window) {
                split_seen = true;
                split = Clock::now();
            }
        });
    }

    Tick cycles = 0;
    for (const Kernel &k : w.kernels) {
        split_seen = false;
        KernelTimes t;
        t.start = Clock::now();
        cycles += gpu.run(k).estCycles;
        t.end = Clock::now();
        t.split = split_seen ? split : t.end;
        o.kernels.push_back(t);
    }
    o.ran = Clock::now();
    RunResult r = collectMetrics(gpu, cycles);
    o.collected = Clock::now();
    o.reachedCollect = true;

    harvest(gpu, o);
    o.simdCycles =
        static_cast<double>(cycles) * cfg.numCus() * cfg.simdPerCu;
    o.imageHash = w.mem->contentHash() ^ (c.corruptHash ? 1 : 0);
    if (c.verify && w.verify) {
        o.verifyRan = true;
        o.verifyError = w.verify(*w.mem);
    }
    o.checked = Clock::now();
    return r;
}

SweepOptions
sweepOptions()
{
    SweepOptions o;
    o.keepGoing = true;
    o.timeoutSec = 60.0; // no cell comes near it; a hang counts as failed
    return o;
}

Pass
runPass(const Grid &g, bool traced, ParallelRunner &runner)
{
    Pass pass;
    pass.traced = traced;
    pass.cells.resize(g.cells.size());
    std::vector<RunJob> jobs;
    for (std::size_t i = 0; i < g.cells.size(); ++i) {
        RunJob job;
        job.cfg = g.cells[i].cfg;
        job.key = g.cells[i].key;
        job.note = g.name;
        job.custom = [&g, &pass, traced, i](const GpuConfig &cfg,
                                            ExecControl *ctl) {
            return runCell(g.cells[i], cfg, ctl, traced, pass.cells[i]);
        };
        jobs.push_back(std::move(job));
    }
    pass.sweepStart = Clock::now();
    const SweepOutcome out = runner.runSweep(jobs);
    pass.sweepEnd = Clock::now();

    Clock::time_point first{}, last{};
    bool any = false;
    for (std::size_t i = 0; i < pass.cells.size(); ++i) {
        CellRun &c = pass.cells[i];
        c.res = out.results[i];
        if (!c.reachedCollect)
            continue;
        first = any ? std::min(first, c.start) : c.start;
        last = any ? std::max(last, c.collected) : c.collected;
        any = true;
        pass.setupS += c.genS() + c.constructS();
        pass.cellsS += secondsBetween(c.start, c.collected);
    }
    if (any) {
        pass.wallS = secondsBetween(first, last);
        for (const CellRun &c : pass.cells) {
            if (c.reachedCollect && c.checked <= last)
                pass.wallS -= secondsBetween(c.collected, c.checked);
        }
    }
    return pass;
}

// --- Spans ---------------------------------------------------------------

/**
 * The spans of a traced run: one per public call, with its parent, kept
 * in memory and written when the benchmark ends. A span's self time is
 * its duration minus its children's.
 */
class SpanLog
{
  public:
    explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

    int
    add(const char *name, const std::string &cell, int parent,
        Clock::time_point start, Clock::time_point end)
    {
        spans_.push_back({name, cell, parent, start, end});
        return static_cast<int>(spans_.size()) - 1;
    }

    /** Self time in seconds, summed per span name. */
    std::map<std::string, double>
    selfTimes() const
    {
        std::vector<Clock::duration> self(spans_.size());
        for (std::size_t i = 0; i < spans_.size(); ++i)
            self[i] = spans_[i].end - spans_[i].start;
        for (const Span &s : spans_) {
            if (s.parent >= 0)
                self[s.parent] -= s.end - s.start;
        }
        std::map<std::string, double> by_name;
        for (std::size_t i = 0; i < spans_.size(); ++i)
            by_name[spans_[i].name] +=
                std::chrono::duration<double>(self[i]).count();
        return by_name;
    }

    /** Chrome trace-event JSON, readable by Perfetto. */
    std::string
    json() const
    {
        Json events = Json::array();
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            Json args = Json::object();
            args.set("id", static_cast<std::uint64_t>(i))
                .set("parent", s.parent)
                .set("cell", s.cell);
            Json e = Json::object();
            e.set("name", s.name)
                .set("cat", s.name.substr(0, s.name.find('.')))
                .set("ph", "X")
                .set("ts", Json::exactNum(micros(s.start)))
                .set("dur", Json::exactNum(micros(s.end) - micros(s.start)))
                .set("pid", 1)
                .set("tid", 1)
                .set("args", std::move(args));
            events.push(std::move(e));
        }
        Json doc = Json::object();
        doc.set("traceEvents", std::move(events));
        return doc.dump(0) + "\n";
    }

  private:
    struct Span
    {
        std::string name;
        std::string cell; //!< the cell key spans of one cell share
        int parent;
        Clock::time_point start, end;
    };

    double
    micros(Clock::time_point t) const
    {
        return secondsBetween(origin_, t) * 1e6;
    }

    Clock::time_point origin_;
    std::vector<Span> spans_;
};

void
recordSpans(SpanLog &log, const Grid &g, const Pass &pass)
{
    const int sweep = log.add("analysis.sweep", "", -1, pass.sweepStart,
                              pass.sweepEnd);
    for (std::size_t i = 0; i < pass.cells.size(); ++i) {
        const CellRun &c = pass.cells[i];
        if (!c.reachedCollect)
            continue;
        const std::string &key = g.cells[i].key;
        const int cell =
            log.add("analysis.cell", key, sweep, c.start, c.checked);
        log.add("workloads.generate", key, cell, c.start, c.generated);
        log.add("gpu.construct", key, cell, c.generated, c.constructed);
        for (const KernelTimes &k : c.kernels) {
            const int run = log.add("gpu.run", key, cell, k.start, k.end);
            if (k.split < k.end) {
                log.add("gpu.timed", key, run, k.start, k.split);
                log.add("gpu.rabbit", key, run, k.split, k.end);
            }
        }
        log.add("analysis.collect", key, cell, c.ran, c.collected);
        log.add("verif.check", key, cell, c.collected, c.checked);
    }
}

// --- Correctness ---------------------------------------------------------

/** verif::runReference's outcome on one regenerated input. */
struct Reference
{
    std::uint64_t hash = 0;
    std::string error;
};

/**
 * Reference hash per distinct input. Adds the host time spent in
 * verif::runReference to *seconds and, given a log, records its spans.
 */
std::map<std::string, Reference>
references(const Grid &g, double *seconds, SpanLog *spans = nullptr)
{
    std::map<std::string, Reference> refs;
    for (const Cell &c : g.cells) {
        if (refs.count(c.input))
            continue;
        Reference &ref = refs[c.input];
        try {
            const RecoverableScope recoverable;
            Workload w = c.make();
            for (const Kernel &k : w.kernels) {
                const Clock::time_point t0 = Clock::now();
                const verif::RefResult r = verif::runReference(k, *w.mem);
                const Clock::time_point t1 = Clock::now();
                *seconds += secondsBetween(t0, t1);
                if (spans)
                    spans->add("verif.reference", c.input, -1, t0, t1);
                if (!r.ok() && ref.error.empty())
                    ref.error = k.name + ": " + r.error;
            }
            ref.hash = w.mem->contentHash();
        } catch (const SimError &e) {
            ref.error = e.what();
        }
    }
    return refs;
}

/** Why a cell failed in a pass; empty when it passed every check. */
std::string
failure(const Cell &c, const CellRun &o,
        const std::map<std::string, Reference> &refs)
{
    if (!o.res.ok())
        return std::string(toString(o.res.status)) + ": " + o.res.error;
    const Reference &ref = refs.at(c.input);
    if (!ref.error.empty())
        return "reference failed: " + ref.error;
    if (o.imageHash != ref.hash) {
        return detail::formatString(
            "image hash %016llx != reference %016llx",
            static_cast<unsigned long long>(o.imageHash),
            static_cast<unsigned long long>(ref.hash));
    }
    if (!o.verifyError.empty())
        return "verify: " + o.verifyError;
    return {};
}

/** FNV-1a over every simulated result of a pass, in cell order. */
std::uint64_t
digest(const Grid &g, const Pass &pass)
{
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](const void *data, std::size_t n) {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= p[i];
            h *= 1099511628211ull;
        }
    };
    auto u64 = [&mix](std::uint64_t v) { mix(&v, sizeof v); };
    auto f64 = [&mix](double v) { mix(&v, sizeof v); };
    for (std::size_t i = 0; i < g.cells.size(); ++i) {
        const CellRun &o = pass.cells[i];
        const RunResult &r = o.res;
        mix(g.cells[i].key.data(), g.cells[i].key.size());
        u64(static_cast<std::uint64_t>(r.status));
        for (std::uint64_t v :
             {static_cast<std::uint64_t>(r.cycles), r.txsIssued,
              r.txsElimZero, r.txsElimOtimes, r.txsElimDead,
              r.txsEagerFallback, r.storeTxs, r.storeTxsZeroSkipped,
              r.l1Requests, r.l2Requests, r.dramRequests, r.l1Hits,
              r.l1Misses, r.l2Hits, r.l2Misses, r.zl1Hits, r.zl1Misses,
              r.zl2Hits, r.zl2Misses, o.insts, o.rabbitInsts, o.events,
              o.latencyCount, o.imageHash})
            u64(v);
        f64(r.aluUtilization);
        f64(r.avgMemLatency);
        f64(o.latencySum);
    }
    return h;
}

/**
 * The failure accounting's self-test: a four-cell grid in which one
 * cell's generator panics and one cell reports a corrupted image hash.
 * It passes when exactly those two count as failed and the other two
 * still report cycles.
 */
bool
selfTest(std::uint64_t seed)
{
    WorkloadParams p;
    p.scale = 16;
    p.seed = seed;
    auto make = [p]() { return makeMM(p, 32); };
    auto panics = []() -> Workload { panic("self-test: injected panic"); };
    const GpuConfig cfg = GpuConfig::r9Nano().scaled(4);
    Grid g{"selftest", {}};
    g.cells.push_back({"selftest/healthy-a", "mm", cfg, make, false});
    g.cells.push_back({"selftest/panic", "mm", cfg, panics, false});
    g.cells.push_back({"selftest/corrupt", "mm", cfg, make, false, true});
    g.cells.push_back({"selftest/healthy-b", "mm", cfg, make, false});

    ParallelRunner runner(1, sweepOptions());
    const Pass pass = runPass(g, false, runner);
    double ref_s = 0.0;
    const auto refs = references(g, &ref_s);
    const std::vector<bool> expect_failed = {false, true, true, false};
    bool ok = true;
    for (std::size_t i = 0; i < g.cells.size(); ++i) {
        const bool failed = !failure(g.cells[i], pass.cells[i], refs).empty();
        const bool reported = pass.cells[i].res.cycles > 0;
        if (failed != expect_failed[i] || (!failed && !reported)) {
            std::printf("selftest: cell %s counted %s\n",
                        g.cells[i].key.c_str(),
                        failed ? "failed" : "healthy");
            ok = false;
        }
    }
    return ok;
}

// --- Metrics -------------------------------------------------------------

struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
};

/** The end-to-end metrics that are simulated, from one pass. */
void
simulatedMetrics(const Pass &pass, double *speedup_geomean,
                 double *elim_rate)
{
    std::vector<double> speedups;
    double elim = 0.0, candidates = 0.0;
    for (std::size_t i = 0; i + 1 < pass.cells.size(); i += 2) {
        const RunResult &base = pass.cells[i].res;
        const RunResult &lazy = pass.cells[i + 1].res;
        if (base.ok() && lazy.ok())
            speedups.push_back(speedup(base, lazy));
        if (lazy.ok()) {
            const double e =
                static_cast<double>(lazy.txsElimZero + lazy.txsElimOtimes +
                                    lazy.txsElimDead);
            elim += e;
            candidates += e + static_cast<double>(lazy.txsIssued);
        }
    }
    *speedup_geomean = geomean(speedups);
    *elim_rate = ratio(elim, candidates);
}

/** The per-layer metrics of one traced pass, healthy cells pooled. */
std::vector<Metric>
layerMetrics(const Pass &pass)
{
    double gen = 0, construct = 0, run = 0, timed = 0, collect = 0;
    double insts = 0, rabbit_insts = 0, events = 0;
    double simd_busy = 0, simd_cycles = 0, lat_sum = 0, lat_count = 0;
    std::array<double, cycacct::numBuckets> cyc{};
    RunResult sum;
    DomainScheduler::Profile sched;
    for (const CellRun &c : pass.cells) {
        if (!c.res.ok() || !c.reachedCollect)
            continue;
        gen += c.genS();
        construct += c.constructS();
        run += c.runS();
        timed += c.timedS();
        collect += c.collectS();
        insts += static_cast<double>(c.insts);
        rabbit_insts += static_cast<double>(c.rabbitInsts);
        events += static_cast<double>(c.events);
        simd_busy += c.res.aluUtilization * c.simdCycles;
        simd_cycles += c.simdCycles;
        lat_sum += c.latencySum;
        lat_count += static_cast<double>(c.latencyCount);
        for (unsigned b = 0; b < cycacct::numBuckets; ++b)
            cyc[b] += static_cast<double>(c.cyc[b]);
        sum.accumulate(c.res);
        sched.saPhaseSec += c.sched.saPhaseSec;
        sched.bankPhaseSec += c.sched.bankPhaseSec;
        sched.barrierWaitSec += c.sched.barrierWaitSec;
        sched.coordSerialSec += c.sched.coordSerialSec;
        sched.windows += c.sched.windows;
    }
    const double rabbit = run - timed;
    double cyc_total = 0;
    for (double v : cyc)
        cyc_total += v;
    auto count = [](std::uint64_t v) { return static_cast<double>(v); };

    std::vector<Metric> m = {
        {"workloads.gen_s", "s", gen},
        {"gpu.construct_s", "s", construct},
        {"gpu.run_s", "s", run},
        {"gpu.insts", "count", insts},
        {"gpu.run_ns_per_inst", "ns", ratio(run * 1e9, insts)},
        {"gpu.timed_s", "s", timed},
        {"gpu.rabbit_s", "s", rabbit},
        {"gpu.rabbit_ns_per_inst", "ns", ratio(rabbit * 1e9, rabbit_insts)},
        {"gpu.txs_issued", "count", count(sum.txsIssued)},
        {"gpu.txs_elim_zero", "count", count(sum.txsElimZero)},
        {"gpu.txs_elim_otimes", "count", count(sum.txsElimOtimes)},
        {"gpu.txs_elim_dead", "count", count(sum.txsElimDead)},
        {"gpu.store_txs_zero_skipped", "count",
         count(sum.storeTxsZeroSkipped)},
        {"gpu.alu_utilization", "fraction", ratio(simd_busy, simd_cycles)},
    };
    for (unsigned b = 0; b < cycacct::numBuckets; ++b) {
        m.push_back({std::string("gpu.cyc.") +
                         cycacct::bucketName(static_cast<cycacct::Bucket>(b)),
                     "fraction", ratio(cyc[b], cyc_total)});
    }
    const std::vector<Metric> rest = {
        {"mem.l1.hit_rate", "fraction", sum.l1HitRate()},
        {"mem.l2.hit_rate", "fraction", sum.l2HitRate()},
        {"mem.zl1.hit_rate", "fraction", sum.zl1HitRate()},
        {"mem.zl2.hit_rate", "fraction", sum.zl2HitRate()},
        {"mem.l1_requests", "count", count(sum.l1Requests)},
        {"mem.l2_requests", "count", count(sum.l2Requests)},
        {"mem.dram_requests", "count", count(sum.dramRequests)},
        {"mem.avg_latency_cycles", "cycles", ratio(lat_sum, lat_count)},
        {"sim.events", "count", events},
        {"sim.ns_per_event", "ns", ratio(timed * 1e9, events)},
        {"sim.domains.sa_phase_s", "s", sched.saPhaseSec},
        {"sim.domains.bank_phase_s", "s", sched.bankPhaseSec},
        {"sim.domains.barrier_wait_s", "s", sched.barrierWaitSec},
        {"sim.domains.coord_serial_s", "s", sched.coordSerialSec},
        {"sim.domains.windows", "count", count(sched.windows)},
        {"analysis.collect_s", "s", collect},
        {"analysis.runner_overhead_s", "s", pass.wallS - pass.cellsS},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    return m;
}

// --- Command line --------------------------------------------------------

struct Args
{
    std::string workload;
    std::uint64_t seed = 42;
    unsigned seconds = 10;
    bool trace = false;
    std::string spansPath;
};

bool
parseUnsigned(const char *s, std::uint64_t max, std::uint64_t &out)
{
    if (!*s)
        return false;
    std::uint64_t v = 0;
    for (const char *p = s; *p; ++p) {
        if (*p < '0' || *p > '9')
            return false;
        const std::uint64_t d = static_cast<std::uint64_t>(*p - '0');
        if (v > (max - d) / 10)
            return false;
        v = v * 10 + d;
    }
    out = v;
    return true;
}

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i < argc; i += 2) {
        if (i + 1 >= argc)
            return false;
        const std::string flag = argv[i];
        const char *val = argv[i + 1];
        std::uint64_t v = 0;
        if (flag == "--workload") {
            a.workload = val;
        } else if (flag == "--seed") {
            if (!parseUnsigned(val, UINT64_MAX, a.seed))
                return false;
        } else if (flag == "--seconds") {
            if (!parseUnsigned(val, 3600, v) || v == 0)
                return false;
            a.seconds = static_cast<unsigned>(v);
        } else if (flag == "--trace") {
            if (!parseUnsigned(val, 1, v))
                return false;
            a.trace = v == 1;
        } else if (flag == "--spans") {
            a.spansPath = val;
        } else {
            return false;
        }
    }
    return grids().count(a.workload) == 1;
}

void
printMetric(const Metric &m)
{
    std::printf("  %-30s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: simbench --workload "
                     "mm_dense|suite_sparse|paper64_sampled [--seed N] "
                     "[--seconds S] [--trace 0|1] [--spans FILE]\n");
        return 2;
    }
    const Grid grid = grids().at(args.workload)(args.seed);
    const Clock::time_point origin = Clock::now();
    const bool selftest_ok = selfTest(args.seed);
    std::printf("selftest: %s\n",
                selftest_ok ? "ok (a panicking cell and a corrupted hash "
                              "each counted as failed)"
                            : "FAILED");

    // --trace 1 alternates untraced and traced passes, so both see the
    // same host conditions and the overhead ratio compares like for like.
    ParallelRunner runner(1, sweepOptions());
    std::vector<Pass> passes;
    const Clock::time_point measure_start = Clock::now();
    while (passes.empty() || (args.trace && passes.size() < 2) ||
           secondsBetween(measure_start, Clock::now()) < args.seconds) {
        const bool traced = args.trace && passes.size() % 2 == 1;
        passes.push_back(runPass(grid, traced, runner));
        std::printf("pass %zu%s: wall %.4f s, setup %.5f s\n",
                    passes.size() - 1, traced ? " (traced)" : "",
                    passes.back().wallS, passes.back().setupS);
    }
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const double peak_rss_mib = static_cast<double>(usage.ru_maxrss) / 1024.0;

    // Correctness, outside the timed region.
    SpanLog spans(origin);
    double reference_s = 0.0;
    const auto refs =
        references(grid, &reference_s, args.trace ? &spans : nullptr);
    std::uint64_t attempted = 0, failed = 0;
    for (std::size_t p = 0; p < passes.size(); ++p) {
        for (std::size_t i = 0; i < grid.cells.size(); ++i) {
            ++attempted;
            const std::string why =
                failure(grid.cells[i], passes[p].cells[i], refs);
            if (!why.empty()) {
                ++failed;
                std::printf("FAILED pass %zu cell %s: %s\n", p,
                            grid.cells[i].key.c_str(), why.c_str());
            }
        }
    }
    std::printf("checks per cell (pass 0):\n");
    for (std::size_t i = 0; i < grid.cells.size(); ++i) {
        const CellRun &c = passes[0].cells[i];
        std::printf("  %-24s hash vs reference %s, verify %s\n",
                    grid.cells[i].key.c_str(),
                    c.reachedCollect ? "ran" : "not reached",
                    c.verifyRan              ? "ran"
                    : grid.cells[i].verify ? "not run"
                                           : "skipped (kernel writes part "
                                             "of the output)");
    }
    const std::uint64_t digest0 = digest(grid, passes[0]);
    bool deterministic = true;
    for (std::size_t p = 1; p < passes.size(); ++p) {
        const std::uint64_t d = digest(grid, passes[p]);
        if (d != digest0) {
            deterministic = false;
            std::printf("FAILED determinism: pass %zu (%s) digest %016llx "
                        "!= pass 0 digest %016llx\n",
                        p, passes[p].traced ? "traced" : "untraced",
                        static_cast<unsigned long long>(d),
                        static_cast<unsigned long long>(digest0));
        }
    }
    std::printf("digest %016llx over %zu passes (%s)\n",
                static_cast<unsigned long long>(digest0), passes.size(),
                deterministic ? "identical" : "DIFFERENT");

    // End-to-end metrics, from the untraced passes.
    std::vector<double> walls, setups, traced_walls;
    for (const Pass &p : passes) {
        (p.traced ? traced_walls : walls).push_back(p.wallS);
        if (!p.traced)
            setups.push_back(p.setupS);
    }
    double sim_speedup = 0.0, elim_rate = 0.0;
    simulatedMetrics(passes[0], &sim_speedup, &elim_rate);
    const std::vector<Metric> end_to_end = {
        {"wall_s", "s", median(walls)},
        {"setup_s", "s", median(setups)},
        {"peak_rss_mib", "MiB", peak_rss_mib},
        {"sim_speedup", "x", sim_speedup},
        {"elim_rate", "fraction", elim_rate},
    };
    std::printf("%s seed %llu: %zu cells x %zu passes in %.1f s\n",
                grid.name.c_str(),
                static_cast<unsigned long long>(args.seed),
                grid.cells.size(), passes.size(),
                secondsBetween(measure_start, Clock::now()));
    std::printf("end to end (median of %zu untraced passes):\n",
                walls.size());
    for (const Metric &m : end_to_end)
        printMetric(m);
    if (grid.paperSpeedup > 0.0) {
        std::printf("  paper_gap %.6g fraction (|sim_speedup - %.2f| / "
                    "%.2f)\n",
                    std::fabs(sim_speedup - grid.paperSpeedup) /
                        grid.paperSpeedup,
                    grid.paperSpeedup, grid.paperSpeedup);
    } else {
        std::printf("  simulated metrics unvalidated: no like-for-like "
                    "paper figure\n");
    }

    std::vector<Metric> reported = end_to_end;
    if (args.trace) {
        // Per-layer metrics: the median over traced passes of each value.
        std::vector<std::vector<Metric>> per_pass;
        for (const Pass &p : passes) {
            if (!p.traced)
                continue;
            per_pass.push_back(layerMetrics(p));
            recordSpans(spans, grid, p);
        }
        reported = per_pass.front();
        for (std::size_t k = 0; k < reported.size(); ++k) {
            std::vector<double> vals;
            for (const auto &pm : per_pass)
                vals.push_back(pm[k].value);
            reported[k].value = median(vals);
        }
        reported.push_back({"verif.reference_s", "s", reference_s});
        reported.push_back({"obs.trace_overhead", "x",
                            ratio(median(traced_walls), median(walls))});
        std::printf("per layer (median of %zu traced passes):\n",
                    per_pass.size());
        for (const Metric &m : reported)
            printMetric(m);
        std::printf("self time by span (traced passes and references):\n");
        for (const auto &[name, s] : spans.selfTimes())
            std::printf("  %-30s %.6f s\n", name.c_str(), s);
        if (!args.spansPath.empty() &&
            !writeFileAtomic(args.spansPath, spans.json())) {
            std::fprintf(stderr, "simbench: cannot write %s\n",
                         args.spansPath.c_str());
            return 1;
        }
    }

    Json metrics = Json::object();
    for (const Metric &m : reported) {
        Json v = Json::object();
        v.set("value", Json::exactNum(m.value)).set("unit", m.unit);
        metrics.set(m.name, std::move(v));
    }
    Json result = Json::object();
    result.set("correct", failed == 0 && deterministic && selftest_ok)
        .set("attempted", attempted)
        .set("failed", failed)
        .set("metrics", std::move(metrics));
    std::printf("%s\n", result.dump(0).c_str());
    return 0;
}
