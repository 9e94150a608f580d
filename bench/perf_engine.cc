/**
 * @file
 * Engine performance tracking: BENCH_perf.json records wall-clock
 * throughput of the parts simbench does not time on their own.
 *
 *  1. The event engine's throughput on a synthetic event mix (latency
 *     deltas shaped like the simulator's cache/DRAM round trips, capture
 *     sizes shaped like its completion lambdas), with the pool counters
 *     DESIGN.md §8 relies on.
 *  2. Observability, fault-injection and cycle-accounting A/B runs: the
 *     cost of each subsystem when off.
 *  3. The reference executor on the vectorized plane core against its
 *     per-lane specification.
 *  4. Intra-GPU parallel simulation at 1/2/4/8 domain threads.
 *
 * End-to-end simulator speed (the Fig 3 MM grid, the sampled 64-CU
 * run) is simbench's (simbench/run.py). Unlike the figure artifacts,
 * BENCH_perf.json is machine- and run-dependent by design: it reports
 * wall-clock throughput, not simulated results.
 */

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <functional>
#include <thread>
#include <vector>

#include "analysis/json_writer.hh"
#include "analysis/harness.hh"
#include "bench/bench_main.hh"
#include "isa/kernel.hh"
#include "sim/domains.hh"
#include "sim/engine.hh"
#include "verif/kernel_gen.hh"
#include "verif/reference.hh"
#include "workloads/suite.hh"

using namespace lazygpu;

namespace
{

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

/**
 * Drive the synthetic mix through the engine: 64 independent
 * self-rescheduling chains; deltas cycle pseudo-randomly over the
 * simulator's typical latencies (L1 hit .. queued DRAM). The callbacks
 * capture ~40 bytes, like the simulator's transaction completions.
 */
double
eventsPerSecond(Engine &sched, std::uint64_t total_events)
{
    constexpr unsigned kChains = 64;
    static constexpr Tick kDeltas[] = {1,   2,   4,   8,    16,  40,
                                       120, 300, 700, 1500, 2600};
    constexpr unsigned kNumDeltas = sizeof(kDeltas) / sizeof(kDeltas[0]);

    std::uint64_t remaining = total_events;
    std::vector<std::uint32_t> lcg(kChains, 12345);
    std::uint64_t checksum = 0;

    std::function<void(unsigned, Addr, Tick)> fire =
        [&](unsigned c, Addr addr, Tick issued) {
            checksum += addr + issued;
            if (remaining == 0)
                return;
            --remaining;
            lcg[c] = lcg[c] * 1664525u + 1013904223u;
            const Tick d = kDeltas[lcg[c] % kNumDeltas];
            const Addr next_addr = addr + 32;
            const Tick now = sched.now();
            sched.schedule(now + d, [&fire, c, next_addr, now]() {
                fire(c, next_addr, now);
            });
        };

    const auto t0 = std::chrono::steady_clock::now();
    for (unsigned c = 0; c < kChains; ++c) {
        sched.schedule(c + 1, [&fire, c]() { fire(c, 0x1000 * c, 0); });
    }
    sched.run();
    const double secs = secondsSince(t0);

    // The checksum depends on every callback having run; printing it
    // pins the work against dead-code elimination.
    std::printf("  checksum %llx, %.2fs\n",
                static_cast<unsigned long long>(checksum), secs);
    return static_cast<double>(total_events) / secs;
}

/**
 * Domain-scheduler micro: the synthetic chain mix sharded over 8 SA
 * domains, windowed at the production lookahead (52). Chains stay
 * SA-local (each writes only its own state), so the number measures the
 * wheel + window-barrier overhead and whatever parallel speedup the
 * host's cores allow.
 */
double
domainsEventsPerSecond(unsigned threads, std::uint64_t total_events)
{
    constexpr unsigned kSa = 8;
    constexpr unsigned kBanks = 4;
    constexpr unsigned kChains = 64;
    static constexpr Tick kDeltas[] = {1,   2,   4,   8,    16,  40,
                                       120, 300, 700, 1500, 2600};
    constexpr unsigned kNumDeltas = sizeof(kDeltas) / sizeof(kDeltas[0]);

    DomainScheduler::Options o;
    o.lookahead = 52;
    o.threads = threads;
    DomainScheduler sched(o, kSa, kBanks);

    struct Chain
    {
        std::uint32_t lcg = 12345;
        std::uint64_t left = 0;
        std::uint64_t checksum = 0;
    };
    std::vector<Chain> chains(kChains);
    for (Chain &c : chains)
        c.left = total_events / kChains;

    // Chains touch only their own slot and their own SA's engine, so
    // concurrent windows never race.
    std::function<void(unsigned, Addr, Tick)> fire =
        [&](unsigned c, Addr addr, Tick issued) {
            Chain &ch = chains[c];
            ch.checksum += addr + issued;
            if (ch.left == 0)
                return;
            --ch.left;
            ch.lcg = ch.lcg * 1664525u + 1013904223u;
            const Tick d = kDeltas[ch.lcg % kNumDeltas];
            Engine &eng = sched.saEngine(c % kSa);
            const Addr next_addr = addr + 32;
            const Tick now = eng.now();
            eng.schedule(now + d, [&fire, c, next_addr, now]() {
                fire(c, next_addr, now);
            });
        };

    const auto t0 = std::chrono::steady_clock::now();
    for (unsigned c = 0; c < kChains; ++c) {
        sched.saEngine(c % kSa).schedule(
            c + 1, [&fire, c]() { fire(c, 0x1000 * c, 0); });
    }
    sched.run();
    const double secs = secondsSince(t0);

    std::uint64_t checksum = 0;
    for (const Chain &c : chains)
        checksum += c.checksum;
    std::printf("  %u threads: checksum %llx, %.2fs\n", threads,
                static_cast<unsigned long long>(checksum), secs);
    return static_cast<double>(total_events) / secs;
}

/** Minimum of reps timed runs of fn (per-run seconds). */
template <typename Fn>
double
bestOfSecs(unsigned reps, Fn fn)
{
    double best = 1e30;
    for (unsigned r = 0; r < reps; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        fn();
        best = std::min(best, secondsSince(t0));
    }
    return best;
}

/**
 * VALU-dense functional micro: a scalar loop around a straight-line body
 * of 48 fp32 VALU ops over 8 live registers (~6% scalar loop overhead).
 * Values stay bounded (VMinF32 clamp, compare results in {0,1}) so
 * neither path trips denormal slow paths.
 */
Kernel
makeValuDenseKernel(unsigned waves, unsigned iters)
{
    KernelBuilder b("valu_dense");
    b.threadId(0);
    b.valu(Opcode::VCvtF32U32, 1, Src::vreg(0));
    b.valu(Opcode::VMov, 2, Src::immF(1.0009765625f));
    b.valu(Opcode::VMov, 3, Src::immF(0.5f));
    b.valu(Opcode::VMov, 4, Src::immF(0.0f));
    b.salu(Opcode::SMov, 1, Src::imm(0));
    const int loop = b.label();
    b.place(loop);
    for (unsigned u = 0; u < 6; ++u) {
        b.valu(Opcode::VMulF32, 1, Src::vreg(1), Src::vreg(2));
        b.valu(Opcode::VAddF32, 5, Src::vreg(1), Src::vreg(3));
        b.mac(4, Src::vreg(5), Src::vreg(3));
        b.valu(Opcode::VMaxF32, 6, Src::vreg(5), Src::vreg(4));
        b.valu(Opcode::VSubF32, 7, Src::vreg(6), Src::vreg(3));
        b.valu(Opcode::VMinF32, 1, Src::vreg(1), Src::immF(8.0e6f));
        b.valu(Opcode::VCmpGtF32, 8, Src::vreg(7), Src::vreg(4));
        b.valu(Opcode::VAddF32, 4, Src::vreg(4), Src::vreg(8));
    }
    b.salu(Opcode::SAddU32, 1, Src::sreg(1), Src::imm(1));
    b.scmpLt(1, Src::imm(iters));
    b.cbranch1(loop);
    b.endpgm();
    return b.build(waves);
}

/**
 * Memory-mixed functional micro: unit-stride dword and dwordx4 loads and
 * stores interleaved with a little arithmetic, the shape the batched
 * pageForSpan fast path targets. Reported separately from the VALU row
 * because memory traffic bounds the achievable speedup well below the
 * pure-VALU headline.
 */
std::pair<Kernel, GlobalMemory>
makeMemMixedKernel(unsigned waves, unsigned iters)
{
    const std::uint64_t threads = std::uint64_t(waves) * wavefrontSize;
    GlobalMemory mem;
    const Addr in1 = mem.alloc(threads * 4);
    const Addr in4 = mem.alloc(threads * 16);
    const Addr out1 = mem.alloc(threads * 4);
    const Addr out4 = mem.alloc(threads * 16);
    std::vector<float> vals(threads * 4);
    for (std::size_t i = 0; i < vals.size(); ++i)
        vals[i] = 0.25f * static_cast<float>(i % 64);
    mem.writeF32Array(in4, vals);
    vals.resize(threads);
    mem.writeF32Array(in1, vals);

    KernelBuilder b("mem_mixed");
    b.threadId(0);
    b.valu(Opcode::VShlU32, 1, Src::vreg(0), Src::imm(2));
    b.valu(Opcode::VShlU32, 2, Src::vreg(0), Src::imm(4));
    b.salu(Opcode::SMov, 1, Src::imm(0));
    const int loop = b.label();
    b.place(loop);
    b.load(Opcode::LoadDword, 3, 1, in1);
    b.load(Opcode::LoadDwordX4, 4, 2, in4);
    b.valu(Opcode::VAddF32, 8, Src::vreg(3), Src::vreg(4));
    b.mac(9, Src::vreg(5), Src::vreg(6));
    b.valu(Opcode::VMulF32, 8, Src::vreg(8), Src::vreg(7));
    b.store(Opcode::StoreDword, 1, 8, out1);
    b.store(Opcode::StoreDwordX4, 2, 4, out4);
    b.salu(Opcode::SAddU32, 1, Src::sreg(1), Src::imm(1));
    b.scmpLt(1, Src::imm(iters));
    b.cbranch1(loop);
    b.endpgm();
    return {b.build(waves), std::move(mem)};
}

std::uint64_t
peakRssKib()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<std::uint64_t>(ru.ru_maxrss);
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchOptions opt = parseBenchOptions(argc, argv);
    (void)opt; // --jobs accepted for runner compatibility; timing below
               // is deliberately single-threaded.

    constexpr std::uint64_t kMicroEvents = 4'000'000;

    std::printf("Engine performance tracking\n\n");

    std::printf("scheduler micro (%llu events, 64 chains):\n",
                static_cast<unsigned long long>(kMicroEvents));
    Engine engine;
    const double engine_eps = eventsPerSecond(engine, kMicroEvents);
    std::printf("  engine: %.0f events/s\n", engine_eps);

    // Observability A/B: the same cell with the trace sink detached
    // and attached. With tracing off every instrumentation site is one
    // pointer test, so the two runs should be within measurement noise;
    // the artifact records the ratio so a regression in the off path
    // shows up in the history. (That the traced run's *results* are
    // identical is pinned by test_obs.cc.)
    std::printf("\nobs A/B (MM 1024 waves, LazyCore):\n");
    auto obsCell = [](bool traces) {
        WorkloadParams p;
        p.scale = 16;
        Workload w = makeMM(p, 1024);
        GpuConfig cfg = GpuConfig::r9Nano().scaled(4);
        cfg.mode = ExecMode::LazyCore;
        cfg.enableTraces = traces; // empty tracePath: in-memory sink
        const auto t0 = std::chrono::steady_clock::now();
        runWorkload(cfg, w, false);
        return secondsSince(t0);
    };
    const double obs_off_secs = obsCell(false);
    const double obs_on_secs = obsCell(true);
    std::printf("  tracing off %.2fs, on (in-memory) %.2fs, "
                "on/off %.2fx\n",
                obs_off_secs, obs_on_secs, obs_on_secs / obs_off_secs);

    // Fault-injection A/B: the same cell with no injector and with one
    // armed at a cycle the run never reaches (every hook evaluates, the
    // fault never fires). With injection off every hook is one
    // null-pointer test — the same contract as the trace sink — so the
    // two runs should be within noise; the ratio lands in the artifact
    // so a regression in the off path shows up in the history.
    std::printf("\ninject A/B (MM 1024 waves, LazyCore):\n");
    auto injectCell = [](const char *plan) {
        WorkloadParams p;
        p.scale = 16;
        Workload w = makeMM(p, 1024);
        GpuConfig cfg = GpuConfig::r9Nano().scaled(4);
        cfg.mode = ExecMode::LazyCore;
        cfg.injectPlan = plan;
        const auto t0 = std::chrono::steady_clock::now();
        runWorkload(cfg, w, false);
        return secondsSince(t0);
    };
    const double inj_off_secs = injectCell("");
    const double inj_armed_secs = injectCell(
        "site=mem-resp-flip,cycle=9000000000000000000,cu=0,seed=1");
    std::printf("  injection off %.2fs, armed-never-fires %.2fs, "
                "armed/off %.2fx\n",
                inj_off_secs, inj_armed_secs,
                inj_armed_secs / inj_off_secs);

    // Cycle-accounting A/B: the same cell with per-CU cycle accounting
    // off and on. Off is the default and must stay within the
    // trace-sink contract — one predicted branch per tick site — with
    // an acceptance bar of <2% against a build that predates the
    // subsystem; on pays the incremental bucket arithmetic. Both
    // ratios land in the artifact history.
    std::printf("\ncycacct A/B (MM 1024 waves, LazyCore):\n");
    auto cycacctCell = [](bool on) {
        WorkloadParams p;
        p.scale = 16;
        Workload w = makeMM(p, 1024);
        GpuConfig cfg = GpuConfig::r9Nano().scaled(4);
        cfg.mode = ExecMode::LazyCore;
        cfg.cycleAccounting = on;
        const auto t0 = std::chrono::steady_clock::now();
        runWorkload(cfg, w, false);
        return secondsSince(t0);
    };
    const double cyc_off_secs = cycacctCell(false);
    const double cyc_on_secs = cycacctCell(true);
    std::printf("  accounting off %.2fs, on %.2fs, on/off %.2fx\n",
                cyc_off_secs, cyc_on_secs, cyc_on_secs / cyc_off_secs);

    // Vectorized functional backend (src/isa/simd.cc): the untimed
    // reference executor timed on its per-lane specification
    // (runReferenceScalar) vs the plane core (runReference), on (a) a
    // VALU-dense micro (the headline number, >= 10x), (b) a
    // memory-mixed micro (honest lower bound: unit-stride loads/stores
    // batched through pageForSpan), and (c) the fuzz generator's kernel
    // mix (what the 20k-seed differential sweep actually pays). What
    // auto-vectorization alone buys is asserted by the guard in
    // test_simd_equiv.cc.
    std::printf("\nfunctional_simd:\n");
    auto refSecs = [](auto run, const Kernel &k, const GlobalMemory &img,
                      std::uint64_t *insts) {
        return bestOfSecs(3, [&]() {
            GlobalMemory mem = img;
            verif::RefResult r = run(k, mem, 8'000'000);
            if (!r.ok())
                std::printf("  reference ERROR: %s\n", r.error.c_str());
            *insts = r.instsExecuted;
        });
    };

    const Kernel valu_k = makeValuDenseKernel(128, 128);
    const GlobalMemory valu_img;
    std::uint64_t valu_insts = 0;
    const double valu_scalar_s =
        refSecs(verif::runReferenceScalar, valu_k, valu_img, &valu_insts);
    const double valu_simd_s =
        refSecs(verif::runReference, valu_k, valu_img, &valu_insts);
    std::printf("  valu micro: %llu insts, scalar %.1fms, simd %.1fms, "
                "%.2fx\n",
                static_cast<unsigned long long>(valu_insts),
                valu_scalar_s * 1e3, valu_simd_s * 1e3,
                valu_scalar_s / valu_simd_s);

    const auto [mem_k, mem_img] = makeMemMixedKernel(256, 64);
    std::uint64_t mem_insts = 0;
    const double mem_scalar_s =
        refSecs(verif::runReferenceScalar, mem_k, mem_img, &mem_insts);
    const double mem_simd_s =
        refSecs(verif::runReference, mem_k, mem_img, &mem_insts);
    std::printf("  mem mixed:  %llu insts, scalar %.1fms, simd %.1fms, "
                "%.2fx\n",
                static_cast<unsigned long long>(mem_insts),
                mem_scalar_s * 1e3, mem_simd_s * 1e3,
                mem_scalar_s / mem_simd_s);

    constexpr unsigned kFuzzSeeds = 200;
    std::vector<verif::GeneratedCase> fuzz_cases;
    for (unsigned s = 0; s < kFuzzSeeds; ++s) {
        verif::GenOptions o;
        o.seed = s;
        fuzz_cases.push_back(verif::generateCase(o));
    }
    auto fuzzSecs = [&](auto run, std::uint64_t *insts) {
        return bestOfSecs(3, [&]() {
            std::uint64_t n = 0;
            for (const verif::GeneratedCase &c : fuzz_cases) {
                GlobalMemory mem = c.image;
                n += run(c.kernel, mem, 8'000'000).instsExecuted;
            }
            *insts = n;
        });
    };
    std::uint64_t fuzz_insts = 0;
    const double fuzz_scalar_s =
        fuzzSecs(verif::runReferenceScalar, &fuzz_insts);
    const double fuzz_simd_s = fuzzSecs(verif::runReference, &fuzz_insts);
    std::printf("  fuzz mix:   %u seeds, %llu insts, scalar %.1fms, "
                "simd %.1fms, %.2fx\n",
                kFuzzSeeds, static_cast<unsigned long long>(fuzz_insts),
                fuzz_scalar_s * 1e3, fuzz_simd_s * 1e3,
                fuzz_scalar_s / fuzz_simd_s);

    // Intra-GPU parallel simulation: (a) the domain-scheduler micro at
    // 1/2/4/8 worker threads, (b) the paper-scale 64-CU fig03 MM cell
    // (2048 waves, fully timed) on the sharded engine at the same
    // thread counts. Simulated results are thread-count-independent
    // (pinned by test_sa_parallel.cc); these numbers record what the
    // parallelism buys in wall clock on THIS host -- on a single-core
    // runner the overhead of the extra threads shows up honestly as
    // speedup < 1.
    std::printf("\nsa_parallel micro (%llu events, 8 SA domains):\n",
                static_cast<unsigned long long>(kMicroEvents));
    const std::vector<unsigned> kSaThreads = {1, 2, 4, 8};
    std::vector<double> domain_eps;
    for (unsigned n : kSaThreads)
        domain_eps.push_back(domainsEventsPerSecond(n, kMicroEvents));

    std::printf("\nsa_parallel fig03 cell (MM 2048 waves, LazyCore, "
                "64 CUs, full timing):\n");
    // Each cell also runs the scheduler's self-profiler
    // (cfg.profileScheduler): per-phase wall time, coordinator barrier
    // wait, serial coordinator work and per-domain runWindow seconds
    // feed the sa_parallel rows, so a scaling regression shows *where*
    // the wall time went, not just that it grew.
    struct SaCellResult
    {
        double secs;
        Tick cycles;
        DomainScheduler::Profile prof;
    };
    auto saCell = [](unsigned threads) {
        WorkloadParams p;
        p.sparsity = 0.0;
        p.scale = 16;
        Workload w = makeMM(p, 2048);
        GpuConfig cfg = GpuConfig::r9Nano();
        cfg.mode = ExecMode::LazyCore;
        cfg.saThreads = threads;
        cfg.profileScheduler = true;
        const auto t0 = std::chrono::steady_clock::now();
        // Inline runWorkload body: the Gpu must stay alive to harvest
        // the scheduler profile after the run.
        Gpu gpu(cfg, *w.mem);
        Tick cycles = 0;
        for (const Kernel &k : w.kernels)
            cycles += gpu.run(k).estCycles;
        SaCellResult out{secondsSince(t0), cycles, {}};
        if (gpu.domains())
            out.prof = gpu.domains()->profile();
        return out;
    };
    std::vector<double> sa_cell_secs;
    std::vector<DomainScheduler::Profile> sa_cell_profs;
    Tick sa_cell_cycles = 0;
    for (unsigned n : kSaThreads) {
        const auto [secs, cycles, prof] = saCell(n);
        sa_cell_profs.push_back(prof);
        if (sa_cell_cycles == 0)
            sa_cell_cycles = cycles;
        else if (sa_cell_cycles != cycles)
            std::printf("  WARNING: cycles diverged across thread "
                        "counts (%llu vs %llu)\n",
                        static_cast<unsigned long long>(sa_cell_cycles),
                        static_cast<unsigned long long>(cycles));
        sa_cell_secs.push_back(secs);
        std::printf("  %u threads: %.2fs (%.2fx vs 1 thread)\n", n, secs,
                    sa_cell_secs.front() / secs);
    }

    std::printf("\npeak RSS: %llu KiB\n",
                static_cast<unsigned long long>(peakRssKib()));

    Json micro = Json::object();
    micro.set("events", kMicroEvents)
        .set("engine_events_per_sec", engine_eps)
        .set("engine_pool_chunks", engine.poolChunks())
        .set("engine_oversized_events", engine.oversizedEvents());

    Json obs_ab = Json::object();
    obs_ab.set("off_ms", obs_off_secs * 1e3)
        .set("on_ms", obs_on_secs * 1e3)
        .set("on_over_off", obs_on_secs / obs_off_secs);

    Json inject_ab = Json::object();
    inject_ab.set("off_ms", inj_off_secs * 1e3)
        .set("armed_ms", inj_armed_secs * 1e3)
        .set("armed_over_off", inj_armed_secs / inj_off_secs);

    Json cycacct_ab = Json::object();
    cycacct_ab.set("off_ms", cyc_off_secs * 1e3)
        .set("on_ms", cyc_on_secs * 1e3)
        .set("on_over_off", cyc_on_secs / cyc_off_secs);

    Json sa_parallel = Json::object();
    Json sa_rows = Json::array();
    for (std::size_t i = 0; i < kSaThreads.size(); ++i) {
        Json row = Json::object();
        row.set("threads", kSaThreads[i])
            .set("micro_events_per_sec", domain_eps[i])
            .set("micro_speedup", domain_eps[i] / domain_eps.front())
            .set("fig03_cell_ms", sa_cell_secs[i] * 1e3)
            .set("fig03_cell_speedup",
                 sa_cell_secs.front() / sa_cell_secs[i]);
        const DomainScheduler::Profile &prof = sa_cell_profs[i];
        Json prof_json = Json::object();
        prof_json.set("windows", prof.windows)
            .set("sa_phase_ms", prof.saPhaseSec * 1e3)
            .set("bank_phase_ms", prof.bankPhaseSec * 1e3)
            .set("barrier_wait_ms", prof.barrierWaitSec * 1e3)
            .set("coord_serial_ms", prof.coordSerialSec * 1e3);
        Json domain_ms = Json::array();
        for (double s : prof.domainSec)
            domain_ms.push(s * 1e3);
        prof_json.set("domain_ms", std::move(domain_ms));
        row.set("profile", std::move(prof_json));
        sa_rows.push(std::move(row));
    }
    sa_parallel.set("rows", std::move(sa_rows))
        .set("fig03_cell_waves", 2048u)
        .set("fig03_cell_cycles", sa_cell_cycles)
        .set("hardware_threads", std::thread::hardware_concurrency());

    Json fsimd = Json::object();
    {
        Json valu = Json::object();
        valu.set("insts", valu_insts)
            .set("scalar_ms", valu_scalar_s * 1e3)
            .set("simd_ms", valu_simd_s * 1e3)
            .set("simd_minsts_per_sec",
                 static_cast<double>(valu_insts) / valu_simd_s / 1e6)
            .set("speedup", valu_scalar_s / valu_simd_s);
        Json memmix = Json::object();
        memmix.set("insts", mem_insts)
            .set("scalar_ms", mem_scalar_s * 1e3)
            .set("simd_ms", mem_simd_s * 1e3)
            .set("speedup", mem_scalar_s / mem_simd_s);
        Json fuzzmix = Json::object();
        fuzzmix.set("seeds", kFuzzSeeds)
            .set("insts", fuzz_insts)
            .set("scalar_ms", fuzz_scalar_s * 1e3)
            .set("simd_ms", fuzz_simd_s * 1e3)
            .set("speedup", fuzz_scalar_s / fuzz_simd_s);
        fsimd.set("valu_micro", std::move(valu))
            .set("memory_mixed", std::move(memmix))
            .set("fuzz_mix", std::move(fuzzmix));
    }

    Json data = Json::object();
    data.set("scheduler_micro", std::move(micro))
        .set("obs_ab", std::move(obs_ab))
        .set("inject_ab", std::move(inject_ab))
        .set("cycacct_ab", std::move(cycacct_ab))
        .set("functional_simd", std::move(fsimd))
        .set("sa_parallel", std::move(sa_parallel))
        .set("peak_rss_kib", peakRssKib());
    writeBenchJson("perf", data);
    return 0;
}
