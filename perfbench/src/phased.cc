/**
 * @file
 * phased_trace: the single-tenant closed loop, no service. The bench
 * drives runtime::EnergyController window by window over
 * scenario::Scenario specs with changePointPolicy=ColdRefit: the
 * drifting, oscillating and load_spike phase schedules of tab04
 * (each repeated several times) and both replays under
 * examples/traces/. One thread.
 *
 * A pass runs every spec to completion. The first pass is scored
 * (energy against the per-phase minimal-energy schedule, deadline
 * hits, controller counts); later passes repeat it until the run's
 * seconds are spent and must reproduce it exactly. The per-window
 * loop mirrors scenario::runScenario frame for frame, which a check
 * after the timed phase confirms bit for bit.
 */

#include <memory>

#include "common.hh"
#include "estimators/leo.hh"
#include "obs/names.hh"
#include "obs/trace.hh"
#include "runtime/controller.hh"
#include "scenario/scenario.hh"
#include "stats/rng.hh"
#include "telemetry/meters.hh"

namespace perfbench
{

namespace
{

namespace names = leo::obs::names;
using leo::runtime::EnergyController;

/** Suite applications the phase schedules run (left out of the
 *  prior); the trace replays are not suite applications. */
const std::vector<std::string> kApps = {"swaptions", "kmeans"};

/** tab04's phase schedules, as DSL phase lines. */
const char *const kDrifting = "phase swaptions frames=100 scale=1.0\n"
                              "phase kmeans frames=75 scale=9.654837\n"
                              "phase kmeans frames=75 scale=8.796630\n"
                              "phase kmeans frames=75 scale=7.938422\n"
                              "phase kmeans frames=75 scale=7.187490\n";
const char *const kOscillating = "phase swaptions frames=120 scale=1.0\n"
                                 "phase kmeans frames=120 scale=9.654837\n"
                                 "phase swaptions frames=120 scale=1.0\n"
                                 "phase kmeans frames=120 scale=9.654837\n";
const char *const kLoadSpike = "phase swaptions frames=100 scale=1.0\n"
                               "phase kmeans frames=70 scale=9.118457\n"
                               "phase kmeans frames=70 scale=7.750689\n"
                               "phase kmeans frames=140 scale=6.588085\n"
                               "phase swaptions frames=100 scale=1.0\n";

struct Shape
{
    std::size_t scored = 0;      //!< Passes scored for quality.
    std::size_t repeats = 0;     //!< Copies of each phase schedule.
    std::size_t traceFrames = 0; //!< Frames of each trace replay.
    std::size_t setups = 0;
    std::size_t refits = 0;      //!< Traced: observation sets re-fitted.
};

Shape
shapeFor(Size size)
{
    Shape s;
    const bool full = size == Size::Full;
    s.scored = full ? 12 : 1;
    s.repeats = full ? 3 : 1;
    s.traceFrames = full ? 800 : 120;
    s.setups = full ? 5 : 1;
    s.refits = full ? 8 : 2;
    return s;
}

/** Seed of scenario i in pass `pass`: every pass draws its own probes
 *  and noise, so a run averages over many change-point histories. */
std::uint64_t
passSeed(std::uint64_t seed, std::size_t pass, std::size_t i)
{
    return mixSeed(mixSeed(seed, pass), i);
}

std::vector<leo::scenario::Spec>
makeSpecs(const Shape &shape, std::uint64_t seed)
{
    std::vector<std::string> texts;
    const std::pair<const char *, const char *> phased[] = {
        {"drifting", kDrifting},
        {"oscillating", kOscillating},
        {"load_spike", kLoadSpike}};
    for (const auto &[name, phases] : phased) {
        std::string text = std::string("name ") + name +
                           "\nworkload phased\n";
        for (std::size_t r = 0; r < shape.repeats; ++r)
            text += phases;
        texts.push_back(text);
    }
    for (const char *file : {"web_requests.csv", "batch_phases.json"})
        texts.push_back(std::string("name ") + file +
                        "\nworkload trace\nframes " +
                        std::to_string(shape.traceFrames) +
                        "\ntrace_file " + PERFBENCH_ROOT +
                        "/examples/traces/" + file + "\n");
    std::vector<leo::scenario::Spec> specs;
    for (std::size_t i = 0; i < texts.size(); ++i) {
        auto spec = leo::scenario::Spec::fromString(texts[i]);
        spec.seed = passSeed(seed, 0, i);
        spec.changePointPolicy = leo::runtime::ChangePointPolicy::ColdRefit;
        specs.push_back(std::move(spec));
    }
    return specs;
}

/** Materialized scenarios plus their per-phase oracle energies. */
struct Setup
{
    World world;
    std::unique_ptr<leo::telemetry::ProfileStore> prior;
    leo::estimators::LeoEstimator estimator;
    std::vector<std::unique_ptr<leo::scenario::Scenario>> scenarios;
    std::vector<std::vector<double>> oracle; //!< [scenario][phase]

    Setup(const Shape &shape, std::uint64_t seed)
        : world(makeWorld(seed)),
          prior(std::make_unique<leo::telemetry::ProfileStore>(
              priorWithout(world.store, kApps))),
          estimator(estimatorOptions())
    {
        for (auto &spec : makeSpecs(shape, seed)) {
            auto sc = std::make_unique<leo::scenario::Scenario>(
                std::move(spec), world.machine, world.space);
            std::vector<double> per_phase;
            for (std::size_t p = 0; p < sc->numPhases(); ++p)
                per_phase.push_back(oracleWindowEnergy(
                    sc->truth(p), sc->targetRate(), world.idlePower));
            oracle.push_back(std::move(per_phase));
            scenarios.push_back(std::move(sc));
        }
    }

    static leo::estimators::LeoOptions estimatorOptions()
    {
        leo::estimators::LeoOptions lo;
        lo.threads = 1;
        return lo;
    }
};

/** Outcome of one spec run, compared across passes bit for bit. */
struct SpecRun
{
    double energy = 0.0;
    std::uint64_t hits = 0;
    std::uint64_t windows = 0;
    std::uint64_t reestimations = 0;
    std::uint64_t changepoints = 0;
    std::uint64_t fallback = 0;
    std::uint64_t probeWindows = 0;

    bool operator==(const SpecRun &) const = default;
};

/** Timings and outcomes of one pass over every spec. */
struct Pass
{
    std::vector<SpecRun> runs;
    Quality quality;
    std::vector<double> stepSysMs;  //!< Every window's system time.
    std::vector<double> plainStepUs; //!< Windows that ran no fit.
    std::vector<double> refitMs;    //!< Windows that completed a fit.
    std::vector<double> onboardMs;  //!< Construction to first control.
    std::vector<double> runMs;      //!< System time of each scenario.
    double genMs = 0.0;
    std::vector<leo::telemetry::Observations> probeSets;
};

/**
 * One pass: every scenario under its own controller, frame by frame
 * in the order of scenario::runScenario (same RNG draws, same energy
 * accounting), with the system calls and the meters on separate
 * clocks. Between scenarios it samples `cal`, when given.
 */
Pass
runPass(Setup &su, std::uint64_t seed, std::size_t index,
        std::size_t refits, Calibration *cal = nullptr)
{
    Pass pass;
    const leo::telemetry::HeartbeatMonitor monitor;
    const leo::telemetry::WattsUpMeter meter;
    for (std::size_t i = 0; i < su.scenarios.size(); ++i) {
        leo::scenario::Scenario &sc = *su.scenarios[i];
        SpecRun run;
        auto t0 = Clock::now();
        EnergyController ctl(su.world.space, &su.estimator, *su.prior,
                             sc.controllerOptions());
        double onboard = msSince(t0);
        double run_ms = onboard;
        bool controlled = false;
        leo::stats::Rng rng(passSeed(seed, index, i));
        leo::telemetry::Observations probes;
        const double rate = sc.targetRate();
        for (std::size_t f = 0; f < sc.totalFrames(); ++f) {
            const std::size_t phase = sc.phaseIndexAt(f);
            t0 = Clock::now();
            const auto &model = sc.behaviorAt(f);
            double gen = msSince(t0);
            const bool sampling =
                ctl.state() == EnergyController::State::Sampling;
            t0 = Clock::now();
            const std::size_t cfg = ctl.nextConfig(rng);
            double sys = msSince(t0);
            const bool valid = cfg < su.world.space.size();
            leo::telemetry::Sample s;
            s.configIndex = valid ? cfg : 0;
            timed(&gen, [&] {
                const auto &ra = su.world.space.assignment(s.configIndex);
                s.heartbeatRate = monitor.measureRate(model, ra, rng);
                s.powerWatts = meter.read(model, ra, rng);
            });
            t0 = Clock::now();
            ctl.recordMeasurement(s);
            const double record = msSince(t0);
            sys += record;
            const bool fitted =
                sampling &&
                ctl.state() == EnergyController::State::Controlling;

            pass.genMs += gen;
            run_ms += sys;
            pass.stepSysMs.push_back(sys);
            if (fitted)
                pass.refitMs.push_back(sys);
            else
                pass.plainStepUs.push_back(1e3 * sys);
            if (!controlled) {
                onboard += sys;
                controlled = fitted;
                if (controlled)
                    pass.onboardMs.push_back(onboard);
            }
            if (sampling)
                probes.push(s);
            if (fitted) {
                if (pass.probeSets.size() < refits)
                    pass.probeSets.push_back(probes);
                probes = {};
            }

            const WindowOutcome w = windowOutcome(
                sc.truth(phase), s.configIndex, rate, su.world.idlePower);
            pass.quality.add(w, su.oracle[i][phase]);
            run.energy += w.energy;
            run.hits += w.hit ? 1 : 0;
            ++run.windows;
            run.probeWindows += sampling ? 1 : 0;
            if (!valid)
                run.windows = 0; // Poisons the comparison below.
        }
        pass.runMs.push_back(run_ms);
        if (cal != nullptr)
            cal->maybeSample();
        run.reestimations = ctl.reestimations();
        run.changepoints = ctl.changePointsDetected();
        run.fallback = ctl.fallbackWindows();
        pass.runs.push_back(run);
    }
    return pass;
}

/** Windows per second of system time over every pass. */
double
windowsPerS(const std::vector<Pass> &passes)
{
    double ms = 0.0, windows = 0.0;
    for (const Pass &p : passes) {
        for (const double step : p.stepSysMs)
            ms += step;
        windows += static_cast<double>(p.stepSysMs.size());
    }
    return 1e3 * windows / ms;
}

double
genShare(const std::vector<Pass> &passes)
{
    double gen = 0.0, sys = 0.0;
    for (const Pass &p : passes) {
        gen += p.genMs;
        for (const double ms : p.stepSysMs)
            sys += ms;
    }
    return gen / (gen + sys);
}

/** Two runs of the same pass must agree exactly: one operation per
 *  scenario and per window. */
void
checkSame(const Pass &a, const Pass &b, Result &res)
{
    for (std::size_t i = 0; i < a.runs.size(); ++i) {
        const bool same = i < b.runs.size() && a.runs[i] == b.runs[i] &&
                          a.runs[i].windows > 0;
        res.op(same);
        for (std::uint64_t w = 0; w < a.runs[i].windows; ++w)
            res.op(same);
        if (!same)
            res.problem("a repeated pass diverged from the first");
    }
}

template <typename T>
std::vector<T>
concat(const std::vector<Pass> &passes, std::vector<T> Pass::*field)
{
    std::vector<T> out;
    for (const Pass &p : passes)
        out.insert(out.end(), (p.*field).begin(), (p.*field).end());
    return out;
}

void
noteShape(Result &res, const Setup &su)
{
    res.note("threads", "1");
    res.note("estimator_threads", "1");
    res.note("configurations", std::to_string(su.world.space.size()));
    res.note("specs", std::to_string(su.scenarios.size()));
    std::size_t frames = 0;
    for (const auto &sc : su.scenarios)
        frames += sc->totalFrames();
    res.note("windows_per_pass", std::to_string(frames));
}

Result
runUntraced(const Options &opt)
{
    const Shape shape = shapeFor(opt.size);
    // Set-ups are sampled before the timed passes and again between
    // them, so set-up figures see the same machine as the timed ones.
    std::vector<double> setup_s;
    auto sample_setup = [&]() {
        const auto t0 = Clock::now();
        auto s = std::make_unique<Setup>(shape, opt.seed);
        setup_s.push_back(msSince(t0) / 1e3);
        return s;
    };
    Calibration cal;
    std::unique_ptr<Setup> su;
    for (std::size_t i = 0; i < shape.setups; ++i) {
        su.reset();
        su = sample_setup();
        cal.sample();
    }

    // Scored passes first, then more (each with its own seeds) until
    // the run's seconds are spent.
    std::vector<Pass> passes;
    const auto t0 = Clock::now();
    for (std::size_t p = 0;
         p < shape.scored || msSince(t0) < 1e3 * opt.seconds; ++p) {
        passes.push_back(runPass(*su, opt.seed, p, 0, &cal));
        sample_setup();
    }
    const std::size_t live_threads = liveThreads();

    Result res;
    checkSame(passes.front(), runPass(*su, opt.seed, 0, 0), res);
    // The per-window loop must match scenario::runScenario bit for
    // bit on the oscillating schedule (its spec carries pass 0's seed).
    {
        auto &sc = *su->scenarios[1];
        const auto ref = leo::scenario::runScenario(sc, &su->estimator,
                                                    *su->prior);
        const SpecRun &mine = passes.front().runs[1];
        const bool same =
            ref.totalEnergy == mine.energy &&
            ref.deadlineHitRate ==
                static_cast<double>(mine.hits) /
                    static_cast<double>(mine.windows) &&
            ref.reestimations == mine.reestimations;
        res.op(same);
        if (!same)
            res.problem("per-window loop disagrees with "
                        "scenario::runScenario");
    }
    noteShape(res, *su);
    res.note("passes", std::to_string(passes.size()));
    res.note("setups", std::to_string(setup_s.size()));
    res.note("threads_observed", std::to_string(live_threads));
    if (live_threads > 1)
        res.problem("more threads than pinned: " +
                    std::to_string(live_threads));

    // No service, so no Service::tick: a tick here is one scenario
    // run, controller construction to last window (a controller
    // window alone takes well under a microsecond, too short to time
    // per call).
    const std::vector<double> ticks = concat(passes, &Pass::runMs);
    const double tail = tailQuantile(ticks.size());
    res.note("tick", "one scenario run");
    std::size_t tail_blocks = 0;
    const double tick_tail = tailLatency(ticks, &tail_blocks);
    res.note("tick_samples", std::to_string(ticks.size()));
    res.note("tick_tail_quantile", tail);
    res.note("tick_p99_blocks", std::to_string(tail_blocks));
    const std::vector<double> refits = concat(passes, &Pass::refitMs);
    res.note("refit_samples", std::to_string(refits.size()));

    Quality q;
    for (std::size_t p = 0; p < shape.scored; ++p) {
        q.energy += passes[p].quality.energy;
        q.oracle += passes[p].quality.oracle;
        q.windows += passes[p].quality.windows;
        q.hits += passes[p].quality.hits;
    }
    res.note("calibration_ms", cal.medianMs());
    res.note("calibration_samples", std::to_string(cal.samples()));
    addTiming(res, cal, "setup_s", median(setup_s), "s");
    res.metric("peak_rss_mb", peakRssMb(), "MiB");
    res.metric("ok_frac",
               static_cast<double>(res.attempted - res.failed) /
                   static_cast<double>(
                       std::max<std::uint64_t>(res.attempted, 1)),
               "ratio");
    addTiming(res, cal, "windows_per_s", windowsPerS(passes), "1/s");
    const std::vector<double> onboard = concat(passes, &Pass::onboardMs);
    double onboard_ms = 0.0;
    for (const double ms : onboard)
        onboard_ms += ms;
    addTiming(res, cal, "tenants_per_s",
              1e3 * static_cast<double>(onboard.size()) / onboard_ms,
              "1/s");
    addTiming(res, cal, "tick_p50_ms", percentile(ticks, 0.5), "ms");
    addTiming(res, cal, "tick_p99_ms", tick_tail, "ms");
    addTiming(res, cal, "refit_p50_ms", median(refits), "ms");
    res.metric("energy_vs_oracle", q.energyVsOracle(), "ratio");
    res.metric("deadline_hit_rate", q.hitRate(), "ratio");
    return res;
}

Result
runTraced(const Options &opt)
{
    const Shape shape = shapeFor(opt.size);
    Setup su(shape, opt.seed);
    std::vector<Pass> plain{runPass(su, opt.seed, 0, 0)};

    leo::obs::Registry &reg = leo::obs::Registry::global();
    leo::obs::Tracer &tracer = leo::obs::Tracer::global();
    RegistryDelta delta;
    reg.setEnabled(true);
    delta.before = reg.snapshot();
    tracer.enable(std::size_t{1} << 18);
    std::vector<Pass> traced{runPass(su, opt.seed, 0, shape.refits)};
    tracer.disable();
    delta.after = reg.snapshot();
    reg.setEnabled(false);
    const auto spans = spanTimes(tracer.chromeTraceJson());

    Result res;
    checkSame(plain.front(), traced.front(), res);
    noteShape(res, su);
    res.note("trace_events_dropped", std::to_string(tracer.dropped()));
    if (tracer.dropped() != 0)
        res.problem("trace buffer overflowed");

    const Pass &p = plain.front();
    std::uint64_t reest = 0, cps = 0, fallback = 0, probe = 0, windows = 0;
    for (const SpecRun &r : p.runs) {
        reest += r.reestimations;
        cps += r.changepoints;
        fallback += r.fallback;
        probe += r.probeWindows;
        windows += r.windows;
    }

    for (const char *name :
         {"service.tick_fit_ms_per_fit", "service.tick_nofit_p50_ms"})
        res.metric(name, 0.0, "ms");
    res.metric("service.next_config_us_p50", 0.0, "us");
    res.metric("service.submit_us_p50", 0.0, "us");
    res.metric("service.cache_hit_ratio", 0.0, "ratio");
    res.metric("service.fits_batched", 0.0, "count");
    res.metric("service.snapshot_ms", 0.0, "ms");
    res.metric("service.restore_ms", 0.0, "ms");
    res.metric("service.snapshot_mb", 0.0, "MB");

    const FitLayer fl = measureFits(su.world.space, *su.prior,
                                    traced.front().probeSets);
    const double em_fits =
        static_cast<double>(delta.counter(names::kEmFitsCompleted));
    res.metric("estimators.cold_fit_p50_ms", fl.coldMsP50, "ms");
    res.metric("estimators.warm_fit_p50_ms", fl.warmMsP50, "ms");
    res.metric("estimators.em_iters_per_fit",
               em_fits > 0.0
                   ? static_cast<double>(
                         delta.counter(names::kEmIterationsRun)) /
                         em_fits
                   : 0.0,
               "count");
    res.metric("estimators.ridge_retries",
               static_cast<double>(delta.counter(names::kEmRidgeRetried)),
               "count");
    res.metric("estimators.incremental_refit_us_p50", fl.incrementalUsP50,
               "us");

    res.metric("runtime.step_us_p50", median(p.plainStepUs), "us");
    res.metric("runtime.reestimations", static_cast<double>(reest),
               "count");
    res.metric("runtime.changepoints", static_cast<double>(cps), "count");
    res.metric("runtime.fallback_windows", static_cast<double>(fallback),
               "count");
    res.metric("runtime.probe_window_share",
               static_cast<double>(probe) / static_cast<double>(windows),
               "ratio");

    std::vector<const leo::workloads::GroundTruth *> truths;
    for (const auto &sc : su.scenarios)
        for (std::size_t ph = 0; ph < sc->numPhases(); ++ph)
            truths.push_back(&sc->truth(ph));
    res.metric("optimizer.hull_walk_us_p50",
               hullWalkUsP50(truths, su.world.idlePower), "us");
    res.metric("optimizer.lp_solves",
               static_cast<double>(delta.counter(names::kLpSolvesRun)),
               "count");
    res.metric("optimizer.lp_pivots_per_tick",
               static_cast<double>(delta.counter(names::kLpPivotsStepped)) /
                   static_cast<double>(windows),
               "count");
    res.metric("parallel.pool_wait_ms_p50",
               delta.histogramMedian(names::kPoolWaitMs), "ms");
    res.metric("parallel.tasks_posted",
               static_cast<double>(delta.counter(names::kPoolTasksPosted)),
               "count");
    res.metric("bench.gen_share", genShare(plain), "ratio");
    res.metric("bench.trace_overhead",
               windowsPerS(traced) / windowsPerS(plain),
               "ratio");
    addSpanMetrics(res, spans);
    return res;
}

} // namespace

Result
runPhasedTrace(const Options &opt)
{
    return opt.trace ? runTraced(opt) : runUntraced(opt);
}

} // namespace perfbench
