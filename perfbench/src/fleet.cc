/**
 * @file
 * The two fleet workloads, both closed loops through
 * leo::service::Service on the 1024-configuration space:
 *
 *  - fleet_onboard: continuous churn. The fleet is held at N tenants;
 *    every window the oldest k close and k new ones are admitted,
 *    rotating over six suite applications with their own demands and
 *    seeds. Incremental refits and global planning are off, so nearly
 *    every tick carries a batch of cold low-rank fits.
 *  - fleet_steady: a fixed fleet fitted during set-up, then a long
 *    controlling phase with incremental refits, change-point
 *    detection (ColdRefit), global planning under a binding power cap,
 *    a snapshot every K windows and one restore into a fresh service.
 *
 * Threads: the service pool has exactly one worker and the estimator
 * runs its fits serially (LeoOptions::threads = 1), so a run uses two
 * threads and nothing nests onto a shared pool.
 *
 * Every timed window runs: per tenant nextConfig -> measure ->
 * submit, then one tick. Only the service calls are on the system
 * clock; the meters run on the generator clock. Quality metrics and
 * counts come from the first `prefix` timed windows, a pure function
 * of (workload, seed); throughput and latency use every timed window.
 */

#include <algorithm>
#include <array>
#include <deque>
#include <memory>

#include "common.hh"
#include "estimators/leo.hh"
#include "linalg/serialize.hh"
#include "obs/names.hh"
#include "obs/trace.hh"
#include "optimizer/global.hh"
#include "parallel/thread_pool.hh"
#include "runtime/incremental.hh"
#include "service/service.hh"
#include "stats/rng.hh"
#include "telemetry/meters.hh"
#include "workloads/app_model.hh"
#include "workloads/suite.hh"

namespace perfbench
{

namespace
{

using leo::service::Service;
using leo::service::TickReport;
namespace names = leo::obs::names;

/** Suite applications the fleets rotate over; all left out of the
 *  fleets' offline prior. */
const std::vector<std::string> kApps = {"x264",   "bodytrack", "swaptions",
                                        "kmeans", "cfd",       "bfs"};

/** The one seed of fleet_steady's world and noise (see Plan). */
constexpr std::uint64_t kSteadySeed = 0x57ead;

/** Probes per (re-)estimation, about the paper's 20 of 1024. */
constexpr std::size_t kSampleBudget = 20;

enum class Mode
{
    Onboard,
    Steady
};

/** Run lengths of one fleet workload. */
struct Shape
{
    std::size_t tenants = 0;  //!< Fleet size N.
    std::size_t churn = 0;    //!< Tenants replaced per window (Onboard).
    std::size_t prefix = 0;   //!< Timed windows scored for quality.
    std::size_t block = 0;    //!< Windows per throughput sample.
    std::size_t replay = 0;   //!< Timed windows re-run at the other
                              //!< thread count.
    std::size_t setups = 0;   //!< Set-up repetitions.
    std::size_t snapshotEvery = 0; //!< Steady: snapshot period.
    std::size_t restoreAt = 0;     //!< Steady: restore window.
    std::size_t snapshotPhase = 0; //!< Steady: snapshot cadence offset.
    std::size_t refits = 0;   //!< Traced: observation sets re-fitted.
};

Shape
shapeFor(Mode mode, Size size, std::uint64_t seed)
{
    Shape s;
    const bool full = size == Size::Full;
    if (mode == Mode::Onboard) {
        s.tenants = full ? 64 : 24;
        s.churn = full ? 2 : 1;
        s.prefix = full ? 240 : 12;
        s.block = full ? 8 : 4;
        s.replay = full ? 24 : 6;
    } else {
        s.tenants = full ? 8 : 4;
        s.prefix = full ? 400 : 24;
        s.block = full ? 16 : 4;
        s.replay = full ? 32 : 8;
        s.snapshotEvery = full ? 40 : 8;
    }
    if (mode == Mode::Steady)
        s.restoreAt = s.prefix / 4 + seed % (s.prefix / 2);
    s.snapshotPhase = seed % std::max<std::size_t>(s.snapshotEvery, 1);
    s.setups = full ? 5 : 1;
    s.refits = full ? 12 : 2;
    return s;
}

/** One suite application: model, ground truth and peak rate. */
struct App
{
    std::string name;
    leo::workloads::ApplicationModel model;
    leo::workloads::GroundTruth truth;
    double peak = 0.0;
};

std::vector<App>
makeApps(const World &w)
{
    std::vector<App> apps;
    for (const std::string &name : kApps) {
        leo::workloads::ApplicationModel model(
            leo::workloads::profileByName(name), w.machine);
        auto truth = leo::workloads::computeGroundTruth(model, w.space);
        double peak = 0.0;
        for (std::size_t c = 0; c < w.space.size(); ++c)
            peak = std::max(peak, truth.performance[c]);
        apps.push_back(App{name, std::move(model), std::move(truth), peak});
    }
    return apps;
}

/**
 * A tenant's admission parameters. The fleet's mix (application and
 * demand by admission index) is the same for every seed. For
 * fleet_onboard the seed draws each tenant's probes and measurement
 * noise. fleet_steady runs the same prior, fleet and noise for every
 * seed:
 * the global LP dominates its ticks and its pivot count varies
 * fivefold between fits, so seed-drawn estimates would make the
 * timing a lottery over seeds. There the seed places the restore and
 * the snapshot cadence (see drive()).
 */
struct Plan
{
    std::size_t app = 0;
    double rate = 0.0;
    std::uint64_t probeSeed = 0;
    std::uint64_t noiseSeed = 0;
    double oracle = 0.0; //!< Minimal window energy at `rate`.
};

Plan
makePlan(Mode mode, std::uint64_t seed, std::size_t i,
         const std::vector<App> &apps, std::size_t tenants)
{
    leo::stats::Rng mix(mixSeed(0x6d1c, i));
    Plan p;
    p.app = i % apps.size();
    // Onboarding tenants ask for a quarter to ~60% of their peak.
    // Steady tenants share one machine under the global planner, so
    // their demands sum to ~20% of it.
    const double frac =
        mode == Mode::Onboard
            ? mix.uniform(0.25, 0.6)
            : 0.2 / static_cast<double>(tenants) * mix.uniform(0.6, 1.4);
    p.rate = frac * apps[p.app].peak;
    const std::uint64_t base =
        mixSeed(mode == Mode::Onboard ? seed : kSteadySeed, i);
    p.probeSeed = mixSeed(base, 2);
    p.noiseSeed = mixSeed(base, 3);
    return p;
}

/** A live tenant as the bench sees it. */
struct Tenant
{
    std::uint64_t id = 0;
    std::size_t plan = 0;
    leo::stats::Rng noise;
    std::size_t age = 0; //!< Windows submitted so far.
    leo::telemetry::Observations probes; //!< First kSampleBudget samples.
};

/** Per-window measurements of the timed phase. */
struct WindowRecord
{
    double sysMs = 0.0;
    double genMs = 0.0;
    double tickMs = 0.0;
    std::size_t tenantWindows = 0;
    std::size_t onboarded = 0;
    TickReport report;
};

/** Everything a fleet run needs, rebuilt by every set-up. */
class Fleet
{
  public:
    Fleet(Mode mode, const Shape &shape, std::uint64_t seed,
          std::size_t threads)
        : mode_(mode), shape_(shape), seed_(seed),
          world_(makeWorld(mode == Mode::Onboard ? seed : kSteadySeed)),
          apps_(makeApps(world_)),
          prior_(std::make_shared<const leo::telemetry::ProfileStore>(
              priorWithout(world_.store, kApps))),
          estimator_(estimatorOptions()), pool_(threads - 1)
    {
        // Oracle energies for every tenant the scored prefix admits.
        const std::size_t planned =
            mode_ == Mode::Onboard
                ? shape_.tenants + shape_.churn * (shape_.prefix + 1)
                : shape_.tenants;
        for (std::size_t i = 0; i < planned; ++i) {
            Plan p = makePlan(mode_, seed_, i, apps_, shape_.tenants);
            p.oracle = oracleWindowEnergy(apps_[p.app].truth, p.rate,
                                          world_.idlePower);
            plans_.push_back(p);
        }
        options_ = serviceOptions();
        service_ = std::make_unique<Service>(world_.space, estimator_,
                                             prior_, pool_, options_);
    }

    /**
     * Admit the fleet and run it to the first timed window. Records
     * how long the initial fleet took from admission to its first
     * controlled window (Steady) and the ticks that applied fits.
     */
    void warmUp()
    {
        if (mode_ == Mode::Steady) {
            double admit_ms = 0.0;
            for (std::size_t i = 0; i < shape_.tenants; ++i)
                admit(&admit_ms);
            onboardMs_ = admit_ms;
            // Probe, fit, then let the detectors finish their warm-up.
            for (std::size_t w = 0; w < kSampleBudget + 4; ++w) {
                const WindowRecord rec = window(false);
                if (w < kSampleBudget)
                    onboardMs_ += rec.sysMs;
                if (rec.report.tenantsFitted > 0)
                    warmupFitTicksMs_.push_back(rec.tickMs);
            }
        } else {
            while (live_.size() < shape_.tenants)
                window(false);
        }
    }

    /** One timed window; `scored` adds it to the quality totals. */
    WindowRecord window(bool scored)
    {
        WindowRecord rec;
        if (mode_ == Mode::Onboard) {
            if (live_.size() >= shape_.tenants)
                for (std::size_t k = 0; k < shape_.churn; ++k) {
                    const std::uint64_t id = live_.front().id;
                    const bool ok = timed(&rec.sysMs, [&] {
                        return service_->close(id);
                    });
                    check(ok, "close of a live tenant failed");
                    live_.pop_front();
                }
            for (std::size_t k = 0;
                 k < shape_.churn && live_.size() < shape_.tenants; ++k)
                admit(&rec.sysMs);
        }

        if (recordSchedule_)
            schedule_.emplace_back();
        std::size_t due = 0; // Tenants whose probe plan ends now.
        for (Tenant &t : live_) {
            const Plan &p = plan(t.plan);
            const App &app = apps_[p.app];
            auto t0 = Clock::now();
            const std::size_t cfg = service_->nextConfig(t.id);
            const double next_ms = msSince(t0);
            rec.sysMs += next_ms;
            nextConfigUs_.push_back(1e3 * next_ms);
            const bool valid = cfg < world_.space.size();
            leo::telemetry::Sample s;
            s.configIndex = valid ? cfg : 0;
            timed(&rec.genMs, [&] {
                const auto &ra = world_.space.assignment(s.configIndex);
                s.heartbeatRate = monitor_.measureRate(app.model, ra, t.noise);
                s.powerWatts = meter_.read(app.model, ra, t.noise);
            });
            t0 = Clock::now();
            const bool sent = service_->submit(t.id, s);
            const double submit_ms = msSince(t0);
            rec.sysMs += submit_ms;
            submitUs_.push_back(1e3 * submit_ms);
            result_.op(valid && sent);
            check(valid && sent, "nextConfig/submit rejected");
            if (recordSchedule_)
                schedule_.back().push_back(cfg);
            if (t.age < kSampleBudget) {
                t.probes.push(s);
                if (t.age + 1 == kSampleBudget) {
                    ++due;
                    if (probeSets_.size() < shape_.refits)
                        probeSets_.push_back(t.probes);
                }
            }
            ++t.age;
            if (scored)
                quality_.add(windowOutcome(app.truth, s.configIndex,
                                           p.rate, world_.idlePower),
                             p.oracle);
            ++rec.tenantWindows;
        }
        const auto t0 = Clock::now();
        rec.report = service_->tick();
        rec.tickMs = msSince(t0);
        rec.sysMs += rec.tickMs;

        check(rec.report.windowsProcessed == rec.tenantWindows,
              "tick processed a different number of windows");
        // Every tenant whose probe plan just completed must leave
        // this tick fitted (from the batch or the cache).
        for (std::size_t i = 0; i < due; ++i)
            result_.op(rec.report.tenantsFitted >= due);
        check(rec.report.tenantsFitted >= due,
              "a tenant finished probing but was not fitted");
        rec.onboarded = due;
        if (recordSchedule_)
            reports_.push_back({rec.report.fitsBatched,
                                rec.report.cacheHits,
                                rec.report.tenantsFitted});
        if (scored) {
            fitsBatched_ += rec.report.fitsBatched;
            cacheHits_ += rec.report.cacheHits;
            tenantsFitted_ += rec.report.tenantsFitted;
            plans_feasible_ += rec.report.globalFeasible ? 1 : 0;
        }
        return rec;
    }

    /** Save a snapshot (timed into rec); returns its size in bytes. */
    std::size_t snapshot(WindowRecord &rec)
    {
        leo::linalg::ByteWriter w;
        const auto t0 = Clock::now();
        service_->saveSnapshot(w);
        const double ms = msSince(t0);
        rec.sysMs += ms;
        snapshotMs_.push_back(ms);
        return w.bytes().size();
    }

    /**
     * Snapshot, restore into a fresh service and continue there. The
     * restored service must re-save byte-identical state.
     */
    void restore(WindowRecord &rec)
    {
        leo::linalg::ByteWriter w;
        double ms = 0.0;
        timed(&ms, [&] { service_->saveSnapshot(w); });
        snapshotMs_.push_back(ms);
        rec.sysMs += ms;
        missesBefore_ += cacheMisses();
        auto fresh = std::make_unique<Service>(world_.space, estimator_,
                                               prior_, pool_, options_);
        leo::linalg::ByteReader r(w.bytes());
        const auto t0 = Clock::now();
        const bool ok = fresh->restoreSnapshot(r);
        restoreMs_ = msSince(t0);
        rec.sysMs += restoreMs_;
        leo::linalg::ByteWriter again;
        fresh->saveSnapshot(again);
        const bool same = ok && again.bytes() == w.bytes();
        result_.op(same);
        check(same, "restored service does not re-save its snapshot");
        service_ = std::move(fresh);
    }

    /** Cold-fit cache misses of the current service instance. */
    std::uint64_t cacheMisses() const
    {
        return service_->metrics().snapshot().counterOr(
            names::kServiceCacheMisses);
    }

    /** Runtime counters of every live controller, decoded from a
     *  service snapshot (the controllers' registries are private). */
    bool controllerCounters(std::uint64_t *reest, std::uint64_t *cps,
                            std::uint64_t *fallback);

    void check(bool ok, const char *what)
    {
        if (!ok && std::find(result_.problems.begin(),
                             result_.problems.end(),
                             what) == result_.problems.end())
            result_.problem(what);
    }

    const Plan &plan(std::size_t i)
    {
        while (plans_.size() <= i)
            plans_.push_back(makePlan(mode_, seed_, plans_.size(), apps_,
                                      shape_.tenants));
        return plans_[i];
    }

    Mode mode_;
    Shape shape_;
    std::uint64_t seed_;
    World world_;
    std::vector<App> apps_;
    std::shared_ptr<const leo::telemetry::ProfileStore> prior_;
    leo::estimators::LeoEstimator estimator_;
    leo::parallel::ThreadPool pool_;
    leo::service::ServiceOptions options_;
    std::unique_ptr<Service> service_;
    const leo::telemetry::HeartbeatMonitor monitor_;
    const leo::telemetry::WattsUpMeter meter_;
    std::vector<Plan> plans_;
    std::deque<Tenant> live_;
    std::size_t admitted_ = 0;

    Result result_;
    Quality quality_;
    std::uint64_t fitsBatched_ = 0;
    std::uint64_t cacheHits_ = 0;
    std::uint64_t tenantsFitted_ = 0;
    std::uint64_t plans_feasible_ = 0;
    std::uint64_t missesBefore_ = 0;
    double onboardMs_ = 0.0;
    std::vector<double> warmupFitTicksMs_;
    std::vector<double> nextConfigUs_;
    std::vector<double> submitUs_;
    std::vector<double> snapshotMs_;
    double restoreMs_ = 0.0;
    std::size_t snapshotBytes_ = 0;
    /** Every nextConfig answer and tick report while recording, for
     *  the thread-count comparison. */
    bool recordSchedule_ = true;
    std::vector<std::vector<std::size_t>> schedule_;
    std::vector<std::array<std::size_t, 3>> reports_;
    /** Observation sets of the first tenants, for traced re-fits. */
    std::vector<leo::telemetry::Observations> probeSets_;

  private:
    static leo::estimators::LeoOptions estimatorOptions()
    {
        leo::estimators::LeoOptions lo;
        lo.threads = 1; // Fits run on the service pool, never nested.
        return lo;
    }

    leo::service::ServiceOptions serviceOptions() const
    {
        leo::service::ServiceOptions so;
        so.maxTenants = shape_.tenants + shape_.churn;
        so.controller.sampleBudget = kSampleBudget;
        so.controller.idlePower = world_.idlePower;
        if (mode_ == Mode::Steady) {
            so.controller.refitMode = leo::runtime::RefitMode::Incremental;
            so.controller.changePointPolicy =
                leo::runtime::ChangePointPolicy::ColdRefit;
            so.globalPlanning = true;
            so.powerCapWatts = bindingCap();
        }
        return so;
    }

    /**
     * A machine power cap 2% (of the span above idle) below the peak
     * interval power of the uncapped ground-truth co-schedule, so the
     * planner's cap rows bind. Tighter caps make most estimated
     * fleets infeasible, and the planner then spends seconds per tick
     * proving it.
     */
    double bindingCap() const
    {
        std::vector<leo::optimizer::TenantDemand> demands;
        for (std::size_t i = 0; i < shape_.tenants; ++i) {
            const Plan &p = plans_[i];
            leo::optimizer::TenantDemand d;
            d.performance = apps_[p.app].truth.performance;
            d.power = apps_[p.app].truth.power;
            d.constraint.deadlineSeconds = 1.0; // The planning horizon.
            d.constraint.work = p.rate;
            demands.push_back(std::move(d));
        }
        const double idle = world_.idlePower;
        const auto plan = leo::optimizer::planGlobalSchedule(demands, idle);
        double peak = idle;
        double start = 0.0;
        for (const auto &iv : plan.intervals) {
            const double len = iv.endSeconds - start;
            peak = std::max(peak, idle + iv.activeEnergyJoules / len);
            start = iv.endSeconds;
        }
        return idle + 0.98 * (peak - idle);
    }

    void admit(double *sys_ms = nullptr)
    {
        const std::size_t index = admitted_++;
        const Plan &p = plan(index);
        leo::service::TenantConfig cfg;
        cfg.appId = apps_[p.app].name;
        cfg.targetRate = p.rate;
        cfg.seed = p.probeSeed;
        double ignored = 0.0;
        const auto id = timed(sys_ms ? sys_ms : &ignored,
                              [&] { return service_->admit(cfg); });
        result_.op(id.has_value());
        check(id.has_value(), "admission rejected");
        if (!id)
            return;
        Tenant t;
        t.id = *id;
        t.plan = index;
        t.noise = leo::stats::Rng(p.noiseSeed);
        live_.push_back(std::move(t));
    }
};

bool
Fleet::controllerCounters(std::uint64_t *reest, std::uint64_t *cps,
                          std::uint64_t *fallback)
{
    // Service snapshot layout v2 (service/service.cc): a header, then
    // per session its admission record followed by the controller
    // state, which EnergyController::restoreState reads back.
    leo::linalg::ByteWriter w;
    service_->saveSnapshot(w);
    leo::linalg::ByteReader r(w.bytes());
    if (r.u32() != 2)
        return false;
    for (int i = 0; i < 4; ++i)
        r.u64(); // Space size, shards, next id, prior version.
    const std::uint64_t count = r.u64();
    leo::runtime::ControllerOptions copts = options_.controller;
    copts.deferFits = true;
    for (std::uint64_t i = 0; i < count && r.ok(); ++i) {
        r.u64();  // Tenant id.
        r.str();  // App id.
        copts.targetRate = r.f64();
        r.f64();  // Deadline.
        for (int k = 0; k < 4; ++k)
            r.u64(); // Seed, submit sequence, windows, prior version.
        r.str();  // Probe RNG engine.
        leo::runtime::EnergyController ctl(world_.space, &estimator_,
                                           *prior_, copts);
        if (!ctl.restoreState(r))
            return false;
        *reest += ctl.reestimations();
        *cps += ctl.changePointsDetected();
        *fallback += ctl.fallbackWindows();
    }
    return r.ok();
}

/** The timed phase of one fleet, window by window. */
using Phase = std::vector<WindowRecord>;

/**
 * Drive the timed phase: the scored prefix, then on until `seconds`
 * of wall time have passed. Steady fleets snapshot every
 * snapshotEvery windows and restore once, at restoreAt. When given,
 * the calibration kernel runs between windows about every
 * Calibration::kEveryMs, off every clock.
 */
Phase
drive(Fleet &f, double seconds, Calibration *cal = nullptr)
{
    Phase ph;
    const Shape &s = f.shape_;
    const auto t0 = Clock::now();
    for (std::size_t w = 0; w < s.prefix || msSince(t0) < 1e3 * seconds;
         ++w) {
        if (cal != nullptr)
            cal->maybeSample();
        f.recordSchedule_ = w < s.replay;
        WindowRecord rec = f.window(w < s.prefix);
        if (f.mode_ == Mode::Steady) {
            if (w == s.restoreAt)
                f.restore(rec);
            else if ((w + 1 + s.snapshotPhase) % s.snapshotEvery == 0)
                f.snapshotBytes_ = f.snapshot(rec);
        }
        ph.push_back(rec);
    }
    f.recordSchedule_ = false;
    return ph;
}

/** Median over blocks of `block` windows of count / system second. */
template <typename Count>
double
blockRate(const std::vector<WindowRecord> &windows, std::size_t block,
          Count count)
{
    std::vector<double> rates;
    for (std::size_t b = 0; b + block <= windows.size(); b += block) {
        double sys_ms = 0.0, n = 0.0;
        for (std::size_t w = b; w < b + block; ++w) {
            sys_ms += windows[w].sysMs;
            n += static_cast<double>(count(windows[w]));
        }
        rates.push_back(1e3 * n / sys_ms);
    }
    return median(rates);
}

double
windowsPerS(const Phase &ph, std::size_t block)
{
    return blockRate(ph, block, [](const WindowRecord &r) {
        return r.tenantWindows;
    });
}

double
genShare(const Phase &ph)
{
    double gen = 0.0, sys = 0.0;
    for (const WindowRecord &r : ph) {
        gen += r.genMs;
        sys += r.sysMs;
    }
    return gen / (gen + sys);
}

std::unique_ptr<Fleet>
setUp(Mode mode, const Shape &shape, const Options &opt,
      std::size_t threads, std::vector<double> *setup_s)
{
    const auto t0 = Clock::now();
    auto f = std::make_unique<Fleet>(mode, shape, opt.seed, threads);
    f->warmUp();
    if (setup_s != nullptr)
        setup_s->push_back(msSince(t0) / 1e3);
    return f;
}

/** Scored-prefix figures two runs of the same seed must share. */
std::vector<double>
fingerprint(const Fleet &f)
{
    return {f.quality_.energy,
            f.quality_.oracle,
            static_cast<double>(f.quality_.hits),
            static_cast<double>(f.quality_.windows),
            static_cast<double>(f.fitsBatched_),
            static_cast<double>(f.cacheHits_),
            static_cast<double>(f.tenantsFitted_)};
}

void
noteShape(Result &res, const Shape &s, std::size_t threads)
{
    res.note("threads", std::to_string(threads));
    res.note("service_pool_workers", std::to_string(threads - 1));
    res.note("estimator_threads", "1");
    res.note("tenants", std::to_string(s.tenants));
    res.note("prefix_windows", std::to_string(s.prefix));
    res.note("sample_budget", std::to_string(kSampleBudget));
    res.note("configurations", "1024");
}

/** End-to-end run: set up, drive, replay at the other thread count. */
Result
runUntraced(Mode mode, const Options &opt)
{
    const Shape shape = shapeFor(mode, opt.size, opt.seed);
    const std::size_t threads = opt.fleetThreads;
    std::vector<double> setup_s;
    std::vector<double> warm_fit_ticks;
    std::vector<double> steady_onboard;
    // Set-ups are sampled before and after the timed phase, so set-up
    // figures bracket the machine the timed ones saw (a set-up between
    // windows would slow the ticks that follow it).
    auto sample_setup = [&]() {
        auto g = setUp(mode, shape, opt, threads, &setup_s);
        warm_fit_ticks.insert(warm_fit_ticks.end(),
                              g->warmupFitTicksMs_.begin(),
                              g->warmupFitTicksMs_.end());
        steady_onboard.push_back(1e3 * static_cast<double>(shape.tenants) /
                                 g->onboardMs_);
        return g;
    };
    Calibration cal;
    std::unique_ptr<Fleet> f;
    for (std::size_t i = 0; i < shape.setups; ++i) {
        f.reset();
        f = sample_setup();
        cal.sample();
    }
    const Phase ph = drive(*f, opt.seconds, &cal);
    const std::size_t live_threads = liveThreads();

    // The same seed at the other thread count must schedule every
    // tenant identically, window for window.
    {
        auto other = setUp(mode, shape, opt, threads == 2 ? 1 : 2, nullptr);
        Shape replay_shape = shape;
        replay_shape.prefix = shape.replay;
        other->shape_ = replay_shape;
        drive(*other, 0.0);
        const auto &a = f->schedule_;
        const auto &b = other->schedule_;
        bool all = a.size() == b.size() && f->reports_.size() ==
                                                other->reports_.size();
        for (std::size_t w = 0; w < std::min(a.size(), b.size()); ++w) {
            const bool same = a[w] == b[w] &&
                              w < f->reports_.size() &&
                              w < other->reports_.size() &&
                              f->reports_[w] == other->reports_[w];
            f->result_.op(same);
            all = all && same;
        }
        if (!all)
            f->result_.problem("schedules differ between 1 and 2 threads");
    }

    for (std::size_t i = 0; i < shape.setups; ++i) {
        sample_setup();
        cal.sample();
    }

    Result res = std::move(f->result_);
    noteShape(res, shape, threads);
    res.note("threads_observed", std::to_string(live_threads));
    if (live_threads > threads)
        res.problem("more threads than pinned: " +
                    std::to_string(live_threads));

    std::vector<double> ticks, fit_ticks;
    for (const WindowRecord &r : ph) {
        ticks.push_back(r.tickMs);
        if (r.report.tenantsFitted > 0)
            fit_ticks.push_back(r.tickMs);
    }
    const double tail = tailQuantile(ticks.size());
    res.note("timed_windows", std::to_string(ph.size()));
    res.note("setups", std::to_string(setup_s.size()));
    std::size_t tail_blocks = 0;
    const double tick_tail = tailLatency(ticks, &tail_blocks);
    res.note("tick_samples", std::to_string(ticks.size()));
    res.note("tick_tail_quantile", tail);
    res.note("tick_p99_blocks", std::to_string(tail_blocks));
    res.note("refit_tick_samples", std::to_string(fit_ticks.size()));
    if (mode == Mode::Steady) {
        res.note("global_plans_feasible",
                 std::to_string(f->plans_feasible_));
        res.note("power_cap_w", f->options_.powerCapWatts);
    }
    // A steady fleet rarely re-estimates in its timed phase; its
    // estimation tick is the one fitting the whole fleet in set-up.
    if (mode == Mode::Steady)
        fit_ticks = warm_fit_ticks;

    const double onboard_rate =
        mode == Mode::Onboard
            ? blockRate(ph, shape.block,
                        [](const WindowRecord &r) { return r.onboarded; })
            : median(steady_onboard);

    res.note("calibration_ms", cal.medianMs());
    res.note("calibration_samples", std::to_string(cal.samples()));
    addTiming(res, cal, "setup_s", median(setup_s), "s");
    res.metric("peak_rss_mb", peakRssMb(), "MiB");
    res.metric("ok_frac",
               static_cast<double>(res.attempted - res.failed) /
                   static_cast<double>(std::max<std::uint64_t>(
                       res.attempted, 1)),
               "ratio");
    addTiming(res, cal, "windows_per_s", windowsPerS(ph, shape.block),
              "1/s");
    addTiming(res, cal, "tenants_per_s", onboard_rate, "1/s");
    addTiming(res, cal, "tick_p50_ms", percentile(ticks, 0.5), "ms");
    addTiming(res, cal, "tick_p99_ms", tick_tail, "ms");
    addTiming(res, cal, "refit_p50_ms", median(fit_ticks), "ms");
    res.metric("energy_vs_oracle", f->quality_.energyVsOracle(), "ratio");
    res.metric("deadline_hit_rate", f->quality_.hitRate(), "ratio");
    return res;
}

/** Per-layer run: an untraced prefix, then the same prefix traced. */
Result
runTraced(Mode mode, const Options &opt)
{
    const Shape shape = shapeFor(mode, opt.size, opt.seed);
    const std::size_t threads = opt.fleetThreads;

    auto plain = setUp(mode, shape, opt, threads, nullptr);
    const Phase ph = drive(*plain, 0.0);
    const std::uint64_t misses =
        plain->missesBefore_ + plain->cacheMisses();

    auto traced = setUp(mode, shape, opt, threads, nullptr);
    leo::obs::Registry &reg = leo::obs::Registry::global();
    leo::obs::Tracer &tracer = leo::obs::Tracer::global();
    RegistryDelta delta;
    reg.setEnabled(true);
    delta.before = reg.snapshot();
    tracer.enable(std::size_t{1} << 18);
    const Phase tph = drive(*traced, 0.0);
    tracer.disable();
    delta.after = reg.snapshot();
    reg.setEnabled(false);
    const auto spans = spanTimes(tracer.chromeTraceJson());
    const std::uint64_t dropped = tracer.dropped();

    Result res = std::move(traced->result_);
    noteShape(res, shape, threads);
    res.note("trace_events_dropped", std::to_string(dropped));
    const bool same = fingerprint(*plain) == fingerprint(*traced);
    res.op(same);
    if (!same)
        res.problem("traced prefix differs from the untraced one");
    if (dropped != 0)
        res.problem("trace buffer overflowed");
    for (const std::string &p : plain->result_.problems)
        res.problem(p);

    std::uint64_t reest = 0, cps = 0, fallback = 0;
    if (!traced->controllerCounters(&reest, &cps, &fallback))
        res.problem("cannot decode controller counters from snapshot");

    // Tick split: ticks that applied a fit batch vs those that did not.
    std::vector<double> nofit;
    double fit_ms = 0.0, fits = 0.0, fit_ticks = 0.0;
    for (const WindowRecord &r : ph) {
        if (r.report.fitsBatched > 0) {
            fit_ms += r.tickMs;
            fits += static_cast<double>(r.report.fitsBatched);
            fit_ticks += 1.0;
        } else {
            nofit.push_back(r.tickMs);
        }
    }
    const double nofit_p50 = median(nofit);
    const double base = nofit.size() >= 5 ? nofit_p50 : 0.0;
    res.note("nofit_ticks", std::to_string(nofit.size()));

    const auto span = [&](const char *name) {
        const auto it = spans.find(name);
        return it == spans.end() ? SpanTime{} : it->second;
    };
    const SpanTime windows = span(names::kControllerWindowSpan);
    const double ticks = static_cast<double>(tph.size());

    const auto &p = *plain;
    res.metric("service.tick_fit_ms_per_fit",
               fits > 0.0 ? (fit_ms - fit_ticks * base) / fits : 0.0, "ms");
    res.metric("service.tick_nofit_p50_ms", nofit_p50, "ms");
    res.metric("service.next_config_us_p50", median(p.nextConfigUs_), "us");
    res.metric("service.submit_us_p50", median(p.submitUs_), "us");
    const double lookups = static_cast<double>(p.cacheHits_ + misses);
    res.metric("service.cache_hit_ratio",
               lookups > 0.0 ? static_cast<double>(p.cacheHits_) / lookups
                             : 0.0,
               "ratio");
    res.metric("service.fits_batched",
               static_cast<double>(p.fitsBatched_), "count");
    res.metric("service.snapshot_ms", median(p.snapshotMs_), "ms");
    res.metric("service.restore_ms", p.restoreMs_, "ms");
    res.metric("service.snapshot_mb",
               static_cast<double>(p.snapshotBytes_) / 1e6, "MB");

    const FitLayer fl =
        measureFits(traced->world_.space, *traced->prior_,
                    traced->probeSets_);
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

    res.metric("runtime.step_us_p50", median(windows.durUs), "us");
    res.metric("runtime.reestimations", static_cast<double>(reest),
               "count");
    res.metric("runtime.changepoints", static_cast<double>(cps), "count");
    res.metric("runtime.fallback_windows", static_cast<double>(fallback),
               "count");
    res.metric("runtime.probe_window_share",
               windows.count ? static_cast<double>(windows.sampling) /
                                   static_cast<double>(windows.count)
                             : 0.0,
               "ratio");

    std::vector<const leo::workloads::GroundTruth *> truths;
    for (const App &a : traced->apps_)
        truths.push_back(&a.truth);
    res.metric("optimizer.hull_walk_us_p50",
               hullWalkUsP50(truths, traced->world_.idlePower), "us");
    res.metric("optimizer.lp_solves",
               static_cast<double>(delta.counter(names::kLpSolvesRun)),
               "count");
    res.metric("optimizer.lp_pivots_per_tick",
               static_cast<double>(delta.counter(names::kLpPivotsStepped)) /
                   ticks,
               "count");
    res.metric("parallel.pool_wait_ms_p50",
               delta.histogramMedian(names::kPoolWaitMs), "ms");
    res.metric("parallel.tasks_posted",
               static_cast<double>(delta.counter(names::kPoolTasksPosted)),
               "count");
    res.metric("bench.gen_share", genShare(ph), "ratio");
    res.metric("bench.trace_overhead",
               windowsPerS(tph, shape.block) / windowsPerS(ph, shape.block),
               "ratio");
    addSpanMetrics(res, spans);
    return res;
}

} // namespace

Result
runFleetOnboard(const Options &opt)
{
    return opt.trace ? runTraced(Mode::Onboard, opt)
                     : runUntraced(Mode::Onboard, opt);
}

Result
runFleetSteady(const Options &opt)
{
    return opt.trace ? runTraced(Mode::Steady, opt)
                     : runUntraced(Mode::Steady, opt);
}

} // namespace perfbench
