/**
 * @file
 * Full-scale integration tests: the complete pipeline on the paper's
 * 1024-configuration space. Slower than the unit tests (a few
 * seconds each) but still well inside ctest budgets.
 */

#include <gtest/gtest.h>

#include "core/leo_system.hh"
#include "estimators/offline.hh"
#include "estimators/online.hh"
#include "linalg/error.hh"
#include "stats/metrics.hh"
#include "workloads/ground_truth.hh"
#include "workloads/suite.hh"

using namespace leo;

namespace
{

/** Shared full-scale world (built once for the whole binary). */
struct FullWorld
{
    platform::Machine machine;
    platform::ConfigSpace space =
        platform::ConfigSpace::fullFactorial(machine);
    telemetry::ProfileStore store = [this] {
        stats::Rng rng(2026);
        telemetry::HeartbeatMonitor mon;
        telemetry::WattsUpMeter met;
        return telemetry::ProfileStore::collect(
            workloads::standardSuite(), machine, space, mon, met,
            rng);
    }();
};

FullWorld &
world()
{
    static FullWorld w;
    return w;
}

} // namespace

TEST(FullScale, SpaceIsPaperSized)
{
    EXPECT_EQ(world().space.size(), 1024u);
    EXPECT_EQ(world().store.numApplications(), 25u);
}

TEST(FullScale, LeoEndToEndOnKmeans)
{
    FullWorld &w = world();
    workloads::ApplicationModel app(
        workloads::profileByName("kmeans"), w.machine);
    auto gt = workloads::computeGroundTruth(app, w.space);

    stats::Rng rng(5);
    telemetry::HeartbeatMonitor mon;
    telemetry::WattsUpMeter met;
    telemetry::Profiler prof(mon, met);
    telemetry::RandomSampler pol;
    auto obs = prof.sample(app, w.space, pol, 20, rng);

    // The paper's estimator, as the figure benches run it: dense.
    estimators::LeoEstimator leo(
        {.representation = estimators::CovarianceRep::Dense});
    auto prior = w.store.without("kmeans");
    estimators::EstimationInputs inputs{w.space, prior, obs};
    auto est = leo.estimate(inputs);

    // The paper's headline: high accuracy from < 2% of the space.
    EXPECT_GT(stats::accuracy(est.performance.values,
                              gt.performance),
              0.85);
    EXPECT_GT(stats::accuracy(est.power.values, gt.power), 0.97);
    EXPECT_LE(est.performance.iterations, 6u);

    // Energy: guarded execution of LEO's plan lands within 15% of
    // optimal at mid utilization.
    optimizer::PerformanceConstraint c;
    c.deadlineSeconds = 100.0;
    c.work = 0.5 * gt.performance.max() * c.deadlineSeconds;
    const double idle = w.machine.spec().idleSystemPowerW;
    auto mine = optimizer::executeScheduleGuarded(
        optimizer::planMinimalEnergy(est.performance.values,
                                     est.power.values, idle, c),
        gt.performance, gt.power, idle, c);
    auto best = optimizer::executeScheduleGuarded(
        optimizer::planMinimalEnergy(gt.performance, gt.power, idle,
                                     c),
        gt.performance, gt.power, idle, c);
    EXPECT_TRUE(mine.deadlineMet);
    EXPECT_LT(mine.energyJoules, best.energyJoules * 1.15);

    // And race-to-idle (open loop, all resources) pays dearly on
    // kmeans, whose performance collapses past 8 cores.
    optimizer::Schedule race;
    race.parts.push_back({w.space.size() - 1, c.deadlineSeconds});
    auto raced = optimizer::executeSchedule(race, gt.performance,
                                            gt.power, idle, c);
    EXPECT_GT(raced.energyJoules, best.energyJoules * 1.5);
}

TEST(FullScale, EstimatorOrderingOnRepresentativeApps)
{
    FullWorld &w = world();
    stats::Rng rng(9);
    telemetry::HeartbeatMonitor mon;
    telemetry::WattsUpMeter met;
    telemetry::Profiler prof(mon, met);
    telemetry::RandomSampler pol;

    estimators::LeoEstimator leo(
        {.representation = estimators::CovarianceRep::Dense});
    estimators::OnlineEstimator online;
    estimators::OfflineEstimator offline;

    double leo_sum = 0, online_sum = 0, offline_sum = 0;
    for (const char *name : {"kmeans", "swish", "x264"}) {
        workloads::ApplicationModel app(
            workloads::profileByName(name), w.machine);
        auto gt = workloads::computeGroundTruth(app, w.space);
        auto obs = prof.sample(app, w.space, pol, 20, rng);
        auto prior = w.store.without(name);
        estimators::EstimationInputs inputs{w.space, prior, obs};
        leo_sum += stats::accuracy(
            leo.estimate(inputs).performance.values, gt.performance);
        online_sum += stats::accuracy(
            online.estimate(inputs).performance.values,
            gt.performance);
        offline_sum += stats::accuracy(
            offline.estimate(inputs).performance.values,
            gt.performance);
    }
    // Figure 5's ordering on the hard apps.
    EXPECT_GT(leo_sum, online_sum);
    EXPECT_GT(leo_sum, offline_sum);
    EXPECT_GT(leo_sum / 3.0, 0.9);
}

TEST(FullScale, FacadeQuickstartPath)
{
    // The README's five-line tour, end to end on the real scale.
    core::LeoSystemOptions opt;
    opt.sampleBudget = 20;
    core::LeoSystem sys(world().machine, world().space,
                        world().store, opt);
    workloads::ApplicationModel target(
        workloads::profileByName("streamcluster"), sys.machine());
    stats::Rng rng(3);
    auto obs = sys.observe(target, rng);
    auto est = sys.estimate(obs, "streamcluster");
    auto gt = workloads::computeGroundTruth(target, sys.space());
    EXPECT_GT(stats::accuracy(est.performance.values,
                              gt.performance),
              0.9);
}
