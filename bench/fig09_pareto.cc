/**
 * @file
 * Figure 9: estimated vs true Pareto frontiers for kmeans, swish and
 * x264.
 *
 * Prints the lower convex hull (performance as speedup over the
 * slowest configuration, power in Watts) computed from each
 * approach's estimates next to the exhaustive-search truth. Estimated
 * frontiers below the true one mean missed deadlines; above it,
 * wasted energy.
 */

#include "bench_common.hh"

#include "optimizer/pareto.hh"

using namespace leo;

namespace
{

void
printHull(const char *tag, const linalg::Vector &perf,
          const linalg::Vector &power, double ref_rate, double idle)
{
    auto frontier = optimizer::paretoFrontier(perf, power);
    auto hull = optimizer::lowerConvexHull(frontier, idle);
    std::printf("  %s hull (%zu vertices): speedup@Watts:", tag,
                hull.size());
    for (const auto &v : hull) {
        std::printf(" %.2f@%.0f", v.performance / ref_rate, v.power);
    }
    std::printf("\n");
}

} // namespace

int
main()
{
    bench::banner("Figure 9 — Pareto frontiers, estimated vs true "
                  "(kmeans, swish, x264)",
                  "LEO's hull overlays the true hull; online/offline "
                  "hulls deviate");

    bench::World w = bench::fullWorld();
    stats::Rng rng(bench::seed());
    telemetry::HeartbeatMonitor monitor;
    telemetry::WattsUpMeter meter;
    telemetry::Profiler profiler(monitor, meter);
    telemetry::RandomSampler policy;

    // The paper's estimator: dense Sigma, pinned so the figure does
    // not follow the Auto default onto the low-rank path at n = 1024.
    estimators::LeoEstimator leo(
        {.representation = estimators::CovarianceRep::Dense});
    estimators::OnlineEstimator online;
    estimators::OfflineEstimator offline;
    const double idle = w.machine.spec().idleSystemPowerW;

    for (const char *name : {"kmeans", "swish", "x264"}) {
        auto prior = w.store.without(name);
        workloads::ApplicationModel app(
            workloads::profileByName(name), w.machine);
        auto truth = workloads::computeGroundTruth(app, w.space);
        auto obs = profiler.sample(app, w.space, policy, 20, rng);
        estimators::EstimationInputs inputs{w.space, prior, obs};

        // Speedups are relative to the slowest configuration.
        const double ref = truth.performance[0];

        std::printf("--- %s ---\n", name);
        printHull("true   ", truth.performance, truth.power, ref,
                  idle);
        auto e = leo.estimate(inputs);
        printHull("leo    ", e.performance.values, e.power.values,
                  ref, idle);
        e = online.estimate(inputs);
        printHull("online ", e.performance.values, e.power.values,
                  ref, idle);
        e = offline.estimate(inputs);
        printHull("offline", e.performance.values, e.power.values,
                  ref, idle);
        std::printf("\n");
    }
    return 0;
}
