/**
 * @file
 * Figure 8: LEO power estimates vs configuration index for kmeans,
 * swish and x264 on the full 1024-configuration space (total system
 * Watts), decimated to every 16th index.
 */

#include "bench_common.hh"

#include "stats/metrics.hh"

using namespace leo;

int
main()
{
    bench::banner("Figure 8 — power estimates vs configuration index "
                  "(kmeans, swish, x264)",
                  "estimated Watts overlay the measured series");

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

    for (const char *name : {"kmeans", "swish", "x264"}) {
        auto prior = w.store.without(name);
        workloads::ApplicationModel app(
            workloads::profileByName(name), w.machine);
        auto truth = workloads::computeGroundTruth(app, w.space);
        auto obs = profiler.sample(app, w.space, policy, 20, rng);

        auto est = leo.estimateMetric(
            w.space,
            estimators::priorVectors(prior,
                                     estimators::Metric::Power),
            obs.indices, obs.power);

        std::printf("--- %s (accuracy %.3f) ---\n", name,
                    stats::accuracy(est.values, truth.power));
        std::printf("index  true-W  leo-W\n");
        for (std::size_t c = 0; c < w.space.size(); c += 16) {
            std::printf("%5zu  %6.1f  %5.1f\n", c, truth.power[c],
                        est.values[c]);
        }
        std::printf("\n");
    }
    return 0;
}
