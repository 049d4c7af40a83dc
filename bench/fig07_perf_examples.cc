/**
 * @file
 * Figure 7: LEO performance estimates vs configuration index for
 * three representative applications (kmeans, swish, x264) on the
 * full 1024-configuration space.
 *
 * The saw-tooth arises from the flattening order (memory controllers
 * fastest, then speed, then cores). The paper's claim: LEO's
 * estimates are nearly indistinguishable from the measured series,
 * including the local extrema. The series is printed decimated
 * (every 16th index); accuracies use all 1024 points.
 */

#include "bench_common.hh"

#include "stats/metrics.hh"

using namespace leo;

int
main()
{
    bench::banner("Figure 7 — performance estimates vs configuration "
                  "index (kmeans, swish, x264)",
                  "LEO tracks the saw-tooth and the peaks from 20 "
                  "samples (<2% of the space)");

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
                                     estimators::Metric::Performance),
            obs.indices, obs.performance);

        std::printf("--- %s (accuracy %.3f, peak: true idx %zu / "
                    "est idx %zu) ---\n",
                    name, stats::accuracy(est.values, truth.performance),
                    truth.performance.argmax(),
                    est.values.argmax());
        std::printf("index  true-hb/s  leo-hb/s\n");
        for (std::size_t c = 0; c < w.space.size(); c += 16) {
            std::printf("%5zu  %9.2f  %8.2f\n", c,
                        truth.performance[c], est.values[c]);
        }
        std::printf("\n");
    }
    return 0;
}
