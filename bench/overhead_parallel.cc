/**
 * @file
 * Serial-vs-parallel wall time of the multi-application batch fit.
 *
 * Times the 25-benchmark leave-one-out EM sweep (one LEO fit per
 * target application, the workload behind Figures 5-6) through
 * estimators::EstimatorBatch at increasing pool sizes, reports the
 * speedup over the zero-worker serial pool, and cross-checks that
 * every pool size produced bitwise-identical predictions — the
 * determinism guarantee of parallel/parallel_for.hh.
 *
 * Environment knobs (bench_common.hh conventions):
 *   LEO_BENCH_FULL=1    run on the full 1024-config space
 *                       (default: the 256-config reduction)
 *   LEO_BENCH_REPEATS   timing repeats, best-of (default 3)
 */

#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_common.hh"
#include "estimators/batch.hh"
#include "parallel/thread_pool.hh"

using namespace leo;

namespace
{

/** Wall time of one batch run in milliseconds. */
double
timeBatch(const estimators::LeoEstimator &est,
          parallel::ThreadPool &pool,
          const platform::ConfigSpace &space,
          const std::vector<estimators::EstimateRequest> &requests,
          std::vector<estimators::MetricEstimate> &results)
{
    estimators::EstimatorBatch batch(est, pool);
    for (const auto &r : requests)
        batch.add(r);
    const auto t0 = std::chrono::steady_clock::now();
    results = batch.run(space);
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

bool
identical(const std::vector<estimators::MetricEstimate> &a,
          const std::vector<estimators::MetricEstimate> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].values.size() != b[i].values.size())
            return false;
        for (std::size_t j = 0; j < a[i].values.size(); ++j)
            if (a[i].values[j] != b[i].values[j])
                return false;
    }
    return true;
}

} // namespace

int
main()
{
    bench::banner("overhead_parallel — batch EM fit scaling",
                  "Section 6.7 overhead; parallel subsystem "
                  "acceptance (DESIGN.md, Parallel execution)");

    platform::Machine machine;
    const bool full = experiments::envSize("LEO_BENCH_FULL", 0) != 0;
    bench::World world = bench::makeWorld(
        full ? platform::ConfigSpace::fullFactorial(machine)
             : platform::ConfigSpace::reducedFactorial(machine, 2, 2));
    const std::size_t repeats =
        experiments::envSize("LEO_BENCH_REPEATS", 3);

    // One leave-one-out request per benchmark, observations drawn
    // with the standard budget of 20.
    stats::Rng rng(bench::seed());
    const telemetry::HeartbeatMonitor monitor;
    const telemetry::WattsUpMeter meter;
    const telemetry::Profiler profiler(monitor, meter);
    const telemetry::RandomSampler policy;
    std::vector<estimators::EstimateRequest> requests;
    for (const auto &profile : workloads::standardSuite()) {
        const workloads::ApplicationModel model(profile,
                                                world.machine);
        const auto obs = profiler.sample(model, world.space, policy,
                                         20, rng);
        estimators::EstimateRequest req;
        req.prior = estimators::priorVectors(
            world.store.without(profile.name),
            estimators::Metric::Performance);
        req.obsIndices = obs.indices;
        req.obsValues = obs.performance;
        requests.push_back(std::move(req));
    }
    std::printf("%zu applications, %zu configurations, "
                "hardware concurrency %zu\n\n",
                requests.size(), world.space.size(),
                static_cast<std::size_t>(
                    std::thread::hardware_concurrency()));

    // The Figures 5-6 sweep fits dense (see experiments/accuracy.cc).
    const estimators::LeoEstimator est(
        {.representation = estimators::CovarianceRep::Dense});
    std::printf("%-10s %12s %10s %10s\n", "threads", "best ms",
                "speedup", "bitwise");

    std::vector<estimators::MetricEstimate> serial_results;
    double serial_ms = 0.0;
    const std::size_t concurrencies[] = {
        1, 2, 4, parallel::ThreadPool::defaultConcurrency()};
    for (std::size_t conc : concurrencies) {
        parallel::ThreadPool pool(conc - 1);
        std::vector<estimators::MetricEstimate> results;
        double best = 0.0;
        for (std::size_t r = 0; r < repeats; ++r) {
            const double ms = timeBatch(est, pool, world.space,
                                        requests, results);
            if (r == 0 || ms < best)
                best = ms;
        }
        if (conc == 1) {
            serial_ms = best;
            serial_results = results;
        }
        std::printf("%-10zu %12.1f %9.2fx %10s\n", conc, best,
                    serial_ms / best,
                    identical(serial_results, results) ? "yes"
                                                       : "NO");
    }
    std::printf("\nNote: speedup saturates at the physical core "
                "count; on a single-core host all rows time the "
                "same inline path.\n");
    return 0;
}
