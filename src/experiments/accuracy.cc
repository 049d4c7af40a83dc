/**
 * @file
 * Implementation of the accuracy experiment.
 *
 * The leave-one-out protocol runs one independent estimation problem
 * per (application, trial, approach); those fits are fanned across
 * the shared thread pool through estimators::EstimatorBatch. All
 * randomness is forked from the master RNG in the serial order
 * before any parallel work starts, so the experiment's output is
 * identical at every thread count.
 */

#include "experiments/accuracy.hh"

#include <memory>

#include "estimators/batch.hh"
#include "estimators/leo.hh"
#include "estimators/offline.hh"
#include "estimators/online.hh"
#include "linalg/error.hh"
#include "parallel/parallel_for.hh"
#include "stats/metrics.hh"
#include "telemetry/profile_store.hh"
#include "telemetry/sampler.hh"
#include "workloads/ground_truth.hh"

namespace leo::experiments
{

namespace
{

/**
 * Score one estimate against truth, handling the unanchored
 * zero-observation case (estimators then return unit-mean shapes; in
 * the paper's speedup space no scale knowledge is needed, so the
 * harness supplies the truth's scale — Equation (5) is invariant
 * under that common factor).
 */
double
score(const estimators::MetricEstimate &est,
      const linalg::Vector &truth, bool anchored)
{
    if (anchored)
        return stats::accuracy(est.values, truth);
    const double est_mean = est.values.mean();
    if (est_mean <= 0.0)
        return 0.0;
    const linalg::Vector rescaled =
        est.values * (truth.mean() / est_mean);
    return stats::accuracy(rescaled, truth);
}

} // namespace

std::vector<AccuracyRow>
runAccuracyExperiment(estimators::Metric metric,
                      const platform::Machine &machine,
                      const platform::ConfigSpace &space,
                      const std::vector<workloads::ApplicationProfile> &apps,
                      const AccuracyOptions &options)
{
    require(!apps.empty(), "runAccuracyExperiment: no applications");
    require(options.trials >= 1,
            "runAccuracyExperiment: need >= 1 trial");

    stats::Rng master(options.seed);
    const telemetry::HeartbeatMonitor monitor;
    const telemetry::WattsUpMeter meter;
    const telemetry::Profiler profiler(monitor, meter);
    const telemetry::RandomSampler policy;

    // Offline database over the full benchmark set (leave-one-out
    // views are taken per target below).
    const telemetry::ProfileStore store = telemetry::ProfileStore::collect(
        apps, machine, space, monitor, meter, master);

    // The paper's estimator (Figs. 5-8): dense Sigma, pinned so the
    // figures do not follow the Auto default onto the low-rank path.
    const estimators::LeoEstimator leo_est(
        {.representation = estimators::CovarianceRep::Dense});
    const estimators::OnlineEstimator online_est;
    const estimators::OfflineEstimator offline_est;

    std::unique_ptr<parallel::ThreadPool> local_pool;
    parallel::ThreadPool *pool = &parallel::ThreadPool::global();
    if (options.threads == 1) {
        pool = &parallel::ThreadPool::serial();
    } else if (options.threads > 1) {
        local_pool = std::make_unique<parallel::ThreadPool>(
            options.threads - 1);
        pool = local_pool.get();
    }

    const std::size_t n_apps = apps.size();
    const std::size_t trials = options.trials;

    // Per-(app, trial) sampling, serial and in the seed's original
    // order so every RNG fork draws the same stream regardless of
    // the pool size; the expensive part — the fits — is batched.
    struct Trial
    {
        telemetry::Observations obs;
        bool anchored = false;
    };
    std::vector<workloads::GroundTruth> truths;
    truths.reserve(n_apps);
    std::vector<std::vector<Trial>> trial_inputs(n_apps);

    estimators::EstimatorBatch leo_batch(leo_est, *pool);
    estimators::EstimatorBatch online_batch(online_est, *pool);
    estimators::EstimatorBatch offline_batch(offline_est, *pool);

    for (std::size_t a = 0; a < n_apps; ++a) {
        const workloads::ApplicationProfile &profile = apps[a];
        const workloads::ApplicationModel model(profile, machine);
        truths.push_back(workloads::computeGroundTruth(model, space));
        const std::vector<linalg::Vector> prior_vecs =
            estimators::priorVectors(store.without(profile.name),
                                     metric);

        trial_inputs[a].reserve(trials);
        for (std::size_t t = 0; t < trials; ++t) {
            stats::Rng rng = master.fork();
            Trial trial;
            trial.obs = profiler.sample(model, space, policy,
                                        options.sampleBudget, rng);
            trial.anchored = !trial.obs.indices.empty();
            const linalg::Vector &obs_vals =
                metric == estimators::Metric::Performance
                    ? trial.obs.performance
                    : trial.obs.power;
            estimators::EstimateRequest req;
            req.prior = prior_vecs;
            req.obsIndices = trial.obs.indices;
            req.obsValues = obs_vals;
            leo_batch.add(req);
            online_batch.add(req);
            offline_batch.add(std::move(req));
            trial_inputs[a].push_back(std::move(trial));
        }
    }

    // Requests are laid out app-major, trial-minor: a * trials + t.
    const std::vector<estimators::MetricEstimate> leo_out =
        leo_batch.run(space);
    const std::vector<estimators::MetricEstimate> online_out =
        online_batch.run(space);
    const std::vector<estimators::MetricEstimate> offline_out =
        offline_batch.run(space);

    std::vector<AccuracyRow> rows;
    rows.reserve(n_apps);
    for (std::size_t a = 0; a < n_apps; ++a) {
        const linalg::Vector &truth =
            metric == estimators::Metric::Performance
                ? truths[a].performance
                : truths[a].power;
        AccuracyRow row;
        row.application = apps[a].name;
        for (std::size_t t = 0; t < trials; ++t) {
            const std::size_t k = a * trials + t;
            const bool anchored = trial_inputs[a][t].anchored;
            row.leo += score(leo_out[k], truth, anchored);
            row.online += score(online_out[k], truth, anchored);
            row.offline += score(offline_out[k], truth, anchored);
        }
        const double n = static_cast<double>(trials);
        row.leo /= n;
        row.online /= n;
        row.offline /= n;
        rows.push_back(row);
    }
    return rows;
}

double
meanAccuracy(const std::vector<AccuracyRow> &rows,
             double AccuracyRow::*column)
{
    require(!rows.empty(), "meanAccuracy: no rows");
    double acc = 0.0;
    for (const AccuracyRow &r : rows)
        acc += r.*column;
    return acc / static_cast<double>(rows.size());
}

} // namespace leo::experiments
