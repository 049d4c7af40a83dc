/**
 * @file
 * Unit tests for the estimators: LEO (hierarchical Bayes + EM),
 * Online (polynomial regression) and Offline (prior mean).
 */

#include <atomic>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "estimators/batch.hh"
#include "estimators/fit_io.hh"
#include "estimators/leo.hh"
#include "estimators/normalization.hh"
#include "estimators/offline.hh"
#include "estimators/online.hh"
#include "linalg/error.hh"
#include "linalg/workspace.hh"
#include "platform/config_space.hh"
#include "stats/metrics.hh"
#include "stats/mvn.hh"
#include "telemetry/sampler.hh"
#include "workloads/ground_truth.hh"
#include "workloads/suite.hh"

/**
 * Allocation instrumentation for the hot-loop tests: every operator
 * new in this binary bumps a counter (operator new[] funnels through
 * operator new by default), which LeoFit::loopAllocations reads via
 * the estimators::setAllocationCounter hook.
 */
static std::atomic<std::size_t> g_heap_allocs{0};

// noinline keeps the optimizer from pairing the malloc inside the
// replacement operator new with the free inside operator delete
// across inlined call chains, which trips a spurious GCC
// -Wmismatched-new-delete at -O2.
[[gnu::noinline]] void *
operator new(std::size_t size)
{
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

using namespace leo;
using linalg::Matrix;
using linalg::Vector;
using platform::ConfigSpace;
using platform::Machine;

namespace
{

/** Small test fixture: the 32-point core-only space with the suite. */
struct CoreOnlyWorld
{
    Machine machine;
    ConfigSpace space = ConfigSpace::coreOnly(machine);
    telemetry::HeartbeatMonitor monitor{0.01};
    telemetry::WattsUpMeter meter{0.005, 0.1};
    stats::Rng rng{2024};

    std::vector<Vector>
    priorPerf(const std::string &exclude)
    {
        std::vector<Vector> out;
        for (const auto &p : workloads::standardSuite()) {
            if (p.name == exclude)
                continue;
            workloads::ApplicationModel m(p, machine);
            out.push_back(
                workloads::computeGroundTruth(m, space).performance);
        }
        return out;
    }

    Vector
    truthPerf(const std::string &name)
    {
        workloads::ApplicationModel m(
            workloads::profileByName(name), machine);
        return workloads::computeGroundTruth(m, space).performance;
    }
};

} // namespace

// -------------------------------------------------------- Normalization

TEST(Normalization, ShapesHaveUnitMean)
{
    std::vector<Vector> prior{Vector{2.0, 4.0}, Vector{10.0, 30.0}};
    auto shapes = estimators::normalizeShapes(prior);
    ASSERT_EQ(shapes.size(), 2u);
    EXPECT_NEAR(shapes[0].mean(), 1.0, 1e-12);
    EXPECT_NEAR(shapes[1].mean(), 1.0, 1e-12);
    EXPECT_DOUBLE_EQ(shapes[1][1], 1.5);
}

TEST(Normalization, RejectsDegenerate)
{
    EXPECT_THROW(estimators::normalizeShapes({Vector{}}), FatalError);
    EXPECT_THROW(estimators::normalizeShapes({Vector{-1.0, 1.0}}),
                 FatalError);
    EXPECT_THROW(estimators::observedScale(Vector{}), FatalError);
}

// -------------------------------------------------------------- Offline

TEST(Offline, MeanShapeIsAverage)
{
    std::vector<Vector> prior{Vector{1.0, 3.0}, Vector{3.0, 1.0}};
    Vector shape = estimators::OfflineEstimator::meanShape(prior);
    // Both normalize to mean 1: (0.5,1.5) and (1.5,0.5) -> (1,1).
    EXPECT_NEAR(shape[0], 1.0, 1e-12);
    EXPECT_NEAR(shape[1], 1.0, 1e-12);
}

TEST(Offline, AnchorsToObservedScale)
{
    CoreOnlyWorld w;
    auto prior = w.priorPerf("kmeans");
    estimators::OfflineEstimator off;
    // Observe two configs of a hypothetical app at scale ~100.
    auto est = off.estimateMetric(w.space, prior, {0, 16},
                                  Vector{80.0, 120.0});
    EXPECT_TRUE(est.reliable);
    // The estimate's scale is anchored near the observations.
    EXPECT_NEAR(est.values.gather({0, 16}).mean(), 100.0, 25.0);
}

TEST(Offline, IgnoresObservedShape)
{
    // Offline never adapts its shape: two different observation
    // SHAPES with the same mean produce the same estimate.
    CoreOnlyWorld w;
    auto prior = w.priorPerf("kmeans");
    estimators::OfflineEstimator off;
    auto a = off.estimateMetric(w.space, prior, {0, 31},
                                Vector{50.0, 150.0});
    auto b = off.estimateMetric(w.space, prior, {0, 31},
                                Vector{150.0, 50.0});
    for (std::size_t c = 0; c < w.space.size(); ++c)
        EXPECT_NEAR(a.values[c], b.values[c], 1e-9);
}

TEST(Offline, RequiresPrior)
{
    CoreOnlyWorld w;
    estimators::OfflineEstimator off;
    EXPECT_THROW(off.estimateMetric(w.space, {}, {}, Vector{}),
                 FatalError);
}

// --------------------------------------------------------------- Online

TEST(Online, RankDeficientBelowFeatureCount)
{
    // Full space has 4 knobs, degree 2 -> 15 features; below 15
    // samples the estimate must be flagged unreliable (Fig. 12).
    Machine m;
    auto space = ConfigSpace::fullFactorial(m);
    workloads::ApplicationModel app(
        workloads::profileByName("x264"), m);
    telemetry::HeartbeatMonitor mon(0.0);
    telemetry::WattsUpMeter met(0.0, 0.0);
    telemetry::Profiler prof(mon, met);
    telemetry::RandomSampler pol;
    stats::Rng rng(3);
    estimators::OnlineEstimator online;

    auto obs14 = prof.sample(app, space, pol, 14, rng);
    auto est14 = online.estimateMetric(space, {}, obs14.indices,
                                       obs14.performance);
    EXPECT_FALSE(est14.reliable);

    auto obs20 = prof.sample(app, space, pol, 20, rng);
    auto est20 = online.estimateMetric(space, {}, obs20.indices,
                                       obs20.performance);
    EXPECT_TRUE(est20.reliable);
}

TEST(Online, FitsSmoothSurfacesWell)
{
    // A quadratic-ish smooth application: degree-2 online regression
    // should reach high accuracy with ample samples.
    Machine m;
    auto space = ConfigSpace::fullFactorial(m);
    workloads::ApplicationProfile p =
        workloads::profileByName("blackscholes");
    p.textureAmplitude = 0.0;
    workloads::ApplicationModel app(p, m);
    auto gt = workloads::computeGroundTruth(app, space);

    telemetry::HeartbeatMonitor mon(0.0);
    telemetry::WattsUpMeter met(0.0, 0.0);
    telemetry::Profiler prof(mon, met);
    telemetry::RandomSampler pol;
    stats::Rng rng(5);
    auto obs = prof.sample(app, space, pol, 200, rng);

    estimators::OnlineEstimator online;
    auto est = online.estimateMetric(space, {}, obs.indices,
                                     obs.performance);
    EXPECT_TRUE(est.reliable);
    EXPECT_GT(stats::accuracy(est.values, gt.performance), 0.9);
}

TEST(Online, NoObservationsUnreliable)
{
    CoreOnlyWorld w;
    estimators::OnlineEstimator online;
    auto est = online.estimateMetric(w.space, {}, {}, Vector{});
    EXPECT_FALSE(est.reliable);
}

TEST(Online, PredictionsNonNegative)
{
    CoreOnlyWorld w;
    workloads::ApplicationModel app(
        workloads::profileByName("kmeans"), w.machine);
    telemetry::Profiler prof(w.monitor, w.meter);
    telemetry::RandomSampler pol;
    auto obs = prof.sample(app, w.space, pol, 12, w.rng);
    estimators::OnlineEstimator online;
    auto est = online.estimateMetric(w.space, {}, obs.indices,
                                     obs.performance);
    EXPECT_GE(est.values.min(), 0.0);
}

// ------------------------------------------------------------------ LEO

TEST(Leo, RecoversModelGeneratedData)
{
    // Property test: generate applications *from the hierarchical
    // model itself* (Equation 2) and verify EM recovers the target
    // vector to high accuracy from partial observations.
    const std::size_t n = 24;
    const std::size_t m_apps = 30;
    stats::Rng rng(99);

    // A smooth random mean and a low-rank-plus-diagonal covariance.
    Vector mu(n);
    for (std::size_t j = 0; j < n; ++j)
        mu[j] = 5.0 + 2.0 * std::sin(0.3 * static_cast<double>(j));
    Matrix cov(n, n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            cov(i, j) = 1.5 * std::exp(
                -0.05 * static_cast<double>((i - j) * (i - j)));
    cov.addToDiagonal(0.05);

    stats::MultivariateNormal latent(mu, cov);
    const double noise_sd = 0.05;

    std::vector<Vector> prior;
    for (std::size_t a = 0; a + 1 < m_apps; ++a) {
        Vector z = latent.sample(rng);
        for (std::size_t j = 0; j < n; ++j)
            z[j] = std::max(z[j] + rng.gaussian(0, noise_sd), 0.1);
        prior.push_back(z);
    }
    Vector target = latent.sample(rng);
    for (std::size_t j = 0; j < n; ++j)
        target[j] = std::max(target[j], 0.1);

    std::vector<std::size_t> obs_idx{1, 5, 9, 13, 17, 21};
    Vector obs_vals(obs_idx.size());
    for (std::size_t k = 0; k < obs_idx.size(); ++k)
        obs_vals[k] = target[obs_idx[k]] + rng.gaussian(0, noise_sd);

    estimators::LeoEstimator leo;
    auto fit = leo.fitMetric(prior, obs_idx, obs_vals);
    EXPECT_GT(stats::accuracy(fit.prediction, target), 0.85);
    EXPECT_TRUE(fit.prediction.allFinite());
    EXPECT_GT(fit.sigma2, 0.0);
}

TEST(Leo, BeatsOfflineAndOnlineOnKmeans)
{
    // The motivating example: kmeans' peak at 8 cores with 6
    // uniformly spaced observations (Section 2 / Figure 1).
    CoreOnlyWorld w;
    auto prior = w.priorPerf("kmeans");
    auto truth = w.truthPerf("kmeans");

    workloads::ApplicationModel app(
        workloads::profileByName("kmeans"), w.machine);
    telemetry::Profiler prof(w.monitor, w.meter);
    telemetry::UniformGridSampler grid;
    auto obs = prof.sample(app, w.space, grid, 6, w.rng);

    estimators::LeoEstimator leo;
    estimators::OnlineEstimator online(2);
    estimators::OfflineEstimator offline;

    const double acc_leo = stats::accuracy(
        leo.estimateMetric(w.space, prior, obs.indices,
                           obs.performance)
            .values,
        truth);
    const double acc_on = stats::accuracy(
        online
            .estimateMetric(w.space, prior, obs.indices,
                            obs.performance)
            .values,
        truth);
    const double acc_off = stats::accuracy(
        offline
            .estimateMetric(w.space, prior, obs.indices,
                            obs.performance)
            .values,
        truth);

    EXPECT_GT(acc_leo, 0.85);
    EXPECT_GT(acc_leo, acc_on);
    EXPECT_GT(acc_leo, acc_off);

    // LEO finds the peak near 8 cores.
    auto est = leo.estimateMetric(w.space, prior, obs.indices,
                                  obs.performance);
    EXPECT_NEAR(static_cast<double>(est.values.argmax() + 1), 8.0,
                2.0);
}

TEST(Leo, ConvergesInFewIterations)
{
    // Section 5.5: "the algorithm converges quickly ... generally
    // requiring 3-4 iterations".
    CoreOnlyWorld w;
    auto prior = w.priorPerf("x264");
    workloads::ApplicationModel app(
        workloads::profileByName("x264"), w.machine);
    telemetry::Profiler prof(w.monitor, w.meter);
    telemetry::RandomSampler pol;
    auto obs = prof.sample(app, w.space, pol, 8, w.rng);

    estimators::LeoOptions opt;
    opt.maxIterations = 10;
    estimators::LeoEstimator leo(opt);
    auto fit = leo.fitMetric(prior, obs.indices, obs.performance);
    EXPECT_LE(fit.iterations, 6u);
}

TEST(Leo, InterpolatesObservationsClosely)
{
    CoreOnlyWorld w;
    auto prior = w.priorPerf("swish");
    workloads::ApplicationModel app(
        workloads::profileByName("swish"), w.machine);
    telemetry::Profiler prof(w.monitor, w.meter);
    telemetry::RandomSampler pol;
    auto obs = prof.sample(app, w.space, pol, 10, w.rng);

    estimators::LeoEstimator leo;
    auto est = leo.estimateMetric(w.space, prior, obs.indices,
                                  obs.performance);
    for (std::size_t k = 0; k < obs.indices.size(); ++k) {
        EXPECT_NEAR(est.values[obs.indices[k]], obs.performance[k],
                    0.1 * obs.performance[k]);
    }
}

TEST(Leo, ZeroObservationsEqualsOfflineShape)
{
    // Figure 12: "with 0 samples, LEO behaves as the offline method".
    CoreOnlyWorld w;
    auto prior = w.priorPerf("kmeans");
    estimators::LeoEstimator leo;
    auto fit = leo.fitMetric(prior, {}, Vector{});
    Vector offline_shape =
        estimators::OfflineEstimator::meanShape(prior);
    // Same shape up to the gentle EM smoothing: high correlation.
    EXPECT_GT(stats::pearsonCorrelation(fit.prediction,
                                        offline_shape),
              0.99);
}

TEST(Leo, LearnedSigmaCapturesConfigCorrelation)
{
    // Figure 4: Sigma captures correlation between configurations.
    // Adjacent core counts behave similarly across applications, so
    // their correlation must exceed that of distant core counts.
    CoreOnlyWorld w;
    auto prior = w.priorPerf("kmeans");
    workloads::ApplicationModel app(
        workloads::profileByName("kmeans"), w.machine);
    telemetry::Profiler prof(w.monitor, w.meter);
    telemetry::RandomSampler pol;
    auto obs = prof.sample(app, w.space, pol, 6, w.rng);

    estimators::LeoEstimator leo;
    auto fit = leo.fitMetric(prior, obs.indices, obs.performance);
    const Matrix &s = fit.sigma;
    auto corr = [&](std::size_t i, std::size_t j) {
        return s(i, j) / std::sqrt(s(i, i) * s(j, j));
    };
    EXPECT_GT(corr(10, 11), corr(2, 30));
    EXPECT_TRUE(fit.sigma.isSymmetric(1e-8));
}

TEST(Leo, MoreSamplesNeverMuchWorse)
{
    // Sensitivity property (Fig. 12): accuracy is non-decreasing in
    // sample budget, modulo small noise.
    CoreOnlyWorld w;
    auto prior = w.priorPerf("kmeans");
    auto truth = w.truthPerf("kmeans");
    workloads::ApplicationModel app(
        workloads::profileByName("kmeans"), w.machine);
    telemetry::Profiler prof(w.monitor, w.meter);
    telemetry::RandomSampler pol;
    estimators::LeoEstimator leo;

    double prev = 0.0;
    for (std::size_t budget : {4u, 12u, 24u}) {
        double acc = 0.0;
        for (int t = 0; t < 3; ++t) {
            auto obs = prof.sample(app, w.space, pol, budget, w.rng);
            acc += stats::accuracy(
                leo.estimateMetric(w.space, prior, obs.indices,
                                   obs.performance)
                    .values,
                truth);
        }
        acc /= 3.0;
        EXPECT_GT(acc, prev - 0.08)
            << "accuracy collapsed at budget " << budget;
        prev = acc;
    }
}

TEST(Leo, NoPriorFallsBackUnreliable)
{
    CoreOnlyWorld w;
    estimators::LeoEstimator leo;
    auto est =
        leo.estimateMetric(w.space, {}, {0}, Vector{5.0});
    EXPECT_FALSE(est.reliable);
    EXPECT_DOUBLE_EQ(est.values[10], 5.0);
}

TEST(Leo, RejectsBadInputs)
{
    estimators::LeoEstimator leo;
    EXPECT_THROW(leo.fitMetric({}, {}, Vector{}), FatalError);
    std::vector<Vector> ragged{Vector(4, 1.0), Vector(5, 1.0)};
    EXPECT_THROW(leo.fitMetric(ragged, {}, Vector{}), FatalError);
    std::vector<Vector> ok{Vector(4, 1.0)};
    EXPECT_THROW(leo.fitMetric(ok, {9}, Vector{1.0}), FatalError);
    EXPECT_THROW(leo.fitMetric(ok, {0, 1}, Vector{1.0}), FatalError);
}

TEST(Leo, OptionsValidated)
{
    estimators::LeoOptions bad;
    bad.maxIterations = 0;
    EXPECT_THROW(estimators::LeoEstimator{bad}, FatalError);
    bad = estimators::LeoOptions{};
    bad.initSigma2 = 0.0;
    EXPECT_THROW(estimators::LeoEstimator{bad}, FatalError);
    bad = estimators::LeoOptions{};
    bad.hyperPi = -1.0;
    EXPECT_THROW(estimators::LeoEstimator{bad}, FatalError);
}

// ---------------------------------------------- Estimator front door

TEST(Estimator, EstimateRunsBothMetrics)
{
    CoreOnlyWorld w;
    stats::Rng rng(31);
    auto store = telemetry::ProfileStore::collect(
        workloads::standardSuite(), w.machine, w.space, w.monitor,
        w.meter, rng);
    auto prior = store.without("kmeans");

    workloads::ApplicationModel app(
        workloads::profileByName("kmeans"), w.machine);
    telemetry::Profiler prof(w.monitor, w.meter);
    telemetry::RandomSampler pol;
    auto obs = prof.sample(app, w.space, pol, 8, rng);

    estimators::LeoEstimator leo;
    estimators::EstimationInputs inputs{w.space, prior, obs};
    auto est = leo.estimate(inputs);
    EXPECT_EQ(est.performance.values.size(), w.space.size());
    EXPECT_EQ(est.power.values.size(), w.space.size());
    EXPECT_TRUE(est.performance.reliable);
    EXPECT_TRUE(est.power.reliable);
    // Power estimates stay in a physically sane band.
    EXPECT_GT(est.power.values.min(), 50.0);
    EXPECT_LT(est.power.values.max(), 500.0);
}

// ------------------------------------------------ Parallel determinism

namespace
{

/** One EM fit on a fixed-seed workload at the given thread count. */
estimators::LeoFit
fitWithThreads(std::size_t threads)
{
    CoreOnlyWorld w; // fixed fixture seed (2024)
    auto prior = w.priorPerf("kmeans");
    workloads::ApplicationModel app(
        workloads::profileByName("kmeans"), w.machine);
    telemetry::Profiler prof(w.monitor, w.meter);
    telemetry::RandomSampler pol;
    auto obs = prof.sample(app, w.space, pol, 12, w.rng);

    estimators::LeoOptions opt;
    opt.threads = threads;
    opt.maxIterations = 8;
    estimators::LeoEstimator leo(opt);
    return leo.fitMetric(prior, obs.indices, obs.performance);
}

/** Exact (bitwise) vector equality, with a useful failure message. */
void
expectExactlyEqual(const Vector &a, const Vector &b,
                   const std::string &what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(a[i], b[i]) << what << " differs at index " << i;
}

} // namespace

TEST(LeoParallel, FitBitwiseIdenticalAcrossThreadCounts)
{
    // The acceptance bar for the parallel subsystem: the EM fit is
    // *exactly* the same computation at 1, 2 and 8 threads — same
    // estimates, same fitted parameters, same iteration count, same
    // per-iteration log-likelihood trace.
    const estimators::LeoFit serial = fitWithThreads(1);
    for (std::size_t threads : {2u, 8u}) {
        const estimators::LeoFit fit = fitWithThreads(threads);
        expectExactlyEqual(fit.prediction, serial.prediction,
                           "prediction");
        expectExactlyEqual(fit.predictionVariance,
                           serial.predictionVariance,
                           "predictionVariance");
        expectExactlyEqual(fit.mu, serial.mu, "mu");
        EXPECT_EQ(fit.sigma2, serial.sigma2);
        EXPECT_EQ(fit.iterations, serial.iterations);
        EXPECT_EQ(fit.converged, serial.converged);
        ASSERT_EQ(fit.logLikelihoodTrace.size(),
                  serial.logLikelihoodTrace.size());
        for (std::size_t i = 0; i < fit.logLikelihoodTrace.size();
             ++i)
            EXPECT_EQ(fit.logLikelihoodTrace[i],
                      serial.logLikelihoodTrace[i]);
        for (std::size_t r = 0; r < fit.sigma.rows(); ++r)
            for (std::size_t c = 0; c < fit.sigma.cols(); ++c)
                ASSERT_EQ(fit.sigma.at(r, c), serial.sigma.at(r, c));
    }
}

TEST(LeoParallel, SharedGlobalPoolMatchesSerial)
{
    // threads = 0 routes through the process-wide pool; still the
    // identical computation.
    const estimators::LeoFit serial = fitWithThreads(1);
    const estimators::LeoFit pooled = fitWithThreads(0);
    expectExactlyEqual(pooled.prediction, serial.prediction,
                       "prediction (global pool)");
    EXPECT_EQ(pooled.iterations, serial.iterations);
}

TEST(EstimatorBatch, MatchesIndividualFitsExactly)
{
    CoreOnlyWorld w;
    telemetry::Profiler prof(w.monitor, w.meter);
    telemetry::RandomSampler pol;
    estimators::LeoEstimator leo;

    std::vector<estimators::EstimateRequest> requests;
    for (const char *name : {"kmeans", "swish", "x264"}) {
        auto prior = w.priorPerf(name);
        workloads::ApplicationModel app(
            workloads::profileByName(name), w.machine);
        auto obs = prof.sample(app, w.space, pol, 8, w.rng);
        estimators::EstimateRequest req;
        req.prior = std::move(prior);
        req.obsIndices = obs.indices;
        req.obsValues = obs.performance;
        requests.push_back(std::move(req));
    }

    parallel::ThreadPool pool(3);
    estimators::EstimatorBatch batch(leo, pool);
    for (const auto &r : requests)
        batch.add(r);
    auto batched = batch.run(w.space);
    ASSERT_EQ(batched.size(), requests.size());
    EXPECT_EQ(batch.size(), 0u); // run() clears the queue

    for (std::size_t i = 0; i < requests.size(); ++i) {
        auto solo = leo.estimateMetric(w.space, requests[i].prior,
                                       requests[i].obsIndices,
                                       requests[i].obsValues);
        expectExactlyEqual(batched[i].values, solo.values, "batch");
        EXPECT_EQ(batched[i].iterations, solo.iterations);
    }
}

// ------------------------------------------- Hot-loop memory discipline

namespace
{

/** Reads the operator-new counter defined at the top of this file. */
std::size_t
heapAllocCount()
{
    return g_heap_allocs.load(std::memory_order_relaxed);
}

/** Exact equality on every field of two fits. */
void
expectFitsExactlyEqual(const estimators::LeoFit &a,
                       const estimators::LeoFit &b,
                       const std::string &what)
{
    expectExactlyEqual(a.prediction, b.prediction, what + ".prediction");
    expectExactlyEqual(a.predictionVariance, b.predictionVariance,
                       what + ".predictionVariance");
    expectExactlyEqual(a.mu, b.mu, what + ".mu");
    EXPECT_EQ(a.sigma2, b.sigma2) << what;
    EXPECT_EQ(a.iterations, b.iterations) << what;
    EXPECT_EQ(a.converged, b.converged) << what;
    ASSERT_EQ(a.logLikelihoodTrace.size(), b.logLikelihoodTrace.size())
        << what;
    for (std::size_t i = 0; i < a.logLikelihoodTrace.size(); ++i)
        EXPECT_EQ(a.logLikelihoodTrace[i], b.logLikelihoodTrace[i])
            << what << ".trace[" << i << "]";
    ASSERT_EQ(a.sigma.rows(), b.sigma.rows()) << what;
    for (std::size_t r = 0; r < a.sigma.rows(); ++r)
        for (std::size_t c = 0; c < a.sigma.cols(); ++c)
            ASSERT_EQ(a.sigma.at(r, c), b.sigma.at(r, c))
                << what << ".sigma(" << r << "," << c << ")";
}

/** A fixed-seed fit problem shared by the hot-loop tests. */
struct FitProblem
{
    std::vector<Vector> prior;
    std::vector<std::size_t> idx;
    Vector vals;
};

FitProblem
makeFitProblem(std::size_t n_obs)
{
    CoreOnlyWorld w;
    FitProblem p;
    p.prior = w.priorPerf("kmeans");
    workloads::ApplicationModel app(
        workloads::profileByName("kmeans"), w.machine);
    telemetry::Profiler prof(w.monitor, w.meter);
    telemetry::RandomSampler pol;
    auto obs = prof.sample(app, w.space, pol, n_obs, w.rng);
    p.idx = obs.indices;
    p.vals = obs.performance;
    return p;
}

} // namespace

TEST(LeoHotLoop, WarmStartSameThetaMatchesAcrossPaths)
{
    // Warm starting only changes the EM initialization, so for the
    // same warm theta a fit on a reused workspace (buffers left over
    // from the previous fit) and one on a fresh workspace must agree
    // exactly.
    const FitProblem p = makeFitProblem(12);

    estimators::LeoOptions o;
    o.threads = 1;
    const estimators::LeoEstimator fast(o);

    linalg::Workspace ws;
    const estimators::LeoFit cold =
        fast.fitMetric(p.prior, p.idx, p.vals, &ws, nullptr);
    EXPECT_FALSE(cold.warmStarted);
    EXPECT_FALSE(cold.lowRank); // 32 configurations resolve to dense

    const estimators::LeoFit warm_ws =
        fast.fitMetric(p.prior, p.idx, p.vals, &ws, &cold);
    EXPECT_TRUE(warm_ws.warmStarted);
    linalg::Workspace fresh;
    expectFitsExactlyEqual(
        warm_ws, fast.fitMetric(p.prior, p.idx, p.vals, &fresh, &cold),
        "warm");
    expectFitsExactlyEqual(
        warm_ws, fast.fitMetric(p.prior, p.idx, p.vals, nullptr, &cold),
        "warm, fit-local arena");

    // An incompatible warm fit silently falls back to the cold init.
    estimators::LeoFit bogus;
    bogus.mu = Vector(3, 1.0);
    bogus.sigma = Matrix(3, 3, 0.1);
    bogus.sigma2 = 0.01;
    const estimators::LeoFit fallback =
        fast.fitMetric(p.prior, p.idx, p.vals, &ws, &bogus);
    EXPECT_FALSE(fallback.warmStarted);
    expectFitsExactlyEqual(fallback, cold, "fallback");
}

TEST(LeoHotLoop, WarmFitBitwiseIdenticalAcrossThreadCounts)
{
    // The PR-1 determinism guarantee extended to warm refits: same
    // bits at 1, 2 and 8 threads.
    const FitProblem p = makeFitProblem(12);
    const estimators::LeoFit seed_fit = [&] {
        estimators::LeoOptions o;
        o.threads = 1;
        return estimators::LeoEstimator(o).fitMetric(
            p.prior, p.idx, p.vals);
    }();

    auto warm_fit = [&](std::size_t threads) {
        estimators::LeoOptions o;
        o.threads = threads;
        o.maxIterations = 8;
        linalg::Workspace ws;
        return estimators::LeoEstimator(o).fitMetric(
            p.prior, p.idx, p.vals, &ws, &seed_fit);
    };

    const estimators::LeoFit serial = warm_fit(1);
    EXPECT_TRUE(serial.warmStarted);
    expectFitsExactlyEqual(warm_fit(2), serial, "2 threads");
    expectFitsExactlyEqual(warm_fit(8), serial, "8 threads");
}

TEST(LeoHotLoop, SerialIterationLoopIsAllocationFree)
{
    // The tentpole guarantee: once the workspace is bound, the EM
    // iteration loop performs zero heap allocations — on a cold fit
    // with a fresh arena (buffers are acquired in the prologue), on
    // the warm refit reusing it, and with or without observations.
    const FitProblem p = makeFitProblem(12);
    estimators::LeoOptions o;
    o.threads = 1; // pool fan-out posts tasks; the guarantee is serial
    const estimators::LeoEstimator est(o);

    estimators::setAllocationCounter(&heapAllocCount);
    linalg::Workspace ws;
    const estimators::LeoFit cold =
        est.fitMetric(p.prior, p.idx, p.vals, &ws, nullptr);
    const estimators::LeoFit warm =
        est.fitMetric(p.prior, p.idx, p.vals, &ws, &cold);
    const estimators::LeoFit no_obs =
        est.fitMetric(p.prior, {}, Vector(0), &ws, nullptr);

    estimators::setAllocationCounter(nullptr);

    // Self-check that the hook actually measures: a known allocation
    // (a library Vector, built out of line) must move the counter.
    const std::size_t before = heapAllocCount();
    const Vector probe(64, 1.0);
    EXPECT_GT(heapAllocCount(), before);
    EXPECT_EQ(probe.size(), 64u);

    EXPECT_EQ(cold.loopAllocations, 0u);
    EXPECT_EQ(warm.loopAllocations, 0u);
    EXPECT_EQ(no_obs.loopAllocations, 0u);
}

TEST(LeoHotLoop, WarmRefitConvergesInFewerIterations)
{
    // The point of warm starting: an incremental refit (a few extra
    // observations on the same target) resumes near the optimum.
    const FitProblem p = makeFitProblem(16);
    std::vector<std::size_t> idx8(p.idx.begin(), p.idx.begin() + 8);
    Vector vals8(8);
    for (std::size_t j = 0; j < 8; ++j)
        vals8[j] = p.vals[j];

    estimators::LeoOptions o;
    o.threads = 1;
    o.maxIterations = 8;
    const estimators::LeoEstimator est(o);
    linalg::Workspace ws;

    const estimators::LeoFit first =
        est.fitMetric(p.prior, idx8, vals8, &ws, nullptr);
    const estimators::LeoFit cold =
        est.fitMetric(p.prior, p.idx, p.vals, &ws, nullptr);
    const estimators::LeoFit warm =
        est.fitMetric(p.prior, p.idx, p.vals, &ws, &first);

    EXPECT_TRUE(warm.warmStarted);
    EXPECT_TRUE(warm.converged);
    EXPECT_LE(warm.iterations, cold.iterations);
}

TEST(LeoHotLoop, BatchWarmStartMatchesDirectWarmFit)
{
    // EstimateRequest::warmStart/fitOut plumb the same machinery
    // through the batch API.
    const FitProblem p = makeFitProblem(12);
    estimators::LeoOptions o;
    o.threads = 1;
    const estimators::LeoEstimator est(o);

    const estimators::LeoFit seed_fit =
        est.fitMetric(p.prior, p.idx, p.vals);

    CoreOnlyWorld w;
    parallel::ThreadPool pool(0);
    estimators::EstimatorBatch batch(est, pool);
    estimators::LeoFit batch_fit;
    estimators::EstimateRequest req;
    req.prior = p.prior;
    req.obsIndices = p.idx;
    req.obsValues = p.vals;
    req.warmStart = &seed_fit;
    req.fitOut = &batch_fit;
    batch.add(std::move(req));
    const auto results = batch.run(w.space);

    const estimators::LeoFit direct =
        est.fitMetric(p.prior, p.idx, p.vals, nullptr, &seed_fit);
    ASSERT_EQ(results.size(), 1u);
    expectExactlyEqual(results[0].values, direct.prediction,
                       "batch warm prediction");
    expectFitsExactlyEqual(batch_fit, direct, "batch fitOut");
}

// --------------------------------------------------- fit round trip

namespace
{

void
expectFitsBitwiseEqual(const estimators::LeoFit &a,
                       const estimators::LeoFit &b)
{
    ASSERT_EQ(a.prediction.size(), b.prediction.size());
    for (std::size_t j = 0; j < a.prediction.size(); ++j)
        EXPECT_EQ(a.prediction[j], b.prediction[j]);
    ASSERT_EQ(a.predictionVariance.size(),
              b.predictionVariance.size());
    for (std::size_t j = 0; j < a.predictionVariance.size(); ++j)
        EXPECT_EQ(a.predictionVariance[j], b.predictionVariance[j]);
    ASSERT_EQ(a.mu.size(), b.mu.size());
    for (std::size_t j = 0; j < a.mu.size(); ++j)
        EXPECT_EQ(a.mu[j], b.mu[j]);
    EXPECT_EQ(a.sigma2, b.sigma2);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.converged, b.converged);
    EXPECT_EQ(a.logLikelihoodTrace, b.logLikelihoodTrace);
    EXPECT_EQ(a.scale, b.scale);
    EXPECT_EQ(a.warmStarted, b.warmStarted);
    EXPECT_EQ(a.lowRank, b.lowRank);
    EXPECT_EQ(a.alphaDiag, b.alphaDiag);
    ASSERT_EQ(a.basisT.rows(), b.basisT.rows());
    ASSERT_EQ(a.basisT.cols(), b.basisT.cols());
    for (std::size_t r = 0; r < a.basisT.rows(); ++r)
        for (std::size_t c = 0; c < a.basisT.cols(); ++c)
            EXPECT_EQ(a.basisT(r, c), b.basisT(r, c));
    ASSERT_EQ(a.varCore.rows(), b.varCore.rows());
    for (std::size_t r = 0; r < a.varCore.rows(); ++r)
        for (std::size_t c = 0; c < a.varCore.cols(); ++c)
            EXPECT_EQ(a.varCore(r, c), b.varCore(r, c));
}

} // namespace

/**
 * saveFit/loadFit round-trip every field bit for bit, dense and
 * low-rank alike — the warm-start continuation from a loaded fit is
 * indistinguishable from one using the original.
 */
TEST(FitIo, RoundTripsDenseAndLowRankBitwise)
{
    CoreOnlyWorld w;
    auto prior = w.priorPerf("kmeans");
    telemetry::RandomSampler sampler;
    stats::Rng rng(41);
    workloads::ApplicationModel app(
        workloads::profileByName("kmeans"), w.machine);
    telemetry::Profiler profiler(w.monitor, w.meter);
    auto obs = profiler.sample(app, w.space, sampler, 8, rng);

    for (const auto rep : {estimators::CovarianceRep::Dense,
                           estimators::CovarianceRep::LowRank}) {
        estimators::LeoOptions opt;
        opt.representation = rep;
        estimators::LeoEstimator leo(opt);
        const auto fit =
            leo.fitMetric(prior, obs.indices, obs.performance);

        linalg::ByteWriter wtr;
        estimators::saveFit(wtr, fit);
        const std::string blob = wtr.take();
        linalg::ByteReader rdr(blob);
        const auto loaded = estimators::loadFit(rdr);
        ASSERT_TRUE(rdr.ok());
        EXPECT_TRUE(rdr.atEnd());
        ASSERT_NO_FATAL_FAILURE(expectFitsBitwiseEqual(fit, loaded));

        // Warm-starting from the loaded fit matches warm-starting
        // from the original.
        const auto warm_orig = leo.fitMetric(
            prior, obs.indices, obs.performance, nullptr, &fit);
        const auto warm_loaded = leo.fitMetric(
            prior, obs.indices, obs.performance, nullptr, &loaded);
        ASSERT_NO_FATAL_FAILURE(
            expectFitsBitwiseEqual(warm_orig, warm_loaded));
    }

    // A truncated blob fails closed.
    estimators::LeoEstimator leo;
    const auto fit =
        leo.fitMetric(prior, obs.indices, obs.performance);
    linalg::ByteWriter wtr;
    estimators::saveFit(wtr, fit);
    std::string blob = wtr.take();
    blob.resize(blob.size() / 2);
    linalg::ByteReader rdr(blob);
    (void)estimators::loadFit(rdr);
    EXPECT_FALSE(rdr.ok());
}
