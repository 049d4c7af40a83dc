/**
 * @file
 * Equivalence harness for the low-rank EM path.
 *
 * The low-rank representation (Sigma = alpha I + Q' C Q, DESIGN.md
 * section 7.2) evaluates the same EM algebra as the dense path in a
 * rotated parameterization, so the two paths agree to accumulated
 * rounding, not to the bit. The discipline mirrors PR 2's two-path
 * harness:
 *
 *  - Where the dense path runs verbatim (Auto resolving to Dense),
 *    equality is asserted at 0 ULP.
 *  - Where the reordering is inherent (LowRank vs Dense), relative
 *    L2 agreement is pinned at documented tolerances: 1e-6 on
 *    well-conditioned problems, 1e-4 on deliberately ill-conditioned
 *    and rank-deficient ones (the subspace rotation amplifies
 *    rounding roughly by the covariance condition number).
 *
 * Every fit in this file sets tolerance = 0 so both paths run exactly
 * maxIterations: convergence is judged on a thresholded quantity, and
 * a 1e-15 rounding difference on the threshold's edge would otherwise
 * let one path stop an iteration early and turn rounding into a
 * macroscopic (but meaningless) discrepancy.
 */

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "estimators/leo.hh"
#include "linalg/lowrank.hh"
#include "linalg/workspace.hh"
#include "stats/rng.hh"

/** Heap-allocation audit hook (same pattern as estimators_test.cc). */
static std::atomic<std::size_t> g_heap_allocs{0};

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
using estimators::CovarianceRep;
using estimators::LeoEstimator;
using estimators::LeoFit;
using estimators::LeoOptions;
using linalg::Matrix;
using linalg::Vector;

namespace
{

/**
 * Synthetic prior: m positive shape vectors over n configurations
 * drawn from `rank` smooth latent directions plus per-shape noise.
 * rank < m produces a genuinely rank-deficient shape family;
 * noise = 0 makes shapes exact combinations of the latents.
 */
std::vector<Vector>
makePrior(std::size_t m, std::size_t n, std::size_t rank,
          unsigned seed, double noise = 0.05)
{
    stats::Rng rng(seed);
    std::vector<Vector> latents;
    for (std::size_t r = 0; r < rank; ++r) {
        Vector l(n);
        const double f = 0.5 + rng.uniform(0.0, 2.0);
        const double ph = rng.uniform(0.0, 6.28);
        for (std::size_t j = 0; j < n; ++j) {
            const double x =
                static_cast<double>(j) / static_cast<double>(n);
            l[j] = std::sin(f * 6.28 * x + ph) +
                   0.3 * std::cos((f + 1.0) * 12.0 * x);
        }
        latents.push_back(std::move(l));
    }
    std::vector<Vector> prior;
    for (std::size_t i = 0; i < m; ++i) {
        Vector y(n, 0.0);
        for (std::size_t r = 0; r < rank; ++r) {
            const double c = rng.uniform(0.2, 1.0);
            y.addScaled(c, latents[r]);
        }
        // Lift into positive territory and add measurement noise.
        double lo = y[0];
        for (std::size_t j = 1; j < n; ++j)
            lo = std::min(lo, y[j]);
        for (std::size_t j = 0; j < n; ++j) {
            y[j] += 1.0 - lo;
            if (noise > 0.0)
                y[j] *= 1.0 + rng.uniform(-noise, noise);
        }
        prior.push_back(std::move(y));
    }
    return prior;
}

/** Observation set: k spread-out indices, values near prior level. */
void
makeObservations(const std::vector<Vector> &prior, std::size_t k,
                 unsigned seed, std::vector<std::size_t> &idx,
                 Vector &vals)
{
    const std::size_t n = prior.front().size();
    stats::Rng rng(seed);
    idx = rng.sampleWithoutReplacement(n, std::min(k, n));
    vals = Vector(idx.size());
    for (std::size_t j = 0; j < idx.size(); ++j) {
        // The "target app" scales the first prior shape by ~40x.
        vals[j] = 40.0 * prior.front()[idx[j]] *
                  (1.0 + rng.uniform(-0.03, 0.03));
    }
}

double
relL2(const Vector &a, const Vector &b)
{
    double num = 0.0;
    double den = 0.0;
    for (std::size_t j = 0; j < a.size(); ++j) {
        const double d = a[j] - b[j];
        num += d * d;
        den += a[j] * a[j];
    }
    return std::sqrt(num) / (std::sqrt(den) + 1e-300);
}

LeoOptions
gridOptions(CovarianceRep rep)
{
    LeoOptions opt;
    opt.representation = rep;
    opt.tolerance = 0.0; // run exactly maxIterations on both paths
    opt.threads = 1;
    return opt;
}

} // namespace

// ----------------------------------------------------- LowRankBasis

TEST(LowRankBasis, OrthonormalAndSpanning)
{
    auto prior = makePrior(6, 64, 6, 11);
    linalg::LowRankBasis basis;
    basis.reset(64, 8);
    for (const Vector &x : prior)
        ASSERT_TRUE(basis.appendVector(x));
    ASSERT_TRUE(basis.appendUnit(17));
    EXPECT_EQ(basis.size(), 7u);

    // Rows pairwise orthonormal.
    for (std::size_t a = 0; a < basis.size(); ++a) {
        for (std::size_t b = 0; b <= a; ++b) {
            double d = 0.0;
            for (std::size_t j = 0; j < 64; ++j)
                d += basis.entry(a, j) * basis.entry(b, j);
            EXPECT_NEAR(d, a == b ? 1.0 : 0.0, 1e-12);
        }
    }

    // Round-trip: expand(coords(x)) == x for in-span vectors.
    Vector c, back;
    basis.coordsInto(c, prior[3]);
    basis.expandInto(back, c);
    EXPECT_LT(relL2(prior[3], back), 1e-12);
}

TEST(LowRankBasis, DropsDependentVectors)
{
    auto prior = makePrior(4, 32, 4, 5, 0.0);
    linalg::LowRankBasis basis;
    basis.reset(32, 8);
    for (const Vector &x : prior)
        ASSERT_TRUE(basis.appendVector(x));
    // An exact linear combination adds no direction.
    Vector combo(32, 0.0);
    combo.addScaled(0.5, prior[0]);
    combo.addScaled(2.0, prior[2]);
    EXPECT_FALSE(basis.appendVector(combo));
    EXPECT_EQ(basis.size(), 4u);
    // A repeated unit direction is likewise dropped.
    ASSERT_TRUE(basis.appendUnit(9));
    EXPECT_FALSE(basis.appendUnit(9));
}

// ------------------------------------------- Dense/low-rank equivalence

struct GridCase
{
    std::size_t m;
    std::size_t n;
    std::size_t rank;
    std::size_t obs;
};

class LowRankGrid : public ::testing::TestWithParam<GridCase>
{
};

TEST_P(LowRankGrid, MatchesDensePath)
{
    const GridCase gc = GetParam();
    auto prior = makePrior(gc.m, gc.n, gc.rank, 41 + gc.n);
    std::vector<std::size_t> idx;
    Vector vals;
    makeObservations(prior, gc.obs, 7 + gc.m, idx, vals);

    const LeoEstimator dense(gridOptions(CovarianceRep::Dense));
    const LeoEstimator lowrank(gridOptions(CovarianceRep::LowRank));
    const LeoFit fd = dense.fitMetric(prior, idx, vals);
    const LeoFit fl = lowrank.fitMetric(prior, idx, vals);

    ASSERT_FALSE(fd.lowRank);
    ASSERT_TRUE(fl.lowRank);
    ASSERT_EQ(fd.iterations, fl.iterations);
    ASSERT_TRUE(fl.prediction.allFinite());
    ASSERT_TRUE(fl.predictionVariance.allFinite());

    // Documented equivalence bound for well-conditioned problems.
    EXPECT_LT(relL2(fd.prediction, fl.prediction), 1e-6);
    EXPECT_LT(relL2(fd.mu, fl.mu), 1e-6);
    EXPECT_LT(relL2(fd.predictionVariance, fl.predictionVariance),
              1e-4);
    EXPECT_NEAR(fl.sigma2, fd.sigma2,
                1e-6 * fd.sigma2 + 1e-12);

    // The factored Sigma must carry an orthonormal basis.
    EXPECT_GE(fl.basisT.rows(), 1u);
    EXPECT_EQ(fl.basisT.cols(), gc.n);
    EXPECT_EQ(fl.coeff.rows(), fl.basisT.rows());
    EXPECT_GT(fl.alphaDiag, 0.0);
    EXPECT_TRUE(fl.sigma.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, LowRankGrid,
    ::testing::Values(GridCase{4, 128, 4, 4},   // tiny
                      GridCase{8, 256, 8, 8},   // small
                      GridCase{12, 512, 12, 12}, // medium
                      GridCase{25, 1024, 25, 20}, // paper scale
                      GridCase{8, 256, 3, 8},   // rank-deficient prior
                      GridCase{25, 1024, 5, 20}, // strongly deficient
                      GridCase{6, 333, 6, 5},   // odd n (kernel tails)
                      GridCase{8, 256, 8, 0}),  // no observations
    [](const ::testing::TestParamInfo<GridCase> &param_info) {
        const GridCase &g = param_info.param;
        return "m" + std::to_string(g.m) + "_n" + std::to_string(g.n) +
               "_rank" + std::to_string(g.rank) + "_obs" +
               std::to_string(g.obs);
    });

TEST(LowRankEquivalence, IllConditionedPriorStaysClose)
{
    // Nearly collinear shapes: the dense covariance is within 1e-8
    // of singular, which is where the rotated algebra diverges
    // fastest. The documented bound here is 1e-4.
    const std::size_t n = 256;
    auto prior = makePrior(1, n, 1, 3, 0.0);
    stats::Rng rng(17);
    for (std::size_t i = 1; i < 10; ++i) {
        Vector y = prior[0];
        for (std::size_t j = 0; j < n; ++j)
            y[j] *= 1.0 + 1e-8 * rng.uniform(-1.0, 1.0);
        prior.push_back(std::move(y));
    }
    std::vector<std::size_t> idx;
    Vector vals;
    makeObservations(prior, 8, 23, idx, vals);

    const LeoEstimator dense(gridOptions(CovarianceRep::Dense));
    const LeoEstimator lowrank(gridOptions(CovarianceRep::LowRank));
    const LeoFit fd = dense.fitMetric(prior, idx, vals);
    const LeoFit fl = lowrank.fitMetric(prior, idx, vals);
    ASSERT_TRUE(fl.prediction.allFinite());
    EXPECT_LT(relL2(fd.prediction, fl.prediction), 1e-4);
}

TEST(LowRankEquivalence, DuplicateObservationIndices)
{
    // Repeated indices shrink the basis (the second unit vector is
    // in-span) but both paths must accept them and agree.
    auto prior = makePrior(8, 200, 8, 9);
    std::vector<std::size_t> idx{5, 50, 5, 120, 50};
    Vector vals(5);
    for (std::size_t j = 0; j < 5; ++j)
        vals[j] = 30.0 * prior[0][idx[j]];

    const LeoEstimator dense(gridOptions(CovarianceRep::Dense));
    const LeoEstimator lowrank(gridOptions(CovarianceRep::LowRank));
    const LeoFit fd = dense.fitMetric(prior, idx, vals);
    const LeoFit fl = lowrank.fitMetric(prior, idx, vals);
    ASSERT_TRUE(fl.prediction.allFinite());
    EXPECT_LT(relL2(fd.prediction, fl.prediction), 1e-6);
}

// --------------------------------------------------- Auto resolution

TEST(LowRankAuto, ResolvesDenseBitwiseOnSmallProblems)
{
    // 4 (m + s + 1) > n: Auto must run the dense path, and not just
    // approximately — bit for bit.
    auto prior = makePrior(12, 64, 12, 29);
    std::vector<std::size_t> idx;
    Vector vals;
    makeObservations(prior, 4, 31, idx, vals);

    const LeoEstimator dense(gridOptions(CovarianceRep::Dense));
    const LeoEstimator automatic(gridOptions(CovarianceRep::Auto));
    const LeoFit fd = dense.fitMetric(prior, idx, vals);
    const LeoFit fa = automatic.fitMetric(prior, idx, vals);
    ASSERT_FALSE(fa.lowRank);
    ASSERT_EQ(fd.prediction.size(), fa.prediction.size());
    auto bits = [](double v) {
        std::uint64_t u = 0;
        std::memcpy(&u, &v, sizeof(u));
        return u;
    };
    for (std::size_t j = 0; j < fd.prediction.size(); ++j) {
        EXPECT_EQ(bits(fd.prediction[j]), bits(fa.prediction[j]));
        EXPECT_EQ(bits(fd.predictionVariance[j]),
                  bits(fa.predictionVariance[j]));
    }
    EXPECT_EQ(bits(fd.sigma2), bits(fa.sigma2));
}

TEST(LowRankAuto, ResolvesLowRankOnLargeProblems)
{
    auto prior = makePrior(8, 512, 8, 37);
    std::vector<std::size_t> idx;
    Vector vals;
    makeObservations(prior, 8, 39, idx, vals);
    const LeoEstimator automatic(gridOptions(CovarianceRep::Auto));
    const LeoFit fa = automatic.fitMetric(prior, idx, vals);
    EXPECT_TRUE(fa.lowRank);
}

// ------------------------------------------------------- Warm starts

TEST(LowRankWarm, WarmStartResumesAndStaysEquivalent)
{
    auto prior = makePrior(10, 512, 10, 53);
    std::vector<std::size_t> idx;
    Vector vals;
    makeObservations(prior, 10, 57, idx, vals);

    const LeoEstimator est(gridOptions(CovarianceRep::LowRank));
    linalg::Workspace ws;
    const LeoFit cold = est.fitMetric(prior, idx, vals, &ws, nullptr);
    ASSERT_TRUE(cold.lowRank);

    // Add one observation and refit warm; the warm fit must converge
    // to (essentially) the cold refit of the same problem.
    std::vector<std::size_t> idx2 = idx;
    idx2.push_back((idx.back() + 101) % 512);
    Vector vals2(idx2.size());
    for (std::size_t j = 0; j + 1 < idx2.size(); ++j)
        vals2[j] = vals[j];
    vals2[idx2.size() - 1] = 40.0 * prior[0][idx2.back()];

    const LeoFit warm = est.fitMetric(prior, idx2, vals2, &ws, &cold);
    EXPECT_TRUE(warm.warmStarted);
    EXPECT_TRUE(warm.lowRank);
    const LeoFit cold2 = est.fitMetric(prior, idx2, vals2);
    EXPECT_LT(relL2(cold2.prediction, warm.prediction), 5e-3);
}

TEST(LowRankWarm, DenseWarmFitIsIgnoredByLowRankPath)
{
    auto prior = makePrior(6, 256, 6, 61);
    const LeoEstimator dense(gridOptions(CovarianceRep::Dense));
    const LeoEstimator lowrank(gridOptions(CovarianceRep::LowRank));
    const LeoFit fd =
        dense.fitMetric(prior, {4, 80}, Vector{12.0, 13.0});
    // A dense warm fit must not poison the low-rank init: the fit
    // falls back to cold (warmStarted false) and stays finite.
    const LeoFit fl = lowrank.fitMetric(prior, {4, 80},
                                        Vector{12.0, 13.0}, nullptr,
                                        &fd);
    EXPECT_FALSE(fl.warmStarted);
    EXPECT_TRUE(fl.prediction.allFinite());
}

// ----------------------------------------------- Allocation contract

TEST(LowRankHotLoop, SerialLoopIsAllocationFree)
{
    auto prior = makePrior(10, 512, 10, 67);
    std::vector<std::size_t> idx;
    Vector vals;
    makeObservations(prior, 10, 71, idx, vals);

    LeoOptions opt = gridOptions(CovarianceRep::LowRank);
    const LeoEstimator est(opt);
    linalg::Workspace ws;
    // Prime the arena, then audit a second fit's loop.
    (void)est.fitMetric(prior, idx, vals, &ws, nullptr);
    estimators::setAllocationCounter(
        +[]() -> std::size_t { return g_heap_allocs.load(); });
    const LeoFit fit = est.fitMetric(prior, idx, vals, &ws, nullptr);
    estimators::setAllocationCounter(nullptr);
    EXPECT_EQ(fit.loopAllocations, 0u);
}

// ------------------------------------- factored predictive variance

/**
 * lowRankPredictiveVariance evaluates single entries of the factored
 * posterior bitwise identically to the expanded predictionVariance
 * fill, and expandVariance = false only suppresses the expansion —
 * every other fit field is untouched.
 */
TEST(LowRankVariance, OnDemandMatchesExpandedBitwise)
{
    auto prior = makePrior(8, 96, 8, 21);
    std::vector<std::size_t> idx;
    Vector vals;
    makeObservations(prior, 12, 22, idx, vals);

    const LeoEstimator expanded(gridOptions(CovarianceRep::LowRank));
    LeoOptions lazy_opt = gridOptions(CovarianceRep::LowRank);
    lazy_opt.expandVariance = false;
    const LeoEstimator lazy(lazy_opt);

    const LeoFit full = expanded.fitMetric(prior, idx, vals);
    const LeoFit factored = lazy.fitMetric(prior, idx, vals);

    ASSERT_TRUE(full.lowRank);
    ASSERT_TRUE(factored.lowRank);
    ASSERT_EQ(full.predictionVariance.size(), 96u);
    EXPECT_EQ(factored.predictionVariance.size(), 0u);
    ASSERT_GT(factored.varCore.rows(), 0u);

    for (std::size_t c = 0; c < 96; ++c) {
        EXPECT_EQ(estimators::lowRankPredictiveVariance(factored, c),
                  full.predictionVariance[c])
            << "config " << c;
        // The expanded fit carries the same core; on-demand entries
        // agree with its own expansion too.
        EXPECT_EQ(estimators::lowRankPredictiveVariance(full, c),
                  full.predictionVariance[c]);
    }
    for (std::size_t c = 0; c < 96; ++c)
        EXPECT_EQ(full.prediction[c], factored.prediction[c]);
    EXPECT_EQ(full.sigma2, factored.sigma2);
    EXPECT_EQ(full.alphaDiag, factored.alphaDiag);
}
