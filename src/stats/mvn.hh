/**
 * @file
 * Multivariate normal distribution utilities.
 *
 * The hierarchical model of Equation (2) is built entirely from
 * multivariate Gaussians; this module supplies sampling (used by the
 * property-based tests to generate data *from the model itself* and
 * check that EM recovers the generating parameters) and both the
 * conditional-distribution identities the E-step relies on.
 */

#ifndef LEO_STATS_MVN_HH
#define LEO_STATS_MVN_HH

#include "linalg/cholesky.hh"
#include "linalg/matrix.hh"
#include "linalg/vector.hh"
#include "stats/rng.hh"

namespace leo::stats
{

/**
 * A multivariate normal N(mean, cov) with a cached Cholesky factor.
 */
class MultivariateNormal
{
  public:
    /**
     * @param mean Mean vector.
     * @param cov  Covariance (SPD; jitter is applied if borderline).
     */
    MultivariateNormal(linalg::Vector mean, const linalg::Matrix &cov);

    /** @return The dimension of the distribution. */
    std::size_t dim() const { return mean_.size(); }

    /** @return The mean vector. */
    const linalg::Vector &mean() const { return mean_; }

    /** Draw one sample x = mean + L u with u ~ N(0, I). */
    linalg::Vector sample(Rng &rng) const;

    /** Log density at a point. */
    double logPdf(const linalg::Vector &x) const;

  private:
    linalg::Vector mean_;
    linalg::Cholesky chol_;
};

/**
 * Gaussian conditioning: the posterior of z ~ N(mu, Sigma) given noisy
 * observations y_obs = z[obs] + e, e ~ N(0, sigma^2 I).
 *
 * This is Equation (3) of the paper in its numerically efficient form:
 *
 *   E[z]  = mu + Sigma[:,obs] (Sigma[obs,obs] + sigma^2 I)^-1
 *                (y_obs - mu[obs])
 *   Cov[z] = Sigma - Sigma[:,obs] (Sigma[obs,obs] + sigma^2 I)^-1
 *                Sigma[obs,:]
 *
 * which is algebraically identical to the
 * (diag(L)/sigma^2 + Sigma^-1)^-1 form printed in the paper but costs
 * O(n^2 |obs|) instead of O(n^3).
 */
struct GaussianPosterior
{
    linalg::Vector mean;
    linalg::Matrix cov;
};

/**
 * Compute the Gaussian posterior above.
 *
 * Library code calls conditionOnObservationsInto; this allocating
 * form stays as the reference its 0-ULP tests (stats_test) compare
 * against.
 *
 * @param mu       Prior mean (size n).
 * @param sigma_m  Prior covariance (n x n, SPD).
 * @param obs_idx  Indices of the observed coordinates.
 * @param y_obs    Observed values (size |obs_idx|).
 * @param noise_var Observation noise variance sigma^2.
 * @param want_cov When false, cov is left empty (cheaper).
 */
GaussianPosterior conditionOnObservations(
    const linalg::Vector &mu, const linalg::Matrix &sigma_m,
    const std::vector<std::size_t> &obs_idx, const linalg::Vector &y_obs,
    double noise_var, bool want_cov = true);

/**
 * Reusable scratch for conditionOnObservationsInto.
 *
 * One instance per recurring call site; after the first call with a
 * given (n, |obs|) shape — or an up-front reserve() — subsequent
 * calls are allocation-free.
 */
struct ConditioningScratch
{
    /** Pre-size every buffer for an n-dim prior and s observations. */
    void reserve(std::size_t n, std::size_t s);

    linalg::Matrix k;          ///< Sigma[obs, obs] + sigma^2 I (s x s).
    linalg::Matrix crossT;     ///< Sigma[obs, :] (s x n).
    linalg::Matrix kinvCrossT; ///< K^-1 Sigma[obs, :] (s x n).
    linalg::Vector r;          ///< Residual y_obs - mu[obs] (s).
    linalg::Vector alpha;      ///< K^-1 r (s).
    linalg::Cholesky chol;     ///< Factor of k.
};

/**
 * Allocation-free variant of conditionOnObservations.
 *
 * Writes the posterior into `post` (whose buffers are reused when
 * shapes match) using `scratch` for every temporary. Requires an
 * *exactly* symmetric sigma_m — the cross covariance is read from
 * rows Sigma[obs, :] instead of columns Sigma[:, obs] so both
 * operands stream contiguously — under which the result is bitwise
 * identical to conditionOnObservations.
 */
void conditionOnObservationsInto(
    GaussianPosterior &post, ConditioningScratch &scratch,
    const linalg::Vector &mu, const linalg::Matrix &sigma_m,
    const std::vector<std::size_t> &obs_idx, const linalg::Vector &y_obs,
    double noise_var, bool want_cov = true);

} // namespace leo::stats

#endif // LEO_STATS_MVN_HH
