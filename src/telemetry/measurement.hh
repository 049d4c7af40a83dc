/**
 * @file
 * Measurement types shared by the telemetry layer and the estimators.
 */

#ifndef LEO_TELEMETRY_MEASUREMENT_HH
#define LEO_TELEMETRY_MEASUREMENT_HH

#include <cstddef>
#include <vector>

#include "linalg/vector.hh"

namespace leo::telemetry
{

/** One measured sample of a running application in one configuration. */
struct Sample
{
    /** Index of the configuration that was measured. */
    std::size_t configIndex = 0;
    /** Measured heartbeat rate (heartbeats/s). */
    double heartbeatRate = 0.0;
    /** Measured wall power (Watts). */
    double powerWatts = 0.0;
};

/**
 * A set of observations of the target application: the paper's
 * Omega_M (observed configuration indices) together with the measured
 * values at those indices.
 */
struct Observations
{
    /** Observed configuration indices Omega. */
    std::vector<std::size_t> indices;
    /** Measured heartbeat rates, aligned with indices. */
    linalg::Vector performance;
    /** Measured wall power, aligned with indices. */
    linalg::Vector power;

    /** @return |Omega|, the number of observations. */
    std::size_t size() const { return indices.size(); }

    /** @return True iff no configuration has been observed. */
    bool empty() const { return indices.empty(); }

    /** Append one sample. */
    void push(const Sample &s);
};

} // namespace leo::telemetry

#endif // LEO_TELEMETRY_MEASUREMENT_HH
