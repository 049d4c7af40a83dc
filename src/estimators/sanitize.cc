/**
 * @file
 * Implementation of observation sanitization.
 */

#include "estimators/sanitize.hh"

#include <cmath>

#include "linalg/error.hh"
#include "obs/obs.hh"

namespace leo::estimators
{

namespace
{

/** A usable sample: in-range index, finite strictly-positive value. */
bool
sampleValid(std::size_t idx, double val, std::size_t space_size)
{
    return idx < space_size && std::isfinite(val) && val > 0.0;
}

/** Registry instruments of the sanitizer (lazily registered). */
struct SanitizeObs
{
    obs::Counter rejected =
        obs::Registry::global().counter(obs::names::kSanitizeSamplesRejected);
    obs::Counter merged =
        obs::Registry::global().counter(obs::names::kSanitizeSamplesMerged);
};

SanitizeObs &
sanitizeObs()
{
    static SanitizeObs o;
    return o;
}

} // namespace

bool
observationsClean(const std::vector<std::size_t> &idx,
                  const linalg::Vector &vals, std::size_t space_size)
{
    if (idx.size() != vals.size())
        return false;
    for (std::size_t j = 0; j < idx.size(); ++j) {
        if (!sampleValid(idx[j], vals[j], space_size))
            return false;
        for (std::size_t k = 0; k < j; ++k)
            if (idx[k] == idx[j])
                return false;
    }
    return true;
}

SanitizedObservations
sanitizeObservations(const std::vector<std::size_t> &idx,
                     const linalg::Vector &vals, std::size_t space_size)
{
    require(idx.size() == vals.size(),
            "sanitizeObservations: index/value size mismatch");

    SanitizedObservations out;
    if (observationsClean(idx, vals, space_size))
        return out; // modified stays false; caller uses its buffers.

    out.modified = true;
    // Per surviving index (first-occurrence order): every valid
    // value observed for it, gathered before any arithmetic.
    std::vector<std::vector<double>> gathered;
    out.indices.reserve(idx.size());
    for (std::size_t j = 0; j < idx.size(); ++j) {
        if (!sampleValid(idx[j], vals[j], space_size)) {
            ++out.rejected;
            continue;
        }
        std::size_t pos = out.indices.size();
        for (std::size_t k = 0; k < out.indices.size(); ++k) {
            if (out.indices[k] == idx[j]) {
                pos = k;
                break;
            }
        }
        if (pos == out.indices.size()) {
            out.indices.push_back(idx[j]);
            gathered.emplace_back(1, vals[j]);
        } else {
            gathered[pos].push_back(vals[j]);
            ++out.merged;
        }
    }
    // Merge duplicates order-independently: a running mean depends
    // on arrival order (floating-point addition is not associative),
    // which breaks the contract that permuted duplicate sets — which
    // trace replays and retried probes produce routinely — sanitize
    // to bitwise-identical values, so a replay fits the same.
    // Summing in ascending value order is the deterministic
    // tie-break, and a set of identical readings (repeated trace
    // rows) reproduces the reading exactly.
    out.values.reserve(out.indices.size());
    for (auto &dup : gathered) {
        bool all_equal = true;
        for (const double v : dup)
            all_equal = all_equal && v == dup.front();
        if (all_equal) {
            out.values.push_back(dup.front());
            continue;
        }
        for (std::size_t i = 1; i < dup.size(); ++i) {
            const double v = dup[i];
            std::size_t k = i;
            while (k > 0 && dup[k - 1] > v) {
                dup[k] = dup[k - 1];
                --k;
            }
            dup[k] = v;
        }
        double sum = 0.0;
        for (const double v : dup)
            sum += v;
        out.values.push_back(sum /
                             static_cast<double>(dup.size()));
    }
    SanitizeObs &so = sanitizeObs();
    so.rejected.add(out.rejected);
    so.merged.add(out.merged);
    return out;
}

} // namespace leo::estimators
