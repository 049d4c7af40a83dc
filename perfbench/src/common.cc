/**
 * @file
 * Implementation of the shared benchmark pieces.
 */

#include "common.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include <sys/resource.h>

#include "estimators/estimator.hh"
#include "estimators/leo.hh"
#include "linalg/workspace.hh"
#include "obs/names.hh"
#include "optimizer/schedule.hh"
#include "runtime/incremental.hh"
#include "stats/rng.hh"
#include "telemetry/meters.hh"
#include "workloads/suite.hh"

namespace perfbench
{

void
Result::note(const std::string &key, double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    note(key, std::string(buf));
}

std::uint64_t
mixSeed(std::uint64_t a, std::uint64_t b)
{
    std::uint64_t z = a * 0x9e3779b97f4a7c15ull + b + 0x632be59bd9b4e019ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + frac * (v[hi] - v[lo]);
}

double
tailQuantile(std::size_t n)
{
    if (n >= 1000)
        return 0.99;
    if (n > 10)
        return 1.0 - 10.0 / static_cast<double>(n);
    return 1.0;
}

double
tailLatency(const std::vector<double> &samples, std::size_t *blocks)
{
    constexpr std::size_t kBlock = 1000;
    *blocks = samples.size() >= 2 * kBlock ? samples.size() / kBlock : 0;
    if (*blocks == 0)
        return percentile(samples, tailQuantile(samples.size()));
    std::vector<double> p99;
    for (std::size_t b = 0; b < *blocks; ++b)
        p99.push_back(percentile(
            std::vector<double>(samples.begin() + b * kBlock,
                                samples.begin() + (b + 1) * kBlock),
            0.99));
    return median(p99);
}

World
makeWorld(std::uint64_t seed)
{
    leo::platform::Machine machine;
    leo::platform::ConfigSpace space =
        leo::platform::ConfigSpace::fullFactorial(machine);
    leo::stats::Rng rng(mixSeed(seed, 0x0ff1));
    const leo::telemetry::HeartbeatMonitor monitor;
    const leo::telemetry::WattsUpMeter meter;
    auto store = leo::telemetry::ProfileStore::collect(
        leo::workloads::standardSuite(), machine, space, monitor, meter,
        rng);
    const double idle = machine.spec().idleSystemPowerW;
    return World{machine, std::move(space), std::move(store), idle};
}

leo::telemetry::ProfileStore
priorWithout(const leo::telemetry::ProfileStore &store,
             const std::vector<std::string> &apps)
{
    std::vector<leo::telemetry::ApplicationRecord> kept;
    for (const auto &rec : store.records())
        if (std::find(apps.begin(), apps.end(), rec.name) == apps.end())
            kept.push_back(rec);
    return leo::telemetry::ProfileStore(std::move(kept));
}

WindowOutcome
windowOutcome(const leo::workloads::GroundTruth &truth, std::size_t c,
              double rate, double idle)
{
    const double period = 1.0 / rate;
    const double busy = 1.0 / truth.performance[c];
    WindowOutcome out;
    out.energy = truth.power[c] * busy;
    if (busy < period)
        out.energy += idle * (period - busy);
    out.hit = busy <= period * (1.0 + 1e-9);
    return out;
}

double
oracleWindowEnergy(const leo::workloads::GroundTruth &truth,
                   double rate, double idle)
{
    leo::optimizer::PerformanceConstraint pc;
    pc.work = 1.0;
    pc.deadlineSeconds = 1.0 / rate;
    return leo::optimizer::planMinimalEnergy(truth.performance,
                                             truth.power, idle, pc)
        .predictedEnergy;
}

double
peakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof(ru));
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::size_t
liveThreads()
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("Threads:", 0) == 0)
            return static_cast<std::size_t>(
                std::strtoul(line.c_str() + 8, nullptr, 10));
    return 0;
}

namespace
{

/** Value of `"key": <text>` on one trace line, or "" when absent. */
std::string
field(const std::string &line, const char *key)
{
    const std::string pat = std::string("\"") + key + "\": ";
    const std::size_t at = line.find(pat);
    if (at == std::string::npos)
        return "";
    std::size_t b = at + pat.size();
    if (b < line.size() && line[b] == '"') {
        const std::size_t e = line.find('"', b + 1);
        return line.substr(b + 1, e - b - 1);
    }
    std::size_t e = b;
    while (e < line.size() && line[e] != ',' && line[e] != '}')
        ++e;
    return line.substr(b, e - b);
}

struct Event
{
    std::string name;
    unsigned tid = 0;
    double ts = 0.0;
    double dur = 0.0;
    bool sampling = false;
};

} // namespace

std::map<std::string, SpanTime>
spanTimes(const std::string &chrome)
{
    // Chrome trace from obs::Tracer: one "X" event per line, sorted by
    // start time.
    std::map<unsigned, std::vector<Event>> by_tid;
    std::istringstream in(chrome);
    std::string line;
    while (std::getline(in, line)) {
        if (field(line, "ph") != "X")
            continue;
        Event e;
        e.name = field(line, "name");
        e.tid = static_cast<unsigned>(
            std::strtoul(field(line, "tid").c_str(), nullptr, 10));
        e.ts = std::strtod(field(line, "ts").c_str(), nullptr);
        e.dur = std::strtod(field(line, "dur").c_str(), nullptr);
        const std::string state = field(line, "state");
        e.sampling = !state.empty() &&
                     std::strtod(state.c_str(), nullptr) == 0.0;
        by_tid[e.tid].push_back(std::move(e));
    }

    std::map<std::string, SpanTime> out;
    for (auto &[tid, events] : by_tid) {
        (void)tid;
        std::stable_sort(events.begin(), events.end(),
                         [](const Event &a, const Event &b) {
                             if (a.ts != b.ts)
                                 return a.ts < b.ts;
                             return a.dur > b.dur; // Parents first.
                         });
        // Stack of open spans; a span's self time is its duration
        // minus its direct children's.
        std::vector<std::pair<const Event *, double>> stack;
        auto close = [&](const Event *e, double child_us) {
            SpanTime &st = out[e->name];
            st.totalMs += e->dur / 1e3;
            st.selfMs += (e->dur - child_us) / 1e3;
            ++st.count;
            st.durUs.push_back(e->dur);
            st.sampling += e->sampling ? 1 : 0;
        };
        for (const Event &e : events) {
            while (!stack.empty() &&
                   e.ts >= stack.back().first->ts +
                               stack.back().first->dur) {
                close(stack.back().first, stack.back().second);
                stack.pop_back();
            }
            if (!stack.empty())
                stack.back().second += e.dur;
            stack.push_back({&e, 0.0});
        }
        while (!stack.empty()) {
            close(stack.back().first, stack.back().second);
            stack.pop_back();
        }
    }
    return out;
}

const std::vector<std::pair<const char *, const char *>> kReportedSpans = {
    {leo::obs::names::kServiceTickSpan, "service.tick"},
    {leo::obs::names::kServiceFitSpan, "service.fit"},
    {leo::obs::names::kEmFitSpan, "em.fit"},
    {leo::obs::names::kEmIterSpan, "em.iter"},
    {leo::obs::names::kControllerFitSpan, "controller.fit"},
    {leo::obs::names::kLpSolveSpan, "lp.solve"},
    {leo::obs::names::kOptimizerGlobalPlanSpan, "global.plan"},
};

void
addSpanMetrics(Result &res, const std::map<std::string, SpanTime> &spans)
{
    for (const auto &[name, label] : kReportedSpans) {
        const auto it = spans.find(name);
        const SpanTime st = it == spans.end() ? SpanTime{} : it->second;
        res.metric(std::string("span.") + label + ".total_ms", st.totalMs,
                   "ms");
        res.metric(std::string("span.") + label + ".self_ms", st.selfMs,
                   "ms");
    }
}

std::uint64_t
RegistryDelta::counter(const char *name) const
{
    return after.counterOr(name) - before.counterOr(name);
}

double
RegistryDelta::histogramMedian(const char *name) const
{
    const leo::obs::HistogramSnapshot *a = after.histogram(name);
    if (a == nullptr)
        return 0.0;
    const leo::obs::HistogramSnapshot *b = before.histogram(name);
    std::vector<std::uint64_t> counts = a->counts;
    std::uint64_t total = a->count;
    if (b != nullptr) {
        for (std::size_t i = 0; i < counts.size(); ++i)
            counts[i] -= b->counts[i];
        total -= b->count;
    }
    if (total == 0)
        return 0.0;
    // Interpolate within the bucket holding the middle observation.
    const double target = 0.5 * static_cast<double>(total);
    double seen = 0.0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
        const double c = static_cast<double>(counts[i]);
        if (seen + c >= target && c > 0.0) {
            const double lo = i == 0 ? 0.0 : a->edges[i - 1];
            const double hi =
                i < a->edges.size() ? a->edges[i] : a->max;
            return lo + (hi - lo) * (target - seen) / c;
        }
        seen += c;
    }
    return a->max;
}

Calibration::Calibration() : basis_(40 * 1024), work_(40 * 1024)
{
    for (std::size_t k = 0; k < basis_.size(); ++k)
        basis_[k] = 1.0 + std::sin(1e-3 * static_cast<double>(k));
    last_ = Clock::now();
}

void
Calibration::sample()
{
    // Twice-repeated Gram-Schmidt; the first, untimed round brings the
    // 320 KB working set into cache, so the timed rounds do not
    // depend on what the workload left there.
    constexpr std::size_t n = 1024;
    const std::size_t q = basis_.size() / n;
    auto round = [&]() {
        for (std::size_t a = 0; a < q; ++a) {
            double *va = &work_[a * n];
            for (std::size_t b = 0; b < a; ++b) {
                const double *vb = &work_[b * n];
                double dot = 0.0;
                for (std::size_t k = 0; k < n; ++k)
                    dot += va[k] * vb[k];
                for (std::size_t k = 0; k < n; ++k)
                    va[k] -= dot * vb[k];
            }
            double norm = 0.0;
            for (std::size_t k = 0; k < n; ++k)
                norm += va[k] * va[k];
            norm = 1.0 / std::sqrt(norm);
            for (std::size_t k = 0; k < n; ++k)
                va[k] *= norm;
        }
    };
    work_ = basis_;
    round();
    work_ = basis_;
    const auto t0 = Clock::now();
    round();
    round();
    samples_.push_back(msSince(t0));
    last_ = Clock::now();
}

void
Calibration::maybeSample()
{
    if (msSince(last_) >= kEveryMs)
        sample();
}

double
Calibration::scale() const
{
    return samples_.empty() ? 1.0 : kReferenceMs / medianMs();
}

void
addTiming(Result &res, const Calibration &cal, const std::string &name,
          double raw, const std::string &unit)
{
    res.metric(name, unit == "1/s" ? raw / cal.scale() : raw * cal.scale(),
               unit);
    res.note(name + ".raw", raw);
}

FitLayer
measureFits(const leo::platform::ConfigSpace &space,
            const leo::telemetry::ProfileStore &prior,
            const std::vector<leo::telemetry::Observations> &sets)
{
    using leo::estimators::CovarianceRep;
    leo::estimators::LeoOptions lo;
    lo.threads = 1;
    const leo::estimators::LeoEstimator leo(lo);
    const leo::estimators::Metric metrics[] = {
        leo::estimators::Metric::Performance,
        leo::estimators::Metric::Power};
    std::vector<double> cold_ms, warm_ms, incr_us;
    leo::linalg::Workspace ws;
    for (const leo::telemetry::Observations &obs : sets) {
        for (const auto metric : metrics) {
            const auto pv = leo::estimators::priorVectors(prior, metric);
            const leo::linalg::Vector &vals =
                metric == leo::estimators::Metric::Performance
                    ? obs.performance
                    : obs.power;
            leo::estimators::LeoFit cold;
            auto t0 = Clock::now();
            leo.estimateMetric(space, pv, obs.indices, vals, &ws, nullptr,
                               &cold, CovarianceRep::Auto);
            cold_ms.push_back(msSince(t0));

            const std::size_t head = obs.size() > 5 ? obs.size() - 5 : 1;
            const std::vector<std::size_t> idx(obs.indices.begin(),
                                               obs.indices.begin() + head);
            leo::linalg::Vector part(head);
            for (std::size_t i = 0; i < head; ++i)
                part[i] = vals[i];
            leo::estimators::LeoFit previous, warm;
            leo.estimateMetric(space, pv, idx, part, &ws, nullptr,
                               &previous, CovarianceRep::Auto);
            t0 = Clock::now();
            leo.estimateMetric(space, pv, obs.indices, vals, &ws,
                               &previous, &warm, CovarianceRep::Auto);
            warm_ms.push_back(msSince(t0));

            leo::runtime::IncrementalRefit refit;
            if (!refit.reset(cold, 32, leo::runtime::RefitMode::Incremental))
                continue;
            leo::linalg::Vector pred(space.size());
            for (std::size_t i = 0; i < 4 * obs.size(); ++i) {
                const std::size_t k = i % obs.size();
                t0 = Clock::now();
                refit.addSample(obs.indices[k], vals[k]);
                refit.predictInto(pred);
                incr_us.push_back(1e3 * msSince(t0));
            }
        }
    }
    FitLayer out;
    out.coldMsP50 = median(cold_ms);
    out.warmMsP50 = median(warm_ms);
    out.incrementalUsP50 = median(incr_us);
    return out;
}

double
hullWalkUsP50(const std::vector<const leo::workloads::GroundTruth *> &truths,
              double idle)
{
    std::vector<double> us;
    for (const auto *truth : truths) {
        double peak = 0.0;
        for (std::size_t c = 0; c < truth->performance.size(); ++c)
            peak = std::max(peak, truth->performance[c]);
        for (int k = 1; k <= 16; ++k) {
            const double rate = peak * k / 17.0;
            const auto t0 = Clock::now();
            oracleWindowEnergy(*truth, rate, idle);
            us.push_back(1e3 * msSince(t0));
        }
    }
    return median(us);
}

} // namespace perfbench
