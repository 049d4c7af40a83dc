/**
 * @file
 * Shared pieces of the end-to-end benchmark: command-line options,
 * the result record every workload fills, the world (machine, space,
 * offline database), window energy accounting against the
 * ground-truth oracle, and the span/counter readers behind the
 * per-layer metrics.
 *
 * Clock discipline: every timed region wraps calls into the system
 * only. Telemetry generation (meters over application models) is
 * timed separately as generator time, and ground truth / oracle
 * schedules are computed before the first timed window.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/registry.hh"
#include "platform/config_space.hh"
#include "platform/machine.hh"
#include "telemetry/measurement.hh"
#include "telemetry/profile_store.hh"
#include "workloads/ground_truth.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Milliseconds elapsed since t0. */
inline double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/** Run fn() and add its wall time (ms) to *acc; returns fn()'s value. */
template <typename F>
auto
timed(double *acc, F &&fn)
{
    const auto t0 = Clock::now();
    if constexpr (std::is_void_v<decltype(fn())>) {
        fn();
        *acc += msSince(t0);
    } else {
        auto r = fn();
        *acc += msSince(t0);
        return r;
    }
}

/** Benchmark size: the measured configuration or the smoke test's. */
enum class Size
{
    Full,
    Smoke
};

/** Parsed command line. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    /** Minimum measured seconds (after the quality prefix). */
    double seconds = 10.0;
    bool trace = false;
    Size size = Size::Full;
    /** Threads of the fleet workloads (service pool workers + 1). */
    std::size_t fleetThreads = 2;
};

/** What one run reports; printed by main(). */
struct Result
{
    /** Metrics in print order: name -> (value, unit). */
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics;
    /** Recorded settings (thread counts, sizes, sample counts). */
    std::vector<std::pair<std::string, std::string>> env;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Failed checks (printed to stderr); empty means correct. */
    std::vector<std::string> problems;

    void metric(const std::string &name, double value,
                const std::string &unit)
    {
        metrics.push_back({name, {value, unit}});
    }
    void note(const std::string &key, const std::string &value)
    {
        env.push_back({key, value});
    }
    void note(const std::string &key, double value);
    /** Record one checked operation. */
    void op(bool ok)
    {
        ++attempted;
        if (!ok)
            ++failed;
    }
    void problem(const std::string &what) { problems.push_back(what); }
};

/** splitmix64 of (a, b): decorrelated seeds from the run seed. */
std::uint64_t mixSeed(std::uint64_t a, std::uint64_t b);

/** Linear-interpolated percentile (q in [0, 1]) of v; 0 if empty. */
double percentile(std::vector<double> v, double q);

inline double
median(std::vector<double> v)
{
    return percentile(std::move(v), 0.5);
}

/**
 * Tail percentile with at least ten samples beyond it: 0.99 when the
 * sample count allows, else 1 - 10/n (the highest percentile that
 * still has ten samples above it), else the maximum.
 */
double tailQuantile(std::size_t n);

/**
 * Tail latency: with at least 2000 samples, the median over
 * consecutive blocks of 1000 samples of each block's p99 (ten samples
 * beyond it per block), so one noisy second moves one block, not the
 * figure; otherwise the tailQuantile of all samples. *blocks receives
 * the number of blocks (0 when unblocked).
 */
double tailLatency(const std::vector<double> &samples, std::size_t *blocks);

/** Machine, 1024-configuration space and offline profiles. */
struct World
{
    leo::platform::Machine machine;
    leo::platform::ConfigSpace space;
    leo::telemetry::ProfileStore store;
    double idlePower = 0.0;
};

/** Build the world; the offline database is measured with `seed`. */
World makeWorld(std::uint64_t seed);

/** The store minus every named application (leave-them-out prior). */
leo::telemetry::ProfileStore priorWithout(
    const leo::telemetry::ProfileStore &store,
    const std::vector<std::string> &apps);

/** Energy and deadline outcome of one window run in one config. */
struct WindowOutcome
{
    double energy = 0.0;
    bool hit = false;
};

/**
 * One window at demand `rate`: run one heartbeat of work in config c
 * at its true rate, then idle out the rest of the 1/rate period —
 * the accounting of scenario::runScenario.
 */
WindowOutcome windowOutcome(const leo::workloads::GroundTruth &truth,
                            std::size_t c, double rate, double idle);

/** Energy of the minimal-energy schedule for one window at `rate`. */
double oracleWindowEnergy(const leo::workloads::GroundTruth &truth,
                          double rate, double idle);

/** Quality accumulator: realized vs oracle energy, deadline hits. */
struct Quality
{
    double energy = 0.0;
    double oracle = 0.0;
    std::uint64_t windows = 0;
    std::uint64_t hits = 0;

    void add(const WindowOutcome &w, double oracle_energy)
    {
        energy += w.energy;
        oracle += oracle_energy;
        ++windows;
        hits += w.hit ? 1 : 0;
    }
    double energyVsOracle() const
    {
        return oracle > 0.0 ? energy / oracle : 0.0;
    }
    double hitRate() const
    {
        return windows ? static_cast<double>(hits) /
                             static_cast<double>(windows)
                       : 0.0;
    }
};

/** Peak resident set of the process, MiB. */
double peakRssMb();

/** Threads the process runs right now (from /proc/self/status). */
std::size_t liveThreads();

/** Total and self time (ms) of one span name over a trace. */
struct SpanTime
{
    double totalMs = 0.0;
    double selfMs = 0.0;
    std::size_t count = 0;
    /** Durations (us) of every event, for percentiles. */
    std::vector<double> durUs;
    /** Events with a "state" arg of 0 (controller windows that ran
     *  while Sampling). */
    std::size_t sampling = 0;
};

/**
 * Per-span totals over the tracer's Chrome trace document: self time
 * is the duration minus that of the directly nested spans on the
 * same thread.
 */
std::map<std::string, SpanTime> spanTimes(const std::string &chrome);

/** Span names whose total and self time the traced run reports. */
extern const std::vector<std::pair<const char *, const char *>>
    kReportedSpans;

/** Add span.<short>.total_ms / .self_ms for every reported span. */
void addSpanMetrics(Result &res,
                    const std::map<std::string, SpanTime> &spans);

/** Counter deltas and histograms of Registry::global(). */
struct RegistryDelta
{
    leo::obs::Snapshot before;
    leo::obs::Snapshot after;

    std::uint64_t counter(const char *name) const;
    /** Median of the observations a histogram gained (bucket-edge
     *  interpolated), 0 when none. */
    double histogramMedian(const char *name) const;
};

/**
 * Machine-speed calibration. The 4-vCPU 2.1 GHz Xeon VM this was
 * tuned on changes speed by up to ~40% for seconds to minutes at a
 * time (identical fits take 8 or 12.5 ms; CPU time tracks wall time,
 * so it is not descheduling). The end-to-end timings are therefore reported at a
 * reference speed: each run times a fixed kernel — twice-repeated
 * modified Gram-Schmidt over 40 vectors of 1024 doubles, the shape of
 * a low-rank fit's basis step, compiled here and never in src/, on a
 * warm cache — between its windows, and scales its raw times by
 * kReferenceMs / (median kernel time). A change to the system leaves
 * the kernel alone, so the scaled figures still move with it; the
 * raw figures go to the env line.
 */
class Calibration
{
  public:
    /** Kernel time the scaled figures assume, ms. */
    static constexpr double kReferenceMs = 2.4;
    /** Interval between kernel samples while a workload runs, ms. */
    static constexpr double kEveryMs = 150.0;

    Calibration();

    /** Time the kernel once. */
    void sample();
    /** sample() when kEveryMs have passed since the last sample. */
    void maybeSample();

    /** Raw time -> reference-speed time (rates: divide). */
    double scale() const;
    double medianMs() const { return median(samples_); }
    std::size_t samples() const { return samples_.size(); }

  private:
    std::vector<double> basis_;
    std::vector<double> work_;
    std::vector<double> samples_;
    Clock::time_point last_;
};

/**
 * Add an end-to-end timing at reference speed (rates in 1/s divide
 * by Calibration::scale(), times multiply) and note the raw value.
 */
void addTiming(Result &res, const Calibration &cal, const std::string &name,
               double raw, const std::string &unit);

/** Estimator-layer timings from re-fitting generated observations. */
struct FitLayer
{
    double coldMsP50 = 0.0;
    double warmMsP50 = 0.0;
    double incrementalUsP50 = 0.0;
};

/**
 * Re-fit observation sets the workload generated, outside the system
 * under test: both metrics of each set cold through
 * LeoEstimator::estimateMetric, then warm from a fit of the set minus
 * its last five samples, then per-window incremental refits (one
 * addSample + predictInto per sample) seeded from the cold fit.
 */
FitLayer measureFits(const leo::platform::ConfigSpace &space,
                     const leo::telemetry::ProfileStore &prior,
                     const std::vector<leo::telemetry::Observations> &sets);

/** p50 wall time (us) of planMinimalEnergy hull walks over truths. */
double hullWalkUsP50(
    const std::vector<const leo::workloads::GroundTruth *> &truths,
    double idle);

/** Run a workload; defined in fleet.cc and phased.cc. */
Result runFleetOnboard(const Options &opt);
Result runFleetSteady(const Options &opt);
Result runPhasedTrace(const Options &opt);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
