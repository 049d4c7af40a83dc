/**
 * @file
 * Shared scaffolding for the per-figure benchmark binaries.
 *
 * Every bench prints the rows/series of one paper table or figure
 * (DESIGN.md section 5). Knobs shared across benches come from the
 * environment so the default run is laptop-fast while
 * `LEO_BENCH_TRIALS=10 LEO_BENCH_FULL=1 ...` reproduces the paper's
 * full protocol:
 *
 *   LEO_BENCH_TRIALS  trials per benchmark for accuracy figures
 *                     (paper: 10; default here: 2)
 *   LEO_BENCH_FULL    1 = always use the full 1024-config space for
 *                     the sweep figures (default: fig12 uses a
 *                     512-config reduction to bound runtime)
 *   LEO_BENCH_SEED    master seed (default 42)
 *   LEO_THREADS       size of the shared worker pool the accuracy
 *                     sweeps fan their fits across (default:
 *                     hardware concurrency; results are identical
 *                     at any value)
 */

#ifndef LEO_BENCH_BENCH_COMMON_HH
#define LEO_BENCH_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <string>
#include <utility>

#include "estimators/leo.hh"
#include "estimators/offline.hh"
#include "estimators/online.hh"
#include "experiments/report.hh"
#include "platform/config_space.hh"
#include "telemetry/profile_store.hh"
#include "telemetry/sampler.hh"
#include "workloads/ground_truth.hh"
#include "workloads/suite.hh"

namespace leo::bench
{

/** The evaluation world: machine, space and offline database. */
struct World
{
    platform::Machine machine;
    platform::ConfigSpace space;
    telemetry::ProfileStore store;
};

/** Master seed from LEO_BENCH_SEED (default 42). */
inline std::uint64_t
seed()
{
    return experiments::envSize("LEO_BENCH_SEED", 42);
}

/** Trials per benchmark from LEO_BENCH_TRIALS (default 2). */
inline std::size_t
trials(std::size_t fallback = 2)
{
    return experiments::envSize("LEO_BENCH_TRIALS", fallback);
}

/** Build the standard world on a given space. */
inline World
makeWorld(platform::ConfigSpace space)
{
    platform::Machine machine;
    stats::Rng rng(seed());
    telemetry::HeartbeatMonitor monitor;
    telemetry::WattsUpMeter meter;
    auto store = telemetry::ProfileStore::collect(
        workloads::standardSuite(), machine, space, monitor, meter,
        rng);
    return World{machine, std::move(space), std::move(store)};
}

/** The full 1024-configuration world (Section 6.1). */
inline World
fullWorld()
{
    platform::Machine machine;
    return makeWorld(platform::ConfigSpace::fullFactorial(machine));
}

/** The 32-point core-allocation world (Section 2). */
inline World
coreOnlyWorld()
{
    platform::Machine machine;
    return makeWorld(platform::ConfigSpace::coreOnly(machine));
}

/**
 * The sweep world: full space unless the bench opted into the
 * 512-config reduction and LEO_BENCH_FULL is unset.
 */
inline World
sweepWorld()
{
    platform::Machine machine;
    if (experiments::envSize("LEO_BENCH_FULL", 0) != 0)
        return fullWorld();
    return makeWorld(
        platform::ConfigSpace::reducedFactorial(machine, 1, 2));
}

/** Print the standard bench header. */
inline void
banner(const std::string &what, const std::string &paper_ref)
{
    std::printf("=== %s ===\n", what.c_str());
    std::printf("Paper reference: %s\n\n", paper_ref.c_str());
}

/** One extra key of a BenchJson row, printed with `decimals` digits
 *  after the point (0 for counts and flags). */
struct JsonField
{
    const char *key;
    double value;
    int decimals;
};

/**
 * Google-benchmark-format JSON for the benches that time their own
 * runs (tools/bench_diff.py reads it). Every row carries name,
 * run_type, iterations and real_time/cpu_time in ms, then the bench's
 * own fields in the order given.
 */
class BenchJson
{
  public:
    /** @param executable Recorded as context.executable. */
    explicit BenchJson(std::string executable)
        : executable_(std::move(executable))
    {
    }

    /** Append one row; `ms` fills both real_time and cpu_time. */
    void
    addRow(const std::string &name, double ms,
           std::initializer_list<JsonField> fields)
    {
        rows_ += rows_.empty() ? "    {" : ",\n    {";
        rows_ += "\"name\": \"" + name +
                 "\", \"run_type\": \"iteration\", \"iterations\": 1";
        append({"real_time", ms, 4});
        append({"cpu_time", ms, 4});
        rows_ += ", \"time_unit\": \"ms\"";
        for (const JsonField &f : fields)
            append(f);
        rows_ += "}";
    }

    /** Write the document to `path`; false (reported on stderr) when
     *  the file cannot be written. */
    bool
    write(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (f == nullptr) {
            std::fprintf(stderr, "cannot write %s\n", path.c_str());
            return false;
        }
        std::fprintf(f,
                     "{\n  \"context\": {\"executable\": \"%s\"},\n"
                     "  \"benchmarks\": [\n%s\n  ]\n}\n",
                     executable_.c_str(), rows_.c_str());
        std::fclose(f);
        std::printf("wrote %s\n", path.c_str());
        return true;
    }

  private:
    void
    append(const JsonField &f)
    {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.*f", f.decimals, f.value);
        rows_ += std::string(", \"") + f.key + "\": " + buf;
    }

    std::string executable_;
    std::string rows_;
};

} // namespace leo::bench

#endif // LEO_BENCH_BENCH_COMMON_HH
