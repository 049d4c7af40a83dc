/**
 * @file
 * Multi-tenant serving-core throughput at 1, 4 and 16 shards.
 *
 * Drives a fleet of tenants — admission through the sampling phase,
 * the batched deferred fit, and steady-state controlling windows —
 * through leo::service::Service and reports tenants/sec (full
 * onboarding-to-controlling throughput) and windows/sec at each
 * shard count, with the pool sized to the shard count. Every run is
 * cross-checked for bitwise-identical per-tenant schedules against
 * the 1-shard baseline: shard count is a throughput knob, never a
 * behavior knob, so any divergence is a bug, not noise.
 *
 * The space is the 256-configuration reduction so Auto resolves the
 * estimator to the low-rank path — the representation the batched
 * refit pillar is built around.
 *
 * Emits google-benchmark-format JSON (consumed by tools/bench_diff.py
 * in CI) to BENCH_service.json, or to argv[1] when given.
 *
 * Environment knobs (bench_common.hh conventions):
 *   LEO_BENCH_TENANTS   fleet size (default 32)
 *   LEO_BENCH_WINDOWS   windows per tenant (default 12)
 *   LEO_BENCH_REPEATS   timing repeats, best-of (default 3)
 *
 * Note: shard scaling needs physical cores; on a single-core host
 * every row times the same inline path and the scaling column reads
 * ~1x.
 */

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "parallel/thread_pool.hh"
#include "service/service.hh"

using namespace leo;

namespace
{

struct DriveResult
{
    double ms = 0.0;
    std::size_t windows = 0;
    std::vector<std::vector<std::size_t>> schedules;
};

DriveResult
driveFleet(const bench::World &world,
           const estimators::LeoEstimator &estimator,
           const std::shared_ptr<const telemetry::ProfileStore> &prior,
           const workloads::ApplicationModel &app, std::size_t shards,
           std::size_t tenants, std::size_t windows)
{
    // Pool sized to the shard count: the drain/fit parallelism under
    // measurement is exactly the parallelism a deployment of this
    // shard count would configure.
    parallel::ThreadPool pool(shards - 1);
    service::ServiceOptions opt;
    opt.shards = shards;
    opt.maxTenants = tenants;
    opt.controller.sampleBudget = 6;
    opt.controller.idlePower = world.machine.spec().idleSystemPowerW;

    service::Service svc(world.space, estimator, prior, pool, opt);
    const telemetry::HeartbeatMonitor monitor;
    const telemetry::WattsUpMeter meter;

    std::vector<std::uint64_t> ids;
    std::vector<stats::Rng> rngs;
    const double peak = 40.0; // Demands spread below x264's peak.
    for (std::size_t t = 0; t < tenants; ++t) {
        service::TenantConfig cfg;
        cfg.appId = "x264";
        cfg.targetRate =
            (0.3 + 0.4 * static_cast<double>(t % 8) / 8.0) * peak;
        cfg.seed = bench::seed() + 1000 + t;
        const auto id = svc.admit(cfg);
        if (!id.has_value()) {
            std::fprintf(stderr, "admission failed\n");
            std::exit(1);
        }
        ids.push_back(*id);
        rngs.emplace_back(bench::seed() + 5000 + t);
    }

    DriveResult res;
    res.schedules.resize(tenants);
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t round = 0; round < windows; ++round) {
        for (std::size_t t = 0; t < tenants; ++t) {
            const std::size_t cfg = svc.nextConfig(ids[t]);
            res.schedules[t].push_back(cfg);
            const auto &ra = world.space.assignment(cfg);
            if (!svc.submit(ids[t],
                            {cfg,
                             monitor.measureRate(app, ra, rngs[t]),
                             meter.read(app, ra, rngs[t])})) {
                std::fprintf(stderr, "submit rejected\n");
                std::exit(1);
            }
        }
        const auto report = svc.tick();
        res.windows += report.windowsProcessed;
    }
    const auto t1 = std::chrono::steady_clock::now();
    res.ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    return res;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::banner("overhead_service — serving-core throughput",
                  "Multi-tenant service acceptance (DESIGN.md, "
                  "Multi-tenant service)");

    platform::Machine machine;
    bench::World world = bench::makeWorld(
        platform::ConfigSpace::reducedFactorial(machine, 2, 2));
    const std::size_t tenants =
        experiments::envSize("LEO_BENCH_TENANTS", 32);
    const std::size_t windows =
        experiments::envSize("LEO_BENCH_WINDOWS", 12);
    const std::size_t repeats =
        experiments::envSize("LEO_BENCH_REPEATS", 3);

    // The default Auto resolves to low-rank on this space (checked
    // below).
    const estimators::LeoEstimator estimator;
    const auto prior =
        std::make_shared<const telemetry::ProfileStore>(
            world.store.without("x264"));
    const workloads::ApplicationModel app(
        workloads::profileByName("x264"), machine);

    std::printf("%zu tenants, %zu windows each, %zu configurations, "
                "hardware concurrency %zu\n\n",
                tenants, windows, world.space.size(),
                static_cast<std::size_t>(
                    std::thread::hardware_concurrency()));
    std::printf("%-8s %12s %14s %14s %9s %8s\n", "shards", "best ms",
                "tenants/s", "windows/s", "scaling", "bitwise");

    const std::size_t shard_counts[] = {1, 4, 16};
    std::vector<std::vector<std::size_t>> baseline;
    double baseline_ms = 0.0;
    bench::BenchJson json("overhead_service");
    for (const std::size_t shards : shard_counts) {
        DriveResult best;
        for (std::size_t r = 0; r < repeats; ++r) {
            DriveResult run =
                driveFleet(world, estimator, prior, app, shards,
                           tenants, windows);
            if (r == 0 || run.ms < best.ms)
                best = std::move(run);
        }
        if (shards == 1) {
            baseline = best.schedules;
            baseline_ms = best.ms;
        }
        const bool bitwise = best.schedules == baseline;
        const double tenants_per_s =
            1e3 * static_cast<double>(tenants) / best.ms;
        const double windows_per_s =
            1e3 * static_cast<double>(best.windows) / best.ms;
        std::printf("%-8zu %12.1f %14.0f %14.0f %8.2fx %8s\n",
                    shards, best.ms, tenants_per_s, windows_per_s,
                    baseline_ms / best.ms, bitwise ? "yes" : "NO");

        json.addRow("BM_ServiceDrive/shards:" + std::to_string(shards),
                    best.ms,
                    {{"tenants_per_second", tenants_per_s, 1},
                     {"windows_per_second", windows_per_s, 1}});
        if (!bitwise) {
            std::fprintf(stderr,
                         "schedule diverged at %zu shards\n", shards);
            return 1;
        }
    }
    std::printf("\n");
    if (!json.write(argc > 1 ? argv[1] : "BENCH_service.json"))
        return 1;
    std::printf("Note: shard scaling needs physical cores; on a "
                "single-core host all rows time the same inline "
                "path.\n");
    return 0;
}
