/**
 * @file
 * Table 3 (repository addition): global co-scheduling vs per-app
 * greedy under a shared power cap.
 *
 * Sweeps a machine-wide average-power cap over multi-app fleets and
 * compares planGlobalSchedule (the joint LP of
 * src/optimizer/global.hh) against planPerAppGreedy (apps planned
 * one at a time against leftover interval budgets). Two fleet
 * families are measured:
 *
 *   - ground-truth fleets built from the simulator's true
 *     performance/power vectors (x264, kmeans, swish) with staggered
 *     deadlines, the shape a serving deployment sees;
 *   - a crafted adversarial fleet whose loose-deadline app tempts
 *     greedy into front-loading the early interval, starving the
 *     tight-deadline app that the global plan places easily.
 *
 * For every (fleet, cap) cell the table reports predicted energy and
 * feasibility for both planners plus whether the cap actually binds
 * (some interval's average power sits on the cap). The acceptance
 * gate requires at least one cap-bound cell where the global plan
 * beats greedy — by energy, or by staying feasible where greedy is
 * not — and that greedy never beats global when both are feasible
 * (greedy's outcome is a feasible point of the global program, so
 * that would be a planner bug).
 *
 * Emits google-benchmark-format JSON (consumed by
 * tools/bench_diff.py in CI) to BENCH_global.json, or to argv[1]
 * when given.
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "optimizer/global.hh"
#include "workloads/ground_truth.hh"

using namespace leo;

namespace
{

struct Fleet
{
    std::string name;
    std::vector<optimizer::TenantDemand> demands;
    double idlePower = 0.0;
};

/** A demand scaled off an app's true peak rate. */
optimizer::TenantDemand
demandFor(const workloads::GroundTruth &truth, double utilization,
          double deadline_s)
{
    double peak = 0.0;
    for (std::size_t c = 0; c < truth.performance.size(); ++c)
        peak = std::max(peak, truth.performance[c]);
    optimizer::TenantDemand d;
    d.performance = truth.performance;
    d.power = truth.power;
    d.constraint = {utilization * peak * deadline_s, deadline_s};
    return d;
}

/** Highest per-configuration power anywhere in the fleet. */
double
peakPower(const Fleet &fleet)
{
    double peak = fleet.idlePower;
    for (const auto &d : fleet.demands)
        for (std::size_t c = 0; c < d.power.size(); ++c)
            peak = std::max(peak, d.power[c]);
    return peak;
}

/**
 * True iff some interval's average power sits on the cap (within a
 * relative epsilon): the cap row is active, so the cell genuinely
 * exercises the constrained program rather than the uncapped one.
 */
bool
capBinds(const optimizer::GlobalSchedule &plan, double cap,
         double idle)
{
    if (!std::isfinite(cap))
        return false;
    double prev_end = 0.0;
    for (const auto &iv : plan.intervals) {
        const double span = iv.endSeconds - prev_end;
        prev_end = iv.endSeconds;
        if (span <= 0.0)
            continue;
        const double avg =
            idle +
            (iv.activeEnergyJoules - idle * iv.busySeconds) / span;
        if (avg >= cap - 1e-6 * std::max(1.0, cap))
            return true;
    }
    return false;
}

/**
 * The crafted starvation fleet (pinned in tests/global_test.cc): a
 * loose-deadline app whose energy optimum fills its whole window
 * plus a tight-deadline app that needs most of the early interval.
 * Greedy plans the loose app first and front-loads it, leaving the
 * tight app nothing; the global LP shifts the loose app late.
 */
Fleet
craftedFleet()
{
    Fleet fleet;
    fleet.name = "crafted_starvation";
    fleet.idlePower = 85.0;
    const linalg::Vector perf{1.0, 2.5, 4.0};
    const linalg::Vector power{100.0, 130.0, 220.0};
    fleet.demands.push_back({perf, power, {20.0, 10.0}});
    fleet.demands.push_back({perf, power, {18.0, 5.0}});
    return fleet;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::banner("tab03_global_cap — co-scheduling vs greedy",
                  "Global LP under a shared power cap (DESIGN.md, "
                  "Global co-scheduling)");

    platform::Machine machine;
    bench::World world = bench::makeWorld(
        platform::ConfigSpace::reducedFactorial(machine, 2, 2));
    const double idle = world.machine.spec().idleSystemPowerW;

    const auto truthFor = [&](const char *app) {
        return workloads::computeGroundTruth(
            workloads::ApplicationModel(workloads::profileByName(app),
                                        world.machine),
            world.space);
    };
    const auto x264 = truthFor("x264");
    const auto kmeans = truthFor("kmeans");
    const auto swish = truthFor("swish");

    std::vector<Fleet> fleets;
    // A loose video tenant plus a tight analytics tenant: the shape
    // where greedy's front-loading starves the second app.
    fleets.push_back({"pair_x264_kmeans",
                      {demandFor(x264, 0.5, 10.0),
                       demandFor(kmeans, 0.7, 5.0)},
                      idle});
    // Three tenants, three deadlines; utilizations keep the fastest
    // configuration's total busy time just under the horizon so the
    // interesting caps bind rather than trivially break the fleet.
    fleets.push_back({"triple_mixed",
                      {demandFor(x264, 0.3, 10.0),
                       demandFor(kmeans, 0.5, 7.0),
                       demandFor(swish, 0.6, 5.0)},
                      idle});
    fleets.push_back(craftedFleet());

    // Cap sweep: fractions of the fleet's headroom above idle.
    // INFINITY is the uncapped reference column.
    const double fractions[] = {INFINITY, 0.95, 0.85, 0.75, 0.65};

    bench::BenchJson json("tab03_global_cap");
    bool cap_bound_win = false;
    bool greedy_beat_global = false;

    for (const auto &fleet : fleets) {
        const double headroom = peakPower(fleet) - fleet.idlePower;
        std::printf("--- %s (%zu apps, idle %.0f W, peak %.0f W) "
                    "---\n",
                    fleet.name.c_str(), fleet.demands.size(),
                    fleet.idlePower, peakPower(fleet));
        experiments::TextTable t({"cap-W", "global-J", "greedy-J",
                                  "gap%", "g-feas", "gr-feas",
                                  "bound"});
        std::size_t global_ok = 0, greedy_ok = 0, cells = 0;
        for (const double frac : fractions) {
            const double cap =
                std::isfinite(frac)
                    ? fleet.idlePower + frac * headroom
                    : optimizer::kNoPowerCap;
            optimizer::GlobalPlanOptions gopt;
            gopt.powerCapWatts = cap;

            const auto t0 = std::chrono::steady_clock::now();
            const auto global = optimizer::planGlobalSchedule(
                fleet.demands, fleet.idlePower, gopt);
            const auto greedy = optimizer::planPerAppGreedy(
                fleet.demands, fleet.idlePower, gopt);
            const auto t1 = std::chrono::steady_clock::now();
            const double ms =
                std::chrono::duration<double, std::milli>(t1 - t0)
                    .count();

            ++cells;
            global_ok += global.feasible ? 1 : 0;
            greedy_ok += greedy.feasible ? 1 : 0;
            const bool bound =
                capBinds(global, cap, fleet.idlePower);
            const double gap =
                greedy.predictedEnergy > 0.0
                    ? 100.0 *
                          (greedy.predictedEnergy -
                           global.predictedEnergy) /
                          greedy.predictedEnergy
                    : 0.0;
            // Greedy's plan is a feasible point of the global
            // program, so the global optimum can never sit above it.
            if (global.feasible && greedy.feasible &&
                global.predictedEnergy >
                    greedy.predictedEnergy * (1.0 + 1e-6))
                greedy_beat_global = true;
            if (bound && global.feasible &&
                (!greedy.feasible ||
                 greedy.predictedEnergy >
                     global.predictedEnergy * (1.0 + 1e-9)))
                cap_bound_win = true;

            t.addRow({std::isfinite(cap) ? experiments::fmt(cap, 1)
                                         : "none",
                      experiments::fmt(global.predictedEnergy, 1),
                      experiments::fmt(greedy.predictedEnergy, 1),
                      experiments::fmt(gap, 2),
                      global.feasible ? "yes" : "NO",
                      greedy.feasible ? "yes" : "NO",
                      bound ? "yes" : "-"});

            json.addRow(
                "BM_GlobalCap/" + fleet.name + "/frac:" +
                    (std::isfinite(frac) ? experiments::fmt(frac, 2)
                                         : "none"),
                ms,
                {{"global_energy_joules", global.predictedEnergy, 3},
                 {"greedy_energy_joules", greedy.predictedEnergy, 3},
                 {"global_feasible", global.feasible ? 1.0 : 0.0, 0},
                 {"greedy_feasible", greedy.feasible ? 1.0 : 0.0, 0},
                 {"cap_bound", bound ? 1.0 : 0.0, 0}});
        }
        std::printf("%s", t.render().c_str());
        std::printf("feasibility: global %zu/%zu, greedy %zu/%zu\n\n",
                    global_ok, cells, greedy_ok, cells);

        const double n_cells = static_cast<double>(cells);
        json.addRow(
            "BM_GlobalCap/" + fleet.name + "/feasibility", 0.0,
            {{"global_feasible_rate",
              static_cast<double>(global_ok) / n_cells, 3},
             {"greedy_feasible_rate",
              static_cast<double>(greedy_ok) / n_cells, 3}});
    }
    if (!json.write(argc > 1 ? argv[1] : "BENCH_global.json"))
        return 1;

    if (greedy_beat_global) {
        std::fprintf(stderr,
                     "FAIL: greedy beat the global plan with both "
                     "feasible — the LP left energy on the table\n");
        return 1;
    }
    if (!cap_bound_win) {
        std::fprintf(stderr,
                     "FAIL: no cap-bound cell where the global plan "
                     "beats per-app greedy\n");
        return 1;
    }
    std::printf("acceptance OK: global beats greedy on at least one "
                "cap-bound cell\n");
    return 0;
}
