/**
 * @file
 * Table 4 (repository addition): change-point adaptation vs the
 * fixed-window drift trigger.
 *
 * Runs DSL-authored scenarios (scenario/spec.hh) through the closed
 * loop twice — once with the legacy EWMA-history drift trigger
 * (changepoint off) and once with the CUSUM change-point detector
 * (coldrefit) — and compares energy under the real-time deadline.
 * The scenario family is built around the fixed trigger's blind
 * spot: it compares each configuration's measurement against its own
 * history, so any phase change that moves the operating point's rate
 * by less than the 20% threshold per boundary is invisible — even
 * when the change *reorders* the configuration space, leaving the
 * stale map's frontier badly wrong. The scenarios morph swaptions
 * into kmeans with the kmeans base rate scaled so the rate at
 * swaptions' energy-optimal configuration moves ~10-15% per
 * boundary: sub-threshold, but the efficient configuration shifts
 * from a high-frequency point to kmeans' peak — ~4x cheaper in
 * active energy (the scale constants below pin that match on the
 * bench space and are asserted at startup):
 *
 *   - drifting: swaptions, then kmeans stepping ~10% slower per
 *     phase — the fixed controller paces the stale swaptions map to
 *     the end;
 *   - oscillating: alternating swaptions / kmeans phases, each
 *     boundary sub-threshold — fixed burns the stale configuration
 *     through every kmeans phase;
 *   - load_spike: a deepening kmeans slowdown (three 15% steps) that
 *     ends below the demand — fixed either misses for the whole
 *     spike or boosts along the wrong frontier;
 *   - trace_replay: a two-segment sparse trace through the replay
 *     backend (interpolation + segment switching), report-only.
 *
 * Acceptance: for the three phased scenarios, the change-point run
 * must strictly dominate on energy-under-deadline — strictly less
 * energy per deadline-hit (totalEnergy / deadlineHitRate) and a hit
 * rate no more than 3 points worse. Emits google-benchmark-format
 * JSON (BENCH_scenario.json, or argv[1]) for tools/bench_diff.py.
 */

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "scenario/scenario.hh"

using namespace leo;

namespace
{

/**
 * The kmeans base-rate multiplier that matches swaptions' rate at
 * swaptions' energy-optimal configuration of the bench space (so a
 * swaptions -> kmeans * kMatch boundary moves the operating point's
 * rate by 0%). The per-phase scales below are kMatch times 0.9,
 * 0.82, ... — each boundary a sub-threshold rate step. Asserted
 * against the live models in main(): if the suite profiles change,
 * the bench fails loudly instead of silently losing its blind spot.
 */
constexpr double kMatch = 10.727597;

/** The three adversarial phased scenarios, as DSL text. */
std::vector<std::string>
phasedScenarioTexts()
{
    return {
        "name drifting\n"
        "workload phased\n"
        "seed 42\n"
        "phase swaptions frames=100 scale=1.0\n"
        "phase kmeans frames=75 scale=9.654837\n"  // 0.90 kMatch
        "phase kmeans frames=75 scale=8.796630\n"  // 0.82 kMatch
        "phase kmeans frames=75 scale=7.938422\n"  // 0.74 kMatch
        "phase kmeans frames=75 scale=7.187490\n", // 0.67 kMatch

        "name oscillating\n"
        "workload phased\n"
        "seed 42\n"
        "phase swaptions frames=120 scale=1.0\n"
        "phase kmeans frames=120 scale=9.654837\n"
        "phase swaptions frames=120 scale=1.0\n"
        "phase kmeans frames=120 scale=9.654837\n",

        // The explicit target keeps the demand off a knife edge: the
        // auto target (892.71) lands 0.1% above a configuration's
        // exact rate in the 0.7225-kMatch phase, where the
        // controller's deliberate 2% hysteresis band and the strict
        // deadline accounting disagree for the whole phase.
        "name load_spike\n"
        "workload phased\n"
        "seed 42\n"
        "target 880\n"
        "phase swaptions frames=100 scale=1.0\n"
        "phase kmeans frames=70 scale=9.118457\n"  // 0.85   kMatch
        "phase kmeans frames=70 scale=7.750689\n"  // 0.7225 kMatch
        "phase kmeans frames=140 scale=6.588085\n" // 0.6141 kMatch
        "phase swaptions frames=100 scale=1.0\n",
    };
}

/** A sparse two-segment trace over the bench space: rows at the
 *  ends and middle only, so the replay interpolates the rest. */
std::string
traceScenarioText(const bench::World &world)
{
    const platform::ConfigSpace &space = world.space;
    workloads::ApplicationModel model(
        workloads::profileByName("x264"), world.machine);
    const std::size_t last = space.size() - 1;
    const std::size_t rows[] = {0, last / 2, last};
    std::string text = "name trace_replay\nworkload trace\n"
                       "seed 42\nframes 160\ntrace_inline <<END\n";
    for (const double scale : {1.0, 1.5}) {
        text += "segment,80\n";
        for (const std::size_t c : rows) {
            const platform::ResourceAssignment &ra =
                space.assignment(c);
            char row[96];
            std::snprintf(row, sizeof(row), "%zu,%.6f,%.3f\n", c,
                          scale * model.heartbeatRate(ra),
                          model.powerWatts(ra));
            text += row;
        }
    }
    text += "END\n";
    return text;
}

struct Cell
{
    scenario::RunResult result;
    double score = 0.0; //!< Energy per deadline-hit fraction.
};

Cell
runCell(const scenario::Spec &spec, const bench::World &world,
        const estimators::LeoEstimator &leo,
        const telemetry::ProfileStore &prior)
{
    scenario::Scenario sc(spec, world.machine, world.space);
    runtime::ControllerOptions base;
    base.sampleBudget = 6;
    // A 6-probe fit on a 256-config space is both biased and
    // underconfident away from the probes: pin the standardization
    // scale near the measurement noise (heartbeat noise is 2%
    // relative) so the 10-15% phase steps score at z >= 2, let the
    // longer warmup estimate the fit bias the detector centers out,
    // and lift drift/threshold to absorb the residual noise.
    base.changePoint.minRelativeSigma = 0.03;
    base.changePoint.maxRelativeSigma = 0.05;
    base.changePoint.warmupWindows = 4;
    base.changePoint.cusumDrift = 0.6;
    base.changePoint.cusumThreshold = 8.0;
    Cell cell;
    cell.result = scenario::runScenario(sc, &leo, prior, base);
    const double hits = std::max(cell.result.deadlineHitRate, 1e-6);
    cell.score = cell.result.totalEnergy / hits;
    return cell;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::banner("tab04_changepoint — change-point vs fixed window",
                  "online phase-change adaptation (DESIGN.md, "
                  "Scenarios and change-point adaptation)");

    platform::Machine machine;
    bench::World world = bench::makeWorld(
        platform::ConfigSpace::reducedFactorial(machine, 2, 2));
    const estimators::LeoEstimator leo;
    const telemetry::ProfileStore &prior = world.store;

    // Pin the blind-spot construction: kMatch must still equate
    // kmeans' rate with swaptions' at swaptions' energy-optimal
    // configuration, or the scenario scales no longer mean anything.
    {
        const auto swap_truth = workloads::computeGroundTruth(
            workloads::ApplicationModel(
                workloads::profileByName("swaptions"),
                world.machine),
            world.space);
        const auto km_truth = workloads::computeGroundTruth(
            workloads::ApplicationModel(
                workloads::profileByName("kmeans"), world.machine),
            world.space);
        const double idle = world.machine.spec().idleSystemPowerW;
        double peak = 0.0;
        for (std::size_t c = 0; c < world.space.size(); ++c)
            peak = std::max(peak, swap_truth.performance[c]);
        std::size_t c0 = 0;
        double best = 1e300;
        for (std::size_t c = 0; c < world.space.size(); ++c) {
            if (swap_truth.performance[c] < 0.5 * peak)
                continue;
            const double e = (swap_truth.power[c] - idle) /
                             swap_truth.performance[c];
            if (e < best) {
                best = e;
                c0 = c;
            }
        }
        const double ratio = swap_truth.performance[c0] /
                             km_truth.performance[c0];
        if (std::abs(ratio - kMatch) > 0.01 * kMatch) {
            std::fprintf(stderr,
                         "FAIL: kMatch drifted (want %.6f, model "
                         "says %.6f) — retune the scenario scales\n",
                         kMatch, ratio);
            return 1;
        }
    }

    std::vector<std::string> texts = phasedScenarioTexts();
    texts.push_back(traceScenarioText(world));

    bench::BenchJson json("tab04_changepoint");
    bool dominated = true;

    experiments::TextTable table(
        {"scenario", "policy", "energy-J", "hit-rate", "refits",
         "cps", "J/hit"});

    for (const std::string &text : texts) {
        const scenario::Spec base = scenario::Spec::fromString(text);
        // Dogfood the grid: the two policies are one swept axis.
        const auto cells = scenario::expandGrid(
            base, {{"changepoint", {"off", "coldrefit"}}});
        std::vector<Cell> runs;
        for (const scenario::Spec &spec : cells) {
            runs.push_back(runCell(spec, world, leo, prior));
            const Cell &cell = runs.back();
            table.addRow(
                {base.name,
                 spec.changePointPolicy ==
                         runtime::ChangePointPolicy::Off
                     ? "fixed"
                     : "changepoint",
                 experiments::fmt(cell.result.totalEnergy, 1),
                 experiments::fmt(cell.result.deadlineHitRate, 3),
                 std::to_string(cell.result.reestimations),
                 std::to_string(cell.result.changePoints),
                 experiments::fmt(cell.score, 1)});

            json.addRow(
                "BM_ChangePoint/" + base.name + "/" +
                    (spec.changePointPolicy ==
                             runtime::ChangePointPolicy::Off
                         ? "fixed"
                         : "changepoint"),
                0.0,
                {{"energy_joules", cell.result.totalEnergy, 3},
                 {"deadline_hit_rate", cell.result.deadlineHitRate, 4},
                 {"reestimations",
                  static_cast<double>(cell.result.reestimations), 0},
                 {"change_points",
                  static_cast<double>(cell.result.changePoints), 0},
                 {"energy_per_hit", cell.score, 3}});
        }

        // The trace scenario is report-only: it exercises the replay
        // backend, not the adaptation comparison.
        if (base.workload != scenario::WorkloadKind::Trace) {
            const Cell &fixed = runs[0], &cp = runs[1];
            if (!(cp.score < fixed.score &&
                  cp.result.deadlineHitRate >=
                      fixed.result.deadlineHitRate - 0.03)) {
                std::fprintf(
                    stderr,
                    "FAIL: %s — change-point does not dominate "
                    "(J/hit %.1f vs %.1f, hit %.3f vs %.3f)\n",
                    base.name.c_str(), cp.score, fixed.score,
                    cp.result.deadlineHitRate,
                    fixed.result.deadlineHitRate);
                dominated = false;
            }
        }
    }
    std::printf("%s\n", table.render().c_str());
    if (!json.write(argc > 1 ? argv[1] : "BENCH_scenario.json"))
        return 1;

    if (!dominated)
        return 1;
    std::printf("acceptance OK: change-point dominates the fixed "
                "window on every adaptation scenario\n");
    return 0;
}
