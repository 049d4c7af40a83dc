/**
 * @file
 * Tests for leo::scenario: trace parsing and replay, the scenario
 * DSL, the change-point detector, and the scenario runners.
 *
 * The contracts under test, from DESIGN.md "Scenarios and
 * change-point adaptation":
 *
 *  - TraceTable parsing rejects malformed input loudly (missing
 *    columns, non-finite cells, empty segments) and tolerates
 *    comments, headers and CRLF endings;
 *  - TraceApplicationModel fills missing configs deterministically
 *    per interpolation policy and replays seeded noise bit-exactly;
 *  - Spec round-trips through its canonical text form, parses JSON,
 *    and expands grids as a pure cross product;
 *  - the ChangePointDetector stays quiet on stationary residual
 *    streams, fires within a few windows of a genuine step, and
 *    centers out persistent fit bias learned during warmup;
 *  - runScenario with a fault-free spec and the policy Off is
 *    bitwise identical (0 ULP) to runtime::runPhased;
 *  - runScenarioService schedules are a pure function of the spec —
 *    independent of shard count, worker count and mid-run snapshot
 *    round-trips.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "estimators/leo.hh"
#include "estimators/sanitize.hh"
#include "linalg/error.hh"
#include "parallel/thread_pool.hh"
#include "runtime/changepoint.hh"
#include "runtime/phased_run.hh"
#include "scenario/scenario.hh"
#include "scenario/spec.hh"
#include "telemetry/profile_store.hh"
#include "workloads/ground_truth.hh"
#include "workloads/suite.hh"
#include "workloads/trace.hh"

using namespace leo;
using linalg::Vector;
using platform::ConfigSpace;
using platform::Machine;
using runtime::ChangePointDetector;
using runtime::ChangePointMethod;
using runtime::ChangePointOptions;
using workloads::TraceApplicationModel;
using workloads::TraceInterpolation;
using workloads::TraceModelOptions;
using workloads::TraceTable;

namespace
{

struct World
{
    Machine machine;
    ConfigSpace space = ConfigSpace::coreOnly(machine);
    telemetry::HeartbeatMonitor monitor{0.01};
    telemetry::WattsUpMeter meter{0.005, 0.1};
    stats::Rng rng{7};
    telemetry::ProfileStore store = telemetry::ProfileStore::collect(
        workloads::standardSuite(), machine, space, monitor, meter,
        rng);
};

/** Write text to a fresh file under the gtest temp dir. */
std::string
writeTempFile(const std::string &name, const std::string &text)
{
    const std::string path = ::testing::TempDir() + name;
    std::ofstream out(path, std::ios::binary);
    out << text;
    return path;
}

/** A two-segment trace over @p space: rows at the ends and middle. */
std::string
twoSegmentCsv(const ConfigSpace &space)
{
    const std::size_t last = space.size() - 1;
    char buf[256];
    std::string text = "# two-segment test trace\r\n"
                       "config,performance,power\r\n"
                       "segment,40\r\n";
    std::snprintf(buf, sizeof(buf), "0,10.0,100.0\r\n%zu,30.0,140.0\r\n",
                  last);
    text += buf;
    text += "segment,0\r\n";
    std::snprintf(buf, sizeof(buf), "0,5.0,90.0\r\n%zu,15.0,120.0\r\n",
                  last);
    text += buf;
    return text;
}

} // namespace

// ------------------------------------------------------- Trace parsing

TEST(TraceParse, CsvTolerantOfHeaderCommentsCrlf)
{
    World w;
    const TraceTable t = TraceTable::fromString(twoSegmentCsv(w.space));
    ASSERT_EQ(t.segments.size(), 2u);
    EXPECT_EQ(t.segments[0].workUnits, 40u);
    EXPECT_EQ(t.segments[1].workUnits, 0u);
    ASSERT_EQ(t.segments[0].indices.size(), 2u);
    EXPECT_EQ(t.segments[0].indices[0], 0u);
    EXPECT_EQ(t.segments[0].performance[1], 30.0);
    EXPECT_EQ(t.segments[1].power[0], 90.0);
    EXPECT_EQ(t.maxIndex(), w.space.size() - 1);
    EXPECT_EQ(t.totalWorkUnits(), 40u);
}

TEST(TraceParse, MissingColumnThrows)
{
    EXPECT_THROW(TraceTable::fromString("0,1.0\n"), FatalError);
}

TEST(TraceParse, NonFiniteCellThrows)
{
    EXPECT_THROW(TraceTable::fromString("0,nan,100.0\n"), FatalError);
    EXPECT_THROW(TraceTable::fromString("0,1.0,inf\n"), FatalError);
}

TEST(TraceParse, NonPositiveCellThrows)
{
    EXPECT_THROW(TraceTable::fromString("0,0.0,100.0\n"), FatalError);
    EXPECT_THROW(TraceTable::fromString("0,1.0,-5.0\n"), FatalError);
}

TEST(TraceParse, EmptySegmentThrows)
{
    EXPECT_THROW(
        TraceTable::fromString("segment,10\nsegment,0\n0,1.0,100\n"),
        FatalError);
    EXPECT_THROW(TraceTable::fromString("segment,10\n"), FatalError);
}

TEST(TraceParse, DuplicateConfigInSegmentThrows)
{
    EXPECT_THROW(
        TraceTable::fromString("0,1.0,100\n0,2.0,110\n"), FatalError);
}

TEST(TraceParse, JsonBareArray)
{
    const TraceTable t =
        TraceTable::fromString("[[0, 2.5, 100.0], [3, 5.0, 130.0]]");
    ASSERT_EQ(t.segments.size(), 1u);
    EXPECT_EQ(t.segments[0].workUnits, 0u);
    ASSERT_EQ(t.segments[0].indices.size(), 2u);
    EXPECT_EQ(t.segments[0].indices[1], 3u);
    EXPECT_EQ(t.segments[0].performance[0], 2.5);
}

TEST(TraceParse, JsonSegmentsObject)
{
    const TraceTable t = TraceTable::fromString(
        "{\"segments\": ["
        "{\"workUnits\": 20, \"rows\": [[0, 1.0, 90.0]]},"
        "{\"workUnits\": 0, \"rows\": [[0, 2.0, 95.0]]}]}");
    ASSERT_EQ(t.segments.size(), 2u);
    EXPECT_EQ(t.segments[0].workUnits, 20u);
    EXPECT_EQ(t.segments[1].performance[0], 2.0);
}

TEST(TraceParse, FromFileRoundTripAndUnreadablePath)
{
    World w;
    const std::string path =
        writeTempFile("scenario_trace.csv", twoSegmentCsv(w.space));
    const TraceTable t = TraceTable::fromFile(path);
    EXPECT_EQ(t.segments.size(), 2u);
    EXPECT_THROW(TraceTable::fromFile(::testing::TempDir() +
                                      "does_not_exist.csv"),
                 FatalError);
}

TEST(TraceParse, ShippedExampleTracesStayValid)
{
    // The example traces under examples/traces/ are documentation;
    // parsing them here keeps the docs honest as the format evolves.
    const std::string dir = LEO_EXAMPLE_TRACES_DIR;
    const TraceTable csv =
        TraceTable::fromFile(dir + "/web_requests.csv");
    ASSERT_EQ(csv.segments.size(), 2u);
    EXPECT_EQ(csv.segments[0].workUnits, 500u);
    EXPECT_EQ(csv.segments[1].workUnits, 0u);
    EXPECT_EQ(csv.maxIndex(), 15u);

    const TraceTable json =
        TraceTable::fromFile(dir + "/batch_phases.json");
    ASSERT_EQ(json.segments.size(), 2u);
    EXPECT_EQ(json.segments[0].workUnits, 300u);
    EXPECT_EQ(json.maxIndex(), 15u);

    // Both replay against any space with at least 16 configurations.
    World w;
    ASSERT_GE(w.space.size(), 16u);
    const TraceApplicationModel m(csv, w.space);
    EXPECT_EQ(m.numSegments(), 2u);
}

// -------------------------------------------------------- Trace replay

TEST(TraceModel, OutOfRangeIndexThrowsAtConstruction)
{
    World w;
    TraceTable t;
    t.segments.push_back(
        {0, {w.space.size() + 7}, {1.0}, {100.0}});
    EXPECT_THROW(TraceApplicationModel(t, w.space), FatalError);
}

TEST(TraceModel, InterpolationPolicies)
{
    World w;
    const std::size_t last = w.space.size() - 1;
    ASSERT_GE(last, 2u);
    TraceTable t;
    t.segments.push_back({0, {0, last}, {10.0, 30.0}, {100.0, 140.0}});

    TraceModelOptions lin;
    lin.interpolation = TraceInterpolation::Linear;
    const TraceApplicationModel ml(t, w.space, lin);
    const Vector &pl = ml.segmentPerformance(0);
    EXPECT_EQ(pl[0], 10.0);
    EXPECT_EQ(pl[last], 30.0);
    for (std::size_t c = 1; c < last; ++c) {
        const double expect =
            10.0 + (30.0 - 10.0) * static_cast<double>(c) /
                       static_cast<double>(last);
        EXPECT_NEAR(pl[c], expect, 1e-12) << "config " << c;
    }

    TraceModelOptions near;
    near.interpolation = TraceInterpolation::Nearest;
    const TraceApplicationModel mn(t, w.space, near);
    const Vector &pn = mn.segmentPerformance(0);
    EXPECT_EQ(pn[1], 10.0);        // Closer to row 0.
    EXPECT_EQ(pn[last - 1], 30.0); // Closer to the last row.

    TraceModelOptions hold;
    hold.interpolation = TraceInterpolation::Hold;
    const TraceApplicationModel mh(t, w.space, hold);
    const Vector &ph = mh.segmentPerformance(0);
    // Hold carries the last row at-or-below forward.
    for (std::size_t c = 0; c < last; ++c)
        EXPECT_EQ(ph[c], 10.0) << "config " << c;
    EXPECT_EQ(ph[last], 30.0);
}

TEST(TraceModel, NoiseReplayIsDeterministicPerSeed)
{
    World w;
    const std::size_t last = w.space.size() - 1;
    TraceTable t;
    t.segments.push_back({0, {0, last}, {10.0, 30.0}, {100.0, 140.0}});

    TraceModelOptions a;
    a.noiseRelative = 0.05;
    a.noiseSeed = 123;
    const TraceApplicationModel ma(t, w.space, a);
    const TraceApplicationModel mb(t, w.space, a);
    for (std::size_t c = 0; c <= last; ++c) {
        EXPECT_EQ(ma.segmentPerformance(0)[c],
                  mb.segmentPerformance(0)[c]);
        EXPECT_EQ(ma.segmentPower(0)[c], mb.segmentPower(0)[c]);
    }

    TraceModelOptions other = a;
    other.noiseSeed = 124;
    const TraceApplicationModel mc(t, w.space, other);
    bool any_differ = false;
    for (std::size_t c = 0; c <= last; ++c)
        any_differ = any_differ || ma.segmentPerformance(0)[c] !=
                                       mc.segmentPerformance(0)[c];
    EXPECT_TRUE(any_differ);

    // Zero noise replays the table rows bit-exactly.
    const TraceApplicationModel m0(t, w.space);
    EXPECT_EQ(m0.segmentPerformance(0)[0], 10.0);
    EXPECT_EQ(m0.segmentPower(0)[last], 140.0);
}

TEST(TraceModel, SegmentSwitchingFollowsWorkUnits)
{
    World w;
    TraceApplicationModel m(
        TraceTable::fromString(twoSegmentCsv(w.space)), w.space);
    ASSERT_EQ(m.numSegments(), 2u);
    const auto &ra0 = w.space.assignment(0);

    m.setWorkUnit(0);
    EXPECT_EQ(m.activeSegment(), 0u);
    EXPECT_EQ(m.heartbeatRate(ra0), 10.0);

    m.setWorkUnit(39);
    EXPECT_EQ(m.activeSegment(), 0u);
    m.advance();
    EXPECT_EQ(m.workUnit(), 40u);
    EXPECT_EQ(m.activeSegment(), 1u);
    EXPECT_EQ(m.heartbeatRate(ra0), 5.0);

    // The unbounded terminal segment runs forever.
    m.setWorkUnit(100000);
    EXPECT_EQ(m.activeSegment(), 1u);
    EXPECT_EQ(m.segmentAt(0), 0u);
    EXPECT_EQ(m.segmentAt(40), 1u);
}

// --------------------------------------------------------- Scenario DSL

TEST(SpecDsl, CanonicalTextRoundTrips)
{
    scenario::Spec spec;
    spec.name = "round_trip";
    spec.workload = scenario::WorkloadKind::Phased;
    spec.phases = {{"swaptions", 1.0, 60}, {"kmeans", 0.75, 40}};
    spec.targetRate = 3.5;
    spec.frames = 100;
    spec.seed = 99;
    spec.changePointPolicy = runtime::ChangePointPolicy::ColdRefit;
    spec.changePointMethod = runtime::ChangePointMethod::Bayesian;
    spec.faults.nanProb = 0.05;
    spec.faults.outlierProb = 0.02;
    spec.faults.outlierScale = 25.0;
    spec.faults.seed = 7;
    spec.arrivals = {4, 8, 0.2};

    const std::string text = spec.toString();
    const scenario::Spec back = scenario::Spec::fromString(text);
    EXPECT_EQ(back.toString(), text);
    EXPECT_EQ(back.name, "round_trip");
    ASSERT_EQ(back.phases.size(), 2u);
    EXPECT_EQ(back.phases[1].app, "kmeans");
    EXPECT_EQ(back.phases[1].scale, 0.75);
    EXPECT_EQ(back.changePointPolicy,
              runtime::ChangePointPolicy::ColdRefit);
    EXPECT_EQ(back.changePointMethod,
              runtime::ChangePointMethod::Bayesian);
    EXPECT_EQ(back.faults.outlierScale, 25.0);
    EXPECT_EQ(back.arrivals.tenants, 4u);
    EXPECT_EQ(back.arrivals.rateSpread, 0.2);
}

TEST(SpecDsl, TolerantOfCommentsAndCrlf)
{
    const scenario::Spec spec = scenario::Spec::fromString(
        "# a comment\r\n"
        "name crlf_spec\r\n"
        "\r\n"
        "workload analytic   # trailing comment\r\n"
        "app kmeans\r\n"
        "frames 32\r\n");
    EXPECT_EQ(spec.name, "crlf_spec");
    EXPECT_EQ(spec.workload, scenario::WorkloadKind::Analytic);
    EXPECT_EQ(spec.app, "kmeans");
    EXPECT_EQ(spec.frames, 32u);
}

TEST(SpecDsl, JsonParses)
{
    const scenario::Spec spec = scenario::Spec::fromString(
        "{\"name\": \"j\", \"workload\": \"phased\", \"target\": 2.0,"
        " \"seed\": 5, \"changepoint\": \"priorreset\","
        " \"phases\": [{\"app\": \"x264\", \"frames\": 30,"
        "               \"scale\": 0.5}],"
        " \"fault\": {\"dropout\": 0.1},"
        " \"tenants\": {\"count\": 3, \"spacing\": 2,"
        "               \"rate_spread\": 0.1}}");
    EXPECT_EQ(spec.name, "j");
    EXPECT_EQ(spec.workload, scenario::WorkloadKind::Phased);
    EXPECT_EQ(spec.targetRate, 2.0);
    EXPECT_EQ(spec.changePointPolicy,
              runtime::ChangePointPolicy::PriorReset);
    ASSERT_EQ(spec.phases.size(), 1u);
    EXPECT_EQ(spec.phases[0].scale, 0.5);
    EXPECT_EQ(spec.faults.dropoutProb, 0.1);
    EXPECT_EQ(spec.arrivals.tenants, 3u);
}

TEST(SpecDsl, RejectsUnknownKeysAndBadValues)
{
    EXPECT_THROW(scenario::Spec::fromString("bogus_key 1\n"),
                 FatalError);
    EXPECT_THROW(scenario::Spec::fromString("frames not_a_number\n"),
                 FatalError);
    EXPECT_THROW(scenario::Spec::fromString("workload quantum\n"),
                 FatalError);
    EXPECT_THROW(scenario::Spec::fromString("changepoint maybe\n"),
                 FatalError);
}

TEST(SpecDsl, InlineTraceHeredoc)
{
    World w;
    const scenario::Spec spec = scenario::Spec::fromString(
        "name heredoc\n"
        "workload trace\n"
        "frames 20\n"
        "trace_inline <<END\n"
        "0,2.0,100.0\n"
        "END\n");
    EXPECT_EQ(spec.workload, scenario::WorkloadKind::Trace);
    EXPECT_NE(spec.traceText.find("0,2.0,100.0"), std::string::npos);
    scenario::Scenario sc(spec, w.machine, w.space);
    EXPECT_EQ(sc.totalFrames(), 20u);
    EXPECT_EQ(sc.numPhases(), 1u);
    // Auto target: half the peak rate (flat 2.0 everywhere).
    EXPECT_EQ(sc.targetRate(), 1.0);
}

TEST(SpecDsl, ExpandGridIsCrossProduct)
{
    scenario::Spec base;
    base.name = "grid";
    const auto cells = scenario::expandGrid(
        base, {{"changepoint", {"off", "coldrefit"}},
               {"seed", {"1", "2", "3"}}});
    ASSERT_EQ(cells.size(), 6u);
    EXPECT_EQ(cells[0].name, "grid/changepoint=off/seed=1");
    EXPECT_EQ(cells[0].seed, 1u);
    EXPECT_EQ(cells[5].name, "grid/changepoint=coldrefit/seed=3");
    EXPECT_EQ(cells[5].changePointPolicy,
              runtime::ChangePointPolicy::ColdRefit);
    EXPECT_EQ(cells[5].seed, 3u);
    // Cells inherit everything not swept.
    EXPECT_EQ(cells[3].workload, base.workload);
}

TEST(SpecDsl, SetFieldRoutesFaultAndPhaseScale)
{
    scenario::Spec spec;
    spec.workload = scenario::WorkloadKind::Phased;
    spec.phases = {{"x264", 1.0, 10}, {"x264", 2.0, 10}};
    scenario::setField(spec, "fault.nan", "0.25");
    scenario::setField(spec, "phase_scale", "0.5");
    EXPECT_EQ(spec.faults.nanProb, 0.25);
    EXPECT_EQ(spec.phases[0].scale, 0.5);
    EXPECT_EQ(spec.phases[1].scale, 1.0);
    EXPECT_THROW(scenario::setField(spec, "fault.gamma_rays", "1"),
                 FatalError);
}

// ------------------------------------------------ Scenario materialize

TEST(Scenario, MaterializationErrors)
{
    World w;
    scenario::Spec no_phases;
    no_phases.workload = scenario::WorkloadKind::Phased;
    EXPECT_THROW(scenario::Scenario(no_phases, w.machine, w.space),
                 FatalError);

    scenario::Spec no_trace;
    no_trace.workload = scenario::WorkloadKind::Trace;
    EXPECT_THROW(scenario::Scenario(no_trace, w.machine, w.space),
                 FatalError);

    scenario::Spec zero_frames;
    zero_frames.frames = 0;
    EXPECT_THROW(scenario::Scenario(zero_frames, w.machine, w.space),
                 FatalError);
}

TEST(Scenario, AutoTargetIsHalfFirstPhasePeak)
{
    World w;
    scenario::Spec spec;
    spec.app = "swaptions";
    spec.frames = 10;
    scenario::Scenario sc(spec, w.machine, w.space);
    workloads::ApplicationModel m(
        workloads::profileByName("swaptions"), w.machine);
    const auto gt = workloads::computeGroundTruth(m, w.space);
    EXPECT_EQ(sc.targetRate(), 0.5 * gt.performance.max());
}

// -------------------------------------------------- Runner equivalence

TEST(ScenarioRun, BitwiseIdenticalToRunPhased)
{
    // A fault-free spec with the policy Off must reproduce
    // runtime::runPhased to the last bit: same controller decisions,
    // same RNG consumption, same energy accounting.
    World w;
    workloads::ApplicationProfile heavy =
        workloads::profileByName("fluidanimate");
    workloads::ApplicationProfile light = heavy;
    light.baseHeartbeatRate *= 1.5;
    const workloads::PhasedApplication app(
        {workloads::Phase{heavy, 30}, workloads::Phase{light, 30}});

    workloads::ApplicationModel hm(heavy, w.machine);
    const auto gt = workloads::computeGroundTruth(hm, w.space);
    const double demand = 0.6 * gt.performance.max();

    scenario::Spec spec;
    spec.workload = scenario::WorkloadKind::Phased;
    spec.phases = {{"fluidanimate", 1.0, 30},
                   {"fluidanimate", 1.5, 30}};
    spec.targetRate = demand;
    spec.seed = 91;
    scenario::Scenario sc(spec, w.machine, w.space);

    estimators::LeoEstimator leo;
    const auto prior = w.store.without("fluidanimate");

    runtime::ControllerOptions opts;
    opts.targetRate = demand;
    opts.idlePower = w.machine.spec().idleSystemPowerW;
    opts.sampleBudget = 6;
    stats::Rng rng(91);
    const auto expect = runtime::runPhased(app, w.machine, w.space,
                                           &leo, prior, opts, rng);

    runtime::ControllerOptions base;
    base.sampleBudget = 6;
    const auto got = scenario::runScenario(sc, &leo, prior, base);

    ASSERT_EQ(got.trace.size(), expect.trace.size());
    for (std::size_t f = 0; f < got.trace.size(); ++f) {
        EXPECT_EQ(got.trace[f].configIndex,
                  expect.trace[f].configIndex);
        EXPECT_EQ(got.trace[f].rate, expect.trace[f].rate);
        EXPECT_EQ(got.trace[f].powerWatts,
                  expect.trace[f].powerWatts);
        EXPECT_EQ(got.trace[f].energyJoules,
                  expect.trace[f].energyJoules);
    }
    EXPECT_EQ(got.totalEnergy, expect.totalEnergy);
    EXPECT_EQ(got.deadlineHitRate, expect.deadlineHitRate);
    EXPECT_EQ(got.reestimations, expect.reestimations);
    EXPECT_EQ(got.changePoints, 0u);
    EXPECT_EQ(got.faultsInjected, 0u);
}

TEST(ScenarioRun, FaultyRunStaysFiniteAndCountsInjections)
{
    World w;
    scenario::Spec spec;
    spec.app = "x264";
    spec.frames = 80;
    spec.faults.nanProb = 0.1;
    spec.faults.outlierProb = 0.1;
    spec.faults.outlierScale = 50.0;
    scenario::Scenario sc(spec, w.machine, w.space);
    estimators::LeoEstimator leo;
    runtime::ControllerOptions base;
    base.sampleBudget = 6;
    const auto r = scenario::runScenario(sc, &leo, w.store, base);
    EXPECT_GT(r.faultsInjected, 0u);
    EXPECT_TRUE(std::isfinite(r.totalEnergy));
    EXPECT_GT(r.totalEnergy, 0.0);
    for (const auto &fr : r.trace)
        EXPECT_TRUE(std::isfinite(fr.energyJoules));
}

TEST(ScenarioRun, ChangePointPolicyReactsToPhaseStep)
{
    // A 40% rate step is far above the detector's standardization
    // scale: the ColdRefit run must notice it at least once.
    World w;
    scenario::Spec spec;
    spec.workload = scenario::WorkloadKind::Phased;
    spec.phases = {{"swaptions", 1.0, 50}, {"swaptions", 0.6, 50}};
    spec.changePointPolicy = runtime::ChangePointPolicy::ColdRefit;
    spec.seed = 17;
    scenario::Scenario sc(spec, w.machine, w.space);
    estimators::LeoEstimator leo;
    runtime::ControllerOptions base;
    base.sampleBudget = 6;
    const auto r = scenario::runScenario(sc, &leo, w.store, base);
    EXPECT_GE(r.changePoints, 1u);
    EXPECT_GE(r.reestimations, r.changePoints);
}

TEST(ScenarioRun, TraceWorkloadThroughEstimatorAndController)
{
    World w;
    scenario::Spec spec;
    spec.name = "trace_loop";
    spec.workload = scenario::WorkloadKind::Trace;
    spec.frames = 60;
    spec.traceText = twoSegmentCsv(w.space);
    scenario::Scenario sc(spec, w.machine, w.space);
    estimators::LeoEstimator leo;
    runtime::ControllerOptions base;
    base.sampleBudget = 6;
    const auto r = scenario::runScenario(sc, &leo, w.store, base);
    EXPECT_EQ(r.trace.size(), 60u);
    EXPECT_EQ(r.phaseEnergy.size(), 2u);
    EXPECT_TRUE(std::isfinite(r.totalEnergy));
    EXPECT_GT(r.phaseEnergy[0], 0.0);
    EXPECT_GT(r.phaseEnergy[1], 0.0);
    // Re-running the same scenario replays bit-for-bit.
    const auto again = scenario::runScenario(sc, &leo, w.store, base);
    EXPECT_EQ(again.totalEnergy, r.totalEnergy);
    ASSERT_EQ(again.trace.size(), r.trace.size());
    for (std::size_t f = 0; f < r.trace.size(); ++f)
        EXPECT_EQ(again.trace[f].configIndex,
                  r.trace[f].configIndex);
}

// --------------------------------------------- Change-point detector

TEST(ChangePoint, QuietOnStationaryResiduals)
{
    ChangePointOptions opt;
    ChangePointDetector det;
    det.configure(opt);
    // Standardized residuals in steady state sit well inside one
    // predictive sigma (the floor/cap bracket the noise).
    stats::Rng rng(404);
    for (std::size_t i = 0; i < 500; ++i)
        EXPECT_FALSE(det.observe(0.5 * rng.gaussian()))
            << "false alarm at window " << i;
    EXPECT_EQ(det.windowsObserved(), 500u);
}

TEST(ChangePoint, DetectsStepWithinAFewWindows)
{
    ChangePointOptions opt;
    opt.warmupWindows = 10; // Pin the bias estimate down first.
    ChangePointDetector det;
    det.configure(opt);
    stats::Rng rng(405);
    for (std::size_t i = 0; i < 50; ++i)
        ASSERT_FALSE(det.observe(0.5 * rng.gaussian()));
    // A 4-sigma step must fire within 5 windows.
    bool fired = false;
    std::size_t windows = 0;
    for (; windows < 5 && !fired; ++windows)
        fired = det.observe(4.0 + 0.5 * rng.gaussian());
    EXPECT_TRUE(fired);
    EXPECT_LE(windows, 5u);
    EXPECT_GE(det.lastDetectionLatency(), 1u);
}

TEST(ChangePoint, BayesianQuietThenDetects)
{
    ChangePointOptions opt;
    opt.method = ChangePointMethod::Bayesian;
    ChangePointDetector det;
    det.configure(opt);
    stats::Rng rng(406);
    for (std::size_t i = 0; i < 300; ++i)
        ASSERT_FALSE(det.observe(0.5 * rng.gaussian()))
            << "false alarm at window " << i;
    bool fired = false;
    for (std::size_t i = 0; i < 8 && !fired; ++i)
        fired = det.observe(4.0 + 0.5 * rng.gaussian());
    EXPECT_TRUE(fired);
}

TEST(ChangePoint, WarmupCentersOutPersistentFitBias)
{
    // A constant 2.5-sigma residual is static fit bias, not a phase
    // change: warmup learns it and the CUSUM never accumulates.
    ChangePointOptions opt;
    ChangePointDetector det;
    det.configure(opt);
    for (std::size_t i = 0; i < 200; ++i)
        EXPECT_FALSE(det.observe(2.5)) << "window " << i;
    // A later step on top of the bias is still detected.
    bool fired = false;
    std::size_t windows = 0;
    for (; windows < 5 && !fired; ++windows)
        fired = det.observe(6.5);
    EXPECT_TRUE(fired);
}

TEST(ChangePoint, NonFiniteResidualsAreIgnored)
{
    ChangePointOptions opt;
    ChangePointDetector det;
    det.configure(opt);
    for (std::size_t i = 0; i < 10; ++i) {
        EXPECT_FALSE(
            det.observe(std::numeric_limits<double>::quiet_NaN()));
        EXPECT_FALSE(
            det.observe(std::numeric_limits<double>::infinity()));
    }
    // Faulted telemetry is not evidence — and not windows either.
    EXPECT_EQ(det.windowsObserved(), 0u);
}

TEST(ChangePoint, SerializationRoundTripsMidStream)
{
    for (const auto method :
         {ChangePointMethod::Cusum, ChangePointMethod::Bayesian}) {
        ChangePointOptions opt;
        opt.method = method;
        ChangePointDetector a;
        a.configure(opt);
        stats::Rng rng(407);
        std::vector<double> head, tail;
        for (std::size_t i = 0; i < 30; ++i)
            head.push_back(0.5 * rng.gaussian());
        for (std::size_t i = 0; i < 30; ++i)
            tail.push_back(2.0 + 0.5 * rng.gaussian());

        for (const double r : head)
            a.observe(r);
        linalg::ByteWriter bw;
        a.save(bw);
        ChangePointDetector b;
        b.configure(opt);
        linalg::ByteReader br(bw.bytes());
        ASSERT_TRUE(b.restore(br));
        EXPECT_EQ(b.windowsObserved(), a.windowsObserved());
        // The restored detector fires in lockstep with the original.
        for (const double r : tail)
            EXPECT_EQ(a.observe(r), b.observe(r));
    }
}

// ------------------------------------------------- Sanitize regression

TEST(Sanitize, DuplicateMergeIsOrderIndependent)
{
    // Permutations of the same duplicate set must sanitize to
    // bitwise-identical merged values, so a replay that delivers
    // retried probes in another order fits exactly the same.
    const std::vector<std::size_t> idx_a = {3, 5, 3, 7, 5, 3};
    const Vector vals_a{10.0, 20.0, 10.3, 5.0, 19.7, 10.6};
    const std::vector<std::size_t> idx_b = {7, 3, 5, 3, 3, 5};
    const Vector vals_b{5.0, 10.6, 19.7, 10.3, 10.0, 20.0};

    const auto sa = estimators::sanitizeObservations(idx_a, vals_a, 16);
    const auto sb = estimators::sanitizeObservations(idx_b, vals_b, 16);
    ASSERT_TRUE(sa.modified);
    ASSERT_TRUE(sb.modified);
    EXPECT_EQ(sa.merged, 3u);
    EXPECT_EQ(sb.merged, 3u);
    ASSERT_EQ(sa.indices.size(), 3u);
    ASSERT_EQ(sb.indices.size(), 3u);
    for (std::size_t i = 0; i < sa.indices.size(); ++i) {
        for (std::size_t j = 0; j < sb.indices.size(); ++j) {
            if (sa.indices[i] != sb.indices[j])
                continue;
            EXPECT_EQ(sa.values[i], sb.values[j])
                << "config " << sa.indices[i];
        }
    }
}

TEST(Sanitize, IdenticalDuplicateRowsMergeExactly)
{
    // Trace replays repeat rows verbatim; the merge must reproduce
    // the reading bit-exactly, not an average with rounding error.
    const std::vector<std::size_t> idx = {4, 4, 4};
    const double v = 0.1 + 0.2; // Not exactly representable.
    const Vector vals{v, v, v};
    const auto s = estimators::sanitizeObservations(idx, vals, 16);
    ASSERT_TRUE(s.modified);
    ASSERT_EQ(s.values.size(), 1u);
    EXPECT_EQ(s.values[0], v);
}

// --------------------------------------------- Predictive variance

TEST(LeoFit, PredictiveVarianceAtEveryConfig)
{
    World w;
    estimators::LeoEstimator leo;
    std::vector<Vector> prior;
    for (const auto &p : workloads::standardSuite()) {
        if (p.name == "x264")
            continue;
        workloads::ApplicationModel m(p, w.machine);
        prior.push_back(
            workloads::computeGroundTruth(m, w.space).performance);
    }
    workloads::ApplicationModel target(
        workloads::profileByName("x264"), w.machine);
    const auto gt = workloads::computeGroundTruth(target, w.space);
    const std::vector<std::size_t> obs = {0, w.space.size() / 2,
                                          w.space.size() - 1};
    estimators::LeoFit fit;
    const auto est = leo.estimateMetric(w.space, prior, obs,
                                        gt.performance.gather(obs),
                                        nullptr, nullptr, &fit);
    ASSERT_TRUE(est.reliable);
    for (std::size_t c = 0; c < w.space.size(); ++c) {
        const double v = fit.predictiveVarianceAt(c);
        EXPECT_TRUE(std::isfinite(v)) << "config " << c;
        EXPECT_GE(v, 0.0) << "config " << c;
    }
    EXPECT_THROW(fit.predictiveVarianceAt(w.space.size() + 99),
                 FatalError);
}

// ------------------------------------------------- Service determinism

TEST(ScenarioService, SchedulesInvariantToShardsWorkersSnapshot)
{
    World w;
    scenario::Spec spec;
    spec.name = "svc_trace";
    spec.workload = scenario::WorkloadKind::Trace;
    spec.frames = 24;
    spec.traceText = twoSegmentCsv(w.space);
    spec.arrivals = {3, 2, 0.15};
    spec.seed = 60;

    estimators::LeoEstimator leo;
    auto prior = std::make_shared<const telemetry::ProfileStore>(
        w.store);

    scenario::Scenario sc_a(spec, w.machine, w.space);
    parallel::ThreadPool pool_a(0);
    scenario::ServiceRunOptions opt_a;
    opt_a.service.shards = 1;
    const auto a =
        scenario::runScenarioService(sc_a, leo, prior, pool_a, opt_a);

    scenario::Scenario sc_b(spec, w.machine, w.space);
    parallel::ThreadPool pool_b(2);
    scenario::ServiceRunOptions opt_b;
    opt_b.service.shards = 4;
    opt_b.snapshotAtWindow = 12; // Mid-run save/restore round-trip.
    const auto b =
        scenario::runScenarioService(sc_b, leo, prior, pool_b, opt_b);

    EXPECT_FALSE(a.restored);
    EXPECT_TRUE(b.restored);
    EXPECT_EQ(a.windowsProcessed, 24u);
    EXPECT_EQ(b.windowsProcessed, 24u);
    ASSERT_EQ(a.tenants.size(), 3u);
    ASSERT_EQ(b.tenants.size(), 3u);
    ASSERT_EQ(a.schedules.size(), b.schedules.size());
    for (std::size_t t = 0; t < a.schedules.size(); ++t) {
        ASSERT_EQ(a.schedules[t].size(), b.schedules[t].size())
            << "tenant " << t;
        for (std::size_t i = 0; i < a.schedules[t].size(); ++i)
            EXPECT_EQ(a.schedules[t][i], b.schedules[t][i])
                << "tenant " << t << " window " << i;
    }
}
