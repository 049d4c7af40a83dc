/**
 * @file
 * leo_perfbench: the repository's end-to-end benchmark.
 *
 *     leo_perfbench --workload <fleet_onboard|fleet_steady|phased_trace>
 *                   --seed <n> --seconds <s> --trace <0|1>
 *                   [--size full|smoke] [--threads 1|2]
 *
 * Prints one `{"env": {...}}` line recording the settings (thread
 * counts, nproc, compiler, build type, seed, sample counts), then as
 * its last line the result object
 * `{"correct", "attempted", "failed", "metrics"}`. With --trace 0 the
 * metrics are the end-to-end ones; with --trace 1 the per-layer ones.
 * See perfbench/README.md for every workload and metric.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <malloc.h>
#include <unistd.h>

#include "common.hh"
#include "obs/registry.hh"

using namespace perfbench;

namespace
{

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "leo_perfbench: %s\nusage: leo_perfbench --workload "
                 "<fleet_onboard|fleet_steady|phased_trace> --seed <n> "
                 "--seconds <s> --trace <0|1> [--size full|smoke] "
                 "[--threads 1|2]\n",
                 why);
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + key).c_str());
        const std::string val = argv[++i];
        char *end = nullptr;
        if (key == "--workload") {
            opt.workload = val;
        } else if (key == "--seed") {
            opt.seed = std::strtoull(val.c_str(), &end, 10);
            if (*end != '\0')
                usage("bad --seed");
        } else if (key == "--seconds") {
            opt.seconds = std::strtod(val.c_str(), &end);
            if (*end != '\0' || !(opt.seconds >= 0.0))
                usage("bad --seconds");
        } else if (key == "--trace") {
            if (val != "0" && val != "1")
                usage("bad --trace");
            opt.trace = val == "1";
        } else if (key == "--size") {
            if (val != "full" && val != "smoke")
                usage("bad --size");
            opt.size = val == "smoke" ? Size::Smoke : Size::Full;
        } else if (key == "--threads") {
            if (val != "1" && val != "2")
                usage("bad --threads");
            opt.fleetThreads = val == "1" ? 1 : 2;
        } else {
            usage(("unknown option " + key).c_str());
        }
    }
    if (opt.workload.empty())
        usage("--workload is required");
    return opt;
}

/** Shortest decimal that reads back to exactly v. */
std::string
number(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    for (int prec = 1; prec <= 17; ++prec) {
        std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
        if (std::strtod(buf, nullptr) == v)
            break;
    }
    return buf;
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parse(argc, argv);
    // Keep freed memory in the process: returning it to the kernel and
    // faulting it back in (the 12 MB snapshot buffers, the fits'
    // workspaces) costs what the host's page zeroing costs that
    // minute, which is noise, not the system.
    mallopt(M_MMAP_THRESHOLD, 256 << 20);
    mallopt(M_TRIM_THRESHOLD, 512 << 20);
    // The process-wide registry records only inside a traced run's
    // traced pass.
    leo::obs::Registry::global().setEnabled(false);
    Result res;
    try {
        if (opt.workload == "fleet_onboard")
            res = runFleetOnboard(opt);
        else if (opt.workload == "fleet_steady")
            res = runFleetSteady(opt);
        else if (opt.workload == "phased_trace")
            res = runPhasedTrace(opt);
        else
            usage(("unknown workload " + opt.workload).c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "leo_perfbench: %s\n", e.what());
        return 1;
    }

    std::string env = "{\"env\": {";
    auto add_env = [&](const std::string &k, const std::string &v) {
        if (env.back() != '{')
            env += ", ";
        env += quoted(k) + ": " + quoted(v);
    };
    add_env("workload", opt.workload);
    add_env("seed", std::to_string(opt.seed));
    add_env("seconds", number(opt.seconds));
    add_env("trace", opt.trace ? "1" : "0");
    add_env("size", opt.size == Size::Full ? "full" : "smoke");
    add_env("nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN)));
    add_env("compiler", std::string("g++ ") + __VERSION__);
    add_env("build_type", PERFBENCH_BUILD_TYPE);
    for (const auto &[k, v] : res.env)
        add_env(k, v);
    std::printf("%s}}\n", env.c_str());

    for (const std::string &p : res.problems)
        std::fprintf(stderr, "leo_perfbench: check failed: %s\n",
                     p.c_str());

    std::string out = "{\"correct\": ";
    out += res.problems.empty() && res.failed == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(res.attempted);
    out += ", \"failed\": " + std::to_string(res.failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, vu] : res.metrics) {
        out += first ? "" : ", ";
        first = false;
        out += quoted(name) + ": {\"value\": " + number(vu.first) +
               ", \"unit\": " + quoted(vu.second) + "}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    return 0;
}
