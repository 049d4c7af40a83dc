# One binary per paper table/figure (see DESIGN.md section 5).
function(leo_add_bench name)
    add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cc)
    target_link_libraries(${name} PRIVATE leo_core leo_experiments)
    set_target_properties(${name} PROPERTIES
        RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

leo_add_bench(fig01_motivation)
leo_add_bench(fig04_covariance)
leo_add_bench(fig05_perf_accuracy)
leo_add_bench(fig06_power_accuracy)
leo_add_bench(fig07_perf_examples)
leo_add_bench(fig08_power_examples)
leo_add_bench(fig09_pareto)
leo_add_bench(fig10_energy_vs_utilization)
leo_add_bench(fig11_energy_summary)
leo_add_bench(fig12_sensitivity)
leo_add_bench(fig13_phases)
leo_add_bench(tab01_phase_energy)

# Robustness fault sweep (repository addition, DESIGN.md section 8).
leo_add_bench(tab02_fault_sweep)
target_link_libraries(tab02_fault_sweep PRIVATE leo_faults)

# Global co-scheduling vs per-app greedy under a shared power cap
# (repository addition, DESIGN.md "Global co-scheduling");
# emits google-benchmark JSON (BENCH_global.json, via bench::BenchJson) for
# tools/bench_diff.py.
leo_add_bench(tab03_global_cap)

# Change-point adaptation vs the fixed drift window over
# DSL-authored scenarios (repository addition, DESIGN.md "Scenarios
# and change-point adaptation"); hand-emits google-benchmark JSON
# (BENCH_scenario.json, via bench::BenchJson) for tools/bench_diff.py.
leo_add_bench(tab04_changepoint)

# Section 6.7 overhead microbenchmark (google-benchmark).
leo_add_bench(overhead_leo)
target_link_libraries(overhead_leo PRIVATE benchmark::benchmark)

# Batch-fit scaling: serial vs parallel wall time plus a bitwise
# determinism cross-check (plain chrono, no google-benchmark).
leo_add_bench(overhead_parallel)

# Multi-tenant serving-core throughput at 1/4/16 shards with a
# bitwise schedule cross-check; emits google-benchmark JSON
# (BENCH_service.json, via bench::BenchJson) for tools/bench_diff.py.
leo_add_bench(overhead_service)

# Ablation benches for the design choices called out in DESIGN.md.
leo_add_bench(abl01_em_init)
leo_add_bench(abl02_active_sampling)
leo_add_bench(abl03_hyperparams)
