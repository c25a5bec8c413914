# Benchmark harness targets. Included from the top-level CMakeLists (not
# add_subdirectory) so ${CMAKE_BINARY_DIR}/bench holds only executables.

function(streamkc_bench name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cc)
  target_link_libraries(${name} PRIVATE
    streamkc_dist streamkc_serve streamkc_runtime streamkc_core
    streamkc_offline streamkc_sketch streamkc_setsys streamkc_stream
    streamkc_obs streamkc_hash streamkc_util)
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

streamkc_bench(bench_tradeoff)
streamkc_bench(bench_lower_bound)
streamkc_bench(bench_oracle_cases)
streamkc_bench(bench_universe_reduction)
streamkc_bench(bench_sketches)
streamkc_bench(bench_baselines)
streamkc_bench(bench_reporting)
streamkc_bench(bench_ablation)
streamkc_bench(bench_set_cover)
streamkc_bench(bench_runtime)
streamkc_bench(bench_serving)

# Experiment smoke: each experiment bench runs at small scale and must exit
# 0, so one that CHECK-aborts fails tier-1. Only the exit code is checked.
foreach(name bench_tradeoff bench_lower_bound bench_oracle_cases
             bench_universe_reduction bench_sketches bench_baselines
             bench_reporting bench_ablation bench_set_cover)
  add_test(NAME ${name}_smoke COMMAND ${name})
  set_tests_properties(${name}_smoke PROPERTIES
    ENVIRONMENT "STREAMKC_BENCH_SCALE=small" LABELS "tier1" TIMEOUT 300)
endforeach()

# --metrics-out contract: an unwritable sink must fail fast (the probe
# runs before the experiment), never silently drop the dump at the end.
add_test(NAME bench_metrics_out_unwritable_fails
  COMMAND bench_runtime --metrics-out
          ${CMAKE_BINARY_DIR}/no-such-dir/metrics.json)
set_tests_properties(bench_metrics_out_unwritable_fails PROPERTIES
  ENVIRONMENT "STREAMKC_BENCH_SCALE=small"
  WILL_FAIL TRUE LABELS "tier1" TIMEOUT 60)

# Perf smoke: a small-scale bench_runtime pass emits BENCH_runtime.json,
# then compare_bench.py diffs it against the checked-in baseline. Shape
# drift (schema/metric/config changes, determinism violations) hard-fails;
# throughput deltas only warn (shared runners are too noisy for a hard perf
# gate — run compare_bench.py --hard-perf by hand on quiet hardware).
# The bench's own scaling self-gates (producer_scaling_ok, worker_scaling_ok)
# compare thread and process counts against the host's cores, so it runs
# alone: under `ctest -j` other tests would take the cores it measures.
add_test(NAME bench_runtime_perf_smoke
  COMMAND bench_runtime --bench-out ${CMAKE_BINARY_DIR}/BENCH_runtime.json)
set_tests_properties(bench_runtime_perf_smoke PROPERTIES
  ENVIRONMENT "STREAMKC_BENCH_SCALE=small"
  FIXTURES_SETUP bench_runtime_json LABELS "tier1" TIMEOUT 600 RUN_SERIAL TRUE)
find_package(Python3 COMPONENTS Interpreter)
if(Python3_Interpreter_FOUND)
  add_test(NAME bench_runtime_compare
    COMMAND ${Python3_EXECUTABLE} ${CMAKE_SOURCE_DIR}/tools/compare_bench.py
            ${CMAKE_SOURCE_DIR}/bench/baselines/BENCH_runtime.small.json
            ${CMAKE_BINARY_DIR}/BENCH_runtime.json)
  set_tests_properties(bench_runtime_compare PROPERTIES
    FIXTURES_REQUIRED bench_runtime_json LABELS "tier1" TIMEOUT 60)
endif()

# Serving perf smoke mirrors the runtime one: the bench itself hard-fails on
# any correctness break (staleness differential, parallel/inline divergence);
# the comparator then hard-gates shape + the deterministic flag and warns on
# throughput drift.
add_test(NAME bench_serving_perf_smoke
  COMMAND bench_serving --bench-out ${CMAKE_BINARY_DIR}/BENCH_serving.json)
set_tests_properties(bench_serving_perf_smoke PROPERTIES
  ENVIRONMENT "STREAMKC_BENCH_SCALE=small"
  FIXTURES_SETUP bench_serving_json LABELS "tier1" TIMEOUT 600)
if(Python3_Interpreter_FOUND)
  add_test(NAME bench_serving_compare
    COMMAND ${Python3_EXECUTABLE} ${CMAKE_SOURCE_DIR}/tools/compare_bench.py
            ${CMAKE_SOURCE_DIR}/bench/baselines/BENCH_serving.small.json
            ${CMAKE_BINARY_DIR}/BENCH_serving.json)
  set_tests_properties(bench_serving_compare PROPERTIES
    FIXTURES_REQUIRED bench_serving_json LABELS "tier1" TIMEOUT 60)
endif()

# Throughput micro-benchmarks use google-benchmark, fronted by the
# hash-kernel table (scalar vs avx2 MapFoldedBatch) which emits
# BENCH_micro.json before the google-benchmark suite runs.
add_executable(bench_micro ${CMAKE_SOURCE_DIR}/bench/bench_micro.cc)
target_link_libraries(bench_micro PRIVATE
  streamkc_core streamkc_offline streamkc_sketch streamkc_setsys
  streamkc_stream streamkc_obs streamkc_hash streamkc_util
  benchmark::benchmark)
set_target_properties(bench_micro PROPERTIES
  RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)

# Micro perf smoke: --benchmark_filter=^$ skips the google-benchmark
# entries so only the hash-kernel and LargeSet tables run (seconds, not
# minutes). The binary
# itself hard-fails on a scalar/avx2 checksum mismatch or a speedup below
# its floor; the comparator then hard-gates shape + hash_kernel_ok and
# warns on per-kernel throughput drift.
add_test(NAME bench_micro_perf_smoke
  COMMAND bench_micro --bench-out ${CMAKE_BINARY_DIR}/BENCH_micro.json
          --benchmark_filter=^$)
set_tests_properties(bench_micro_perf_smoke PROPERTIES
  ENVIRONMENT "STREAMKC_BENCH_SCALE=small"
  FIXTURES_SETUP bench_micro_json LABELS "tier1" TIMEOUT 600)
if(Python3_Interpreter_FOUND)
  add_test(NAME bench_micro_compare
    COMMAND ${Python3_EXECUTABLE} ${CMAKE_SOURCE_DIR}/tools/compare_bench.py
            ${CMAKE_SOURCE_DIR}/bench/baselines/BENCH_micro.small.json
            ${CMAKE_BINARY_DIR}/BENCH_micro.json)
  set_tests_properties(bench_micro_compare PROPERTIES
    FIXTURES_REQUIRED bench_micro_json LABELS "tier1" TIMEOUT 60)
endif()
