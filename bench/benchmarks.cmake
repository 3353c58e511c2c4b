function(spi_bench name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cpp)
  set_target_properties(${name} PROPERTIES RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
  target_link_libraries(${name} PRIVATE spi_apps spi_core spi_mpi spi_dsp spi_sim spi_sched spi_dataflow)
endfunction()

function(spi_gbench name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cpp)
  set_target_properties(${name} PROPERTIES RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
  target_link_libraries(${name} PRIVATE spi_apps spi_core spi_mpi spi_dsp spi_sim spi_sched spi_dataflow
    benchmark::benchmark)
endfunction()

spi_bench(fig6_speech_errorgen)
spi_bench(fig7_particle_filter)
spi_bench(table1_area_speech)
spi_bench(table2_area_particle)
spi_bench(ablation_resync)
spi_bench(ablation_spi_vs_mpi)
spi_bench(ablation_vts)
spi_bench(ablation_bbs_ubs)
spi_bench(ablation_interconnect)
spi_bench(ablation_scheduling_models)
spi_bench(ablation_looped_schedules)
spi_bench(ext_beamformer_scaling)
spi_bench(ext_adaptive_resampling)
spi_bench(ext_heterogeneous)
spi_bench(ext_vectorization)
# Realized-vs-MCM period measurement for cross-iteration pipelining
# (bench/perf_smoke.sh gate + BENCH_results.json derived keys).
spi_bench(pipeline_period)
spi_gbench(micro_dsp)
spi_gbench(micro_spi)
spi_gbench(micro_compile)
spi_gbench(micro_flight)
spi_gbench(micro_channel)
# BM_ColocatedAppSteadyStateAllocs runs the served models' plans.
target_link_libraries(micro_channel PRIVATE spi_serve)
spi_gbench(micro_obs)
# BM_ServeBurst* drive PlanServer::handle_burst socketlessly (the
# traced-vs-bare overhead gate in perf_smoke.sh / BENCH_results.json).
target_link_libraries(micro_obs PRIVATE spi_serve)

# Load harness for the plan server (docs/serving.md). Not a
# google-benchmark binary: it drives a running spi_served over TCP, so
# the CI perf loop and run_benchmarks.sh skip it by name and the serve
# phase invokes it explicitly against a freshly started daemon.
add_executable(loadgen ${CMAKE_SOURCE_DIR}/bench/loadgen.cpp)
set_target_properties(loadgen PROPERTIES RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
