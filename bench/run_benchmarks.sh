#!/usr/bin/env sh
# Runs the google-benchmark microbenchmark suites and folds their output
# into one schema-stable document (BENCH_results.json at the repo root
# by default) suitable for longitudinal comparison and CI artifacts.
#
#   bench/run_benchmarks.sh [BUILD_DIR] [OUTPUT_JSON]
#
# Document schema (stable — additions only, never renames):
#   {
#     "schema": 1,
#     "suites": ["micro_flight", ...],
#     "benchmarks": [
#       {"suite": "...", "name": "...", "real_time_ns": N,
#        "cpu_time_ns": N, "iterations": N}, ...   # sorted (suite, name)
#     ],
#     "serve": {...},                       # spi_served throughput/latency
#                                           #   curve (bench/loadgen --json-out,
#                                           #   docs/serving.md); absent when
#                                           #   the serving binaries are not
#                                           #   built or SPI_SKIP_SERVE=1
#     "pipeline": {...},                    # realized-vs-MCM period document
#                                           #   (bench/pipeline_period --json,
#                                           #   docs/architecture.md): median/
#                                           #   min/max over 5 runs per plan
#                                           #   (speech, particle, chain4),
#                                           #   host_cpus, proc_count, chain4's
#                                           #   makespan; absent when the
#                                           #   binary is not built
#     "derived": {
#       "serve_peak_krps": K,               # closed-loop capacity, kreq/s
#       "serve_p99_us": U,                  # burst p99 at the top offered rate
#       "serve_p999_us": U,                 # per-request p99.9 at that rate
#       "serve_stage_us_mean": {...},       # per-stage request-lifecycle means
#                                           #   (admission/queue/batch/exec/
#                                           #   reply) from the loadgen run's
#                                           #   /tenants scrape
#       "serve_trace_overhead_pct": P,      # traced vs bare serve burst
#                                           #   (BM_ServeBurstTraced/Bare;
#                                           #   gated by bench/perf_smoke.sh)
#       "flight_recorder_overhead_pct": P,  # recorded vs bare threaded run
#       "spsc_stream_speedup": S,           # mutex+condvar baseline / SpscChannel
#                                           #   mean streaming time ratio
#       "obs_snapshot_us": U,               # one /metrics + /runtime render
#       "heartbeat_overhead_pct": H,        # watchdog + telemetry server
#                                           #   attached vs bare threaded run
#       "compile_10k_actor_ms": M,          # slowest 10k-actor topology
#                                           #   through the full pipeline
#       "incremental_recompile_speedup": S, # full compile / trace-replay
#                                           #   recompile after an exec edit
#       "fft_1024_us": U,                   # warm-plan 1024-point FFT
#       "huffman_8192_us": U,               # 8192-symbol Huffman encode
#       "kernel_simd_speedup": S,           # geomean scalar/vectorized over
#                                           #   the FFT, FIR, mat-vec and
#                                           #   Huffman kernel pairs
#       "speech_pipelined_over_mcm": R,     # median realized self-timed
#       "particle_pipelined_over_mcm": R,   #   period over the sync-graph
#       "chain4_pipelined_over_mcm": R,     #   MCM bound
#       "speech_pipelined_over_bound": R,   # same, over the machine-aware
#       "particle_pipelined_over_bound": R, #   bound max(MCM, work/cores) —
#       "chain4_pipelined_over_bound": R    #   the perf_smoke.sh 15% gate
#     }
#   }
#
# BENCHMARK_MIN_TIME can shrink runs for smoke use (default 0.05s).
set -eu

BUILD_DIR=${1:-build}
OUT=${2:-BENCH_results.json}
MIN_TIME=${BENCHMARK_MIN_TIME:-0.05}
SUITES="micro_flight micro_spi micro_dsp micro_compile micro_channel micro_obs"

if [ ! -d "$BUILD_DIR/bench" ]; then
  echo "run_benchmarks.sh: no $BUILD_DIR/bench — build the repo first" >&2
  exit 1
fi

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

ran_suites=""
for suite in $SUITES; do
  bin="$BUILD_DIR/bench/$suite"
  if [ ! -x "$bin" ]; then
    echo "run_benchmarks.sh: skipping $suite (not built)" >&2
    continue
  fi
  echo "run_benchmarks.sh: $suite" >&2
  "$bin" --benchmark_min_time="$MIN_TIME" --benchmark_format=json \
    > "$TMP/$suite.json"
  ran_suites="$ran_suites $suite"
done

# Serve throughput/latency curve (docs/serving.md): start the plan
# server, drive the load harness through the closed loop plus the
# offered-rate steps, and fold the curve into the document. Skipped when
# the serving binaries are not built or SPI_SKIP_SERVE=1.
SERVE_JSON=""
if [ "${SPI_SKIP_SERVE:-0}" != "1" ] && [ -x "$BUILD_DIR/tools/spi_served" ] \
   && [ -x "$BUILD_DIR/bench/loadgen" ]; then
  echo "run_benchmarks.sh: serve loadgen curve" >&2
  "$BUILD_DIR/tools/spi_served" --port 0 --max-seconds 300 2> "$TMP/served.log" &
  SERVED_PID=$!
  port=""
  for _ in $(seq 1 50); do
    port=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$TMP/served.log" | head -1)
    [ -n "$port" ] && break
    sleep 0.2
  done
  if [ -n "$port" ] && "$BUILD_DIR/bench/loadgen" --port "$port" \
       --duration-s "${LOADGEN_DURATION_S:-2}" --json-out "$TMP/serve_curve.json" >&2; then
    SERVE_JSON="$TMP/serve_curve.json"
  else
    echo "run_benchmarks.sh: loadgen failed; omitting the serve section" >&2
  fi
  kill -TERM "$SERVED_PID" 2> /dev/null || true
  wait "$SERVED_PID" 2> /dev/null || true
fi

# Realized-vs-MCM self-timed periods on the paper apps and chain4 (the
# document bench/perf_smoke.sh gates; docs/architecture.md).
PIPELINE_JSON=""
if [ -x "$BUILD_DIR/bench/pipeline_period" ]; then
  echo "run_benchmarks.sh: pipeline_period" >&2
  if "$BUILD_DIR/bench/pipeline_period" --json > "$TMP/pipeline_period.json"; then
    PIPELINE_JSON="$TMP/pipeline_period.json"
  else
    echo "run_benchmarks.sh: pipeline_period failed; omitting the pipeline section" >&2
  fi
fi

SERVE_JSON="$SERVE_JSON" PIPELINE_JSON="$PIPELINE_JSON" \
  python3 - "$OUT" "$TMP" $ran_suites <<'PY'
import json, os, sys

out_path, tmp_dir, suites = sys.argv[1], sys.argv[2], sys.argv[3:]
rows = []
for suite in suites:
    with open(f"{tmp_dir}/{suite}.json") as f:
        doc = json.load(f)
    unit_ns = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
    for b in doc.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        scale = unit_ns.get(b.get("time_unit", "ns"), 1.0)
        rows.append({
            "suite": suite,
            "name": b["name"],
            "real_time_ns": round(b["real_time"] * scale, 3),
            "cpu_time_ns": round(b["cpu_time"] * scale, 3),
            "iterations": b["iterations"],
        })
rows.sort(key=lambda r: (r["suite"], r["name"]))

def mean_time(name):
    vals = [r["real_time_ns"] for r in rows if r["name"].split("/")[0] == name]
    return sum(vals) / len(vals) if vals else None

derived = {}
bare, recorded = mean_time("BM_ThreadedPipeline"), mean_time("BM_ThreadedPipelineRecorded")
if bare and recorded:
    derived["flight_recorder_overhead_pct"] = round(100.0 * (recorded - bare) / bare, 2)
spsc, blocking = mean_time("BM_SpscStream"), mean_time("BM_BlockingStream")
if spsc and blocking:
    derived["spsc_stream_speedup"] = round(blocking / spsc, 2)
snapshot = mean_time("BM_ObsSnapshot")
if snapshot:
    derived["obs_snapshot_us"] = round(snapshot / 1e3, 2)
bare_run, watched = mean_time("BM_ThreadedRunBare"), mean_time("BM_ThreadedRunWatched")
if bare_run and watched:
    derived["heartbeat_overhead_pct"] = round(100.0 * (watched - bare_run) / bare_run, 2)
burst_bare, burst_traced = mean_time("BM_ServeBurstBare"), mean_time("BM_ServeBurstTraced")
if burst_bare and burst_traced:
    derived["serve_trace_overhead_pct"] = round(
        100.0 * (burst_traced - burst_bare) / burst_bare, 2)

def time_of(name):
    for r in rows:
        if r["name"] == name:
            return r["real_time_ns"]
    return None

tenk = [time_of(f"BM_Compile10k{t}") for t in ("Chain", "Tree", "RandomScc")]
tenk = [t for t in tenk if t]
if tenk:
    derived["compile_10k_actor_ms"] = round(max(tenk) / 1e6, 2)
# Speedup measured at 512 actors, where the resynchronization greedy
# phase (the expensive part the trace replay skips) is actually active.
full, fast = time_of("BM_FullRecompile/512"), time_of("BM_IncrementalRecompile/512")
if full and fast:
    derived["incremental_recompile_speedup"] = round(full / fast, 1)

fft = time_of("BM_FftCached/1024")
if fft:
    derived["fft_1024_us"] = round(fft / 1e3, 2)
huff = time_of("BM_HuffmanEncode/8192")
if huff:
    derived["huffman_8192_us"] = round(huff / 1e3, 2)
# Geomean of the scalar-reference / vectorized ratio across the four
# kernel pairs micro_dsp measures back to back (same build, same run —
# the CI acceptance floor is 1.5x).
simd_pairs = [("BM_FftScalar/1024", "BM_FftCached/1024"),
              ("BM_FirFilterScalar/8192", "BM_FirFilter/8192"),
              ("BM_MatVecScalar/256", "BM_MatVec/256"),
              ("BM_HuffmanEncodeScalar/8192", "BM_HuffmanEncode/8192")]
ratios = []
for scalar_name, vector_name in simd_pairs:
    scalar, vector = time_of(scalar_name), time_of(vector_name)
    if scalar and vector:
        ratios.append(scalar / vector)
if ratios:
    geomean = 1.0
    for r in ratios:
        geomean *= r
    derived["kernel_simd_speedup"] = round(geomean ** (1.0 / len(ratios)), 2)

doc = {"schema": 1, "suites": suites, "benchmarks": rows, "derived": derived}
pipeline_path = os.environ.get("PIPELINE_JSON") or ""
if pipeline_path:
    with open(pipeline_path) as f:
        pipeline = json.load(f)
    doc["pipeline"] = pipeline
    for app, r in pipeline.get("apps", {}).items():
        derived[f"{app}_pipelined_over_mcm"] = round(r["pipelined_over_mcm"], 3)
        derived[f"{app}_pipelined_over_bound"] = round(r["pipelined_over_bound"], 3)
serve_path = os.environ.get("SERVE_JSON") or ""
if serve_path:
    with open(serve_path) as f:
        serve = json.load(f)
    doc["serve"] = serve
    derived["serve_peak_krps"] = round(serve["peak_rps"] / 1e3, 1)
    offered = [s for s in serve.get("steps", []) if s.get("offered_rps")]
    top = offered[-1] if offered else (serve.get("steps") or [None])[0]
    if top:
        derived["serve_p99_us"] = top["latency_us"]["p99"]
        if "p999" in top.get("latency_us", {}):
            derived["serve_p999_us"] = top["latency_us"]["p999"]
    # Stage-lifecycle breakdown from the run's closing /tenants scrape:
    # per-stage means across tenants, weighted by request count.
    tenants = (serve.get("tenants") or {}).get("tenants") or []
    requests = sum(t.get("requests", 0) for t in tenants)
    if requests > 0:
        stage_ns = {}
        for t in tenants:
            for stage, facts in t.get("stages", {}).items():
                stage_ns[stage] = stage_ns.get(stage, 0) + facts.get("ns_total", 0)
        derived["serve_stage_us_mean"] = {
            stage: round(ns / requests / 1e3, 1) for stage, ns in stage_ns.items()}
with open(out_path, "w") as f:
    json.dump(doc, f, indent=1, sort_keys=False)
    f.write("\n")
print(f"run_benchmarks.sh: wrote {out_path} ({len(rows)} benchmarks)", file=sys.stderr)
if "flight_recorder_overhead_pct" in derived:
    print(f"run_benchmarks.sh: flight recorder overhead "
          f"{derived['flight_recorder_overhead_pct']}%", file=sys.stderr)
if "spsc_stream_speedup" in derived:
    print(f"run_benchmarks.sh: SPSC streaming speedup "
          f"{derived['spsc_stream_speedup']}x vs the mutex+condvar baseline", file=sys.stderr)
if "obs_snapshot_us" in derived:
    print(f"run_benchmarks.sh: telemetry snapshot render "
          f"{derived['obs_snapshot_us']} us", file=sys.stderr)
if "heartbeat_overhead_pct" in derived:
    print(f"run_benchmarks.sh: live telemetry overhead "
          f"{derived['heartbeat_overhead_pct']}%", file=sys.stderr)
if "compile_10k_actor_ms" in derived:
    print(f"run_benchmarks.sh: 10k-actor compile (slowest topology) "
          f"{derived['compile_10k_actor_ms']} ms", file=sys.stderr)
if "incremental_recompile_speedup" in derived:
    print(f"run_benchmarks.sh: incremental recompile speedup "
          f"{derived['incremental_recompile_speedup']}x vs full compile", file=sys.stderr)
if "serve_trace_overhead_pct" in derived:
    print(f"run_benchmarks.sh: request-tracing serve overhead "
          f"{derived['serve_trace_overhead_pct']}%", file=sys.stderr)
if "kernel_simd_speedup" in derived:
    print(f"run_benchmarks.sh: vectorized DSP kernels "
          f"{derived['kernel_simd_speedup']}x vs scalar references "
          f"(FFT 1024 {derived.get('fft_1024_us', '?')} us, Huffman 8192 "
          f"{derived.get('huffman_8192_us', '?')} us)", file=sys.stderr)
for app in ("speech", "particle", "chain4"):
    key = f"{app}_pipelined_over_mcm"
    if key in derived:
        print(f"run_benchmarks.sh: {app} pipelined period "
              f"{derived[key]}x MCM ({derived[f'{app}_pipelined_over_bound']}x "
              f"machine-aware bound)", file=sys.stderr)
if "serve_peak_krps" in derived:
    print(f"run_benchmarks.sh: serve capacity {derived['serve_peak_krps']} kreq/s "
          f"(p99 {derived.get('serve_p99_us', '?')} us, p99.9 "
          f"{derived.get('serve_p999_us', '?')} us at the top offered rate)",
          file=sys.stderr)
if "serve_stage_us_mean" in derived:
    stages = derived["serve_stage_us_mean"]
    breakdown = ", ".join(f"{k} {v}" for k, v in stages.items())
    print(f"run_benchmarks.sh: request stage means (us): {breakdown}", file=sys.stderr)
PY
