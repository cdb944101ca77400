#!/usr/bin/env bash
# bench.sh — run the benchmark suite once and record the results as
# BENCH_<date>.json (op nanoseconds plus the headline figure metrics each
# benchmark reports via b.ReportMetric), so successive PRs leave a perf
# trajectory in the repo history. Also measures scenario serving: an
# a4serve daemon (and a two-backend cluster) is started locally and driven
# by the a4load open-loop harness, and the resulting rates and latencies
# land in the same JSON.
#
# Usage: scripts/bench.sh [output.json]
#   BENCHTIME=5x scripts/bench.sh   # more iterations for stabler numbers
set -euo pipefail

cd "$(dirname "$0")/.."

out="${1:-BENCH_$(date +%Y%m%d).json}"
benchtime="${BENCHTIME:-1x}"

# The serving and cluster stanzas run FIRST, before the compute
# benchmarks: the saturation searches measure latency against a p99 SLO,
# and on this 1-vCPU host several minutes of pinned compute measurably
# depresses the serving numbers that follow it (same build, same commands:
# sustained 96 rps when measured on a quiet machine vs 0 immediately after
# the compute phase). Throughput-style compute benchmarks are far less
# sensitive to ordering, so they take the post-load slot.
# Serving: start a throwaway daemon and drive it with a4load. Guarded so a
# sandboxed environment without loopback listening still records the
# compute benchmarks.
#   loadgen_sustained_rps   saturation search over the default mix
#   service_cached_rps      saturation search over cache hits only
#                           (-mix cached-hit=1): hit-path capacity
#   loadgen_p50_ms/_p99_ms  cache-hit latency of a one-shot run at a fixed
#                           rate, read from its JSON record
serve_rps=0
loadgen_p50=0
loadgen_p99=0
loadgen_sustained=0
loadgen_p99_slo=0
serve_pid=""
cluster_pids=""
serve_port="${A4SERVE_PORT:-8046}"
serve_bin=$(mktemp -t a4serve.XXXXXX)
load_bin=$(mktemp -t a4load.XXXXXX)
trap 'for p in $serve_pid $cluster_pids; do kill "$p" 2>/dev/null || true; done; rm -f "$serve_bin" "$load_bin"' EXIT
# sustained_of <a4load output>: the loadgen_sustained_rps value, or 0.
sustained_of() { echo "$1" | awk -F= '/^loadgen_sustained_rps=/ {v = $2} END {print v + 0}'; }
if curl -sf "http://127.0.0.1:$serve_port/healthz" >/dev/null 2>&1; then
	# A stale daemon owns the port; measuring against it would record an
	# old build's (warm-cache) throughput. Record 0 instead.
	echo "bench.sh: port $serve_port already serving; recording service_cached_rps=0" >&2
elif go build -o "$serve_bin" ./cmd/a4serve && go build -o "$load_bin" ./cmd/a4load; then
	"$serve_bin" -addr "127.0.0.1:$serve_port" -workers 4 >/dev/null 2>&1 &
	serve_pid=$!
	for _ in $(seq 1 50); do
		if curl -sf "http://127.0.0.1:$serve_port/healthz" >/dev/null 2>&1; then
			break
		fi
		sleep 0.2
	done
	# Saturation search over the default mix: the highest arrival rate the
	# daemon sustains under a p99 SLO, plus the p99 measured at that rate.
	# It runs first, on the fresh daemon: bench_gate.sh gates this key, and
	# the cache-hit search below ends by overloading the daemon.
	if search_out=$("$load_bin" \
		-url "http://127.0.0.1:$serve_port" -search \
		-slo-p99-ms "${LOADGEN_SLO_P99_MS:-100}" -seed 1 \
		-min-rate "${LOADGEN_MIN_RATE:-8}" -max-rate "${LOADGEN_MAX_RATE:-1024}" \
		-probe "${LOADGEN_PROBE:-3s}" -tol "${LOADGEN_TOL:-0.25}"); then
		echo "$search_out"
		loadgen_sustained=$(sustained_of "$search_out")
		loadgen_p99_slo=$(echo "$search_out" | awk -F= '/^loadgen_p99_ms_at_slo=/ {print $2}')
		loadgen_p99_slo="${loadgen_p99_slo:-0}"
	else
		echo "bench.sh: saturation search failed; recording loadgen_sustained_rps=0" >&2
	fi
	# A failed search (nonzero exit) records 0 rather than a rate measured
	# under failure conditions. The 25 ms SLO sits well above the ~1 ms
	# unloaded hit p99 and the generator's own ~7 ms p99 sleep overshoot, so
	# the knee is the serving path's, not the host's timer noise.
	if cached_out=$("$load_bin" -url "http://127.0.0.1:$serve_port" -search \
		-mix cached-hit=1 -slo-p99-ms 25 -seed 1 \
		-min-rate 64 -max-rate 16384 -probe 2s -tol 0.25); then
		echo "$cached_out"
		serve_rps=$(sustained_of "$cached_out")
	else
		echo "bench.sh: cached-hit search failed; recording service_cached_rps=0" >&2
	fi
	# Every sent request must come back 2xx, or the latencies describe a
	# failing daemon and are recorded as 0.
	load_json=$(mktemp -t a4load-json.XXXXXX)
	if "$load_bin" -url "http://127.0.0.1:$serve_port" -mix cached-hit=1 \
		-rate 200 -duration 5s -seed 1 -json "$load_json" &&
		jq -e '.sent > 0 and .outcomes["2xx"] == .sent' "$load_json" >/dev/null; then
		loadgen_p50=$(jq -r '.classes["cached-hit"]["2xx"].p50_ms' "$load_json")
		loadgen_p99=$(jq -r '.classes["cached-hit"]["2xx"].p99_ms' "$load_json")
		echo "loadgen_p50_ms=$loadgen_p50 loadgen_p99_ms=$loadgen_p99"
	else
		echo "bench.sh: cached-hit one-shot failed; recording loadgen_p50_ms=0 loadgen_p99_ms=0" >&2
	fi
	rm -f "$load_json"
	kill "$serve_pid" 2>/dev/null || true
	serve_pid=""
fi

# Multi-backend sweep throughput: two backend daemons behind one -cluster
# coordinator, driven by an a4load saturation search over sweeps only
# (-mix sweep=1: two never-seen sampled seeds per sweep, so points spread
# across the fleet by prefix-hash routing). cluster_sweep_rps is the
# highest sweep arrival rate the cluster sustains under a 500 ms p99 SLO
# (about 9x the ~56 ms unloaded sweep p50).
cluster_rps=0
b1_port=$((serve_port + 1))
b2_port=$((serve_port + 2))
co_port=$((serve_port + 3))
# All three ports must be free: a stale daemon on a backend port would make
# the coordinator measure a mixed old/new fleet.
ports_free=1
for p in "$b1_port" "$b2_port" "$co_port"; do
	if curl -sf "http://127.0.0.1:$p/healthz" >/dev/null 2>&1; then
		echo "bench.sh: port $p already serving; recording cluster_sweep_rps=0" >&2
		ports_free=0
	fi
done
if [ -x "$serve_bin" ] && [ -x "$load_bin" ] && [ "$ports_free" = 1 ]; then
	"$serve_bin" -addr "127.0.0.1:$b1_port" -workers 2 >/dev/null 2>&1 &
	cluster_pids="$cluster_pids $!"
	"$serve_bin" -addr "127.0.0.1:$b2_port" -workers 2 >/dev/null 2>&1 &
	cluster_pids="$cluster_pids $!"
	"$serve_bin" -addr "127.0.0.1:$co_port" \
		-cluster "http://127.0.0.1:$b1_port,http://127.0.0.1:$b2_port" >/dev/null 2>&1 &
	cluster_pids="$cluster_pids $!"
	up=0
	for _ in $(seq 1 50); do
		if curl -sf "http://127.0.0.1:$b1_port/healthz" >/dev/null 2>&1 &&
			curl -sf "http://127.0.0.1:$b2_port/healthz" >/dev/null 2>&1 &&
			curl -sf "http://127.0.0.1:$co_port/healthz" >/dev/null 2>&1; then
			up=1
			break
		fi
		sleep 0.2
	done
	if [ "$up" = 1 ] && sweep_out=$("$load_bin" -url "http://127.0.0.1:$co_port" -search \
		-mix sweep=1 -slo-p99-ms 500 -seed 1 \
		-min-rate 2 -max-rate 256 -probe 3s -tol 0.25); then
		echo "$sweep_out"
		cluster_rps=$(sustained_of "$sweep_out")
	else
		echo "bench.sh: cluster sweep search failed; recording cluster_sweep_rps=0" >&2
	fi
	for p in $cluster_pids; do kill "$p" 2>/dev/null || true; done
	cluster_pids=""
fi


raw=$(go test -run '^$' -bench . -benchtime "$benchtime" .)
echo "$raw"

# Warm-state reuse: the ratio of the non-forking to the forking sweep
# runner on the same warm-up-dominated sweep (BenchmarkSweepFork), i.e. the
# wall-clock reduction the snapshot/fork contract buys.
fork_speedup=$(echo "$raw" | awk '
	/^BenchmarkSweepFork\/fresh/  {fresh = $3}
	/^BenchmarkSweepFork\/forked/ {forked = $3}
	END { if (fresh > 0 && forked > 0) printf "%.2f", fresh / forked; else printf "0" }')
echo "sweep_fork_speedup=$fork_speedup"

# measure_overhead <bench_regex> <benchtime>: run one paired off/on
# benchmark three times back to back and print each side's best (minimum)
# ns/op as "off on". A single pass used to race the two sides against VM
# drift and could report a *negative* overhead (the "on" pass got the
# quieter slice of the machine); interleaving three full pairs and taking
# per-side minima measures each side at its least-disturbed and makes the
# difference meaningful.
measure_overhead() {
	local bench="$1" benchtime="$2" pass all=""
	for _ in 1 2 3; do
		pass=$(go test -run '^$' -bench "$bench" -benchtime "$benchtime" .)
		echo "$pass" | grep '^Benchmark' >&2 || true
		all="$all$pass"$'\n'
	done
	echo "$all" | awk '
		/\/off/ { v = $3; if (off == 0 || v < off) off = v }
		/\/on/  { v = $3; if (on == 0 || v < on) on = v }
		END { printf "%s %s", off + 0, on + 0 }'
}

# clamp_overhead <pct>: overheads below zero are measurement noise by
# definition (turning telemetry on cannot speed the loop up); clamp to 0
# and print the annotation recorded next to the clamped value.
clamp_overhead() {
	if awk "BEGIN{exit !($1 < 0)}"; then
		echo "raw $1% is negative (measurement noise); clamped to 0"
	fi
}

# Telemetry-plane cost: the relative ns/op difference between a measured
# second with every extended series group on and the default (core-only)
# measurement path. Best-of-3 paired passes; sub-3% expected.
# Informational; bench_gate.sh does not gate on it.
read -r series_off series_on <<<"$(measure_overhead '^BenchmarkScenarioSecondSeries$' "${SERIES_BENCHTIME:-2x}")"
series_overhead=$(awk "BEGIN { if ($series_off > 0 && $series_on > 0) printf \"%.2f\", ($series_on - $series_off) * 100 / $series_off; else printf \"0\" }")
series_note=$(clamp_overhead "$series_overhead")
[ -n "$series_note" ] && series_overhead=0
echo "series_overhead_pct=$series_overhead${series_note:+ ($series_note)}"

# Observability-plane cost: the relative ns/op difference between a measured
# second with spans, latency histograms, and live series streaming enabled
# and the same loop without them (BenchmarkScenarioSecondObs). Same
# treatment and expectation as the series plane; informational, not gated.
read -r obs_off obs_on <<<"$(measure_overhead '^BenchmarkScenarioSecondObs$' "${OBS_BENCHTIME:-2x}")"
obs_overhead=$(awk "BEGIN { if ($obs_off > 0 && $obs_on > 0) printf \"%.2f\", ($obs_on - $obs_off) * 100 / $obs_off; else printf \"0\" }")
obs_note=$(clamp_overhead "$obs_overhead")
[ -n "$obs_note" ] && obs_overhead=0
echo "obs_overhead_pct=$obs_overhead${obs_note:+ ($obs_note)}"

# Sampled-execution win: detailed over sampled ns/op for the same measured
# second (BenchmarkScenarioSecondSampled, default 200 ms detail per 1 s
# period — ideal 5x). bench_gate.sh fails the build below 1.8x.
sampled_raw=$(go test -run '^$' -bench '^BenchmarkScenarioSecondSampled$' \
	-benchtime "${SAMPLED_BENCHTIME:-4x}" .)
echo "$sampled_raw" | grep '^BenchmarkScenarioSecondSampled' || true
sampled_speedup=$(echo "$sampled_raw" | awk '
	/^BenchmarkScenarioSecondSampled\/detailed/ {det = $3}
	/^BenchmarkScenarioSecondSampled\/sampled/  {smp = $3}
	END { if (det > 0 && smp > 0) printf "%.2f", det / smp; else printf "0" }')
echo "sampled_speedup=$sampled_speedup"

# Sampled-mode accuracy: the worst pinned-aggregate relative error between
# detailed and sampled measurement windows forked from one warm snapshot
# (TestSampledMatchesDetailedWithinBounds logs one "err N%" per metric).
# Informational — the test itself enforces the per-metric 5% bounds, so the
# gate does not read this key; it is recorded for the perf trajectory.
sampled_error=$(go test -run '^TestSampledMatchesDetailedWithinBounds$' -v ./internal/scenario 2>/dev/null | awk '
	/ err / {
		for (i = 2; i <= NF; i++) if ($(i-1) == "err" && $i ~ /%$/) {
			v = $i; sub(/%/, "", v)
			if (v + 0 > max) max = v + 0
		}
	}
	END { printf "%.2f", max }')
echo "sampled_error_pct=$sampled_error"

# Convert `BenchmarkName  N  1234 ns/op  5.6 metric ...` lines to JSON.
{
	echo '{'
	echo "  \"date\": \"$(date -u +%Y-%m-%dT%H:%M:%SZ)\","
	echo "  \"benchtime\": \"$benchtime\","
	echo "  \"go\": \"$(go version | awk '{print $3}')\","
	echo "  \"service_cached_rps\": ${serve_rps},"
	echo "  \"loadgen_p50_ms\": ${loadgen_p50},"
	echo "  \"loadgen_p99_ms\": ${loadgen_p99},"
	echo "  \"loadgen_sustained_rps\": ${loadgen_sustained},"
	echo "  \"loadgen_p99_ms_at_slo\": ${loadgen_p99_slo},"
	echo "  \"cluster_sweep_rps\": ${cluster_rps},"
	echo "  \"sweep_fork_speedup\": ${fork_speedup},"
	echo "  \"series_overhead_pct\": ${series_overhead},"
	echo "  \"series_overhead_note\": \"${series_note}\","
	echo "  \"obs_overhead_pct\": ${obs_overhead},"
	echo "  \"obs_overhead_note\": \"${obs_note}\","
	echo "  \"sampled_speedup\": ${sampled_speedup},"
	echo "  \"sampled_error_pct\": ${sampled_error},"
	echo '  "benchmarks": {'
	echo "$raw" | awk '
		/^Benchmark/ {
			name = $1
			sub(/-[0-9]+$/, "", name)
			printf "%s    \"%s\": {\"iters\": %s", sep, name, $2
			for (i = 3; i + 1 <= NF; i += 2) {
				metric = $(i + 1)
				gsub(/[^A-Za-z0-9_\/@.:-]/, "_", metric)
				printf ", \"%s\": %s", metric, $i
			}
			printf "}"
			sep = ",\n"
		}
		END { print "" }
	'
	echo '  }'
	echo '}'
} > "$out"

echo "wrote $out"
