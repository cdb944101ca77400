package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// metricDef names one reported metric and its unit. The tables below are
// the single source of truth for names and units: BENCHMARK.json must list
// the same names (TestBenchmarkJSONMatchesTables pins this), and a run that
// leaves one unset, or sets it to NaN or ±Inf, fails instead of printing.
type metricDef struct {
	name string
	unit string
	// owner is the workload that measures the metric; "" means every
	// workload does. Other workloads report it as 0: layer not exercised.
	owner string
}

const (
	wHPW  = "hpw-schemes"
	wHits = "serve-hits"
	wExec = "serve-exec"
)

// endToEnd are the metrics every untraced run reports; README.md defines
// each per workload. They are costs a user pays that CPU steal on a shared
// host does not move: wall-clock latency and throughput moved by up to
// 2.3x with steal between runs minutes apart, so they are reported per
// layer (wall.*) and printed on stderr, not gated.
var endToEnd = []metricDef{
	{"setup_s", "s", ""},
	{"peak_rss_mb", "MB", ""},
	{"cpu_ms_per_op", "ms", ""},
}

// printWall records an untraced run's wall-clock numbers on stderr.
func printWall(wall metricSet) {
	fmt.Fprintf(os.Stderr, "  wall: op_p50 %.4g ms, op_p90 %.4g ms, %.4g ops/s\n",
		wall["wall.op_p50_ms"], wall["wall.op_p90_ms"], wall["wall.ops_per_s"])
}

// tracedSet starts a traced run's per-layer set: the wall-clock numbers and
// the end-to-end CPU cost as the traced run saw them (minus the untraced
// median, the tracing overhead).
func tracedSet(m, wall metricSet) metricSet {
	lm := metricSet{"traced.cpu_ms_per_op": m["cpu_ms_per_op"]}
	for k, v := range wall {
		lm[k] = v
	}
	return lm
}

// simPkgs are the simulator packages whose CPU self time the traced
// hpw-schemes run attributes; servePkgs are added for the daemon profile.
// The simulator list ends with pcm (the counter fabric) and math (Zipf
// draws), which together held most of an "other" row otherwise.
var simPkgs = []string{"sim", "hierarchy", "cache", "llc", "mlc", "directory", "mem", "pcie", "nic", "ssd", "workload", "core", "harness", "stats", "pcm", "math"}

// The serving list ends with the kernel crossing (syscall, including the
// runtime's internal syscall package) and crypto (the store's sha256).
var servePkgs = []string{"service", "scenario", "store", "codec", "obs", "net/http", "encoding/json", "syscall", "crypto"}

// profiledPkgs lists every package with a <pkg>.cpu_ms metric; runtime and
// other (the remainder) close the table so the rows sum to the profile.
func profiledPkgs() []string {
	out := append(append([]string{}, simPkgs...), servePkgs...)
	return append(out, "runtime", "other")
}

// cpuMetricName maps a package to its metric name ("net/http" ->
// "net_http.cpu_ms").
func cpuMetricName(pkg string) string {
	b := []byte(pkg)
	for i, c := range b {
		if c == '/' {
			b[i] = '_'
		}
	}
	return string(b) + ".cpu_ms"
}

// perLayer are the traced run's metrics. Every workload reports every row;
// a layer the workload does not exercise reads 0 (README.md has the
// layer -> end-to-end map).
func perLayer() []metricDef {
	defs := []metricDef{
		// hpw-schemes: harness/scenario call timing per simulated second.
		{"scenario.start_ms", "ms/simsec", wHPW},
		{"harness.warm_ms", "ms/simsec", wHPW},
		{"harness.measure_ms", "ms/simsec", wHPW},
		{"harness.end_measure_ms", "ms/simsec", wHPW},
		{"scenario.report_encode_ms", "ms/simsec", wHPW},
		{"sim.host_ns_per_access", "ns", wHPW},
		// hpw-schemes: simulated work per simulated second (deterministic).
		{"mlc.accesses", "count/simsec", wHPW},
		{"mlc.hit_frac", "frac", wHPW},
		{"llc.accesses", "count/simsec", wHPW},
		{"llc.hit_frac", "frac", wHPW},
		{"dca.writes", "count/simsec", wHPW},
		{"dca.alloc_frac", "frac", wHPW},
		{"llc.dma_leaks", "count/simsec", wHPW},
		{"llc.dma_bloats", "count/simsec", wHPW},
		{"directory.evictions", "count/simsec", wHPW},
		{"mem.reads", "count/simsec", wHPW},
		{"workload.instructions", "count/simsec", wHPW},
		{"io.bytes", "B/simsec", wHPW},
		// serve-hits: read path.
		{"service.hit_us", "us", wHits},
		{"http.server_p50_ms", "ms", wHits},
		{"http.client_residual_ms", "ms", wHits},
		{"service.cache_hit_frac", "frac", wHits},
		{"serve.cpu_us_per_req", "us", wHits},
		{"loadgen.send_lag_p99_ms", "ms", wHits},
		{"loadgen.slo_frac", "frac", wHits},
		// serve-exec: span self time per request, plus the remainder.
		{"service.queue_wait_ms", "ms", wExec},
		{"service.warm_ms", "ms", wExec},
		{"service.measure_ms", "ms", wExec},
		{"service.snapshot_fork_ms", "ms", wExec},
		{"service.store_read_ms", "ms", wExec},
		{"service.store_write_ms", "ms", wExec},
		{"service.dedup_wait_ms", "ms", wExec},
		{"service.unattributed_ms", "ms", wExec},
		{"http.server_mean_ms", "ms", wExec},
		{"scenario.parse_hash_us", "us", wExec},
		{"harness.snapshot_encode_ms", "ms", wExec},
		{"harness.snapshot_bytes", "B", wExec},
		{"store.bytes_per_exec", "B", wExec},
		{"service.fork_frac", "frac", wExec},
		{"serve.cpu_us_per_exec", "us", wExec},
		{"exec.extend_p50_ms", "ms", wExec},
		{"exec.sweep_p50_ms", "ms", wExec},
		// Every workload: wall-clock latency and throughput of its op, and
		// the end-to-end CPU cost as the traced run saw it.
		{"wall.op_p50_ms", "ms", ""},
		{"wall.op_p90_ms", "ms", ""},
		{"wall.ops_per_s", "1/s", ""},
		{"traced.cpu_ms_per_op", "ms", ""},
	}
	for _, p := range profiledPkgs() {
		defs = append(defs, metricDef{cpuMetricName(p), "ms/op", ""})
	}
	return defs
}

// metricSet collects one run's values.
type metricSet map[string]float64

// output is the benchmark's last stdout line.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// render validates ms against defs for workload w and builds the output
// metrics: every metric w owns must be present and finite, every other one
// must be absent (it is reported as 0), and no undefined name may appear.
func render(defs []metricDef, ms metricSet, w string) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := ms[d.name]
		if d.owner != "" && d.owner != w {
			if ok {
				return nil, fmt.Errorf("metric %s belongs to %s, not %s", d.name, d.owner, w)
			}
			out[d.name] = metricValue{Value: 0, Unit: d.unit}
			continue
		}
		if !ok {
			return nil, fmt.Errorf("metric %s missing", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for name := range ms {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is not declared", name)
		}
	}
	return out, nil
}

// printTable writes every metric by name with its unit to stderr, sorted,
// so a human run shows what the JSON line carries.
func printTable(m map[string]metricValue) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-28s %16.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

func (o *output) encode() ([]byte, error) { return json.Marshal(o) }
