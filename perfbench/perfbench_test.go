package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"a4sim/internal/loadgen"
	"a4sim/internal/obs"
	"a4sim/internal/scenario"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {0.9, 3.7}, {1, 4}} {
		if got := quantile(xs, c.q); !near(got, c.want) {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile sorted its input in place")
	}
	// Failed requests count as +Inf: they push the tail up, never to NaN.
	if got := quantile([]float64{1, inf, inf}, 0.9); !math.IsInf(got, 1) {
		t.Errorf("tail over failures = %v, want +Inf", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("empty sample must be NaN so render rejects it")
	}
}

func TestHistQuantile(t *testing.T) {
	bs := []bucket{{le: 1, count: 2}, {le: 2, count: 6}, {le: 4, count: 2}}
	if got := histQuantile(bs, 0.5); !near(got, 1+3.0/6) {
		t.Errorf("p50 = %v, want 1.5", got)
	}
	if got := histQuantile(bs, 0.1); !near(got, 0.5) {
		t.Errorf("p10 = %v, want 0.5", got)
	}
}

func TestEndpointBucketsMergesDeltas(t *testing.T) {
	scrape := func(run1, run2, ser1 float64) promSample {
		p, err := parseProm([]byte(strings.Join([]string{
			"# TYPE a4_http_request_duration_seconds histogram",
			`a4_http_request_duration_seconds_bucket{endpoint="run",le="0.001"} ` + ftoa(run1),
			`a4_http_request_duration_seconds_bucket{endpoint="run",le="0.002"} ` + ftoa(run2),
			`a4_http_request_duration_seconds_bucket{endpoint="run",le="+Inf"} ` + ftoa(run2),
			`a4_http_request_duration_seconds_count{endpoint="run"} ` + ftoa(run2),
			`a4_http_request_duration_seconds_sum{endpoint="run"} ` + ftoa(run2*0.0015),
			`a4_http_request_duration_seconds_bucket{endpoint="series",le="0.001"} ` + ftoa(ser1),
			`a4_http_request_duration_seconds_bucket{endpoint="series",le="+Inf"} ` + ftoa(ser1),
		}, "\n")))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	before, after := scrape(1, 2, 0), scrape(3, 10, 4)
	bs := endpointBuckets(before, after, "run", "series")
	want := []bucket{{le: 1, count: 2 + 4}, {le: 2, count: 6}}
	if len(bs) != len(want) {
		t.Fatalf("buckets %v, want %v", bs, want)
	}
	for i := range want {
		if !near(bs[i].le, want[i].le) || !near(bs[i].count, want[i].count) {
			t.Fatalf("buckets %v, want %v", bs, want)
		}
	}
	n, sec := endpointSum(before, after, "run")
	if n != 8 || !near(sec, 8*0.0015) {
		t.Errorf("endpointSum = %v, %v", n, sec)
	}
}

func ftoa(v float64) string { b, _ := json.Marshal(v); return string(b) }

func TestFuncPackage(t *testing.T) {
	known := map[string]bool{"cache": true, "runtime": true, "net/http": true, "syscall": true, "crypto": true, "other": true}
	for sym, want := range map[string]string{
		"a4sim/internal/cache.(*Array).Probe":          "cache",
		"a4sim/internal/cache.lru[go.shape.int].touch": "cache",
		"runtime.mallocgc":                             "runtime",
		"net/http.(*conn).serve":                       "net/http",
		"internal/runtime/maps.(*Map).getWithKey":      "other",
		"main.runScheme":                               "other",
		"a4sim/internal/other.F":                       "other",
		"sort.Slice[a4sim/internal/cache.T]":           "other",
		"internal/runtime/syscall.Syscall6":            "syscall",
		"syscall.read":                                 "syscall",
		"crypto/internal/fips140/sha256.blockSHANI":    "crypto",
	} {
		if got := metricPackage(funcPackage(sym), known); got != want {
			t.Errorf("%s -> %s, want %s", sym, got, want)
		}
	}
}

// pb builds protobuf bytes for the profile decoder test.
type pb struct{ b []byte }

func (p *pb) varint(num int, v uint64) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3)
	p.b = binary.AppendUvarint(p.b, v)
	return p
}

func (p *pb) bytes(num int, b []byte) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
	return p
}

func TestProfileByPackage(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"a4sim/internal/cache.(*Array).Probe", "runtime.mallocgc", "main.main", "a4sim/internal/llc.(*LLC).Fill"}
	p := &pb{}
	p.bytes(1, (&pb{}).varint(1, 1).varint(2, 2).b)
	p.bytes(1, (&pb{}).varint(1, 3).varint(2, 4).b)
	// Functions 1..4 name strings 5..8.
	for i := uint64(1); i <= 4; i++ {
		p.bytes(5, (&pb{}).varint(1, i).varint(2, i+4).b)
	}
	// Location 1: llc.Fill inlined into cache.Probe: the first line is the
	// inlined leaf, so the sample is llc's. Location 2: runtime. 3: main.
	p.bytes(4, (&pb{}).varint(1, 1).bytes(4, (&pb{}).varint(1, 4).b).bytes(4, (&pb{}).varint(1, 1).b).b)
	p.bytes(4, (&pb{}).varint(1, 2).bytes(4, (&pb{}).varint(1, 2).b).b)
	p.bytes(4, (&pb{}).varint(1, 3).bytes(4, (&pb{}).varint(1, 3).b).b)
	sample := func(loc []uint64, ns uint64) []byte {
		var locs, vals []byte
		for _, l := range loc {
			locs = binary.AppendUvarint(locs, l)
		}
		vals = binary.AppendUvarint(vals, 1)
		vals = binary.AppendUvarint(vals, ns)
		return (&pb{}).bytes(1, locs).bytes(2, vals).b
	}
	p.bytes(2, sample([]uint64{1, 3}, 30e6))
	p.bytes(2, sample([]uint64{2, 1, 3}, 20e6))
	p.bytes(2, sample([]uint64{3}, 10e6))
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p.b)
	zw.Close()
	got, err := profileByPackage(gz.Bytes(), []string{"cache", "llc", "runtime", "other"})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{"cache": 0, "llc": 30 * time.Millisecond, "runtime": 20 * time.Millisecond, "other": 10 * time.Millisecond}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
	if _, err := profileByPackage(p.b[:len(p.b)-3], []string{"other"}); err == nil {
		t.Error("truncated profile decoded without error")
	}
}

func TestSelfTimesAndRemainder(t *testing.T) {
	spans := []obs.Span{
		{Name: "store_read", StartUs: 0, DurUs: 10},
		{Name: "queue_wait", StartUs: 10, DurUs: 40},
		{Name: "job", StartUs: 50, DurUs: 100},
		{Name: "warm", StartUs: 50, DurUs: 30},
		{Name: "measure", StartUs: 70, DurUs: 40}, // overlaps warm by 10
		{Name: "cache_hit", StartUs: 60},
	}
	got := selfTimes(spans)
	want := map[string]float64{"store_read": 10, "queue_wait": 40, "job": 100 - 60, "warm": 30, "measure": 40}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s self = %v, want %v", k, got[k], v)
		}
	}
	if _, ok := got["cache_hit"]; ok {
		t.Error("a zero-length mark has no self time")
	}
	// Self times of a trace whose spans tile [0,150] sum to its length,
	// so a server latency of 160 leaves a remainder of exactly 10.
	var sum float64
	for _, v := range got {
		sum += v
	}
	if sum != 160 {
		t.Errorf("self times sum to %v, want 160 (overlap counted twice)", sum)
	}
	if covered([][2]int64{{0, 5}, {3, 8}, {10, 12}}) != 10 {
		t.Error("interval union")
	}
}

func TestRenderRejectsBadMetrics(t *testing.T) {
	defs := []metricDef{{"a_ms", "ms", ""}, {"b_ms", "ms", wExec}}
	if _, err := render(defs, metricSet{"a_ms": 1}, wHPW); err != nil {
		t.Errorf("valid set rejected: %v", err)
	}
	out, _ := render(defs, metricSet{"a_ms": 1}, wHPW)
	if out["b_ms"].Value != 0 || out["b_ms"].Unit != "ms" {
		t.Error("metric of another workload must read 0 with its unit")
	}
	for name, ms := range map[string]metricSet{
		"missing":    {},
		"NaN":        {"a_ms": math.NaN()},
		"Inf":        {"a_ms": math.Inf(1)},
		"undeclared": {"a_ms": 1, "c_ms": 2},
		"foreign":    {"a_ms": 1, "b_ms": 2},
	} {
		if _, err := render(defs, ms, wHPW); err == nil {
			t.Errorf("%s metric accepted", name)
		}
	}
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, tables %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], table %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer())
	names := []string{}
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != wHPW+","+wHits+","+wExec {
		t.Errorf("workloads %v", names)
	}
}

// tinyRound runs the builtin tiny mix under every scheme.
func tinyRound(t *testing.T, workers int) ([]*scenario.Spec, []*schemeRun) {
	t.Helper()
	base, err := scenario.BuiltinMix("tiny")
	if err != nil {
		t.Fatal(err)
	}
	base.WarmupSec, base.MeasureSec = 4, 2
	specs := scenario.ManagerVariants(base, scenario.ManagerNames())
	for _, sp := range specs {
		if err := sp.Normalize(); err != nil {
			t.Fatal(err)
		}
	}
	runs, _, err := runRound(specs, workers)
	if err != nil {
		t.Fatal(err)
	}
	return specs, runs
}

func TestSteppedRunMatchesSpecRun(t *testing.T) {
	specs, serial := tinyRound(t, 1)
	_, pooled := tinyRound(t, 2)
	for i, sp := range specs {
		rep, err := sp.Run()
		if err != nil {
			t.Fatal(err)
		}
		want, _ := rep.Encode()
		if !bytes.Equal(serial[i].report, want) {
			t.Errorf("%s: stepped report differs from Spec.Run", sp.Manager)
		}
		if !bytes.Equal(pooled[i].report, serial[i].report) {
			t.Errorf("%s: report depends on the goroutine count", sp.Manager)
		}
	}
}

// corrupt flips one byte of b inside a JSON number, so the bytes still
// decode but no longer match.
func corrupt(b []byte) []byte {
	c := append([]byte(nil), b...)
	for i := len(c) - 1; i >= 0; i-- {
		if c[i] >= '1' && c[i] <= '8' {
			c[i]++
			return c
		}
	}
	panic("no digit to corrupt")
}

func TestHPWChecksFailOnOneByte(t *testing.T) {
	specs, runs := tinyRound(t, 2)
	pins := map[string]string{}
	for _, r := range runs {
		pins[r.manager] = digest(r.report)
	}
	if err := checkReports(specs, runs, pins); err != nil {
		t.Fatalf("clean round rejected: %v", err)
	}
	bad := *runs[3]
	bad.report = corrupt(bad.report)
	runs[3] = &bad
	if err := checkReports(specs, runs, pins); err == nil {
		t.Error("a corrupted report byte passed the pinned-digest check")
	}
	// A4 variants that simulated identically fail the round.
	rs := make([]*schemeRun, 4)
	for i, m := range []string{"a4-a", "a4-b", "a4-c", "a4-d"} {
		r := *runs[5]
		r.manager = m
		rs[i] = &r
	}
	if err := checkA4Distinct(rs); err == nil ||
		!strings.Contains(err.Error(), "identically") {
		t.Errorf("identical A4 variants accepted: %v", err)
	}
}

func TestServeChecksFailOnOneByte(t *testing.T) {
	base, _ := scenario.BuiltinMix("tiny")
	sp := scenario.NewFamily(base, 7).Variant(0)
	sp.Series = &scenario.SeriesSpec{}
	rep, err := sp.Run()
	if err != nil {
		t.Fatal(err)
	}
	repBytes, _ := rep.Encode()
	hash, _ := sp.Hash()
	env := func(cached bool) []byte {
		b, _ := json.Marshal(map[string]any{"cached": cached, "hash": hash, "report": json.RawMessage(repBytes)})
		return b
	}
	// /run and /extend responses.
	if _, err := checkEnvelope(env(false), sp); err != nil {
		t.Fatalf("clean envelope rejected: %v", err)
	}
	// One corrupted byte in either copy of the hash, or in the JSON.
	clean := env(false)
	for _, at := range []int{bytes.Index(clean, []byte(hash)), bytes.LastIndex(clean, []byte(hash)), 0} {
		bad := append([]byte(nil), clean...)
		bad[at] ^= 1
		if _, err := checkEnvelope(bad, sp); err == nil {
			t.Errorf("envelope corrupted at byte %d accepted", at)
		}
	}
	// Cached reads.
	executed := map[string]json.RawMessage{hash: repBytes}
	run := request{http.MethodPost, "/run", nil}
	if err := checkHitBody(run, env(true), executed); err != nil {
		t.Fatalf("clean hit rejected: %v", err)
	}
	if err := checkHitBody(run, corrupt(env(true)), executed); err == nil {
		t.Error("corrupted hit accepted")
	}
	ser := request{http.MethodGet, "/series/" + hash, nil}
	series, _ := rep.Series.Encode()
	if err := checkHitBody(ser, series, executed); err != nil {
		t.Fatalf("clean series read rejected: %v", err)
	}
	if err := checkHitBody(ser, corrupt(series), executed); err == nil {
		t.Error("corrupted series read accepted")
	}
	// Extend against a from-scratch run.
	if err := checkExtendFresh(sp, repBytes); err != nil {
		t.Fatalf("clean extend rejected: %v", err)
	}
	if err := checkExtendFresh(sp, corrupt(repBytes)); err == nil {
		t.Error("corrupted extend accepted")
	}
	// Sweeps.
	seeds := []float64{11, 12}
	var pts []map[string]any
	for _, s := range seeds {
		p := sp.Clone()
		p.Params.Seed = uint64(s)
		h, _ := p.Hash()
		pts = append(pts, map[string]any{"hash": h, "report": map[string]any{"hash": h, "manager": "a4-d", "seconds": 1, "workloads": []any{}}})
	}
	sw, _ := json.Marshal(map[string]any{"points": pts})
	if err := checkSweep(sw, sp, seeds); err != nil {
		t.Fatalf("clean sweep rejected: %v", err)
	}
	if err := checkSweep(bytes.Replace(sw, []byte(`"hash":"`), []byte(`"hash":"0`), 1), sp, seeds); err == nil {
		t.Error("sweep with a corrupted hash accepted")
	}
}

// TestLoopsCountCorruptBodiesAsFailed serves the expected bytes except for
// one corrupted response and checks both dispatchers flag exactly it.
func TestLoopsCountCorruptBodiesAsFailed(t *testing.T) {
	good := []byte(`{"cached":true,"hash":"ab","report":{"x":1}}`)
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 3 {
			w.Write(corrupt(good))
			return
		}
		w.Write(good)
	}))
	defer srv.Close()
	r := request{http.MethodGet, "/series/ab", nil}
	want := map[string][]byte{r.key(): good}
	var evs []loadgen.Event
	for i := 0; i < 5; i++ {
		evs = append(evs, loadgen.Event{AtUs: int64(i * 100), Method: r.method, Path: r.path})
	}
	out := openLoop(srv.URL, newClients(1), evs, want)
	failed := 0
	for _, s := range out {
		if !s.ok {
			failed++
		}
	}
	if failed != 1 {
		t.Errorf("open loop flagged %d failures, want 1", failed)
	}
	n.Store(0)
	cl := closedLoop(srv.URL, newClients(1), []request{r}, want, time.Now().Add(50*time.Millisecond))
	if len(cl) < 3 || cl[2].ok || !cl[0].ok {
		t.Errorf("closed loop did not flag the corrupted response: %d samples", len(cl))
	}
}
