package main

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"a4sim/internal/obs"
	"a4sim/internal/scenario"
	"a4sim/internal/service"
)

// serve-exec: a closed loop of nproc clients, each POSTing a never-seen
// variant of the builtin tiny mix to /run, then /extend on its hash, and
// every sweepEvery-th iteration a two-point fresh-prefix /sweep. Nothing is
// cache-served, so every request executes.
const (
	execExtendSec = 2
	sweepEvery    = 4
	// execWindows splits the loop; wall.ops_per_s is the windows' median.
	execWindows = 5
)

// tracedSpans are the daemon's serving spans; their self times plus the
// unattributed remainder sum to the server-side latency.
var tracedSpans = []string{"queue_wait", "warm", "measure", "snapshot_fork", "store_read", "store_write", "dedup_wait"}

// execWork is one client's record.
type execWork struct {
	runMs, extendMs, sweepMs []float64
	execDone                 []time.Time // one entry per execution completed
	runs, extends, sweeps    int
	failed                   int
	spanUs                   map[string]float64 // self time by span name
	traced                   int                // requests whose traces were read
	runBodies                [][]byte
	firstRun                 *scenario.Spec
	firstExtend              []byte
	err                      error
}

// checkEnvelope verifies a /run or /extend response: a fresh execution
// whose envelope and report both carry the spec's content hash.
func checkEnvelope(body []byte, sp *scenario.Spec) ([]byte, error) {
	env, err := decodeEnvelope(body)
	if err != nil {
		return nil, err
	}
	want, err := sp.Hash()
	if err != nil {
		return nil, err
	}
	rep, err := scenario.DecodeReport(env.Report)
	if err != nil {
		return nil, err
	}
	if env.Hash != want || rep.Hash != want {
		return nil, fmt.Errorf("response for %.12s carries hash %.12s / report hash %.12s", want, env.Hash, rep.Hash)
	}
	if env.Cached {
		return nil, fmt.Errorf("response for never-seen spec %.12s was cache-served", want)
	}
	return env.Report, nil
}

// checkSweep verifies a /sweep response point by point against the specs
// the grid expands to.
func checkSweep(body []byte, base *scenario.Spec, seeds []float64) error {
	var out struct {
		Points []struct {
			Hash   string          `json:"hash"`
			Report json.RawMessage `json:"report"`
		} `json:"points"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return fmt.Errorf("decode sweep: %w", err)
	}
	if len(out.Points) != len(seeds) {
		return fmt.Errorf("sweep returned %d points, want %d", len(out.Points), len(seeds))
	}
	for i, p := range out.Points {
		sp := base.Clone()
		sp.Params.Seed = uint64(seeds[i])
		want, err := sp.Hash()
		if err != nil {
			return err
		}
		rep, err := scenario.DecodeReport(p.Report)
		if err != nil {
			return err
		}
		if p.Hash != want || rep.Hash != want {
			return fmt.Errorf("sweep point %d carries hash %.12s, want %.12s", i, p.Hash, want)
		}
	}
	return nil
}

// execClient runs one closed-loop client until stop.
func execClient(cfg runConfig, d *daemon, c *http.Client, fam *scenario.Family, id int, stop time.Time) *execWork {
	w := &execWork{spanUs: map[string]float64{}}
	post := func(kind, path string, body []byte, traceID string) (time.Duration, []byte, error) {
		hdr := map[string]string{}
		if traceID != "" {
			hdr[obs.TraceHeader] = traceID
		}
		t := time.Now()
		status, resp, err := do(c, d.url, request{http.MethodPost, path, body}, hdr)
		el := time.Since(t)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("%s: %d %s", kind, status, resp)
		}
		if err == nil && traceID != "" {
			err = w.readTrace(c, d, traceID)
		}
		return el, resp, err
	}
	for i := 0; time.Now().Before(stop); i++ {
		k := uint64(id) + uint64(cfg.workers)*uint64(i)
		sp := fam.Variant(k)
		body, err := json.Marshal(sp)
		if err != nil {
			w.err = err
			return w
		}
		tid := ""
		if cfg.trace {
			tid = fmt.Sprintf("pb-%d-%d-run", id, i)
		}
		el, resp, err := post("run", "/run", body, tid)
		w.runs++
		if err == nil {
			_, err = checkEnvelope(resp, sp)
		}
		if err != nil {
			w.failed++
			w.err = err
			return w
		}
		w.runMs = append(w.runMs, ms(el))
		w.execDone = append(w.execDone, time.Now())
		w.runBodies = append(w.runBodies, body)
		hash, _ := sp.Hash()

		ext := sp.Clone()
		ext.MeasureSec = execExtendSec
		eb, err := json.Marshal(service.ExtendRequest{Hash: hash, MeasureSec: execExtendSec})
		if err != nil {
			w.err = err
			return w
		}
		if cfg.trace {
			tid = fmt.Sprintf("pb-%d-%d-extend", id, i)
		}
		el, resp, err = post("extend", "/extend", eb, tid)
		w.extends++
		var rep []byte
		if err == nil {
			rep, err = checkEnvelope(resp, ext)
		}
		if err != nil {
			w.failed++
			w.err = err
			return w
		}
		w.extendMs = append(w.extendMs, ms(el))
		w.execDone = append(w.execDone, time.Now())
		if w.firstRun == nil {
			w.firstRun, w.firstExtend = ext, rep
		}

		if i%sweepEvery == sweepEvery-1 {
			j := uint64(1)<<32 + uint64(id) + uint64(cfg.workers)*uint64(i)
			seeds := []float64{float64(fam.VariantSeed(2*j) % 1e9), float64(fam.VariantSeed(2*j+1) % 1e9)}
			base := fam.Variant(j)
			sb, err := json.Marshal(service.SweepRequest{Spec: *base, Axes: []service.Axis{{Param: "seed", Values: seeds}}})
			if err != nil {
				w.err = err
				return w
			}
			el, resp, err := post("sweep", "/sweep", sb, "")
			w.sweeps++
			if err == nil {
				err = checkSweep(resp, base, seeds)
			}
			if err != nil {
				w.failed++
				w.err = err
				return w
			}
			w.sweepMs = append(w.sweepMs, ms(el))
			w.execDone = append(w.execDone, time.Now(), time.Now())
		}
	}
	return w
}

// readTrace fetches a finished request's trace and adds its spans' self
// times.
func (w *execWork) readTrace(c *http.Client, d *daemon, id string) error {
	status, body, err := do(c, d.url, request{http.MethodGet, "/trace/" + id, nil}, nil)
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("trace %s: %d %v", id, status, err)
	}
	_, spans, err := obs.DecodeTrace(body)
	if err != nil {
		return err
	}
	for name, us := range selfTimes(spans) {
		w.spanUs[name] += us
	}
	w.traced++
	return nil
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}

func runExec(cfg runConfig) (metricSet, tally, error) {
	var tl tally
	tiny, err := scenario.BuiltinMix("tiny")
	if err != nil {
		return nil, tl, err
	}
	fam := scenario.NewFamily(tiny, cfg.seed)
	var extra []string
	if cfg.trace {
		extra = []string{"-pprof"}
	}
	var setups []float64
	var d *daemon
	for rep := 0; rep < setupReps; rep++ {
		t := time.Now()
		nd, err := startDaemon(cfg, extra...)
		if err != nil {
			return nil, tl, err
		}
		setups = append(setups, time.Since(t).Seconds())
		if d != nil {
			d.stop()
		}
		d = nd
	}
	defer d.stop()

	st0, err := d.stats()
	if err != nil {
		return nil, tl, err
	}
	before, err := d.metrics()
	if err != nil {
		return nil, tl, err
	}
	cpu0, err := cpuTime(d.pid())
	if err != nil {
		return nil, tl, err
	}
	clients := newClients(cfg.workers)
	var prof []byte
	var profErr error
	var profWG sync.WaitGroup
	profSec := int(math.Max(1, cfg.seconds.Seconds()-1))
	if cfg.trace {
		// The profile request rides its own connection; it is idle while
		// the daemon samples.
		profWG.Add(1)
		go func() {
			defer profWG.Done()
			prof, profErr = d.get("/debug/pprof/profile?seconds=" + strconv.Itoa(profSec))
		}()
	}
	start := time.Now()
	stop := start.Add(cfg.seconds)
	works := make([]*execWork, cfg.workers)
	var wg sync.WaitGroup
	for i := range works {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			works[i] = execClient(cfg, d, clients[i], fam, i, stop)
		}(i)
	}
	wg.Wait()
	profWG.Wait()
	cpu1, err := cpuTime(d.pid())
	if err != nil {
		return nil, tl, err
	}
	st1, err := d.stats()
	if err != nil {
		return nil, tl, err
	}
	after, err := d.metrics()
	if err != nil {
		return nil, tl, err
	}
	storeBytes, err := dirBytes(d.store)
	if err != nil {
		return nil, tl, err
	}
	rss, err := peakRSSMB(strconv.Itoa(d.pid()))
	if err != nil {
		return nil, tl, err
	}

	var all execWork
	all.spanUs = map[string]float64{}
	for _, w := range works {
		tl.attempted += int64(w.runs + w.extends + w.sweeps)
		tl.failed += int64(w.failed)
		if w.err != nil {
			return nil, tl, w.err
		}
		all.runMs = append(all.runMs, w.runMs...)
		all.execDone = append(all.execDone, w.execDone...)
		all.extendMs = append(all.extendMs, w.extendMs...)
		all.sweepMs = append(all.sweepMs, w.sweepMs...)
		all.extends += w.extends
		all.traced += w.traced
		all.runBodies = append(all.runBodies, w.runBodies...)
		for k, v := range w.spanUs {
			all.spanUs[k] += v
		}
	}
	// One /extend per run must equal a from-scratch run of the extended
	// spec: forking warm state is only an optimisation.
	if err := checkExtendFresh(works[0].firstRun, works[0].firstExtend); err != nil {
		return nil, tl, err
	}
	execs := float64(st1.Executions - st0.Executions)
	if int(execs) != len(all.execDone) {
		return nil, tl, fmt.Errorf("daemon counted %g executions, clients %d", execs, len(all.execDone))
	}
	// Throughput is the median over equal windows, so a burst of host
	// contention moves one window, not the result. A window's rate spans
	// its first to its last completion, so it is not quantised by the
	// window length.
	sort.Slice(all.execDone, func(i, j int) bool { return all.execDone[i].Before(all.execDone[j]) })
	var winRate []float64
	win := cfg.seconds / execWindows
	for k := 0; k < execWindows; k++ {
		lo, hi := start.Add(win*time.Duration(k)), start.Add(win*time.Duration(k+1))
		var in []time.Time
		for _, t := range all.execDone {
			if !t.Before(lo) && t.Before(hi) {
				in = append(in, t)
			}
		}
		if len(in) >= 2 {
			winRate = append(winRate, float64(len(in)-1)/in[len(in)-1].Sub(in[0]).Seconds())
		}
	}
	fmt.Fprintf(os.Stderr, "  executions per second by window: %.1f\n", winRate)
	m := metricSet{
		"setup_s":       median(setups),
		"peak_rss_mb":   rss,
		"cpu_ms_per_op": ms(cpu1-cpu0) / execs,
	}
	wall := metricSet{
		"wall.op_p50_ms": median(all.runMs),
		"wall.op_p90_ms": quantile(all.runMs, 0.9),
		"wall.ops_per_s": median(winRate),
	}
	if !cfg.trace {
		printWall(wall)
		return m, tl, nil
	}
	if profErr != nil {
		return nil, tl, profErr
	}

	lm := tracedSet(m, wall)
	n, srvSec := endpointSum(before, after, "run", "extend")
	if n != float64(all.traced) {
		return nil, tl, fmt.Errorf("read %d traces for %g traced requests", all.traced, n)
	}
	srvMs := srvSec * 1000 / n
	lm["http.server_mean_ms"] = srvMs
	attributed := 0.0
	for _, name := range tracedSpans {
		v := all.spanUs[name] / 1000 / n
		lm["service."+name+"_ms"] = v
		attributed += v
	}
	lm["service.unattributed_ms"] = srvMs - attributed
	lm["exec.extend_p50_ms"] = median(all.extendMs)
	lm["exec.sweep_p50_ms"] = median(all.sweepMs)
	lm["store.bytes_per_exec"] = float64(storeBytes) / execs
	lm["service.fork_frac"] = float64(st1.SnapshotForks-st0.SnapshotForks) / float64(all.extends)
	lm["serve.cpu_us_per_exec"] = float64((cpu1 - cpu0).Microseconds()) / execs
	byPkg, err := profileByPackage(prof, profiledPkgs())
	if err != nil {
		return nil, tl, err
	}
	// The profile covers profSec of the window; charge it per execution at
	// the window's execution rate.
	for pkg, dur := range byPkg {
		lm[cpuMetricName(pkg)] = ms(dur) / (float64(profSec) * wall["wall.ops_per_s"])
	}
	var parse []float64
	for _, b := range all.runBodies {
		t := time.Now()
		sp, err := scenario.Parse(b)
		if err == nil {
			_, err = sp.Hash()
		}
		if err != nil {
			return nil, tl, err
		}
		parse = append(parse, float64(time.Since(t).Nanoseconds())/1e3)
	}
	lm["scenario.parse_hash_us"] = median(parse)
	encMs, snapBytes, err := snapshotEncode(fam.Variant(1 << 40))
	if err != nil {
		return nil, tl, err
	}
	lm["harness.snapshot_encode_ms"] = encMs
	lm["harness.snapshot_bytes"] = snapBytes
	return lm, tl, nil
}

// checkExtendFresh compares an /extend report with Spec.Run of the same
// extended spec.
func checkExtendFresh(ext *scenario.Spec, served []byte) error {
	if ext == nil {
		return fmt.Errorf("no /extend completed")
	}
	rep, err := ext.Run()
	if err != nil {
		return err
	}
	fresh, err := rep.Encode()
	if err != nil {
		return err
	}
	if string(fresh) != string(served) {
		return fmt.Errorf("/extend report for %.12s differs from a from-scratch run", rep.Hash)
	}
	return nil
}

// snapshotEncode measures the warm-snapshot encode a /run with a store
// pays: the median of three encodes of one executed tiny variant.
func snapshotEncode(sp *scenario.Spec) (float64, float64, error) {
	sc, err := sp.Start()
	if err != nil {
		return 0, 0, err
	}
	sc.Warm(sp.WarmupSec)
	sc.BeginMeasure()
	sc.Measure(sp.MeasureSec)
	snap := sc.Snapshot()
	var times []float64
	var size int
	for i := 0; i < 3; i++ {
		t := time.Now()
		b, err := snap.Encode()
		if err != nil {
			return 0, 0, err
		}
		times = append(times, ms(time.Since(t)))
		size = len(b)
	}
	return median(times), float64(size), nil
}
