package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"a4sim/internal/loadgen"
	"a4sim/internal/scenario"
	"a4sim/internal/service"
)

// serve-hits: cached reads against a primed daemon. Only the cached-hit
// and series-read classes run, 65:15 as in loadgen.DefaultMix, so no
// simulation happens in the measuring window.
var hitMix = map[string]float64{loadgen.ClassCached: 0.65, loadgen.ClassSeries: 0.15}

const (
	// hitLimitMs is the latency limit loadgen.slo_frac is taken against.
	hitLimitMs = 2.0
	// hitLagBoundMs bounds the median send lag of a valid open-loop phase:
	// beyond it the generator did not offer its rate. It bounds the median,
	// not the p99, because an idle vCPU of a 2-vCPU VM wakes from a sleep
	// 1 ms late at the median and 7 ms late at the p99 (measured with
	// time.Sleep alone), which no generator can schedule around.
	hitLagBoundMs = 5.0
	// Open-loop fixed rates, both well below the closed-loop capacity
	// (4000 to 10000 reads/s on a 2-vCPU Xeon VM, with host contention).
	hitLowRate   = 200
	hitUpperRate = 800
	// hitWindows splits the closed loop; its metrics are window medians.
	hitWindows = 8
)

// hitPlan renders one phase's events from the seed; phases get distinct
// seed streams.
func hitPlan(seed uint64, stream uint64, rate, sec float64) (*loadgen.Plan, error) {
	return loadgen.BuildPlan(loadgen.Config{
		Seed:     seed*1000 + stream,
		Rate:     rate,
		Duration: time.Duration(sec * float64(time.Second)),
		Arrival:  loadgen.ArrivalPoisson,
		Mix:      hitMix,
	})
}

// primeHits executes the priming requests (the popular /run bodies and the
// series spec) one at a time, so the daemon's memory high-water mark does
// not depend on how two executions happened to overlap, and returns the
// exact response bytes every later read of each request must carry. It
// checks that each cached /run envelope holds the executed report and that
// each series read matches its report.
func primeHits(d *daemon, c *http.Client, prime []loadgen.Event, events []loadgen.Event) (map[string][]byte, error) {
	executed := map[string]json.RawMessage{} // hash -> report
	for _, ev := range prime {
		status, body, err := do(c, d.url, request{ev.Method, ev.Path, ev.Body}, nil)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("priming %s: %d %s", ev.Path, status, body)
		}
		var env envelope
		if err == nil {
			env, err = decodeEnvelope(body)
		}
		if err != nil {
			return nil, err
		}
		executed[env.Hash] = env.Report
	}
	want := map[string][]byte{}
	for _, ev := range events {
		r := request{ev.Method, ev.Path, ev.Body}
		if _, ok := want[r.key()]; ok {
			continue
		}
		status, body, err := do(c, d.url, r, nil)
		if err != nil || status != http.StatusOK {
			return nil, fmt.Errorf("warm read %s: %d %v", r.path, status, err)
		}
		if err := checkHitBody(r, body, executed); err != nil {
			return nil, err
		}
		want[r.key()] = body
	}
	return want, nil
}

// envelope is a /run or /extend response body.
type envelope struct {
	Cached bool            `json:"cached"`
	Hash   string          `json:"hash"`
	Report json.RawMessage `json:"report"`
}

func decodeEnvelope(b []byte) (envelope, error) {
	var e envelope
	if err := json.Unmarshal(b, &e); err != nil {
		return e, fmt.Errorf("decode envelope: %w", err)
	}
	if e.Hash == "" || len(e.Report) == 0 {
		return e, fmt.Errorf("envelope without hash or report")
	}
	return e, nil
}

// checkHitBody verifies a cached read against the executed reports: a
// /run hit must be a cached envelope carrying the executed report bytes,
// a series read must equal the series embedded in the executed report.
func checkHitBody(r request, body []byte, executed map[string]json.RawMessage) error {
	if r.method == http.MethodPost {
		env, err := decodeEnvelope(body)
		if err != nil {
			return err
		}
		if !env.Cached || string(env.Report) != string(executed[env.Hash]) {
			return fmt.Errorf("cached /run for %.12s does not carry the executed report", env.Hash)
		}
		return nil
	}
	hash := r.path[len("/series/"):]
	var rep struct {
		Series json.RawMessage `json:"series"`
	}
	if err := json.Unmarshal(executed[hash], &rep); err != nil {
		return err
	}
	if len(rep.Series) == 0 || string(rep.Series) != string(body) {
		return fmt.Errorf("series read for %.12s does not match its report", hash)
	}
	return nil
}

// runHits measures in three phases: open loop at the low and the upper
// fixed rate (latency from the scheduled send, send lag, limit share),
// then a closed loop of nproc clients, whose read latency and throughput
// are the end-to-end metrics. Open-loop tails on a small VM are set by
// vCPU wake-up, not by the serving path: the p90 at 800/s read 2.9 ms and
// 9.3 ms in two runs minutes apart, so they are reported per layer only.
func runHits(cfg runConfig) (metricSet, tally, error) {
	var tl tally
	secs := cfg.seconds.Seconds()
	lowSec, upperSec, closedSec := 0.15*secs, 0.25*secs, 0.6*secs
	low, err := hitPlan(cfg.seed, 1, hitLowRate, lowSec)
	if err != nil {
		return nil, tl, err
	}
	upper, err := hitPlan(cfg.seed, 2, hitUpperRate, upperSec)
	if err != nil {
		return nil, tl, err
	}
	// The closed loop cycles through a seeded sequence of the same mix.
	closedPlan, err := hitPlan(cfg.seed, 3, 4000, 2)
	if err != nil {
		return nil, tl, err
	}
	var closedReqs []request
	for _, ev := range closedPlan.Events {
		closedReqs = append(closedReqs, request{ev.Method, ev.Path, ev.Body})
	}
	var extra []string
	if cfg.trace {
		extra = []string{"-pprof"}
	}
	clients := newClients(cfg.workers)

	// Set-up, three times: fresh daemon, priming executions, warm reads.
	var setups []float64
	var d *daemon
	var want map[string][]byte
	var warmEvents []loadgen.Event
	for _, p := range []*loadgen.Plan{low, upper, closedPlan} {
		warmEvents = append(warmEvents, p.Events...)
	}
	for rep := 0; rep < 3; rep++ {
		t := time.Now()
		nd, err := startDaemon(cfg, extra...)
		if err != nil {
			return nil, tl, err
		}
		w, err := primeHits(nd, clients[0], low.Priming, warmEvents)
		if err != nil {
			nd.stop()
			return nil, tl, err
		}
		setups = append(setups, time.Since(t).Seconds())
		if d != nil {
			d.stop()
		}
		d, want = nd, w
	}
	defer d.stop()

	lowP := &phase{name: "low", rate: hitLowRate, samples: openLoop(d.url, clients, low.Events, want)}
	upperP := &phase{name: "upper", rate: hitUpperRate, samples: openLoop(d.url, clients, upper.Events, want)}

	// The traced run scrapes the daemon around the closed loop and
	// profiles it during it.
	var before, after promSample
	var st0, st1 service.Stats
	var prof []byte
	var profErr error
	var profWG sync.WaitGroup
	profSec := math.Max(1, math.Floor(closedSec-0.5))
	if cfg.trace {
		if before, err = d.metrics(); err != nil {
			return nil, tl, err
		}
		if st0, err = d.stats(); err != nil {
			return nil, tl, err
		}
		profWG.Add(1)
		go func() {
			defer profWG.Done()
			prof, profErr = d.get("/debug/pprof/profile?seconds=" + strconv.Itoa(int(profSec)))
		}()
	}
	// The closed loop runs as hitWindows back-to-back segments and its
	// numbers are medians over them, so a burst of host contention moves
	// one segment, not the result.
	var closedP phase
	var winRate, winP50, winP90, winCPU []float64
	segD := time.Duration(closedSec / hitWindows * float64(time.Second))
	for k := 0; k < hitWindows; k++ {
		cpuA, err := cpuTime(d.pid())
		if err != nil {
			return nil, tl, err
		}
		t := time.Now()
		seg := phase{samples: closedLoop(d.url, clients, closedReqs, want, t.Add(segD))}
		el := time.Since(t).Seconds()
		cpuB, err := cpuTime(d.pid())
		if err != nil {
			return nil, tl, err
		}
		winRate = append(winRate, float64(seg.sent())/el)
		winP50 = append(winP50, quantile(seg.latencies(), 0.5))
		winP90 = append(winP90, quantile(seg.latencies(), 0.9))
		winCPU = append(winCPU, ms(cpuB-cpuA)/float64(seg.sent()))
		closedP.samples = append(closedP.samples, seg.samples...)
	}
	closedP.name, closedP.rate = "closed", median(winRate)
	fmt.Fprintf(os.Stderr, "  closed-loop windows: rate %.0f p50 %.3f p90 %.3f cpu %.4f\n", winRate, winP50, winP90, winCPU)
	if cfg.trace {
		profWG.Wait()
		if profErr != nil {
			return nil, tl, profErr
		}
		if after, err = d.metrics(); err != nil {
			return nil, tl, err
		}
		if st1, err = d.stats(); err != nil {
			return nil, tl, err
		}
	}
	rss, err := peakRSSMB(strconv.Itoa(d.pid()))
	if err != nil {
		return nil, tl, err
	}

	for _, p := range []*phase{lowP, upperP, &closedP} {
		p.report()
		tl.attempted += int64(p.sent())
		tl.failed += int64(p.sent() - p.succeeded())
	}
	for _, p := range []*phase{lowP, upperP} {
		if lag := median(p.lags()); lag > hitLagBoundMs {
			return nil, tl, fmt.Errorf("phase %s invalid: median send lag %.3f ms exceeds %.1f ms", p.name, lag, hitLagBoundMs)
		}
	}
	m := metricSet{
		"setup_s":       median(setups),
		"peak_rss_mb":   rss,
		"cpu_ms_per_op": median(winCPU),
	}
	wall := metricSet{
		"wall.op_p50_ms": median(winP50),
		"wall.op_p90_ms": median(winP90),
		"wall.ops_per_s": median(winRate),
	}
	if !cfg.trace {
		printWall(wall)
		return m, tl, nil
	}

	lm := tracedSet(m, wall)
	srv := histQuantile(endpointBuckets(before, after, "run", "series"), 0.5)
	lm["http.server_p50_ms"] = srv
	lm["http.client_residual_ms"] = wall["wall.op_p50_ms"] - srv
	hits := float64(st1.Hits - st0.Hits)
	lm["service.cache_hit_frac"] = hits / (hits + float64(st1.Misses-st0.Misses))
	lm["serve.cpu_us_per_req"] = m["cpu_ms_per_op"] * 1000
	lm["loadgen.send_lag_p99_ms"] = quantile(upperP.lags(), 0.99)
	lm["loadgen.slo_frac"] = upperP.withinFrac(hitLimitMs)
	byPkg, err := profileByPackage(prof, profiledPkgs())
	if err != nil {
		return nil, tl, err
	}
	// The profile spans most of the closed loop; charge it per read at the
	// loop's rate.
	for pkg, dur := range byPkg {
		lm[cpuMetricName(pkg)] = ms(dur) / (profSec * closedP.rate)
	}
	hitUs, err := inProcessHitUs(low.Priming, closedPlan.Events)
	if err != nil {
		return nil, tl, err
	}
	lm["service.hit_us"] = hitUs
	return lm, tl, nil
}

// inProcessHitUs serves the closed loop's reads from an in-process
// service, without HTTP, and returns the median call time in µs: the
// service layer's share of a cached read.
func inProcessHitUs(prime, events []loadgen.Event) (float64, error) {
	svc := service.New(service.Config{Workers: 1})
	defer svc.Close()
	for _, ev := range prime {
		sp, err := scenario.Parse(ev.Body)
		if err != nil {
			return 0, err
		}
		res, err := svc.Submit(sp)
		if err != nil {
			return 0, err
		}
		svc.RememberBody(ev.Body, res.Hash)
	}
	var us []float64
	for _, ev := range events {
		t := time.Now()
		var ok bool
		if ev.Method == http.MethodPost {
			_, ok = svc.RunCachedBody(ev.Body, nil)
		} else {
			_, ok = svc.Series(ev.Path[len("/series/"):])
		}
		us = append(us, float64(time.Since(t).Nanoseconds())/1e3)
		if !ok {
			return 0, fmt.Errorf("in-process read %s %s missed", ev.Method, ev.Path)
		}
	}
	return median(us), nil
}
