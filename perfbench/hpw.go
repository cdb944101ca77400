package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"a4sim/internal/harness"
	"a4sim/internal/mem"
	"a4sim/internal/pcm"
	"a4sim/internal/scenario"
)

// The hpw-schemes windows: the Table-2 hpw-heavy mix at the default rate
// scale needs about six simulated seconds before all four A4 variants act
// differently (F-DCAOff demotes ffsb-h at t=3 s for every seed tried,
// F-Bypass diverges after that). Shorter windows or larger rate scales
// leave a4-b, a4-c and a4-d byte-identical, which the run rejects.
const (
	hpwWarmSec    = 4
	hpwMeasureSec = 2
)

// hpwPins holds the report digests of the default seed, recorded with one
// goroutine (perfbench -write-pins); runs at the default seed on nproc
// goroutines must reproduce them byte for byte.
//
//go:embed testdata/hpw_pins.json
var hpwPinsJSON []byte

// hpwSpecs derives the six scheme specs of one seed: the builtin mix's
// seed-salted family variant, once per Fig. 13a scheme.
func hpwSpecs(seed uint64) ([]*scenario.Spec, error) {
	base, err := scenario.BuiltinMix("hpw-heavy")
	if err != nil {
		return nil, err
	}
	base.WarmupSec, base.MeasureSec = hpwWarmSec, hpwMeasureSec
	v := scenario.NewFamily(base, seed).Variant(0)
	specs := scenario.ManagerVariants(v, scenario.ManagerNames())
	for _, sp := range specs {
		if err := sp.Normalize(); err != nil {
			return nil, err
		}
	}
	return specs, nil
}

// counts are the fabric-wide simulated work counters of one scenario.
type counts struct {
	mlcHits, mlcMisses, llcHits, llcMisses int64
	dcaHits, dcaAllocs, leaks, bloats      int64
	dirEvictions, memReads, instr, ioBytes int64
}

func readCounts(sc *harness.Scenario) counts {
	var c counts
	f := sc.H.Fabric()
	for i := 0; i < f.NumWorkloads(); i++ {
		w := f.C(pcm.WorkloadID(i))
		c.mlcHits += w.MLCHits.Total()
		c.mlcMisses += w.MLCMisses.Total()
		c.llcHits += w.LLCHits.Total()
		c.llcMisses += w.LLCMisses.Total()
		c.dcaHits += w.DCAHits.Total()
		c.dcaAllocs += w.DCAAllocs.Total()
		c.leaks += w.DMALeaks.Total()
		c.bloats += w.DMABloats.Total()
		c.dirEvictions += w.DirEvictions.Total()
		c.instr += w.Instructions.Total()
		c.ioBytes += w.IOReadBytes.Total() + w.IOWriteBytes.Total()
	}
	c.memReads = sc.H.Memory().ReadBytes() / mem.LineBytes
	return c
}

func (c *counts) add(o counts) {
	c.mlcHits += o.mlcHits
	c.mlcMisses += o.mlcMisses
	c.llcHits += o.llcHits
	c.llcMisses += o.llcMisses
	c.dcaHits += o.dcaHits
	c.dcaAllocs += o.dcaAllocs
	c.leaks += o.leaks
	c.bloats += o.bloats
	c.dirEvictions += o.dirEvictions
	c.memReads += o.memReads
	c.instr += o.instr
	c.ioBytes += o.ioBytes
}

// schemeRun is one scheme's execution: call timings, per-second step
// times, work counts, and the report.
type schemeRun struct {
	manager                   string
	start, endMeasure, encode time.Duration
	warm, measure             time.Duration
	steps                     []float64 // host ms per simulated second
	total                     counts    // whole run
	measureMLC                int64     // MLC accesses inside the measure window
	report                    []byte
}

// stepsPerSec splits each simulated second into timed calls: 144 samples
// per round, so the p90 has 14 beyond it.
const stepsPerSec = 4

// runScheme drives one normalized whole-second spec through the public
// phase API in quarter-second calls, each a timing sample. Splitting at
// epoch boundaries is equivalent to one call (harness.Scenario.Run's
// contract); TestSteppedRunMatchesSpecRun and the pinned digests check it.
func runScheme(sp *scenario.Spec) (*schemeRun, error) {
	r := &schemeRun{manager: sp.Manager}
	t := time.Now()
	hash, err := sp.Hash()
	if err != nil {
		return nil, err
	}
	sc, err := sp.Start()
	if err != nil {
		return nil, err
	}
	r.start = time.Since(t)
	for i := 0; i < int(sp.WarmupSec)*stepsPerSec; i++ {
		t = time.Now()
		sc.Warm(1.0 / stepsPerSec)
		d := time.Since(t)
		r.warm += d
		r.steps = append(r.steps, ms(d)*stepsPerSec)
	}
	before := readCounts(sc)
	sc.BeginMeasure()
	for i := 0; i < int(sp.MeasureSec)*stepsPerSec; i++ {
		t = time.Now()
		sc.Measure(1.0 / stepsPerSec)
		d := time.Since(t)
		r.measure += d
		r.steps = append(r.steps, ms(d)*stepsPerSec)
	}
	r.total = readCounts(sc)
	r.measureMLC = (r.total.mlcHits + r.total.mlcMisses) - (before.mlcHits + before.mlcMisses)
	t = time.Now()
	res := sc.EndMeasure()
	r.endMeasure = time.Since(t)
	t = time.Now()
	rep := scenario.FromResult(sp, hash, res)
	r.report, err = rep.Encode()
	r.encode = time.Since(t)
	return r, err
}

// runRound executes every spec on `workers` goroutines and returns the runs
// in spec order with the round's wall time.
func runRound(specs []*scenario.Spec, workers int) ([]*schemeRun, time.Duration, error) {
	runs := make([]*schemeRun, len(specs))
	errs := make([]error, len(specs))
	next := make(chan int)
	var wg sync.WaitGroup
	t := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				runs[i], errs[i] = runScheme(specs[i])
			}
		}()
	}
	for i := range specs {
		next <- i
	}
	close(next)
	wg.Wait()
	wall := time.Since(t)
	for i, err := range errs {
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", specs[i].Manager, err)
		}
	}
	return runs, wall, nil
}

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// contentDigest hashes a report's measured content only: the spec name,
// hash and manager are blanked, so two schemes that simulated identically
// share a digest.
func contentDigest(report []byte) (string, error) {
	rep, err := scenario.DecodeReport(report)
	if err != nil {
		return "", err
	}
	rep.Spec, rep.Hash, rep.Manager = "", "", ""
	b, err := rep.Encode()
	if err != nil {
		return "", err
	}
	return digest(b), nil
}

// checkHPWRound verifies one round: each report decodes and carries its
// spec's hash, (when pins are given) every report matches its pinned
// digest, and the four A4 variants simulated differently from each other.
func checkHPWRound(specs []*scenario.Spec, runs []*schemeRun, pins map[string]string) error {
	if err := checkReports(specs, runs, pins); err != nil {
		return err
	}
	return checkA4Distinct(runs)
}

func checkReports(specs []*scenario.Spec, runs []*schemeRun, pins map[string]string) error {
	for i, r := range runs {
		rep, err := scenario.DecodeReport(r.report)
		if err != nil {
			return err
		}
		want, err := specs[i].Hash()
		if err != nil {
			return err
		}
		if rep.Hash != want {
			return fmt.Errorf("%s: report hash %.12s, spec hash %.12s", r.manager, rep.Hash, want)
		}
		if pins != nil && pins[r.manager] != digest(r.report) {
			return fmt.Errorf("%s: report digest %.12s differs from the pinned %.12s", r.manager, digest(r.report), pins[r.manager])
		}
	}
	return nil
}

// checkA4Distinct fails a round in which two A4 variants produced the same
// measured content: the controller's features never came into play.
func checkA4Distinct(runs []*schemeRun) error {
	content := map[string]string{}
	for _, r := range runs {
		c, err := contentDigest(r.report)
		if err != nil {
			return err
		}
		content[r.manager] = c
	}
	a4 := []string{"a4-a", "a4-b", "a4-c", "a4-d"}
	for i := range a4 {
		for j := i + 1; j < len(a4); j++ {
			if content[a4[i]] == content[a4[j]] {
				return fmt.Errorf("%s and %s simulated identically: the window is too short to exercise the controller", a4[i], a4[j])
			}
		}
	}
	return nil
}

func loadPins(seed uint64) (map[string]string, error) {
	var pins struct {
		Seed    uint64            `json:"seed"`
		Digests map[string]string `json:"digests"`
	}
	if err := json.Unmarshal(hpwPinsJSON, &pins); err != nil {
		return nil, fmt.Errorf("pinned digests: %w", err)
	}
	if seed != pins.Seed {
		return nil, nil
	}
	return pins.Digests, nil
}

// writePins runs the default seed on one goroutine and prints the pin file.
func writePins(seed uint64) error {
	specs, err := hpwSpecs(seed)
	if err != nil {
		return err
	}
	runs, _, err := runRound(specs, 1)
	if err != nil {
		return err
	}
	if err := checkHPWRound(specs, runs, nil); err != nil {
		return err
	}
	d := map[string]string{}
	for _, r := range runs {
		d[r.manager] = digest(r.report)
	}
	b, err := json.MarshalIndent(map[string]any{"seed": seed, "digests": d}, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// runHPW is the hpw-schemes workload: rounds of the six schemes, in
// process, on nproc goroutines, until the measuring time is spent.
func runHPW(cfg runConfig) (metricSet, tally, error) {
	var tl tally
	specs, err := hpwSpecs(cfg.seed)
	if err != nil {
		return nil, tl, err
	}
	pins, err := loadPins(cfg.seed)
	if err != nil {
		return nil, tl, err
	}
	// Set-up: build and start every scheme's scenario, setupReps times.
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		t := time.Now()
		for _, sp := range specs {
			if _, err := sp.Clone().Start(); err != nil {
				return nil, tl, err
			}
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	runtime.GC()

	var prof bytes.Buffer
	if cfg.trace {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, tl, err
		}
	}
	var all []*schemeRun
	var walls []float64
	var steps []float64
	var firstDigests []string
	cpu0, err := cpuTime(os.Getpid())
	if err != nil {
		return nil, tl, err
	}
	start := time.Now()
	// Another round starts only if it is expected to end within the
	// measuring time, so a run measures whole rounds and at least one.
	for len(walls) == 0 || time.Since(start)+time.Duration(mean(walls)*float64(time.Second)) <= cfg.seconds {
		runs, wall, err := runRound(specs, cfg.workers)
		tl.attempted += int64(len(specs))
		if err != nil {
			tl.failed += int64(len(specs))
			return nil, tl, err
		}
		if err := checkHPWRound(specs, runs, pins); err != nil {
			return nil, tl, err
		}
		for i, r := range runs {
			if d := digest(r.report); len(firstDigests) < len(runs) {
				firstDigests = append(firstDigests, d)
			} else if d != firstDigests[i] {
				return nil, tl, fmt.Errorf("%s: report changed between rounds", r.manager)
			}
		}
		walls = append(walls, wall.Seconds())
		for _, r := range runs {
			steps = append(steps, r.steps...)
		}
		all = append(all, runs...)
	}
	if cfg.trace {
		pprof.StopCPUProfile()
	}
	cpu1, err := cpuTime(os.Getpid())
	if err != nil {
		return nil, tl, err
	}

	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, tl, err
	}
	simsecPerRound := float64(len(specs) * (hpwWarmSec + hpwMeasureSec))
	m := metricSet{
		"setup_s":       median(setups),
		"peak_rss_mb":   rss,
		"cpu_ms_per_op": ms(cpu1-cpu0) / (simsecPerRound * float64(len(walls))),
	}
	wall := metricSet{
		"wall.op_p50_ms": median(steps),
		"wall.op_p90_ms": quantile(steps, 0.9),
		"wall.ops_per_s": simsecPerRound / median(walls),
	}
	if !cfg.trace {
		printWall(wall)
		return m, tl, nil
	}

	lm := tracedSet(m, wall)
	var startT, warm, measure, endm, enc time.Duration
	var tot counts
	var measMLC int64
	for _, r := range all {
		startT += r.start
		warm += r.warm
		measure += r.measure
		endm += r.endMeasure
		enc += r.encode
		tot.add(r.total)
		measMLC += r.measureMLC
	}
	simsec := float64(len(all) * (hpwWarmSec + hpwMeasureSec))
	lm["scenario.start_ms"] = ms(startT) / simsec
	lm["harness.warm_ms"] = ms(warm) / float64(len(all)*hpwWarmSec)
	lm["harness.measure_ms"] = ms(measure) / float64(len(all)*hpwMeasureSec)
	lm["harness.end_measure_ms"] = ms(endm) / simsec
	lm["scenario.report_encode_ms"] = ms(enc) / simsec
	lm["sim.host_ns_per_access"] = float64(measure.Nanoseconds()) / float64(measMLC)
	per := func(n int64) float64 { return float64(n) / simsec }
	frac := func(a, b int64) float64 { return float64(a) / float64(a+b) }
	lm["mlc.accesses"] = per(tot.mlcHits + tot.mlcMisses)
	lm["mlc.hit_frac"] = frac(tot.mlcHits, tot.mlcMisses)
	lm["llc.accesses"] = per(tot.llcHits + tot.llcMisses)
	lm["llc.hit_frac"] = frac(tot.llcHits, tot.llcMisses)
	lm["dca.writes"] = per(tot.dcaHits + tot.dcaAllocs)
	lm["dca.alloc_frac"] = frac(tot.dcaAllocs, tot.dcaHits)
	lm["llc.dma_leaks"] = per(tot.leaks)
	lm["llc.dma_bloats"] = per(tot.bloats)
	lm["directory.evictions"] = per(tot.dirEvictions)
	lm["mem.reads"] = per(tot.memReads)
	lm["workload.instructions"] = per(tot.instr)
	lm["io.bytes"] = per(tot.ioBytes)
	byPkg, err := profileByPackage(prof.Bytes(), profiledPkgs())
	if err != nil {
		return nil, tl, err
	}
	for pkg, d := range byPkg {
		lm[cpuMetricName(pkg)] = ms(d) / simsec
	}
	return lm, tl, nil
}
