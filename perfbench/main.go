// Command perfbench is the repository benchmark: three workloads that put
// the simulator and the scenario service under load from one process and
// report end-to-end metrics (untraced runs) or per-layer metrics (traced
// runs) as one JSON line. README.md explains the workloads and the map from
// each layer metric to the end-to-end metric it should move.
//
//	perfbench --workload hpw-schemes|serve-hits|serve-exec --seed N --seconds S --trace 0|1
//
// run.sh builds this binary and a4serve from source and passes -serve-bin
// and -tmp; a failed correctness check exits nonzero without a result.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// defaultSeed is the seed whose hpw-schemes digests are pinned.
const defaultSeed = 1

// setupReps is how often the cheap set-ups (scenario builds, bare daemon
// starts) repeat; setup_s is their median. Serve-hits priming executes
// simulations and repeats three times.
const setupReps = 9

type runConfig struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	workers  int
	serveBin string
	tmp      string
}

// tally counts the operations a run attempted and the ones that failed.
type tally struct {
	attempted, failed int64
}

func main() {
	var cfg runConfig
	var secs, trace int
	var writePinsFlag bool
	flag.StringVar(&cfg.workload, "workload", "", "hpw-schemes, serve-hits or serve-exec")
	flag.Uint64Var(&cfg.seed, "seed", defaultSeed, "input seed")
	flag.IntVar(&secs, "seconds", 10, "measuring time in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.serveBin, "serve-bin", "", "a4serve binary for the serving workloads")
	flag.StringVar(&cfg.tmp, "tmp", os.TempDir(), "directory for temporary daemon stores")
	flag.BoolVar(&writePinsFlag, "write-pins", false, "print the hpw-schemes digests of -seed (one goroutine) and exit")
	flag.Parse()
	cfg.seconds = time.Duration(secs) * time.Second
	cfg.trace = trace == 1
	cfg.workers = runtime.NumCPU()

	if writePinsFlag {
		if err := writePins(cfg.seed); err != nil {
			fail(err)
		}
		return
	}
	if secs < 1 || (trace != 0 && trace != 1) || cfg.seed == 0 {
		fail(fmt.Errorf("need --seconds >= 1, --trace 0|1 and a nonzero --seed"))
	}
	printEnv(cfg)

	var (
		ms  metricSet
		tl  tally
		err error
	)
	switch cfg.workload {
	case wHPW:
		ms, tl, err = runHPW(cfg)
	case wHits:
		ms, tl, err = runHits(cfg)
	case wExec:
		ms, tl, err = runExec(cfg)
	default:
		err = fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err != nil {
		fail(err)
	}
	if tl.failed > 0 {
		fail(fmt.Errorf("%d of %d operations failed", tl.failed, tl.attempted))
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer()
	}
	metrics, err := render(defs, ms, cfg.workload)
	if err != nil {
		fail(err)
	}
	printTable(metrics)
	out := output{Correct: true, Attempted: tl.attempted, Failed: tl.failed, Metrics: metrics}
	b, err := out.encode()
	if err != nil {
		fail(err)
	}
	fmt.Println(string(b))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// printEnv records the run's environment on stderr: the result line has a
// fixed shape, so provenance travels beside it.
func printEnv(cfg runConfig) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	env := map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds.Seconds(),
		"trace":      cfg.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"commit":     commit,
	}
	b, _ := json.Marshal(env)
	fmt.Fprintf(os.Stderr, "env: %s\n", b)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
