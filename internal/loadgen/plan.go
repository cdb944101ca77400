package loadgen

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"a4sim/internal/scenario"
	"a4sim/internal/service"
)

// Request classes a plan mixes. Each models one way real clients lean on
// the service: fleets re-asking popular questions (cache path), novel
// specs that must execute, measurement-window extensions off warm
// snapshots, small parameter sweeps, and telemetry readers.
const (
	ClassCached = "cached-hit"
	ClassFresh  = "fresh-run"
	ClassExtend = "extend"
	ClassSweep  = "sweep"
	ClassSeries = "series-read"
)

// DefaultMix is the request-class weighting used when Config.Mix is nil:
// mostly cache traffic with a steady trickle of real work, the shape a
// healthy content-addressed deployment sees.
var DefaultMix = map[string]float64{
	ClassCached: 0.65,
	ClassSeries: 0.15,
	ClassFresh:  0.10,
	ClassExtend: 0.08,
	ClassSweep:  0.02,
}

// extendWindowsSec are the measure_sec values extend events cycle
// through: each distinct window executes once (cheaply, from the warm
// snapshot) and is cache-served afterwards.
var extendWindowsSec = []float64{1.5, 2}

// Event is one planned request: when to send it (offset from the start of
// the measurement window), what class it belongs to, and the exact HTTP
// request to issue. Bodies are fully rendered at plan time, so the
// dispatch path does no per-request encoding and the plan file is the
// complete, replayable description of a run.
type Event struct {
	AtUs   int64           `json:"at_us"`
	Class  string          `json:"class"`
	Method string          `json:"method"`
	Path   string          `json:"path"`
	Body   json.RawMessage `json:"body,omitempty"`
}

// Plan is a load run computed ahead of time: the priming requests that
// populate the cache (issued serially, unmeasured) and the timed events
// of the measurement window. BuildPlan is pure in its Config, so a plan —
// and therefore the offered load of a run — is byte-reproducible from
// (seed, rate, arrival, duration, mix).
type Plan struct {
	Seed        uint64  `json:"seed"`
	Arrival     string  `json:"arrival"`
	Rate        float64 `json:"rate"`
	DurationSec float64 `json:"duration_sec"`
	Priming     []Event `json:"priming"`
	Events      []Event `json:"events"`
}

// Encode renders the plan as canonical JSON (sorted keys, no
// insignificant whitespace): two equal plans encode byte-identically.
func (p *Plan) Encode() ([]byte, error) {
	return json.Marshal(p)
}

// BuildPlan computes the full request schedule for cfg: arrival offsets
// from the configured process, a class for each arrival drawn from the
// mix, and a rendered request body per event. All randomness comes from
// streams derived from cfg.Seed, so identical configs yield
// byte-identical plans; the target's responses are the only thing a rerun
// can change.
func BuildPlan(cfg Config) (*Plan, error) {
	mix := cfg.Mix
	if mix == nil {
		mix = DefaultMix
	}
	classes, weights, err := normalizeMix(mix)
	if err != nil {
		return nil, err
	}
	arrival := cfg.Arrival
	if arrival == "" {
		arrival = ArrivalConstant
	}
	offsets, err := Schedule(arrival, cfg.Rate, cfg.Duration, mix64(cfg.Seed, 1))
	if err != nil {
		return nil, err
	}

	base, err := scenario.BuiltinMix("tiny")
	if err != nil {
		return nil, err
	}
	// The popular set: manager variants of the tiny mix.
	popular := scenario.ManagerVariants(base, []string{"a4-d", "default", "isolate"})
	popularBodies := make([]json.RawMessage, len(popular))
	for i, sp := range popular {
		if popularBodies[i], err = json.Marshal(sp); err != nil {
			return nil, err
		}
	}
	// Extend continues the first popular spec's run from its warm
	// snapshot; the hash is a pure function of the spec, computed offline.
	extendHash, err := popular[0].Hash()
	if err != nil {
		return nil, err
	}
	// The series target: one series-enabled spec, primed once, then read
	// repeatedly by series-read events.
	seriesSpec := base.Clone()
	seriesSpec.Name = "loadgen-series"
	seriesSpec.Series = &scenario.SeriesSpec{Metrics: []string{"core"}}
	seriesBody, err := json.Marshal(seriesSpec)
	if err != nil {
		return nil, err
	}
	seriesHash, err := seriesSpec.Hash()
	if err != nil {
		return nil, err
	}
	// Fresh specs ride a family salted from the seed: distinct per run (a
	// long-lived daemon really executes them) yet fully reproducible. The
	// sampling block keeps each execution cheap.
	freshBase := base.Clone()
	freshBase.Sampling = &scenario.SamplingSpec{}
	family := scenario.NewFamily(freshBase, mix64(cfg.Seed, 2))

	priming := make([]Event, 0, len(popular)+1)
	for _, body := range popularBodies {
		priming = append(priming, Event{Class: ClassCached, Method: "POST", Path: "/run", Body: body})
	}
	priming = append(priming, Event{Class: ClassSeries, Method: "POST", Path: "/run", Body: seriesBody})

	classRng := rand.New(rand.NewSource(int64(mix64(cfg.Seed, 3))))
	events := make([]Event, 0, len(offsets))
	var freshIdx, cachedIdx, extendIdx, sweepIdx uint64
	for _, at := range offsets {
		ev := Event{AtUs: int64(at / time.Microsecond)}
		ev.Class = pickClass(classes, weights, classRng.Float64())
		switch ev.Class {
		case ClassCached:
			ev.Method, ev.Path = "POST", "/run"
			ev.Body = popularBodies[cachedIdx%uint64(len(popularBodies))]
			cachedIdx++
		case ClassFresh:
			ev.Method, ev.Path = "POST", "/run"
			body, err := json.Marshal(family.Variant(freshIdx))
			if err != nil {
				return nil, err
			}
			ev.Body = body
			freshIdx++
		case ClassExtend:
			ev.Method, ev.Path = "POST", "/extend"
			body, err := json.Marshal(service.ExtendRequest{
				Hash:       extendHash,
				MeasureSec: extendWindowsSec[extendIdx%uint64(len(extendWindowsSec))],
			})
			if err != nil {
				return nil, err
			}
			ev.Body = body
			extendIdx++
		case ClassSweep:
			ev.Method, ev.Path = "POST", "/sweep"
			// Two fresh seeds per sweep: a real (tiny) grid expansion that
			// must execute, drawn from a disjoint region of the family's
			// seed stream so sweeps never collide with fresh-run specs.
			v1 := float64(family.VariantSeed(1<<32+2*sweepIdx) % 1e9)
			v2 := float64(family.VariantSeed(1<<32+2*sweepIdx+1) % 1e9)
			body, err := json.Marshal(service.SweepRequest{
				Spec: *freshBase,
				Axes: []service.Axis{{Param: "seed", Values: []float64{v1, v2}}},
			})
			if err != nil {
				return nil, err
			}
			ev.Body = body
			sweepIdx++
		case ClassSeries:
			ev.Method, ev.Path = "GET", "/series/"+seriesHash
		}
		events = append(events, ev)
	}
	return &Plan{
		Seed:        cfg.Seed,
		Arrival:     arrival,
		Rate:        cfg.Rate,
		DurationSec: cfg.Duration.Seconds(),
		Priming:     priming,
		Events:      events,
	}, nil
}

// normalizeMix validates the class mix and returns classes in sorted
// order with weights normalized to sum 1 — sorted so the weighted draw is
// independent of Go's randomized map iteration.
func normalizeMix(mix map[string]float64) ([]string, []float64, error) {
	known := map[string]bool{ClassCached: true, ClassFresh: true, ClassExtend: true, ClassSweep: true, ClassSeries: true}
	classes := make([]string, 0, len(mix))
	total := 0.0
	for class, w := range mix {
		if !known[class] {
			return nil, nil, fmt.Errorf("loadgen: unknown request class %q", class)
		}
		if w < 0 {
			return nil, nil, fmt.Errorf("loadgen: negative weight for class %q", class)
		}
		if w == 0 {
			continue
		}
		classes = append(classes, class)
		total += w
	}
	if len(classes) == 0 || total <= 0 {
		return nil, nil, fmt.Errorf("loadgen: mix has no positive weights")
	}
	sort.Strings(classes)
	weights := make([]float64, len(classes))
	for i, class := range classes {
		weights[i] = mix[class] / total
	}
	return classes, weights, nil
}

// pickClass maps a uniform draw onto the cumulative weights.
func pickClass(classes []string, weights []float64, u float64) string {
	acc := 0.0
	for i, w := range weights {
		acc += w
		if u < acc {
			return classes[i]
		}
	}
	return classes[len(classes)-1]
}

// mix64 derives independent seed streams from one base seed (splitmix64
// over the pair), so the schedule, the class draw, and the fresh-spec
// family never share randomness.
func mix64(seed, stream uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + stream + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
