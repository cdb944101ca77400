package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"a4sim/internal/loadgen"
	"a4sim/internal/service"
)

// request is one prepared HTTP call.
type request struct {
	method, path string
	body         []byte
}

func (r request) key() string { return r.method + " " + r.path + " " + string(r.body) }

// do issues r on c and returns the status and body.
func do(c *http.Client, base string, r request, hdr map[string]string) (int, []byte, error) {
	req, err := http.NewRequest(r.method, base+r.path, bytes.NewReader(r.body))
	if err != nil {
		return 0, nil, err
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// newClients returns n HTTP clients with one connection each: the
// benchmark's connection budget is exactly its goroutine budget.
func newClients(n int) []*http.Client {
	cs := make([]*http.Client, n)
	for i := range cs {
		cs[i] = &http.Client{Transport: service.NewTransport(1), Timeout: time.Minute}
	}
	return cs
}

// sample is one request's outcome. In an open loop, latency is measured
// from the scheduled send time, so a generator or server stall that delays
// later sends is charged to them; lag is how late the send actually went
// out; service is the time from the actual send to the full response. In
// a closed loop, latency and service are both the round trip.
type sample struct {
	latency, lag, service time.Duration
	ok                    bool
}

// phase is one load segment's outcome.
type phase struct {
	name    string
	rate    float64
	samples []sample
}

func (p *phase) sent() int { return len(p.samples) }

func (p *phase) succeeded() int {
	n := 0
	for _, s := range p.samples {
		if s.ok {
			n++
		}
	}
	return n
}

// latencies returns the latency (ms) of every sent request; a failed
// request counts as infinitely slow, so it misses any limit.
func (p *phase) latencies() []float64 {
	out := make([]float64, len(p.samples))
	for i, s := range p.samples {
		out[i] = ms(s.latency)
		if !s.ok {
			out[i] = inf
		}
	}
	return out
}

func (p *phase) lags() []float64 {
	out := make([]float64, len(p.samples))
	for i, s := range p.samples {
		out[i] = ms(s.lag)
	}
	return out
}

func (p *phase) services() []float64 {
	var out []float64
	for _, s := range p.samples {
		if s.ok {
			out = append(out, ms(s.service))
		}
	}
	return out
}

// withinFrac is the share of sent requests that succeeded within limitMs.
func (p *phase) withinFrac(limitMs float64) float64 {
	n := 0
	for _, s := range p.samples {
		if s.ok && ms(s.latency) <= limitMs {
			n++
		}
	}
	return float64(n) / float64(len(p.samples))
}

func (p *phase) report() {
	lat := p.latencies()
	fmt.Fprintf(os.Stderr, "  phase %-7s rate %7.1f/s sent %6d ok %6d failed %4d p50 %.3fms p90 %.3fms p99 %.3fms lag p50 %.3fms p90 %.3fms p99 %.3fms svc p50 %.3fms\n",
		p.name, p.rate, p.sent(), p.succeeded(), p.sent()-p.succeeded(),
		quantile(lat, 0.5), quantile(lat, 0.9), quantile(lat, 0.99), quantile(p.lags(), 0.5), quantile(p.lags(), 0.9), quantile(p.lags(), 0.99), median(p.services()))
}

// closedLoop cycles through reqs from len(clients) goroutines, one
// connection each, each sending its next request as soon as the previous
// one completes, until the deadline. Latency is the request's round trip.
func closedLoop(base string, clients []*http.Client, reqs []request, want map[string][]byte, until time.Time) []sample {
	outs := make([][]sample, len(clients))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w, c := range clients {
		wg.Add(1)
		go func(w int, c *http.Client) {
			defer wg.Done()
			for time.Now().Before(until) {
				r := reqs[int(next.Add(1)-1)%len(reqs)]
				t := time.Now()
				status, body, err := do(c, base, r, nil)
				el := time.Since(t)
				exp, known := want[r.key()]
				outs[w] = append(outs[w], sample{latency: el, service: el,
					ok: err == nil && status == http.StatusOK && known && bytes.Equal(body, exp)})
			}
		}(w, c)
	}
	wg.Wait()
	var out []sample
	for _, o := range outs {
		out = append(out, o...)
	}
	return out
}

// openLoop sends events on their schedule from len(clients) goroutines,
// one connection each. A worker that is still busy when the next event is
// due delays it; that delay is the lag and is part of its latency.
// want maps a request key to the exact bytes a correct response carries.
func openLoop(base string, clients []*http.Client, events []loadgen.Event, want map[string][]byte) []sample {
	out := make([]sample, len(events))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now().Add(5 * time.Millisecond)
	for _, c := range clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(events) {
					return
				}
				ev := events[i]
				due := t0.Add(time.Duration(ev.AtUs) * time.Microsecond)
				if w := time.Until(due); w > 0 {
					time.Sleep(w)
				}
				sent := time.Now()
				r := request{ev.Method, ev.Path, ev.Body}
				status, body, err := do(c, base, r, nil)
				done := time.Now()
				exp, known := want[r.key()]
				out[i] = sample{
					latency: done.Sub(due),
					lag:     sent.Sub(due),
					service: done.Sub(sent),
					ok:      err == nil && status == http.StatusOK && known && bytes.Equal(body, exp),
				}
			}
		}(c)
	}
	wg.Wait()
	return out
}
