package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"a4sim/internal/service"
)

// daemon is one fresh a4serve process on a free loopback port with a fresh
// temporary store, deleted when the daemon stops.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	store  string
	out    bytes.Buffer
	exited chan struct{}
	client *http.Client
}

// freePort asks the kernel for an unused loopback port. The port is free
// when chosen; startDaemon fails loudly if something else answers on it.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func startDaemon(cfg runConfig, extra ...string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	if c, err := net.DialTimeout("tcp", addr, 200*time.Millisecond); err == nil {
		c.Close()
		return nil, fmt.Errorf("port %d is already serving", port)
	}
	dir, err := os.MkdirTemp(cfg.tmp, "store-")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		url:    "http://" + addr,
		store:  dir,
		exited: make(chan struct{}),
		client: &http.Client{Transport: service.NewTransport(1), Timeout: time.Minute},
	}
	args := append([]string{"-addr", addr, "-workers", strconv.Itoa(cfg.workers), "-store", dir}, extra...)
	d.cmd = exec.Command(cfg.serveBin, args...)
	d.cmd.Stdout = &d.out
	d.cmd.Stderr = &d.out
	// A benchmark killed before it can stop the daemon takes it along.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	go func() {
		d.cmd.Wait()
		close(d.exited)
	}()
	deadline := time.Now().Add(20 * time.Second)
	for {
		select {
		case <-d.exited:
			os.RemoveAll(dir)
			return nil, fmt.Errorf("a4serve exited at start: %s", d.out.String())
		default:
		}
		if resp, err := d.client.Get(d.url + "/healthz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("a4serve did not become healthy on %s", addr)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The healthy daemon must be ours and fresh: a stranger on the port, or
	// a store that is not empty, would make every number meaningless.
	st, err := d.stats()
	if err != nil {
		d.stop()
		return nil, err
	}
	if st.Executions != 0 || st.StoreObjects != 0 || st.Workers != cfg.workers {
		d.stop()
		return nil, fmt.Errorf("daemon on %s is not a fresh a4serve (stats %+v)", addr, st)
	}
	return d, nil
}

// stop drains the daemon with SIGTERM (killing it after a grace period),
// waits for it to exit, and deletes its store.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
	os.RemoveAll(d.store)
}

func (d *daemon) get(path string) ([]byte, error) {
	resp, err := d.client.Get(d.url + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %d %s", path, resp.StatusCode, b)
	}
	return b, nil
}

func (d *daemon) stats() (service.Stats, error) {
	var st service.Stats
	b, err := d.get("/stats")
	if err == nil {
		err = json.Unmarshal(b, &st)
	}
	return st, err
}

// promSample is a /metrics scrape: sample name with labels -> value.
type promSample map[string]float64

func (d *daemon) metrics() (promSample, error) {
	b, err := d.get("/metrics")
	if err != nil {
		return nil, err
	}
	return parseProm(b)
}

func parseProm(b []byte) (promSample, error) {
	out := promSample{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics: bad line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: bad value in %q", line)
		}
		out[line[:sp]] = v
	}
	return out, sc.Err()
}

// endpointBuckets returns the non-cumulative request-duration buckets (in
// ms) accumulated between two scrapes for the given endpoints, merged.
func endpointBuckets(before, after promSample, endpoints ...string) []bucket {
	const prefix = `a4_http_request_duration_seconds_bucket{endpoint="`
	cum := map[float64]float64{}
	for _, ep := range endpoints {
		p := prefix + ep + `",le="`
		type pt struct{ le, c float64 }
		var pts []pt
		for k, v := range after {
			if !strings.HasPrefix(k, p) {
				continue
			}
			le, err := strconv.ParseFloat(strings.TrimSuffix(k[len(p):], `"}`), 64)
			if err != nil || math.IsInf(le, 0) {
				continue // +Inf repeats the count
			}
			pts = append(pts, pt{le, v - before[k]})
		}
		sort.Slice(pts, func(i, j int) bool { return pts[i].le < pts[j].le })
		prev := 0.0
		for _, x := range pts {
			cum[x.le*1000] += x.c - prev
			prev = x.c
		}
	}
	var out []bucket
	for le, c := range cum {
		out = append(out, bucket{le: le, count: c})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].le < out[j].le })
	return out
}

// endpointSum returns the request count and total seconds accumulated
// between two scrapes for the given endpoints.
func endpointSum(before, after promSample, endpoints ...string) (count, seconds float64) {
	for _, ep := range endpoints {
		l := `{endpoint="` + ep + `"}`
		count += after["a4_http_request_duration_seconds_count"+l] - before["a4_http_request_duration_seconds_count"+l]
		seconds += after["a4_http_request_duration_seconds_sum"+l] - before["a4_http_request_duration_seconds_sum"+l]
	}
	return count, seconds
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM) in MB;
// pid is a number or "self".
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times: 100 on
// every mainstream Linux architecture.
const clockTicks = 100

// cpuTime is the process's user+system CPU time from /proc/<pid>/stat.
func cpuTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields overall, the 12th and 13th after it.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	u, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return time.Duration(u+st) * time.Second / clockTicks, nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }
