package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"voyager/internal/metrics"
	"voyager/internal/serve"
)

// daemon is one prefetchd child process. Its lifecycle is bounded at both
// ends: start waits at most startTimeout for the listen addresses and an
// OpPing answer, and stop sends SIGTERM, waits stopTimeout for the drain,
// then SIGKILLs and records the hang.
type daemon struct {
	cmd      *exec.Cmd
	addr     string // prediction protocol
	httpAddr string // /metrics and /quality
	exited   chan struct{}
	stdout   sync.WaitGroup
	stderr   bytes.Buffer
	hung     bool // did not exit on SIGTERM within stopTimeout
}

const (
	startTimeout = 30 * time.Second
	stopTimeout  = 5 * time.Second
)

// startDaemon runs bin with args plus loopback listen flags on free ports,
// parses both addresses from its stdout and waits until it answers OpPing.
func startDaemon(bin string, args []string, pl placement) (*daemon, error) {
	args = append(args, "-listen", "127.0.0.1:0", "-metrics-http", "127.0.0.1:0")
	d := &daemon{cmd: exec.Command(bin, args...), exited: make(chan struct{})}
	d.cmd.Stderr = &d.stderr
	// A plain pipe rather than StdoutPipe: the reader below owns the read
	// end, so the goroutine calling Wait never closes it under the reader.
	out, w, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	d.cmd.Stdout = w
	err = pl.start(d.cmd)
	_ = w.Close() // the child holds its own copy
	if err != nil {
		_ = out.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() {
		_ = d.cmd.Wait() // exit status is judged by stop, not here
		close(d.exited)
	}()
	addrs := make(chan [2]string, 1)
	d.stdout.Add(1)
	go func() {
		defer d.stdout.Done()
		var a [2]string
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "metrics: http://"); ok {
				a[1], _, _ = strings.Cut(rest, "/")
			}
			if rest, ok := strings.CutPrefix(line, "prefetchd: serving on "); ok {
				a[0], _, _ = strings.Cut(rest, " ")
				addrs <- a
			}
		}
		_, _ = io.Copy(io.Discard, out) // keep the pipe drained until exit
		_ = out.Close()
	}()
	deadline := time.Now().Add(startTimeout)
	select {
	case a := <-addrs:
		d.addr, d.httpAddr = a[0], a[1]
	case <-d.exited:
		d.stdout.Wait()
		return nil, fmt.Errorf("prefetchd exited during start: %s", d.stderr.String())
	case <-time.After(startTimeout):
		d.stop()
		return nil, fmt.Errorf("prefetchd printed no listen address within %v", startTimeout)
	}
	if d.httpAddr == "" {
		d.stop()
		return nil, fmt.Errorf("prefetchd printed no metrics address")
	}
	for {
		if err := ping(d.addr); err == nil {
			return d, nil
		} else if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("prefetchd not answering OpPing within %v: %w", startTimeout, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// ping round-trips one OpPing on a fresh connection.
func ping(addr string) error {
	c, err := serve.Dial(addr)
	if err != nil {
		return err
	}
	defer func() { _ = c.Close() }()
	return c.Ping()
}

// stop ends the daemon: SIGTERM, a bounded wait for the drain, then
// SIGKILL. It reports whether the process hung.
func (d *daemon) stop() bool {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(stopTimeout):
		d.hung = true
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
	d.stdout.Wait()
	return d.hung
}

// peakRSSMB reads the daemon's peak resident set (VmHWM) in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	return vmHWM(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
}

// cpuSeconds reads the daemon's user plus system CPU time so far, all
// threads together, from /proc (clock ticks of 1/100 s).
func (d *daemon) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3, state.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("bad /proc stat line %q", b)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", b)
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64)
	stime, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat line %q", b)
	}
	return float64(utime+stime) / 100, nil
}

// vmHWM parses the VmHWM line of a /proc status file, in MiB.
func vmHWM(path string) (float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("%s: %w", path, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM line", path)
}

var httpClient = &http.Client{Timeout: 10 * time.Second}

// getJSON fetches http://<httpAddr><path> into v.
func (d *daemon) getJSON(path string, v any) error {
	resp, err := httpClient.Get("http://" + d.httpAddr + path)
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

// scrape reads the daemon's /metrics snapshot.
func (d *daemon) scrape() (*metrics.Snapshot, error) {
	var s metrics.Snapshot
	if err := d.getJSON("/metrics", &s); err != nil {
		return nil, err
	}
	return &s, s.Validate()
}

// qualityShadow is the part of the /quality scoreboard the benchmark
// reads: the shadow-sampling totals.
type qualityShadow struct {
	Shadow struct {
		Samples uint64 `json:"samples"`
		Agree   uint64 `json:"agree"`
		Dropped uint64 `json:"dropped"`
	} `json:"shadow"`
}

// delta is the change of the /metrics surface between two snapshots.
type delta struct{ a, b *metrics.Snapshot }

func (d delta) counter(name string) uint64 {
	x, _ := d.b.Counter(name)
	y, _ := d.a.Counter(name)
	return x - y
}

func (d delta) gauge(name string) float64 {
	x, _ := d.b.Gauge(name)
	return x
}

// hist returns a histogram's count and sum deltas. The sum is rebuilt from
// log2 bucket representatives (the geometric mean of each bucket's
// edges), so a mean read from it can be off by -29%..+41% per sample.
func (d delta) hist(name string) (uint64, float64) {
	hb, ha := d.b.Histogram(name), d.a.Histogram(name)
	if hb == nil {
		return 0, 0
	}
	if ha == nil {
		return hb.Count, float64(hb.Sum)
	}
	return hb.Count - ha.Count, float64(hb.Sum) - float64(ha.Sum)
}

// histMean is the mean of a histogram over the delta, NaN when empty.
func (d delta) histMean(name string) float64 {
	n, s := d.hist(name)
	if n == 0 {
		return nanf()
	}
	return s / float64(n)
}

func nanf() float64 { z := 0.0; return z / z }
