package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"timingwheels/internal/hdr"
)

// twdConf is the daemon configuration every twd workload runs under.
// It comes from the command line, where BENCHMARK.json's command states
// it, so both sides of a comparison run the same daemon even if a twd
// default changes. The layer probes configure the WAL and the runtime
// from the same values.
type twdConf struct {
	args         []string
	syncEvery    int
	syncInterval time.Duration
	granularity  time.Duration
	shards       int
}

// parseTwdConf parses twd flags; each of the four must be given.
func parseTwdConf(s string) (twdConf, error) {
	c := twdConf{args: strings.Fields(s)}
	fs := flag.NewFlagSet("twd", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.IntVar(&c.syncEvery, "sync-every", 0, "")
	fs.DurationVar(&c.syncInterval, "sync-interval", 0, "")
	fs.DurationVar(&c.granularity, "granularity", 0, "")
	fs.IntVar(&c.shards, "shards", 0, "")
	if err := fs.Parse(c.args); err != nil {
		return c, fmt.Errorf("-twd-flags: %w", err)
	}
	if fs.NArg() > 0 || c.syncEvery <= 0 || c.syncInterval <= 0 || c.granularity <= 0 || c.shards <= 0 {
		return c, fmt.Errorf("-twd-flags %q: want -sync-every, -sync-interval, -granularity and -shards, all positive", s)
	}
	return c, nil
}

// daemon is one twd subprocess listening on a loopback port.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{}
}

// startDaemon boots twd on a fresh WAL directory and returns once the
// daemon answers /healthz. The daemon's stderr goes to a log file next
// to the directory.
func startDaemon(bin, dir string, conf twdConf, hc *http.Client) (*daemon, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(dir + ".log")
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	args := append([]string{"-addr", "127.0.0.1:0", "-dir", dir}, conf.args...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = logf
	// The daemon must not outlive the benchmark, whatever ends it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start twd: %w", err)
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "twd listening on "); ok {
				addr <- a
			}
		}
		_, _ = io.Copy(io.Discard, stdout)
		_ = cmd.Wait()
		close(d.exited)
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.exited:
		return nil, fmt.Errorf("twd exited during boot; see %s.log", dir)
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, errors.New("twd did not start listening within 30s")
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		if _, err := getHealth(hc, d.base); err == nil {
			return d, nil
		} else if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("twd not healthy: %w", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// kill stops the daemon with SIGKILL and waits for it to exit.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.exited
}

// health is the part of twd's /healthz the benchmark reads.
type health struct {
	Status      string `json:"status"`
	Outstanding int64  `json:"outstanding"`
	Scheduled   int64  `json:"scheduled_total"`
	Fired       int64  `json:"fired_total"`
	Cancelled   int64  `json:"cancelled_total"`
	Shed        int64  `json:"shed_total"`
	WAL         struct {
		Epoch        uint64 `json:"epoch"`
		Appends      uint64 `json:"appends"`
		Syncs        uint64 `json:"syncs"`
		Snapshots    uint64 `json:"snapshots"`
		SegmentBytes int64  `json:"segment_bytes"`
	} `json:"wal"`
}

func getHealth(hc *http.Client, base string) (health, error) {
	var h health
	resp, err := hc.Get(base + "/healthz")
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return h, fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	return h, json.NewDecoder(resp.Body).Decode(&h)
}

// ledgerError checks twd's conservation ledger: every scheduled timer
// has fired, been cancelled, been shed, or is still outstanding.
func (h health) ledgerError() error {
	if h.Scheduled != h.Fired+h.Cancelled+h.Shed+h.Outstanding {
		return fmt.Errorf("twd ledger open: scheduled %d != fired %d + cancelled %d + shed %d + outstanding %d",
			h.Scheduled, h.Fired, h.Cancelled, h.Shed, h.Outstanding)
	}
	return nil
}

// walBytes accumulates WAL segment growth across /healthz samples. A
// compaction rotates to a fresh segment, so growth across an epoch
// change is the new segment's size (the old segment's tail after the
// previous sample is not seen).
type walBytes struct {
	epoch uint64
	last  int64
	total int64
}

func (w *walBytes) observe(h health) {
	if w.epoch == 0 && w.last == 0 && w.total == 0 {
		w.epoch, w.last = h.WAL.Epoch, h.WAL.SegmentBytes
		return
	}
	if h.WAL.Epoch != w.epoch {
		w.total += h.WAL.SegmentBytes
	} else {
		w.total += h.WAL.SegmentBytes - w.last
	}
	w.epoch, w.last = h.WAL.Epoch, h.WAL.SegmentBytes
}

// promHist is one cumulative Prometheus histogram from /metrics: bucket
// upper bounds in nanoseconds (ascending) and their cumulative counts.
type promHist struct {
	le  []int64
	cum []float64
	inf float64
}

// scrapeStages reads every timingwheels_twd_stage_<name>_seconds
// histogram from twd's /metrics, keyed by stage name.
func scrapeStages(hc *http.Client, base string) (map[string]*promHist, error) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]*promHist{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		rest, ok := strings.CutPrefix(line, "timingwheels_twd_stage_")
		if !ok {
			continue
		}
		name, rest, ok := strings.Cut(rest, "_seconds_bucket{le=\"")
		if !ok {
			continue
		}
		leStr, countStr, ok := strings.Cut(rest, "\"} ")
		if !ok {
			continue
		}
		n, err := strconv.ParseFloat(countStr, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		h := out[name]
		if h == nil {
			h = &promHist{}
			out[name] = h
		}
		if leStr == "+Inf" {
			h.inf = n
			continue
		}
		le, err := strconv.ParseFloat(leStr, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		h.le = append(h.le, int64(math.Round(le*1e9)))
		h.cum = append(h.cum, n)
	}
	return out, sc.Err()
}

// cumAt is the histogram's cumulative count at upper bound ns.
func (h *promHist) cumAt(ns int64) float64 {
	if h == nil {
		return 0
	}
	i := sort.Search(len(h.le), func(i int) bool { return h.le[i] > ns })
	if i == 0 {
		return 0
	}
	return h.cum[i-1]
}

// deltaQuantileUS reports the q-quantile, in microseconds, of the
// observations recorded between two scrapes of one histogram. Within a
// bucket it interpolates linearly between the bucket's true bounds (the
// exporter omits empty buckets, so the bounds come from internal/hdr's
// bucket table). It also reports the observation count.
func deltaQuantileUS(before, after *promHist, q float64) (float64, float64) {
	if after == nil {
		return 0, 0
	}
	total := after.inf - before.infOrZero()
	if total <= 0 {
		return 0, 0
	}
	rank := q * total
	prev := 0.0
	for i, le := range after.le {
		c := after.cum[i] - before.cumAt(le)
		if c >= rank && c > prev {
			lo := float64(bucketLower(le))
			frac := (rank - prev) / (c - prev)
			return (lo + frac*(float64(le)-lo)) / 1e3, total
		}
		prev = c
	}
	if n := len(after.le); n > 0 {
		return float64(after.le[n-1]) / 1e3, total
	}
	return 0, total
}

func (h *promHist) infOrZero() float64 {
	if h == nil {
		return 0
	}
	return h.inf
}

// bucketLower is the lower bound of the internal/hdr bucket whose upper
// bound is ub.
func bucketLower(ub int64) int64 {
	i := sort.Search(hdr.NumBuckets, func(i int) bool { return hdr.UpperBound(i) >= ub })
	if i == 0 {
		return 0
	}
	return hdr.UpperBound(i-1) + 1
}
