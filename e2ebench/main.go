// Command e2ebench is the repository's end-to-end benchmark. It runs
// one workload per invocation and prints every metric by name and unit,
// ending with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// Workloads:
//
//	twd-admit  two clients, each waiting for its ack, paced together to
//	           a fixed rate of /v1/schedule calls of one hour-long timer
//	           against a twd subprocess, then a short fire probe
//	twd-churn  open loop, batches of short timers with later stops and
//	           resets on one connection, /v1/fired long polls on another
//	rt-churn   open loop through the in-process timer runtime: Reset of
//	           idle timers and short AfterFunc one-shots
//
// With -trace 0 the run reports the end-to-end metrics; with -trace 1 it
// runs an untraced and a traced pass, reports the per-layer metrics from
// the traced one (benchmark-side spans around every public call, twd's
// /metrics and /healthz, and in-process probes of each layer fed with
// the workload's op stream), writes the spans as JSON Lines, and
// reports the traced-vs-untraced difference as trace.overhead_ratio.
//
// A correctness oracle checks every pass; any violation prints the
// result with "correct": false and exits 1. An infrastructure error
// exits 1 without a result. Build and run it with run.sh.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
)

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	twd      string // path to the twd binary
	twdc     twdConf
	work     string // scratch directory for WAL dirs, logs and spans
}

// metricSpec names a reported metric and its unit. The lists below are
// BENCHMARK.json's end_to_end and per_layer lists; the smoke test holds
// the two in step.
type metricSpec struct{ name, unit string }

var endToEnd = []metricSpec{
	{"ops_per_s", "1/s"},
	{"ack_p50_us", "us"},
	{"fire_lag_p90_us", "us"},
	{"early_fire_ratio", "ratio"},
	{"fail_ratio", "ratio"},
	{"cpu_us_per_op", "us"},
	{"peak_rss_mb", "MiB"},
	{"setup_s", "s"},
}

// ack_p99_us and fire_lag_p99_us are end-to-end in kind but do not
// repeat within any bound the benchmark could hold them to (a few
// millisecond-long stalls of the host move them), so they are reported
// here, from the trace run's untraced pass. ops_per_s is the offered
// rate of a paced or open loop; capacity_ops_per_s is the workload's
// admission (or, in-process, its arrival mix) run unpaced.
var perLayer = []metricSpec{
	{"ack_p99_us", "us"},
	{"fire_lag_p99_us", "us"},
	{"capacity_ops_per_s", "1/s"},
	{"twclient.attempts_per_call", "count"},
	{"http.rtt_us_p50", "us"},
	{"twd.admit.decode_us_p50", "us"},
	{"twd.admit.append_us_p50", "us"},
	{"twd.admit.commit_us_p50", "us"},
	{"twd.admit.commit_us_p99", "us"},
	{"twd.admit.arm_us_p50", "us"},
	{"twd.admit.publish_us_p50", "us"},
	{"twd.admit.unaccounted_us_p50", "us"},
	{"twd.fire.fire_us_p50", "us"},
	{"twd.fire.enqueue_us_p50", "us"},
	{"twd.fire.push_us_p50", "us"},
	{"twd.fire.push_us_p99", "us"},
	{"twd.fire_lag_p50_us", "us"},
	{"twd.wal_fsyncs_per_op", "count"},
	{"twd.wal_bytes_per_timer", "B"},
	{"wal.append_ns_p50", "ns"},
	{"wal.commit_us_p50", "us"},
	{"wal.commit_us_p99", "us"},
	{"wal.records_per_fsync", "count"},
	{"wal.snapshot_ms", "ms"},
	{"stagetrace.span_ns_p50", "ns"},
	{"stagetrace.span_ns_p50_2g", "ns"},
	{"timer.schedule_ns_p50", "ns"},
	{"timer.reset_ns_p50", "ns"},
	{"timer.stop_ns_p50", "ns"},
	{"timer.batch_ns_per_timer", "ns"},
	{"timer.poll_us_p50", "us"},
	{"timer.fired_per_poll", "count"},
	{"timer.shed_ratio", "ratio"},
	{"scheme.start_ns", "ns"},
	{"scheme.stop_ns", "ns"},
	{"scheme.tick_ns", "ns"},
	{"scheme.bytes_per_op", "B"},
	{"go.gc_cpu_fraction", "ratio"},
	{"go.gc_pause_p99_us", "us"},
	{"proc.client_cpu_us_per_op", "us"},
	{"gen.late_max_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
}

var workloads = []string{"twd-admit", "twd-churn", "rt-churn"}

// maxSeconds bounds a run so that it ends before the first of
// rt-churn's idle timers (rtStandMinMS) is due; a fire of one of those
// is then always an oracle violation.
const maxSeconds = 40

func main() { os.Exit(run()) }

func run() int {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	flag.Uint64Var(&o.seed, "seed", 1, "seed for every generated input")
	flag.IntVar(&o.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.StringVar(&o.twd, "twd", "", "path to the twd binary")
	flag.StringVar(&o.work, "work", "", "scratch directory")
	twdFlags := flag.String("twd-flags", "", "twd's -sync-every, -sync-interval, -granularity and -shards")
	flag.Parse()
	o.trace = trace == 1
	var err error
	if o.twdc, err = parseTwdConf(*twdFlags); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 2
	}
	if err := o.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 2
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	var rep *report
	if o.trace {
		rep, err = runTraced(&o)
	} else {
		rep, err = runUntraced(&o)
	}
	os.RemoveAll(filepath.Join(o.work, "twd"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	specs := endToEnd
	if o.trace {
		specs = perLayer
	}
	if err := rep.print(specs); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	if len(rep.violations) > 0 {
		return 1
	}
	return 0
}

func (o *options) validate() error {
	known := false
	for _, w := range workloads {
		known = known || w == o.workload
	}
	switch {
	case !known:
		return fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloads, ", "))
	case o.seconds < 2 || o.seconds > maxSeconds:
		return fmt.Errorf("-seconds must be between 2 and %d", maxSeconds)
	case o.work == "":
		return errors.New("-work is required")
	case o.twd == "":
		return errors.New("-twd is required")
	}
	if _, err := os.Stat(o.twd); err != nil {
		return fmt.Errorf("twd binary: %w", err)
	}
	return nil
}

// report is one run's outcome.
type report struct {
	attempted, failed int64
	early             int64 // early fires, reported apart from failed
	values            map[string]float64
	violations        []string
}

func newReport() *report { return &report{values: map[string]float64{}} }

// absorb adds a pass's operation counts and oracle findings.
func (r *report) absorb(res *passResult) {
	r.attempted += res.attempted
	r.failed += res.failed
	r.early += int64(res.v.early)
	r.violations = append(r.violations, res.errs...)
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes one human-readable line per metric, any oracle
// violations, and the JSON result as the last line of stdout.
func (r *report) print(specs []metricSpec) error {
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]metricJSON `json:"metrics"`
	}{Correct: len(r.violations) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricJSON{}}
	for _, s := range specs {
		v, ok := r.values[s.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", s.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", s.name, v)
		}
		fmt.Printf("%-32s %16.6g %s\n", s.name, v, s.unit)
		out.Metrics[s.name] = metricJSON{Value: v, Unit: s.unit}
	}
	for _, v := range r.violations {
		fmt.Printf("VIOLATION: %s\n", v)
	}
	fmt.Printf("attempted %d, failed %d, early fires %d\n", r.attempted, r.failed, r.early)
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// endToEndValues fills the end-to-end metrics from a pass. cpuS is the
// system under test's CPU time over the window.
func (r *report) endToEndValues(res *passResult, cpuS, setupS float64) {
	r.values["ops_per_s"] = float64(res.ops) / res.windowS
	r.values["ack_p50_us"] = res.ack.quantile(0.5) / 1e3
	r.values["fire_lag_p90_us"] = res.lag.quantile(0.9) / 1e3
	r.values["early_fire_ratio"] = ratio(float64(res.v.early), float64(res.v.fires))
	// An early fire counts as a failed operation here. It is not in the
	// result's "failed" count, which holds only operations the program
	// refused, errored on or lost: the early fire is a known defect of the
	// program this benchmark reports, not a failure of the run.
	r.values["fail_ratio"] = ratio(float64(res.failed+int64(res.v.early)), float64(res.attempted))
	r.values["cpu_us_per_op"] = ratio(cpuS*1e6, float64(res.ops))
	r.values["peak_rss_mb"] = res.rssMB
	r.values["setup_s"] = setupS
}

// runUntraced measures the end-to-end metrics.
func runUntraced(o *options) (*report, error) {
	rep := newReport()
	secs := float64(o.seconds)
	if o.workload == "rt-churn" {
		s, setupS, err := bootRTTimed(o, rtSetupReps, lagCapacity(secs))
		if err != nil {
			return nil, err
		}
		res, err := rtPass(o, s, secs, nil)
		if err != nil {
			return nil, err
		}
		rep.absorb(res)
		rep.endToEndValues(res, res.clientCPU, setupS)
		return rep, nil
	}
	s, setupS, err := bootTwdTimed(o, setupReps, [2]*tracer{})
	if err != nil {
		return nil, err
	}
	defer s.close()
	res, err := twdPass(o, s, secs, false)
	if err != nil {
		return nil, err
	}
	rep.absorb(res)
	rep.endToEndValues(res, res.daemonCPU, setupS)
	return rep, nil
}

func lagCapacity(secs float64) int { return int(secs*rtRate*0.2) + 1024 }

// bootTwdTimed boots the workload's daemon reps times, keeps the last,
// and reports the median set-up time.
func bootTwdTimed(o *options, reps int, trs [2]*tracer) (*twdSession, float64, error) {
	preload, payload := churnPreload, 0
	if o.workload == "twd-admit" {
		preload, payload = admitPreload, admitPayloadLen
	}
	var times []float64
	var s *twdSession
	for i := 0; i < reps; i++ {
		if s != nil {
			s.close()
		}
		var err error
		if s, err = bootTwd(o, preload, payload, trs); err != nil {
			return nil, 0, err
		}
		times = append(times, s.setupS)
	}
	return s, median(times), nil
}

func twdPass(o *options, s *twdSession, secs float64, traced bool) (*passResult, error) {
	if o.workload == "twd-admit" {
		return admitPass(o, s, secs, traced)
	}
	return churnPass(o, s, secs, traced)
}

// runTraced runs the workload untraced and then traced for half the
// run each, and reports per-layer metrics from the traced pass plus the
// in-process layer probes.
func runTraced(o *options) (*report, error) {
	rep := newReport()
	half := float64(o.seconds) / 2
	out := layerReport{}
	var untraced, traced, capRes *passResult
	var twdRes *passResult // the pass twd's per-layer metrics come from
	spans := filepath.Join(o.work, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
	if o.workload == "rt-churn" {
		for _, on := range []bool{false, true} {
			s, _, err := bootRTTimed(o, 1, lagCapacity(half))
			if err != nil {
				return nil, err
			}
			var tr *tracer
			if on {
				tr = newTracer(0, int(half*rtRate*1.1)+1024)
			}
			res, err := rtPass(o, s, half, tr)
			if err != nil {
				return nil, err
			}
			rep.absorb(res)
			if on {
				traced = res
				if err := writeSpans(spans, tr); err != nil {
					return nil, err
				}
			} else {
				untraced = res
			}
		}
		var err error
		if capRes, err = rtCapacity(o, capacitySeconds); err != nil {
			return nil, err
		}
		// rt-churn has no daemon: twd's per-layer metrics come from a
		// short twd-churn pass so every traced run reports every layer.
		aux := *o
		aux.workload = "twd-churn"
		if twdRes, err = tracedTwdPass(&aux, auxTwdSeconds, ""); err != nil {
			return nil, err
		}
		rep.absorb(twdRes)
	} else {
		s, _, err := bootTwdTimed(o, 1, [2]*tracer{})
		if err != nil {
			return nil, err
		}
		untraced, err = twdPass(o, s, half, false)
		if err == nil {
			capRes, err = twdCapacity(o, s, capacitySeconds)
		}
		s.close()
		if err != nil {
			return nil, err
		}
		rep.absorb(untraced)
		if traced, err = tracedTwdPass(o, half, spans); err != nil {
			return nil, err
		}
		rep.absorb(traced)
		twdRes = traced
	}
	rep.absorb(capRes)
	out["capacity_ops_per_s"] = float64(capRes.ops) / capRes.windowS
	twdLayerMetrics(twdRes, out)
	out["go.gc_cpu_fraction"] = traced.gc.frac
	out["go.gc_pause_p99_us"] = traced.gc.pauseUS.quantile(0.99) / 1e3
	out["proc.client_cpu_us_per_op"] = ratio(traced.clientCPU*1e6, float64(traced.ops))
	out["gen.late_max_ms"] = float64(traced.lateMax) / 1e6
	out["ack_p99_us"] = untraced.ack.quantile(0.99) / 1e3
	out["fire_lag_p99_us"] = untraced.lag.quantile(0.99) / 1e3
	u, t := untraced.ack.quantile(0.5), traced.ack.quantile(0.5)
	out["trace.overhead_ratio"] = ratio(t-u, u)

	m := mixes[o.workload]
	if m.gran == 0 {
		m.gran = o.twdc.granularity
	}
	if err := probeWAL(o, m, out); err != nil {
		return nil, fmt.Errorf("wal probe: %w", err)
	}
	probeStagetrace(out)
	if err := probeTimer(o, m, out); err != nil {
		return nil, fmt.Errorf("timer probe: %w", err)
	}
	if err := probeScheme(o, m, out); err != nil {
		return nil, fmt.Errorf("scheme probe: %w", err)
	}
	for k, v := range out {
		rep.values[k] = v
	}
	return rep, nil
}

// auxTwdSeconds is the length of the twd-churn pass an rt-churn traced
// run adds for twd's per-layer metrics, and capacitySeconds that of the
// unpaced pass a traced run measures capacity_ops_per_s with.
const (
	auxTwdSeconds   = 3
	capacitySeconds = 2
)

// tracedTwdPass boots a daemon with traced connections, runs one traced
// pass, and writes its spans to spansPath (skipped when empty).
func tracedTwdPass(o *options, secs float64, spansPath string) (*passResult, error) {
	trs := [2]*tracer{newTracer(1, 1<<18), newTracer(2, 1<<16)}
	s, _, err := bootTwdTimed(o, 1, trs)
	if err != nil {
		return nil, err
	}
	defer s.close()
	res, err := twdPass(o, s, secs, true)
	if err != nil {
		return nil, err
	}
	if spansPath != "" {
		if err := writeSpans(spansPath, trs[0], trs[1]); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// twdLayerMetrics derives twd's per-layer metrics from a traced pass:
// client-side attempt counts and the transport floor, the daemon's
// stage histograms (the /metrics delta across the pass), and WAL
// activity from /healthz deltas. It also reconciles the daemon's
// admission stages against the client-observed admission latency.
func twdLayerMetrics(res *passResult, out layerReport) {
	out["twclient.attempts_per_call"] = ratio(float64(res.attempts), float64(res.twCalls))
	out["http.rtt_us_p50"] = res.healthRTT.quantile(0.5) / 1e3
	stage := func(name string, q float64) float64 {
		v, _ := deltaQuantileUS(res.stages0[name], res.stages1[name], q)
		return v
	}
	sum := 0.0
	for _, st := range []string{"decode", "append", "commit", "arm", "publish"} {
		v := stage(st, 0.5)
		out["twd.admit."+st+"_us_p50"] = v
		sum += v
	}
	out["twd.admit.commit_us_p99"] = stage("commit", 0.99)
	client := res.admitRTT.quantile(0.5) / 1e3
	out["twd.admit.unaccounted_us_p50"] = client - sum
	if sum > client {
		fmt.Fprintf(os.Stderr, "e2ebench: WARNING: daemon admission stage medians sum to %.1fus, more than the client-observed admission p50 %.1fus\n", sum, client)
	}
	for _, st := range []string{"fire", "enqueue", "push"} {
		out["twd.fire."+st+"_us_p50"] = stage(st, 0.5)
	}
	out["twd.fire.push_us_p99"] = stage("push", 0.99)
	out["twd.fire_lag_p50_us"] = res.lag.quantile(0.5) / 1e3
	out["twd.wal_fsyncs_per_op"] = ratio(float64(res.walSyncs), float64(res.ops))
	out["twd.wal_bytes_per_timer"] = ratio(float64(res.walBytes), float64(res.timers))
}
