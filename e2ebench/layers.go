package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"timingwheels/internal/stagetrace"
	"timingwheels/internal/wal"
	"timingwheels/timer"
)

// opMix is a workload's operation stream as the layer probes replay it:
// the shares of schedule, reset and stop operations, the interval range
// of the timers it schedules, the payload size, how many timers one
// admission call carries, how many it schedules per second, the
// standing population and its (long) interval range, and the tick the
// workload runs at.
type opMix struct {
	schedP, resetP         float64 // stop takes the rest
	minMS, maxMS           int64
	payloadLen             int
	batch                  int
	perSec                 int
	standing               int
	standMinMS, standMaxMS int64
	gran                   time.Duration // 0: twd's -granularity
}

// Per-workload op streams. twd-churn's shares follow from 16 timers per
// batch with 30% of them later stopped and 30% reset; rt-churn's from
// 80% resets and 20% one-shots, a quarter of which are stopped.
const rtOpsPerArrival = 1 + (1-rtResetP)*rtStopP

var mixes = map[string]opMix{
	"twd-admit": {schedP: 1, minMS: longAfterMS, maxMS: longAfterMS, payloadLen: admitPayloadLen, batch: 1, perSec: admitRate,
		standing: admitPreload, standMinMS: longAfterMS, standMaxMS: longAfterMS},
	"twd-churn": {schedP: 1 / (1 + churnStopP + churnResetP), resetP: churnResetP / (1 + churnStopP + churnResetP), minMS: churnMinMS, maxMS: churnMaxMS, batch: churnBatch, perSec: churnBatchRate * churnBatch,
		standing: churnPreload, standMinMS: longAfterMS, standMaxMS: longAfterMS},
	"rt-churn": {schedP: (1 - rtResetP) / rtOpsPerArrival, resetP: rtResetP / rtOpsPerArrival, minMS: rtShotMinUS / 1000, maxMS: rtShotMaxUS / 1000, batch: 1, perSec: rtRate / 5,
		standing: rtStanding, standMinMS: rtStandMinMS, standMaxMS: rtStandMaxMS, gran: rtGranularity},
}

// kind draws the next operation: 0 schedule, 1 reset, 2 stop.
func (m opMix) kind(r *rng) int {
	u := r.float()
	switch {
	case u < m.schedP:
		return 0
	case u < m.schedP+m.resetP:
		return 1
	}
	return 2
}

func (m opMix) after(r *rng) time.Duration {
	return time.Duration(r.between(m.minMS*1000, m.maxMS*1000)) * time.Microsecond
}

func (m opMix) standAfter(r *rng) time.Duration {
	return time.Duration(r.between(m.standMinMS*1000, m.standMaxMS*1000)) * time.Microsecond
}

// layerReport collects per-layer metrics by name.
type layerReport map[string]float64

// probeWAL replays the op stream through wal.Log with twd's sync policy
// on a scratch directory: one Append per timer transition, one Commit
// per admission call or stop/reset (as twd commits them), and one
// Snapshot of the live set at the end.
func probeWAL(o *options, m opMix, out layerReport) error {
	dir := filepath.Join(o.work, "wal-probe")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	log, _, err := wal.Open(dir, wal.Options{SyncEvery: o.twdc.syncEvery, SyncInterval: o.twdc.syncInterval})
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	defer log.Close()
	r := newRNG(o.seed, 50)
	payload := make([]byte, m.payloadLen)
	live := make([]wal.Record, 0, m.standing+1<<15)
	deadline := time.Now().Add(time.Hour).UnixNano()
	for i := 0; i < m.standing; i++ {
		live = append(live, wal.Record{Op: wal.OpSchedule, ID: uint64(i + 1), Deadline: deadline, Payload: payload})
	}
	appendNS, commitNS := newSamples(1<<15), newSamples(1<<13)
	nextID := uint64(m.standing + 1)
	appendOne := func(rec wal.Record) (wal.LSN, error) {
		t0 := nanotime()
		lsn, err := log.Append(rec)
		appendNS.add(nanotime() - t0)
		return lsn, err
	}
	commit := func(lsn wal.LSN) error {
		t0 := nanotime()
		err := log.Commit(lsn)
		commitNS.add(nanotime() - t0)
		return err
	}
	s0 := log.Stats()
	stopAt := nanotime() + int64(1500*time.Millisecond)
	for ops := 0; ops < 20000 && nanotime() < stopAt; {
		var lsn wal.LSN
		switch kind := m.kind(r); kind {
		case 0:
			for j := 0; j < m.batch; j++ {
				rec := wal.Record{Op: wal.OpSchedule, ID: nextID, Deadline: time.Now().Add(m.after(r)).UnixNano(), Payload: payload}
				nextID++
				if lsn, err = appendOne(rec); err != nil {
					return err
				}
				live = append(live, rec)
			}
			ops += m.batch
		default:
			if len(live) == 0 {
				continue
			}
			i := int(r.intn(int64(len(live))))
			op := wal.OpReset
			if kind == 2 {
				op = wal.OpCancel
			}
			if lsn, err = appendOne(wal.Record{Op: op, ID: live[i].ID, Deadline: live[i].Deadline}); err != nil {
				return err
			}
			if op == wal.OpCancel {
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			ops++
		}
		if err := commit(lsn); err != nil {
			return err
		}
	}
	s1 := log.Stats()
	t0 := nanotime()
	if err := log.Snapshot(live); err != nil {
		return err
	}
	out["wal.snapshot_ms"] = float64(nanotime()-t0) / 1e6
	out["wal.append_ns_p50"] = appendNS.quantile(0.5)
	out["wal.commit_us_p50"] = commitNS.quantile(0.5) / 1e3
	out["wal.commit_us_p99"] = commitNS.quantile(0.99) / 1e3
	out["wal.records_per_fsync"] = ratio(float64(s1.Appends-s0.Appends), float64(s1.Syncs-s0.Syncs))
	return nil
}

// probeStagetrace times one admission timeline — Begin, five Marks,
// Finish — on a recorder sized like twd's, from one goroutine and then
// from two at once.
func probeStagetrace(out layerReport) {
	stages := [...]string{"decode", "append", "commit", "arm", "publish"}
	run := func(rec *stagetrace.Recorder, n int, s *samples) {
		for i := 0; i < n; i++ {
			t0 := nanotime()
			sp := rec.Begin("admit", "", 0, 1)
			for _, st := range stages {
				sp.Mark(st)
			}
			sp.Finish()
			s.add(nanotime() - t0)
		}
	}
	cfg := stagetrace.Config{Recent: 1024, Slow: 256, SlowThreshold: 25 * time.Millisecond}
	const n = 100000
	one := newSamples(n)
	run(stagetrace.NewRecorder(cfg), n, one)
	out["stagetrace.span_ns_p50"] = one.quantile(0.5)

	rec := stagetrace.NewRecorder(cfg)
	two := [2]*samples{newSamples(n / 2), newSamples(n / 2)}
	var wg sync.WaitGroup
	for g := range two {
		wg.Add(1)
		go func(g int) { defer wg.Done(); run(rec, n/2, two[g]) }(g)
	}
	wg.Wait()
	two[0].merge(two[1])
	out["stagetrace.span_ns_p50_2g"] = two[0].quantile(0.5)
}

// nopJournal stands in for twd's journal so the probed runtime pays the
// same per-timer journal calls.
type nopJournal struct{}

func (nopJournal) TimerArmed(uint64, timer.ID, timer.Tick) {}
func (nopJournal) TimerStopped(uint64, timer.ID)           {}
func (nopJournal) TimerFired(uint64, timer.ID, int64)      {}
func (nopJournal) TimerShed(uint64, timer.ID)              {}

func noop() {}

// probeTimer replays the op stream through the public runtime API on a
// timer.Sharded configured as twd configures it, timing each call.
func probeTimer(o *options, m opMix, out layerReport) error {
	fac := timer.NewSharded(o.twdc.shards,
		timer.WithGranularity(o.twdc.granularity),
		timer.WithIngress(0),
		timer.WithJournal(nopJournal{}),
		timer.WithTrace(4096),
	)
	defer fac.Close()
	r := newRNG(o.seed, 60)
	live := make([]*timer.Timer, 0, m.standing+1<<16)
	tag := uint64(0)
	opt := func() timer.ScheduleOption {
		tag++
		return timer.WithPriority(timer.PriorityNormal).WithTag(tag)
	}
	for i := 0; i < m.standing; i++ {
		tm, err := fac.AfterFunc(m.standAfter(r), noop, opt())
		if err != nil {
			return err
		}
		live = append(live, tm)
	}
	sched, reset, stop, batch := newSamples(1<<16), newSamples(1<<16), newSamples(1<<16), newSamples(1<<12)
	reqs := make([]timer.Req, 16)
	stopAt := nanotime() + int64(time.Second)
	for i := 0; i < 200000 && nanotime() < stopAt; i++ {
		switch m.kind(r) {
		case 0:
			d := m.after(r)
			t0 := nanotime()
			tm, err := fac.AfterFunc(d, noop, opt())
			sched.add(nanotime() - t0)
			if err != nil {
				return err
			}
			live = append(live, tm)
		case 1:
			if len(live) == 0 {
				continue
			}
			d := m.after(r)
			tm := live[r.intn(int64(len(live)))]
			t0 := nanotime()
			_, err := tm.Reset(d)
			reset.add(nanotime() - t0)
			if err != nil {
				return fmt.Errorf("timer probe reset: %w", err)
			}
		default:
			if len(live) == 0 {
				continue
			}
			j := int(r.intn(int64(len(live))))
			t0 := nanotime()
			live[j].Stop()
			stop.add(nanotime() - t0)
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if i%64 == 0 {
			for j := range reqs {
				reqs[j] = timer.Req{After: m.after(r), Fn: noop, Opt: opt()}
			}
			t0 := nanotime()
			tms, err := fac.ScheduleBatch(reqs)
			batch.add((nanotime() - t0) / int64(len(reqs)))
			if err != nil {
				return err
			}
			live = append(live, tms...)
		}
	}
	// Every stream ends with its timers stopped or reset (twd-admit's
	// stream has neither otherwise): reset then stop a sample of them.
	for j := 0; j < 4096 && len(live) > 0; j++ {
		k := int(r.intn(int64(len(live))))
		d := m.after(r)
		t0 := nanotime()
		_, err := live[k].Reset(d)
		reset.add(nanotime() - t0)
		if err != nil {
			return fmt.Errorf("timer probe reset: %w", err)
		}
		t0 = nanotime()
		live[k].Stop()
		stop.add(nanotime() - t0)
		live[k] = live[len(live)-1]
		live = live[:len(live)-1]
	}
	h := fac.Health()
	out["timer.schedule_ns_p50"] = sched.quantile(0.5)
	out["timer.reset_ns_p50"] = reset.quantile(0.5)
	out["timer.stop_ns_p50"] = stop.quantile(0.5)
	out["timer.batch_ns_per_timer"] = batch.quantile(0.5)
	out["timer.shed_ratio"] = ratio(float64(h.ShedExpiries), float64(h.Delivered+h.ShedExpiries))
	return probePoll(o, m, out)
}

// probePoll drives a manual-driver runtime (twd's tick, ingress on) from
// a stepped clock: before each Poll, which advances one tick, it admits
// the timers the workload schedules per tick, over the workload's
// standing population.
func probePoll(o *options, m opMix, out layerReport) error {
	gran := o.twdc.granularity
	now := time.Unix(1_700_000_000, 0)
	rt := timer.NewRuntime(
		timer.WithGranularity(gran),
		timer.WithIngress(0),
		timer.WithManualDriver(),
		timer.WithNowFunc(func() time.Time { return now }),
	)
	defer rt.Close()
	r := newRNG(o.seed, 70)
	for i := 0; i < m.standing; i++ {
		if _, err := rt.AfterFunc(m.standAfter(r), noop); err != nil {
			return err
		}
	}
	perTick := max(1, m.perSec*int(gran)/int(time.Second))
	poll := newSamples(4096)
	polls, total := 0, 0
	stopAt := nanotime() + int64(time.Second)
	for polls < 4000 && nanotime() < stopAt {
		for j := 0; j < perTick; j++ {
			if _, err := rt.AfterFunc(m.after(r), noop); err != nil {
				return err
			}
		}
		now = now.Add(gran)
		t0 := nanotime()
		n := rt.Poll()
		poll.add(nanotime() - t0)
		polls++
		total += n
	}
	out["timer.poll_us_p50"] = poll.quantile(0.5) / 1e3
	out["timer.fired_per_poll"] = float64(total) / float64(polls)
	return nil
}

// probeScheme drives timer.NewHashedWheel — the runtime's default
// scheme — through the Scheme API at the workload's tick: start, stop
// and tick costs over its standing population, and heap bytes allocated
// per operation in steady state.
func probeScheme(o *options, m opMix, out layerReport) error {
	s := timer.NewHashedWheel(4096)
	cb := func(timer.ID) {}
	r := newRNG(o.seed, 80)
	ticks := func() timer.Tick {
		t := timer.Tick(m.after(r) / m.gran)
		if t < 1 {
			t = 1
		}
		return t
	}
	live := make([]timer.Handle, 0, m.standing+1<<16)
	for i := 0; i < m.standing; i++ {
		h, err := s.StartTimer(max(1, timer.Tick(m.standAfter(r)/m.gran)), cb)
		if err != nil {
			return err
		}
		live = append(live, h)
	}
	const group = 64
	start, stop, tick := newSamples(4096), newSamples(4096), newSamples(4096)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	ops := 0
	for round := 0; round < 2000; round++ {
		t0 := nanotime()
		for j := 0; j < group; j++ {
			h, err := s.StartTimer(ticks(), cb)
			if err != nil {
				return err
			}
			live = append(live, h)
		}
		start.add((nanotime() - t0) / group)
		t0 = nanotime()
		for j := 0; j < group && len(live) > 0; j++ {
			k := int(r.intn(int64(len(live))))
			_ = s.StopTimer(live[k]) // a handle whose timer already fired is refused; that is the cost measured too
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		stop.add((nanotime() - t0) / group)
		t0 = nanotime()
		s.Tick()
		tick.add(nanotime() - t0)
		ops += 2*group + 1
	}
	runtime.ReadMemStats(&ms1)
	out["scheme.start_ns"] = start.quantile(0.5)
	out["scheme.stop_ns"] = stop.quantile(0.5)
	out["scheme.tick_ns"] = tick.quantile(0.5)
	out["scheme.bytes_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(ops)
	return nil
}

// gcWindow measures the Go runtime's garbage collection across a pass:
// pause times of the collections that ran in it, and the GC's share of
// CPU since the process started.
type gcWindow struct {
	n0      uint32
	frac    float64
	pauseUS *samples
}

func (g *gcWindow) begin() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	g.n0 = ms.NumGC
}

func (g *gcWindow) end() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	g.frac = ms.GCCPUFraction
	g.pauseUS = newSamples(256)
	for n := ms.NumGC; n > g.n0 && ms.NumGC-n < 256; n-- {
		g.pauseUS.add(int64(ms.PauseNs[(n+255)%256]))
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
