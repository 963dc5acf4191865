package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"timingwheels/timer"
)

// rt-churn shape. BENCHMARK.json's workload description restates it.
const (
	rtRate        = 100_000 // operations per second, open loop
	rtStanding    = 100_000 // idle timers, Reset by 80% of operations
	rtGranularity = time.Millisecond
	rtResetP      = 0.8     // share of arrivals that Reset a standing timer
	rtStopP       = 0.25    // share of one-shots later stopped
	rtStandMinMS  = 60_000  // idle interval: beyond any run (see
	rtStandMaxMS  = 120_000 // maxSeconds), so a standing timer never fires
	rtShotMinUS   = 1_000   // one-shot AfterFunc interval
	rtShotMaxUS   = 50_000
	rtRing        = 1 << 16 // one-shot records, reused round-robin
	rtSetupReps   = 9
)

// oneShot is one AfterFunc timer's record. The generator writes the
// deadline before arming and the stop outcome after Stop returns; the
// callback, on the runtime's driver goroutine, counts the fire.
type oneShot struct {
	deadline atomic.Int64 // monotonic ns: call start plus the interval
	fired    atomic.Int32
	stopped  atomic.Bool // Stop returned true
	gen      uint32      // incarnation (generator only)
	checked  bool        // this incarnation has been judged (generator only)
	tm       *timer.Timer
	fn       func()
	ctr      *fireCounters
}

// fireCounters are written only by the runtime's driver goroutine and
// read after the runtime is closed.
type fireCounters struct {
	lag   *samples
	fires int
	early int
}

func (s *oneShot) fire() {
	now := nanotime()
	s.fired.Add(1)
	lag := now - s.deadline.Load()
	s.ctr.lag.add(lag)
	s.ctr.fires++
	if lag < 0 {
		s.ctr.early++
	}
}

// oneShotTally judges finished one-shot incarnations.
type oneShotTally struct {
	lost, double, afterStop int
}

func (t *oneShotTally) judge(s *oneShot) {
	if s.gen == 0 || s.checked {
		return
	}
	s.checked = true
	n := s.fired.Load()
	switch {
	case s.stopped.Load():
		if n > 0 {
			t.afterStop++
		}
	case n == 0:
		t.lost++
	case n > 1:
		t.double++
	}
}

// rtSession is a runtime populated with the standing idle timers.
type rtSession struct {
	rt       *timer.Runtime
	standing []*timer.Timer
	sFires   atomic.Int64 // fires of standing timers (must stay 0)
	ring     []oneShot
	ctr      *fireCounters
	setupS   float64
}

// bootRT builds the runtime (sync admission, 1 ms tick, default hashed
// wheel) and arms the standing population; setupS times exactly that.
func bootRT(o *options, lagCap int) (*rtSession, error) {
	s := &rtSession{standing: make([]*timer.Timer, rtStanding)}
	r := newRNG(o.seed, 90)
	standFn := func() { s.sFires.Add(1) }
	t0 := time.Now()
	s.rt = timer.NewRuntime(timer.WithGranularity(rtGranularity))
	for i := range s.standing {
		d := time.Duration(r.between(rtStandMinMS, rtStandMaxMS)) * time.Millisecond
		tm, err := s.rt.AfterFunc(d, standFn)
		if err != nil {
			s.rt.Close()
			return nil, err
		}
		s.standing[i] = tm
	}
	s.setupS = time.Since(t0).Seconds()
	s.ctr = &fireCounters{lag: newSamples(lagCap)}
	s.ring = make([]oneShot, rtRing)
	for i := range s.ring {
		sh := &s.ring[i]
		sh.fn = sh.fire
		sh.ctr = s.ctr
	}
	return s, nil
}

// bootRTTimed boots reps runtimes, keeps the last, and reports the
// median set-up time.
func bootRTTimed(o *options, reps, lagCap int) (*rtSession, float64, error) {
	var times []float64
	var s *rtSession
	for i := 0; i < reps; i++ {
		if s != nil {
			s.rt.Close()
			s = nil
			runtime.GC()
		}
		var err error
		if s, err = bootRT(o, lagCap); err != nil {
			return nil, 0, err
		}
		times = append(times, s.setupS)
	}
	return s, median(times), nil
}

// rtPass runs rt-churn's open loop from one generator goroutine: at
// rtRate operations per second, 80% Timer.Reset of a random standing
// timer and 20% AfterFunc one-shots, a quarter of which are stopped at
// a random point up to just past their deadline. Each call is timed
// from its intended issue time, or from the call itself when the
// generator ran ahead of that time.
func rtPass(o *options, s *rtSession, seconds float64, tr *tracer) (*passResult, error) {
	res := &passResult{ack: newLatHist()}
	r := newRNG(o.seed, 100)
	heap := &pendHeap{v: make([]pend, 0, 1<<14)}
	var tally oneShotTally
	// Collect set-up's garbage first, so that the pass's heap peak does
	// not depend on when set-up's last collection happened to run.
	runtime.GC()
	var gc gcWindow
	gc.begin()
	self0 := selfCPU()
	start := nanotime()
	stopAt := start + int64(seconds*1e9)
	// Arrivals come in bursts of perFrame, one burst per millisecond
	// frame, due at a seeded point of the frame (slotAt). A Go sleep
	// cannot pace 10 µs gaps, so the generator wakes once a burst, but
	// the burst's j-th arrival is due gap*j after the burst starts.
	const frame = int64(time.Millisecond)
	const perFrame = rtRate / 1000
	const gap = frame / perFrame
	// ackFrom records an op due at due, called at t0, acked at t1.
	ackFrom := func(due, t0, t1 int64) {
		if late := t0 - due; late > res.lateMax {
			res.lateMax = late
		}
		res.ack.add(t1 - min(t0, due))
	}
	frameAt := func(k int64) int64 { return slotAt(start, frame, o.seed, k) }
	next := 0 // next ring slot
	var lastDeadline int64
	var errs int64
	for i := 0; ; {
		at, isArrival := frameAt(int64(i/perFrame)), true
		if len(heap.v) > 0 && heap.v[0].at <= at {
			at, isArrival = heap.v[0].at, false
		}
		if at >= stopAt {
			break
		}
		sleepUntil(at)
		due := at + int64(i%perFrame)*gap
		res.attempted++
		if tr != nil {
			tr.op++
		}
		var err error
		switch {
		case !isArrival:
			pd := heap.pop()
			sh := &s.ring[pd.id]
			if pd.gen != sh.gen {
				res.attempted-- // the slot was reused; nothing to stop
				continue
			}
			h := tr.begin(spTimerStop, 0)
			t0 := nanotime()
			ok := sh.tm.Stop()
			t1 := nanotime()
			tr.end(h)
			ackFrom(at, t0, t1)
			if ok {
				sh.stopped.Store(true)
			}
		case r.float() < rtResetP:
			i++
			tm := s.standing[r.intn(rtStanding)]
			d := time.Duration(r.between(rtStandMinMS, rtStandMaxMS)) * time.Millisecond
			h := tr.begin(spTimerReset, 0)
			t0 := nanotime()
			_, err = tm.Reset(d)
			t1 := nanotime()
			tr.end(h)
			if err == nil {
				ackFrom(due, t0, t1)
			}
		default:
			i++
			idx := next
			next = (next + 1) % rtRing
			sh := &s.ring[idx]
			tally.judge(sh)
			sh.gen++
			sh.checked = false
			sh.fired.Store(0)
			sh.stopped.Store(false)
			d := r.between(rtShotMinUS, rtShotMaxUS) * int64(time.Microsecond)
			stop := r.float() < rtStopP
			h := tr.begin(spTimerAfterFunc, 0)
			t0 := nanotime()
			sh.deadline.Store(t0 + d)
			sh.tm, err = s.rt.AfterFunc(time.Duration(d), sh.fn)
			t1 := nanotime()
			tr.end(h)
			if err != nil {
				sh.checked = true
				break
			}
			ackFrom(due, t0, t1)
			lastDeadline = max(lastDeadline, t0+d)
			if stop {
				// A stop is planned for a random point up to just past the
				// deadline and issued in the first burst at or after it.
				plan := at + r.between(0, d+int64(5*time.Millisecond))
				k := (plan - start) / frame
				if frameAt(k) < plan {
					k++
				}
				heap.push(pend{at: frameAt(k), id: uint64(idx), gen: sh.gen, kind: pendStop})
			}
		}
		if err != nil {
			errs++
		} else {
			res.ops++
		}
	}
	end := nanotime()
	res.windowS = float64(end-start) / 1e9
	res.clientCPU = selfCPU() - self0
	gc.end()
	res.gc = gc

	// Let every armed one-shot reach its deadline, then judge them all.
	sleepUntil(lastDeadline + int64(200*time.Millisecond))
	for i := range s.ring {
		tally.judge(&s.ring[i])
	}
	started, expired, stopped := s.rt.Stats()
	if err := runtimeLedgerError(started, expired, stopped, s.rt.Outstanding()); err != nil {
		res.errs = append(res.errs, err.Error())
	}
	if n := s.sFires.Load(); n > 0 {
		res.errs = append(res.errs, fmt.Sprintf("%d standing timers fired %ds or more before their deadline", n, rtStandMinMS/1000-maxSeconds))
	}
	if tally.lost > 0 {
		res.errs = append(res.errs, fmt.Sprintf("%d acked one-shots never fired", tally.lost))
	}
	if tally.double > 0 {
		res.errs = append(res.errs, fmt.Sprintf("%d one-shots fired more than once", tally.double))
	}
	if tally.afterStop > 0 {
		res.errs = append(res.errs, fmt.Sprintf("%d one-shots fired after Stop returned true", tally.afterStop))
	}
	s.rt.Close() // waits for the driver, ordering its writes to ctr before the reads below
	res.lag = s.ctr.lag
	res.v = verdict{fires: s.ctr.fires, early: s.ctr.early, lost: tally.lost}
	res.failed = errs + int64(tally.lost)
	var err error
	if res.rssMB, err = peakRSSMB(0); err != nil {
		return nil, err
	}
	return res, nil
}

// rtCapacity runs rt-churn's arrival mix unpaced from one goroutine for
// seconds on a fresh session — 80% Reset of a standing timer, 20%
// AfterFunc with a standing timer's interval, so that nothing fires —
// and checks the runtime's ledger afterwards.
func rtCapacity(o *options, seconds float64) (*passResult, error) {
	s, err := bootRT(o, 0)
	if err != nil {
		return nil, err
	}
	defer s.rt.Close()
	res := &passResult{}
	r := newRNG(o.seed, 110)
	fn := func() { s.sFires.Add(1) }
	start := nanotime()
	stopAt := start + int64(seconds*1e9)
	for nanotime() < stopAt {
		for j := 0; j < 64; j++ {
			d := time.Duration(r.between(rtStandMinMS, rtStandMaxMS)) * time.Millisecond
			var err error
			if r.float() < rtResetP {
				_, err = s.standing[r.intn(rtStanding)].Reset(d)
			} else {
				_, err = s.rt.AfterFunc(d, fn)
			}
			res.attempted++
			if err != nil {
				res.failed++
			} else {
				res.ops++
			}
		}
	}
	res.windowS = float64(nanotime()-start) / 1e9
	started, expired, stopped := s.rt.Stats()
	if err := runtimeLedgerError(started, expired, stopped, s.rt.Outstanding()); err != nil {
		res.errs = append(res.errs, err.Error())
	}
	if n := s.sFires.Load(); n > 0 {
		res.errs = append(res.errs, fmt.Sprintf("capacity pass: %d timers fired %ds or more before their deadline", n, rtStandMinMS/1000-maxSeconds))
	}
	return res, nil
}
