package timer

// WithIngress is a deprecated no-op: it once routed admissions through
// a lock-free staging ring. The benchmark harness still passes it, so
// these tests build their runtime with it and pin that such a runtime
// keeps the exact synchronous contract — Stop and Reset report exactly,
// ScheduleBatch arms under the lock, and the ledger closes at every
// step. They go with the option.

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// newIngressRuntime is newManualRuntime built with the deprecated
// WithIngress option.
func newIngressRuntime(t *testing.T, opts ...RuntimeOption) (*Runtime, *fakeClock) {
	t.Helper()
	return newManualRuntime(t, append([]RuntimeOption{WithIngress(0)}, opts...)...)
}

func TestIngressScheduleFires(t *testing.T) {
	rt, fc := newIngressRuntime(t)
	fired := make(chan struct{}, 1)
	if _, err := rt.AfterFunc(50*time.Millisecond, func() { close(fired) }); err != nil {
		t.Fatalf("AfterFunc: %v", err)
	}
	// Armed by the call itself, before any poll.
	if got := rt.Outstanding(); got != 1 {
		t.Fatalf("Outstanding before poll = %d, want 1", got)
	}
	fc.Advance(40 * time.Millisecond)
	rt.Poll()
	select {
	case <-fired:
		t.Fatal("fired before its deadline")
	default:
	}
	if got := rt.Outstanding(); got != 1 {
		t.Fatalf("Outstanding after arming = %d, want 1", got)
	}
	fc.Advance(10 * time.Millisecond)
	if n := rt.Poll(); n != 1 {
		t.Fatalf("Poll fired %d, want 1", n)
	}
	<-fired
	checkConservation(t, rt)
}

// TestIngressFirstPollAtDeadline covers the deadline anchoring: a timer
// whose first poll is the one whose advance crosses its deadline must
// still fire on time (not a tick late).
func TestIngressFirstPollAtDeadline(t *testing.T) {
	rt, fc := newIngressRuntime(t)
	fired := false
	if _, err := rt.AfterFunc(30*time.Millisecond, func() { fired = true }); err != nil {
		t.Fatalf("AfterFunc: %v", err)
	}
	fc.Advance(30 * time.Millisecond)
	if n := rt.Poll(); n != 1 || !fired {
		t.Fatalf("Poll fired %d (fired=%v), want 1 at the deadline poll", n, fired)
	}
}

func TestIngressStopBeforeApplyNeverTouchesWheel(t *testing.T) {
	rt, fc := newIngressRuntime(t)
	tm, err := rt.AfterFunc(50*time.Millisecond, func() { t.Error("cancelled timer fired") })
	if err != nil {
		t.Fatalf("AfterFunc: %v", err)
	}
	if !tm.Stop() {
		t.Fatal("Stop before the first poll refused")
	}
	rt.Poll()
	if got := rt.Outstanding(); got != 0 {
		t.Fatalf("Outstanding=%d, want 0", got)
	}
	started, _, stopped := rt.Stats()
	if started != 1 || stopped != 1 {
		t.Fatalf("started=%d stopped=%d, want 1/1", started, stopped)
	}
	fc.Advance(100 * time.Millisecond)
	rt.Poll()
	checkConservation(t, rt)
}

func TestIngressStopArmed(t *testing.T) {
	rt, fc := newIngressRuntime(t)
	tm, _ := rt.AfterFunc(50*time.Millisecond, func() { t.Error("cancelled timer fired") })
	rt.Poll()
	if !tm.Stop() {
		t.Fatal("Stop on an armed timer refused")
	}
	fc.Advance(100 * time.Millisecond)
	rt.Poll()
	if got := rt.Outstanding(); got != 0 {
		t.Fatalf("Outstanding=%d, want 0", got)
	}
	checkConservation(t, rt)
}

func TestIngressDoubleStop(t *testing.T) {
	rt, _ := newIngressRuntime(t)
	tm, _ := rt.AfterFunc(time.Second, func() {})
	if !tm.Stop() {
		t.Fatal("first Stop refused")
	}
	if tm.Stop() {
		t.Fatal("second Stop accepted")
	}
}

func TestIngressResetExtendsDeadline(t *testing.T) {
	rt, fc := newIngressRuntime(t)
	var firedAt time.Duration
	elapsed := time.Duration(0)
	tm, _ := rt.AfterFunc(50*time.Millisecond, func() { firedAt = elapsed })
	rt.Poll()
	fc.Advance(30 * time.Millisecond)
	elapsed = 30 * time.Millisecond
	rt.Poll()
	if wasPending, err := tm.Reset(50 * time.Millisecond); err != nil || !wasPending {
		t.Fatalf("Reset = (%v, %v), want (true, nil)", wasPending, err)
	}
	for i := 0; i < 10; i++ {
		fc.Advance(10 * time.Millisecond)
		elapsed += 10 * time.Millisecond
		rt.Poll()
		if firedAt != 0 {
			break
		}
	}
	if firedAt != 80*time.Millisecond {
		t.Fatalf("fired at %v, want 80ms (30ms + reset 50ms)", firedAt)
	}
	checkConservation(t, rt)
}

// TestIngressResetStagedTimer resets a timer before any poll, next to a
// second pending timer: the reset must supersede the first arm, not
// double-arm.
func TestIngressResetStagedTimer(t *testing.T) {
	rt, fc := newIngressRuntime(t, WithIngress(2))
	fires := 0
	tm, _ := rt.AfterFunc(30*time.Millisecond, func() { fires++ })
	if _, err := rt.AfterFunc(500*time.Millisecond, func() {}); err != nil {
		t.Fatalf("filler: %v", err)
	}
	if wasPending, err := tm.Reset(60 * time.Millisecond); err != nil || !wasPending {
		t.Fatalf("Reset(pending) = (%v, %v), want (true, nil)", wasPending, err)
	}
	fc.Advance(40 * time.Millisecond)
	rt.Poll()
	if fires != 0 {
		t.Fatalf("fired %d times before the reset deadline", fires)
	}
	fc.Advance(30 * time.Millisecond)
	rt.Poll()
	if fires != 1 {
		t.Fatalf("fired %d times, want exactly 1 (no double-arm)", fires)
	}
	fc.Advance(time.Second)
	rt.Poll()
	if fires != 1 {
		t.Fatalf("fired %d times after drain, want 1", fires)
	}
	checkConservation(t, rt)
}

func TestIngressAfterChannel(t *testing.T) {
	rt, fc := newIngressRuntime(t)
	ch, err := rt.After(20 * time.Millisecond)
	if err != nil {
		t.Fatalf("After: %v", err)
	}
	fc.Advance(20 * time.Millisecond)
	rt.Poll()
	select {
	case <-ch:
	default:
		t.Fatal("After channel empty at deadline")
	}
	checkConservation(t, rt)
}

// TestIngressRingFullFallsBackToLock admits more timers than the depth
// the option is given: the depth is ignored, every one arms and fires.
func TestIngressRingFullFallsBackToLock(t *testing.T) {
	rt, fc := newIngressRuntime(t, WithIngress(2))
	fired := 0
	const n = 20
	for i := 0; i < n; i++ {
		if _, err := rt.AfterFunc(30*time.Millisecond, func() { fired++ }); err != nil {
			t.Fatalf("AfterFunc %d: %v", i, err)
		}
	}
	if got := rt.Outstanding(); got != n {
		t.Fatalf("Outstanding=%d, want %d", got, n)
	}
	fc.Advance(30 * time.Millisecond)
	rt.Poll()
	if fired != n {
		t.Fatalf("fired=%d, want %d", fired, n)
	}
	checkConservation(t, rt)
}

func TestScheduleBatchIngress(t *testing.T) {
	rt, fc := newIngressRuntime(t)
	var fired atomic.Int64
	reqs := make([]Req, 64)
	for i := range reqs {
		reqs[i] = Req{After: 30 * time.Millisecond, Fn: func() { fired.Add(1) }, Opt: WithPriority(PriorityCritical)}
	}
	timers, err := rt.ScheduleBatch(reqs)
	if err != nil {
		t.Fatalf("ScheduleBatch: %v", err)
	}
	if got := rt.StopBatch(timers[:32]); got != 32 {
		t.Fatalf("StopBatch=%d, want 32", got)
	}
	fc.Advance(30 * time.Millisecond)
	rt.Poll()
	if fired.Load() != 32 {
		t.Fatalf("fired=%d, want 32", fired.Load())
	}
	started, _, stopped := rt.Stats()
	if started != 64 || stopped != 32 {
		t.Fatalf("started=%d stopped=%d, want 64/32", started, stopped)
	}
	checkConservation(t, rt)
}

// TestScheduleBatchLargerThanRing schedules a batch larger than the
// depth the option is given: the whole batch arms.
func TestScheduleBatchLargerThanRing(t *testing.T) {
	rt, fc := newIngressRuntime(t, WithIngress(4))
	fired := 0
	reqs := make([]Req, 32)
	for i := range reqs {
		reqs[i] = Req{After: 10 * time.Millisecond, Fn: func() { fired++ }}
	}
	timers, err := rt.ScheduleBatch(reqs)
	if err != nil {
		t.Fatalf("ScheduleBatch: %v", err)
	}
	for _, tm := range timers {
		if tm == nil {
			t.Fatal("nil timer in batch")
		}
	}
	fc.Advance(10 * time.Millisecond)
	rt.Poll()
	if fired != 32 {
		t.Fatalf("fired=%d, want 32", fired)
	}
	checkConservation(t, rt)
}

func TestIngressDrainCancelsStaged(t *testing.T) {
	rt, _ := newIngressRuntime(t)
	var fired atomic.Int64
	reqs := make([]Req, 16)
	for i := range reqs {
		reqs[i] = Req{After: time.Hour, Fn: func() { fired.Add(1) }}
	}
	if _, err := rt.ScheduleBatch(reqs); err != nil {
		t.Fatalf("ScheduleBatch: %v", err)
	}
	// No Poll before the drain begins.
	rep, err := rt.Drain(context.Background(), DrainCancelAll)
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if rep.Cancelled != 16 {
		t.Fatalf("Cancelled=%d, want 16 (unpolled schedules must reach the policy)", rep.Cancelled)
	}
	if fired.Load() != 0 {
		t.Fatalf("fired=%d, want 0", fired.Load())
	}
	h := rt.Health()
	if h.AbandonedOnClose != 16 {
		t.Fatalf("AbandonedOnClose=%d, want 16", h.AbandonedOnClose)
	}
	checkConservation(t, rt)
}

func TestIngressDrainFireNowFiresStaged(t *testing.T) {
	rt, _ := newIngressRuntime(t)
	var fired atomic.Int64
	for i := 0; i < 8; i++ {
		if _, err := rt.AfterFunc(time.Hour, func() { fired.Add(1) }); err != nil {
			t.Fatalf("AfterFunc: %v", err)
		}
	}
	rep, err := rt.Drain(context.Background(), DrainFireNow)
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if rep.Fired != 8 || fired.Load() != 8 {
		t.Fatalf("Fired=%d actual=%d, want 8/8", rep.Fired, fired.Load())
	}
	checkConservation(t, rt)
}

func TestIngressScheduleAfterCloseFails(t *testing.T) {
	rt, _ := newIngressRuntime(t)
	rt.Close()
	if _, err := rt.AfterFunc(time.Second, func() {}); err != ErrRuntimeClosed {
		t.Fatalf("AfterFunc after Close: err=%v, want ErrRuntimeClosed", err)
	}
	if _, err := rt.ScheduleBatch([]Req{{After: time.Second, Fn: func() {}}}); err != ErrRuntimeClosed {
		t.Fatalf("ScheduleBatch after Close: err=%v, want ErrRuntimeClosed", err)
	}
}

func TestIngressEvery(t *testing.T) {
	rt, fc := newIngressRuntime(t)
	fires := 0
	tk, err := rt.Every(20*time.Millisecond, func() { fires++ })
	if err != nil {
		t.Fatalf("Every: %v", err)
	}
	for i := 0; i < 6; i++ {
		fc.Advance(10 * time.Millisecond)
		rt.Poll()
	}
	tk.Stop()
	if fires != 3 {
		t.Fatalf("ticker fired %d times in 60ms at 20ms period, want 3", fires)
	}
}

// TestIngressSingleOpAllocFree keeps the single-timer path
// allocation-free once warm (the batch APIs allocate their result
// slices by design).
func TestIngressSingleOpAllocFree(t *testing.T) {
	rt, _ := newIngressRuntime(t)
	// Warm the free list.
	for i := 0; i < 100; i++ {
		tm, err := rt.AfterFunc(time.Second, func() {})
		if err != nil {
			t.Fatalf("warmup: %v", err)
		}
		tm.Stop()
	}
	rt.Poll()
	allocs := testing.AllocsPerRun(500, func() {
		tm, err := rt.AfterFunc(time.Second, func() {})
		if err != nil {
			t.Fatalf("AfterFunc: %v", err)
		}
		if !tm.Stop() {
			t.Fatal("Stop refused")
		}
		rt.Poll()
	})
	if allocs != 0 {
		t.Fatalf("AfterFunc+Stop+Poll allocates %.1f/op, want 0", allocs)
	}
}

// TestIngressOverloadHammerBatchedProducers is a race hammer: producer
// goroutines push batches while the real driver polls, then Drain or
// Close lands mid-batch. The assertions validate the conservation
// ledger and that no Critical timer is ever shed.
func TestIngressOverloadHammerBatchedProducers(t *testing.T) {
	for _, mode := range []string{"drain", "close"} {
		t.Run(mode, func(t *testing.T) {
			rt := NewRuntime(
				WithGranularity(time.Millisecond),
				WithIngress(1<<10),
			)
			const producers = 4
			var wg sync.WaitGroup
			stop := make(chan struct{})
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(p)))
					var noop = func() {}
					for {
						select {
						case <-stop:
							return
						default:
						}
						reqs := make([]Req, 16)
						for i := range reqs {
							prio := PriorityBestEffort
							switch rng.Intn(3) {
							case 1:
								prio = PriorityNormal
							case 2:
								prio = PriorityCritical
							}
							reqs[i] = Req{
								After: time.Duration(1+rng.Intn(20)) * time.Millisecond,
								Fn:    noop,
								Opt:   WithPriority(prio),
							}
						}
						timers, err := rt.ScheduleBatch(reqs)
						if err != nil {
							return // draining/closed: hammer over
						}
						// Stop a random half, single and batched.
						if rng.Intn(2) == 0 {
							rt.StopBatch(timers[:8])
						} else {
							for _, tm := range timers[:8] {
								if tm != nil {
									tm.Stop()
								}
							}
						}
					}
				}(p)
			}
			time.Sleep(50 * time.Millisecond)
			// Shut down while producers are mid-batch.
			switch mode {
			case "drain":
				ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
				if _, err := rt.Drain(ctx, DrainWaitUntilDeadline); err != nil {
					t.Fatalf("Drain: %v", err)
				}
				cancel()
			case "close":
				rt.Close()
			}
			close(stop)
			wg.Wait()

			started, expired, stopped := rt.Stats()
			h := rt.Health()
			if started != expired+stopped+h.AbandonedOnClose {
				t.Fatalf("ledger: started=%d != expired=%d + stopped=%d + abandoned=%d",
					started, expired, stopped, h.AbandonedOnClose)
			}
			if shed := h.ByClass[PriorityCritical].Shed; shed != 0 {
				t.Fatalf("critical timers shed: %d, want 0", shed)
			}
			if started == 0 {
				t.Fatal("hammer admitted nothing; test is vacuous")
			}
		})
	}
}

func TestResetBatchIngressArmed(t *testing.T) {
	rt, fc := newIngressRuntime(t)
	var fired atomic.Int64
	reqs := make([]Req, 8)
	for i := range reqs {
		reqs[i] = Req{After: 30 * time.Millisecond, Fn: func() { fired.Add(1) }}
	}
	timers, err := rt.ScheduleBatch(reqs)
	if err != nil {
		t.Fatalf("ScheduleBatch: %v", err)
	}
	rt.Poll()
	rr := make([]ResetReq, len(timers))
	for i, tm := range timers {
		rr[i] = ResetReq{T: tm, After: 60 * time.Millisecond}
	}
	n, err := rt.ResetBatch(rr)
	if err != nil || n != 8 {
		t.Fatalf("ResetBatch = (%d, %v), want (8, nil)", n, err)
	}
	fc.Advance(40 * time.Millisecond)
	rt.Poll()
	if fired.Load() != 0 {
		t.Fatalf("fired=%d at the superseded deadline, want 0", fired.Load())
	}
	fc.Advance(20 * time.Millisecond)
	rt.Poll()
	if fired.Load() != 8 {
		t.Fatalf("fired=%d, want 8", fired.Load())
	}
	checkConservation(t, rt)
}

// TestResetBatchIngressStaged resets a batch before any poll: every
// timer must land on the new deadline without double-arming.
func TestResetBatchIngressStaged(t *testing.T) {
	rt, fc := newIngressRuntime(t)
	var fired atomic.Int64
	reqs := make([]Req, 8)
	for i := range reqs {
		reqs[i] = Req{After: 30 * time.Millisecond, Fn: func() { fired.Add(1) }}
	}
	timers, err := rt.ScheduleBatch(reqs)
	if err != nil {
		t.Fatalf("ScheduleBatch: %v", err)
	}
	rr := make([]ResetReq, len(timers))
	for i, tm := range timers {
		rr[i] = ResetReq{T: tm, After: 60 * time.Millisecond}
	}
	if n, err := rt.ResetBatch(rr); err != nil || n != 8 {
		t.Fatalf("ResetBatch = (%d, %v), want (8, nil)", n, err)
	}
	fc.Advance(40 * time.Millisecond)
	rt.Poll()
	if fired.Load() != 0 {
		t.Fatalf("fired=%d at the superseded deadline, want 0", fired.Load())
	}
	fc.Advance(20 * time.Millisecond)
	rt.Poll()
	if fired.Load() != 8 {
		t.Fatalf("fired=%d, want exactly 8 (no double-arm)", fired.Load())
	}
	fc.Advance(time.Second)
	rt.Poll()
	if fired.Load() != 8 {
		t.Fatalf("fired=%d after settling, want 8", fired.Load())
	}
	checkConservation(t, rt)
}
