package timer

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// checkConservation asserts the quiescent ledger: every admission is
// accounted as delivered, shed, stopped, outstanding, or abandoned.
func checkConservation(t *testing.T, rt *Runtime) {
	t.Helper()
	started, expired, stopped := rt.Stats()
	h := rt.Health()
	out := uint64(rt.Outstanding())
	if started != expired+stopped+out+h.AbandonedOnClose {
		t.Fatalf("ledger: started=%d != expired=%d + stopped=%d + outstanding=%d + abandoned=%d",
			started, expired, stopped, out, h.AbandonedOnClose)
	}
}

func TestScheduleBatchSync(t *testing.T) {
	rt, fc := newManualRuntime(t)
	fired := 0
	reqs := make([]Req, 10)
	for i := range reqs {
		reqs[i] = Req{After: time.Duration(i+1) * 10 * time.Millisecond, Fn: func() { fired++ }}
	}
	reqs[3].Fn = nil // voided entry
	timers, err := rt.ScheduleBatch(reqs)
	if err != ErrNilCallback {
		t.Fatalf("ScheduleBatch err=%v, want ErrNilCallback", err)
	}
	if len(timers) != len(reqs) || timers[3] != nil {
		t.Fatalf("timers len=%d, slot3=%v; want parallel slice with nil slot 3", len(timers), timers[3])
	}
	// Stop the last 4 in one batch.
	if got := rt.StopBatch(timers[6:]); got != 4 {
		t.Fatalf("StopBatch=%d, want 4", got)
	}
	fc.Advance(200 * time.Millisecond)
	rt.Poll()
	if fired != 5 { // 9 valid - 4 stopped
		t.Fatalf("fired=%d, want 5", fired)
	}
	started, _, stopped := rt.Stats()
	if started != 9 || stopped != 4 {
		t.Fatalf("started=%d stopped=%d, want 9/4", started, stopped)
	}
	checkConservation(t, rt)
}

func TestResetBatchSync(t *testing.T) {
	rt, fc := newManualRuntime(t)
	fired := 0
	reqs := make([]Req, 5)
	for i := range reqs {
		reqs[i] = Req{After: 30 * time.Millisecond, Fn: func() { fired++ }}
	}
	timers, err := rt.ScheduleBatch(reqs)
	if err != nil {
		t.Fatalf("ScheduleBatch: %v", err)
	}
	fc.Advance(20 * time.Millisecond)
	rt.Poll()
	rr := make([]ResetReq, 0, len(timers)+1)
	rr = append(rr, ResetReq{}) // nil entry skipped
	for _, tm := range timers {
		rr = append(rr, ResetReq{T: tm, After: 50 * time.Millisecond})
	}
	n, err := rt.ResetBatch(rr)
	if err != nil || n != 5 {
		t.Fatalf("ResetBatch = (%d, %v), want (5, nil)", n, err)
	}
	// Old deadline (t=30ms) passes without firing.
	fc.Advance(20 * time.Millisecond)
	rt.Poll()
	if fired != 0 {
		t.Fatalf("fired=%d at the old deadline, want 0", fired)
	}
	// New deadline: 20ms + 50ms = t=70ms.
	fc.Advance(30 * time.Millisecond)
	rt.Poll()
	if fired != 5 {
		t.Fatalf("fired=%d, want 5", fired)
	}
	checkConservation(t, rt)
}

func TestResetBatchClosedRuntime(t *testing.T) {
	rt, _ := newManualRuntime(t)
	tm, _ := rt.AfterFunc(time.Second, func() {})
	rt.Close()
	if n, err := rt.ResetBatch([]ResetReq{{T: tm, After: time.Second}}); err != ErrRuntimeClosed || n != 0 {
		t.Fatalf("ResetBatch after Close = (%d, %v), want (0, ErrRuntimeClosed)", n, err)
	}
}

func TestResetBatchSharded(t *testing.T) {
	s := NewSharded(2, WithGranularity(time.Millisecond))
	defer s.Close()
	var fired atomic.Int64
	// One batch per shard so the runs interleave.
	reqs := make([]ResetReq, 0, 8)
	for i := 0; i < 8; i++ {
		tm, err := s.AfterFuncKey(uint64(i), time.Hour, func() { fired.Add(1) })
		if err != nil {
			t.Fatalf("AfterFuncKey: %v", err)
		}
		reqs = append(reqs, ResetReq{T: tm, After: 5 * time.Millisecond})
	}
	n, err := s.ResetBatch(reqs)
	if err != nil || n != 8 {
		t.Fatalf("Sharded.ResetBatch = (%d, %v), want (8, nil)", n, err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for fired.Load() != 8 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if fired.Load() != 8 {
		t.Fatalf("fired=%d after reset to 5ms, want 8", fired.Load())
	}
}

// TestDrainFireNowRacesLateScheduleBatch is a race hammer for Drain's
// ledger: producers push ScheduleBatch, StopBatch and ResetBatch
// traffic — some of it beyond a bounded scheme's horizon, so the
// facility refuses part of every batch — while Drain(DrainFireNow)
// lands mid-batch. Every admitted timer must end up in exactly one
// ledger bucket.
func TestDrainFireNowRacesLateScheduleBatch(t *testing.T) {
	for round := 0; round < 4; round++ {
		// Horizon 63 ticks = 63ms at 1ms granularity; intervals are drawn
		// from [1ms, 100ms] so a fraction of admissions are refused.
		rt := NewRuntime(
			WithGranularity(time.Millisecond),
			WithScheme(NewHierarchicalWheel([]int{8, 8}, MigrateAlways)),
		)
		const producers = 4
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(round*producers + p)))
				noop := func() {}
				for {
					reqs := make([]Req, 16)
					for i := range reqs {
						reqs[i] = Req{
							After: time.Duration(1+rng.Intn(100)) * time.Millisecond,
							Fn:    noop,
						}
					}
					timers, err := rt.ScheduleBatch(reqs)
					if err == ErrDraining || err == ErrRuntimeClosed {
						return // hammer over
					}
					switch rng.Intn(3) {
					case 0:
						rt.StopBatch(timers[:8])
					case 1:
						rr := make([]ResetReq, 8)
						for i := range rr {
							rr[i] = ResetReq{T: timers[i], After: time.Duration(1+rng.Intn(100)) * time.Millisecond}
						}
						rt.ResetBatch(rr)
					}
				}
			}(p)
		}
		time.Sleep(20 * time.Millisecond)
		if _, err := rt.Drain(context.Background(), DrainFireNow); err != nil {
			t.Fatalf("Drain: %v", err)
		}
		wg.Wait()

		started, expired, stopped := rt.Stats()
		h := rt.Health()
		if started != expired+stopped+h.AbandonedOnClose {
			t.Fatalf("round %d ledger: started=%d != expired=%d + stopped=%d + abandoned=%d",
				round, started, expired, stopped, h.AbandonedOnClose)
		}
		if started == 0 {
			t.Fatalf("round %d admitted nothing; hammer is vacuous", round)
		}
	}
}
