package timer

import (
	"testing"
	"time"
)

// FuzzBatch decodes fuzzer bytes into an arbitrary interleaving of
// single and batched schedule/stop/reset operations against a runtime
// (manual driver, so every run is deterministic) and checks two
// properties after every operation: no panic, and the conservation
// ledger
//
//	started == expired + stopped + outstanding + abandoned
//
// which in manual mode must hold at EVERY instant, not just at
// quiescence.
func FuzzBatch(f *testing.F) {
	f.Add([]byte{0, 5, 6, 0, 2, 9, 3, 0, 6, 0})
	f.Add([]byte{2, 255, 4, 3, 5, 0, 6, 0, 6, 0, 6, 0})
	f.Add([]byte{0, 1, 0, 1, 3, 1, 5, 0, 2, 17, 6, 9, 4, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			data = data[:256]
		}
		fc := newFakeClock()
		rt := NewRuntime(
			WithGranularity(time.Millisecond),
			WithNowFunc(fc.Now),
			WithManualDriver(),
		)
		defer rt.Close()

		var live []*Timer
		noop := func() {}
		check := func(op string) {
			started, expired, stopped := rt.Stats()
			out := uint64(rt.Outstanding())
			abandoned := rt.Health().AbandonedOnClose
			if started != expired+stopped+out+abandoned {
				t.Fatalf("after %s: started=%d != expired=%d + stopped=%d + outstanding=%d + abandoned=%d",
					op, started, expired, stopped, out, abandoned)
			}
		}

		for i := 0; i+1 < len(data); i += 2 {
			sel, arg := data[i], data[i+1]
			switch sel % 8 {
			case 0, 1: // single schedule
				d := time.Duration(arg%64+1) * time.Millisecond
				tm, err := rt.AfterFunc(d, noop)
				if err != nil {
					t.Fatalf("AfterFunc(%v): %v", d, err)
				}
				live = append(live, tm)
			case 2: // batched schedule, mixed priorities, one voided slot
				n := int(arg%16) + 1
				reqs := make([]Req, n)
				for j := range reqs {
					reqs[j] = Req{
						After: time.Duration((int(arg)+j)%64+1) * time.Millisecond,
						Fn:    noop,
						Opt:   WithPriority(Priority(j % 3)),
					}
				}
				if arg%5 == 0 {
					reqs[n-1].Fn = nil // must yield a nil slot + ErrNilCallback
				}
				timers, err := rt.ScheduleBatch(reqs)
				if reqs[n-1].Fn == nil && err != ErrNilCallback {
					t.Fatalf("ScheduleBatch with nil Fn: err=%v, want ErrNilCallback", err)
				}
				for _, tm := range timers {
					if tm != nil {
						live = append(live, tm)
					}
				}
			case 3: // single stop
				if len(live) > 0 {
					j := int(arg) % len(live)
					live[j].Stop()
					live = append(live[:j], live[j+1:]...)
				}
			case 4: // batched stop of a prefix
				if len(live) > 0 {
					n := int(arg)%len(live) + 1
					rt.StopBatch(live[:n])
					live = live[n:]
				}
			case 5: // reset
				if len(live) > 0 {
					j := int(arg) % len(live)
					d := time.Duration(arg%32+1) * time.Millisecond
					if _, err := live[j].Reset(d); err != nil {
						t.Fatalf("Reset(%v): %v", d, err)
					}
				}
			case 6: // advance + poll
				fc.Advance(time.Duration(arg%16) * time.Millisecond)
				rt.Poll()
			case 7: // batched reset of a prefix
				if len(live) > 0 {
					n := int(arg)%len(live) + 1
					rr := make([]ResetReq, n)
					for j := range rr {
						rr[j] = ResetReq{T: live[j], After: time.Duration((int(arg)+j)%32+1) * time.Millisecond}
					}
					if got, err := rt.ResetBatch(rr); err != nil || got != n {
						t.Fatalf("ResetBatch(%d) = (%d, %v), want (%d, nil)", n, got, err, n)
					}
				}
			}
			check(opName(sel % 8))
		}
		// Drain everything that is left and re-check the closed ledger.
		fc.Advance(200 * time.Millisecond)
		rt.Poll()
		check("final poll")
	})
}

func opName(sel byte) string {
	switch sel {
	case 0, 1:
		return "schedule"
	case 2:
		return "schedule-batch"
	case 3:
		return "stop"
	case 4:
		return "stop-batch"
	case 5:
		return "reset"
	case 6:
		return "advance"
	default:
		return "reset-batch"
	}
}
