package schemetest

// The Reset contract at the Runtime layer has one exact form, pinned
// here for both the default hashed wheel and the grouped sorting queue
// (whose in-place core.Resetter path must not change the observable
// semantics):
//
//   - Reset reports wasPending EXACTLY, and a Reset of a timer whose
//     action already ran re-arms it regardless (the retransmission
//     idiom: the report is history, the re-arm is unconditional). Only
//     a draining or closed runtime refuses a Reset.
//   - ResetBatch counts re-arms exactly, including for timers that
//     have not yet met a poll.

import (
	"errors"
	"testing"
	"time"

	"timingwheels/timer"
)

// contractSchemes returns the scheme flavors the Reset contract is
// pinned on: the default Scheme 6 wheel (stop+start Reset) and the
// grouped sorting queue (update-in-place Reset).
func contractSchemes() map[string][]timer.RuntimeOption {
	return map[string][]timer.RuntimeOption{
		"wheel": nil,
		"gsq": {timer.WithSchemeFactory(func() timer.Scheme {
			return timer.NewGroupedQueue(32, 8)
		})},
	}
}

// newContractRuntime builds a manual-driver runtime on a hand-driven
// clock and returns it with a step function that advances one tick per
// call and polls.
func newContractRuntime(t *testing.T, opts ...timer.RuntimeOption) (*timer.Runtime, func(n int)) {
	t.Helper()
	clk := &modelClock{now: time.Unix(1_000_000, 0)}
	rt := timer.NewRuntime(append([]timer.RuntimeOption{
		timer.WithGranularity(time.Millisecond),
		timer.WithNowFunc(clk.Now),
		timer.WithManualDriver(),
	}, opts...)...)
	step := func(n int) {
		for i := 0; i < n; i++ {
			clk.advance(time.Millisecond)
			rt.Poll()
		}
	}
	return rt, step
}

func TestResetContractSyncExact(t *testing.T) {
	for name, opts := range contractSchemes() {
		t.Run(name, func(t *testing.T) {
			rt, step := newContractRuntime(t, opts...)
			defer rt.Close()

			fired := 0
			tm, err := rt.AfterFunc(5*time.Millisecond, func() { fired++ })
			if err != nil {
				t.Fatalf("AfterFunc: %v", err)
			}

			// Pending timer: exact wasPending=true, fires at the NEW deadline.
			if wasPending, err := tm.Reset(3 * time.Millisecond); err != nil || !wasPending {
				t.Fatalf("Reset(pending) = (%v, %v), want (true, nil)", wasPending, err)
			}
			step(3)
			if fired != 1 {
				t.Fatalf("fired=%d after reset deadline, want 1", fired)
			}

			// Fired timer: exact wasPending=false — and the re-arm still
			// happens (the documented unconditional re-arm).
			if wasPending, err := tm.Reset(2 * time.Millisecond); err != nil || wasPending {
				t.Fatalf("Reset(fired) = (%v, %v), want (false, nil)", wasPending, err)
			}
			step(2)
			if fired != 2 {
				t.Fatalf("fired=%d after re-arm of fired timer, want 2", fired)
			}

			rt.Close()
			if _, err := tm.Reset(time.Millisecond); !errors.Is(err, timer.ErrRuntimeClosed) {
				t.Fatalf("Reset after Close: err=%v, want ErrRuntimeClosed", err)
			}
		})
	}
}

func TestResetBatchCountExactUnderStaging(t *testing.T) {
	for name, opts := range contractSchemes() {
		t.Run(name, func(t *testing.T) {
			// Built with the deprecated WithIngress option, which the
			// benchmark harness still passes: the count must stay exact.
			rt, step := newContractRuntime(t,
				append([]timer.RuntimeOption{timer.WithIngress(0)}, opts...)...)
			defer rt.Close()

			const k = 5
			fired := 0
			reqs := make([]timer.ResetReq, 0, k)
			for i := 0; i < k; i++ {
				tm, err := rt.AfterFunc(50*time.Millisecond, func() { fired++ })
				if err != nil {
					t.Fatalf("AfterFunc: %v", err)
				}
				reqs = append(reqs, timer.ResetReq{T: tm, After: 10 * time.Millisecond})
			}

			// No poll has run since the k admissions; the batch reset
			// must count exactly k and re-arm every one at the new
			// deadline.
			if n, err := rt.ResetBatch(reqs); n != k || err != nil {
				t.Fatalf("ResetBatch(unpolled) = (%d, %v), want (%d, nil)", n, err, k)
			}
			step(10)
			if fired != k {
				t.Fatalf("fired=%d at the batch deadline, want %d", fired, k)
			}
			if out := rt.Outstanding(); out != 0 {
				t.Fatalf("Outstanding=%d after batch fired, want 0", out)
			}
		})
	}
}
