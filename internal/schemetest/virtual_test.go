package schemetest

import (
	"testing"
	"time"

	"timingwheels/internal/core"
	"timingwheels/timer"
)

// virtualFacility adapts the full concurrent runtime — driven through a
// fake clock by timer.VirtualDriver — to the core.Facility shape the
// conformance suite speaks. One model tick is one granularity step of
// virtual time, so the whole randomized differential run executes in
// compressed time with zero sleeping, and the production stack (admission,
// guard, catch-up, delivery, histograms) is held to the same
// tick-exact oracle as the bare schemes.
type virtualFacility struct {
	rt    *timer.Runtime
	vd    *timer.VirtualDriver
	start time.Time
	gran  time.Duration
}

func newVirtualFacility(t *testing.T, gran time.Duration) *virtualFacility {
	t.Helper()
	rt, vd := timer.NewVirtualRuntime(
		timer.WithGranularity(gran),
		timer.WithMaxCatchUp(0),
	)
	t.Cleanup(func() { rt.Close() })
	return &virtualFacility{rt: rt, vd: vd, start: vd.Clock().Now(), gran: gran}
}

func (v *virtualFacility) Name() string { return "runtime-virtual" }

type virtualHandle struct{ tm *timer.Timer }

func (virtualHandle) TimerID() core.ID { return 0 }

func (v *virtualFacility) StartTimer(interval core.Tick, cb core.Callback) (core.Handle, error) {
	if interval < 1 {
		return nil, core.ErrNonPositiveInterval
	}
	if cb == nil {
		return nil, core.ErrNilCallback
	}
	tm, err := v.rt.AfterFunc(time.Duration(interval)*v.gran, func() { cb(0) })
	if err != nil {
		return nil, err
	}
	return virtualHandle{tm: tm}, nil
}

func (v *virtualFacility) StopTimer(h core.Handle) error {
	vh, ok := h.(virtualHandle)
	if !ok {
		return core.ErrForeignHandle
	}
	if !vh.tm.Stop() {
		return core.ErrTimerNotPending
	}
	return nil
}

// Tick advances one granularity step of virtual time; expiry actions
// run inline on this goroutine before Run returns.
func (v *virtualFacility) Tick() int { return v.vd.Run(v.gran) }

// Now derives the model tick from the fake clock rather than runtime
// state, so it is safe to call from inside an expiry action.
func (v *virtualFacility) Now() core.Tick {
	return core.Tick(v.vd.Clock().Now().Sub(v.start) / v.gran)
}

func (v *virtualFacility) Len() int { return int(v.rt.Snapshot().Outstanding) }

// TestVirtualRuntimeConformance runs the randomized oracle differential
// against the runtime under compressed time: every op program the
// schemes must pass, the production stack must pass too, at the same
// ticks.
func TestVirtualRuntimeConformance(t *testing.T) {
	for _, seed := range []uint64{3, 11} {
		RunConformance(t, func() core.Facility {
			return newVirtualFacility(t, time.Millisecond)
		}, Config{Seed: seed, Ops: 1500, MaxInterval: 64})
	}
}

// TestVirtualRuntimeExactness sweeps interval boundary cases through
// the virtual-time runtime: a timer of interval d must fire at exactly
// tick d, never a tick early or late, even across wheel wrap points.
func TestVirtualRuntimeExactness(t *testing.T) {
	RunExactness(t, func() core.Facility {
		return newVirtualFacility(t, time.Millisecond)
	}, []core.Tick{1, 2, 63, 64, 65, 255, 256, 257, 512, 1000})
}

// TestVirtualRuntimeReentrancy checks that expiry actions scheduling
// and stopping timers on the same runtime behave identically under the
// virtual driver: mid-flight schedules are honoured at their exact
// ticks, not deferred to the end of the advance.
func TestVirtualRuntimeReentrancy(t *testing.T) {
	RunReentrancy(t, func() core.Facility {
		return newVirtualFacility(t, time.Millisecond)
	})
}
