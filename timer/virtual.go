package timer

import (
	"time"

	"timingwheels/clock"
)

// VirtualDriver advances a manual runtime through virtual time as fast
// as the wheel can drain: instead of sleeping between ticks it jumps
// the coupled Fake clock straight to the next outstanding deadline
// (schemes with NextExpiry skip idle spans entirely; others step tick
// by tick), polls, and repeats. Days of timer traffic replay in however
// long the expiry actions themselves take — the engine under the fleet
// simulator (cmd/twfleet) and the virtual-time replay mode of
// cmd/twreplay.
//
// The runtime must be built with WithManualDriver and read its time
// from the Fake (WithClockSource). Everything runs on the calling
// goroutine: expiry actions execute during Run/RunUntil, and they may
// schedule, reset, and stop timers freely.
type VirtualDriver struct {
	rt *Runtime
	fc *clock.Fake
}

// NewVirtualDriver couples rt (which must have been built with
// WithManualDriver, and should read fc via WithClockSource) to fc.
func NewVirtualDriver(rt *Runtime, fc *clock.Fake) *VirtualDriver {
	if !rt.manual {
		panic("timer: VirtualDriver requires a runtime built with WithManualDriver")
	}
	return &VirtualDriver{rt: rt, fc: fc}
}

// NewVirtualRuntime builds a runtime on a fresh Fake clock with the
// manual driver, plus the VirtualDriver that advances it — the usual
// way to stand up a virtual-time facility in one call. Extra options
// are applied after the clock/driver pair, so schemes, granularity,
// and hardening knobs compose as usual.
func NewVirtualRuntime(opts ...RuntimeOption) (*Runtime, *VirtualDriver) {
	fc := clock.NewFake(time.Time{})
	all := append([]RuntimeOption{WithClockSource(fc), WithManualDriver()}, opts...)
	rt := NewRuntime(all...)
	return rt, NewVirtualDriver(rt, fc)
}

// Clock returns the Fake the driver advances.
func (vd *VirtualDriver) Clock() *clock.Fake { return vd.fc }

// Runtime returns the runtime the driver polls.
func (vd *VirtualDriver) Runtime() *Runtime { return vd.rt }

// Run advances virtual time by d, firing every expiry crossed at its
// own tick, and returns the number of expiries delivered.
func (vd *VirtualDriver) Run(d time.Duration) int {
	return vd.RunUntil(vd.fc.Now().Add(d))
}

// RunUntil advances virtual time to target, firing every expiry
// crossed at its own tick (so timers scheduled by expiry actions are
// honoured mid-flight, not just ones outstanding at the start), and
// returns the number of expiries delivered.
func (vd *VirtualDriver) RunUntil(target time.Time) int {
	rt := vd.rt
	delivered := vd.drain()
	for {
		next, ok := vd.nextWake()
		if !ok || next.After(target) {
			break
		}
		if !next.After(vd.fc.Now()) {
			// Shouldn't happen after a full drain; step one tick so a
			// facility/clock skew can't spin us in place.
			vd.fc.Advance(rt.Granularity())
		} else {
			vd.fc.AdvanceTo(next)
		}
		delivered += vd.drain()
	}
	// Land exactly on the horizon and fire anything due at it.
	if target.After(vd.fc.Now()) {
		vd.fc.AdvanceTo(target)
	}
	return delivered + vd.drain()
}

// drain polls the runtime until it has fully caught up with the fake's
// current reading (a long jump may take several WithMaxCatchUp bursts).
func (vd *VirtualDriver) drain() int {
	n := vd.rt.Poll()
	for vd.rt.behind.Load() > 0 {
		n += vd.rt.Poll()
	}
	return n
}

// nextWake reports the wall time of the earliest outstanding deadline:
// directly for schemes with NextExpiry, one tick ahead (per-tick
// stepping) otherwise. ok is false when nothing is outstanding or the
// deadline is too far out for Duration arithmetic (practically: never).
func (vd *VirtualDriver) nextWake() (time.Time, bool) {
	rt := vd.rt
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.closed {
		return time.Time{}, false
	}
	if rt.fac.Len() == 0 {
		return time.Time{}, false
	}
	ne, hasNext := rt.fac.(nextExpirer)
	if !hasNext {
		return rt.wall.TimeOf(int64(rt.fac.Now()) + 1), true
	}
	when, ok := ne.NextExpiry()
	if !ok || int64(when) >= int64(1<<62)/rt.granNS {
		return time.Time{}, false
	}
	return rt.wall.TimeOf(int64(when)), true
}
