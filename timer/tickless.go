package timer

import (
	"fmt"
	"time"

	"timingwheels/internal/core"
)

// WithTickless switches the runtime from periodic ticking to
// expiry-driven wakeups: instead of waking every granularity, the driver
// sleeps until the earliest outstanding deadline (or until an earlier
// timer is scheduled) — the section 3.2 optimization for hosts with
// hardware support for a single timer, where "the hardware intercepts
// all clock ticks and interrupts the host only when a timer actually
// expires".
//
// Tickless mode requires a scheme that can report its earliest expiry:
// NewOrderedList and NewTree do it in O(1); NewWheel and NewHybridWheel
// do it in O(range/64) via their occupancy bitmaps. The hashed and
// hierarchical wheels cannot (their slots mix revolutions), and
// NewRuntime panics if the scheme offers no NextExpiry. The trade-off
// is the paper's: schemes buy silence between expiries with costlier
// starts or bounded ranges, where the plain hashed wheel pays O(1) per
// start plus a cheap wakeup per tick.
func WithTickless() RuntimeOption {
	return func(c *runtimeConfig) { c.tickless = true }
}

// nextExpirer mirrors core.NextExpirer for the runtime's use.
type nextExpirer = core.NextExpirer

// ticklessLoop sleeps until the next deadline, a new-timer poke, or
// shutdown. maxIdle bounds the sleep when no timers are outstanding —
// and bounds every sleep, so a backward clock step (which inflates the
// computed wait) delays re-evaluation by at most maxIdle rather than
// parking the driver until the far future.
func (rt *Runtime) ticklessLoop() {
	defer close(rt.doneCh)
	const maxIdle = time.Minute
	// One wakeup timer reused across iterations (Stop-drain-Reset), from
	// the runtime's clock source so a Fake clock drives the sleeper too.
	wakeup := rt.clk.NewTimer(maxIdle)
	defer wakeup.Stop()
	for {
		rt.mu.Lock()
		var wait time.Duration
		if rt.closed {
			rt.mu.Unlock()
			return
		}
		switch {
		case rt.behind.Load() > 0:
			// Mid catch-up after a clock jump: re-poll immediately; the
			// WithMaxCatchUp budget bounds each burst.
			wait = 0
		default:
			if when, ok := rt.fac.(nextExpirer).NextExpiry(); ok && int64(when) < int64(1<<62)/rt.granNS {
				// Sleep until the wall time at which the expiry tick has
				// elapsed (the tick boundary after `when` begins). Ticks
				// so far out that tick*granularity would overflow a
				// Duration (TimeOf would wrap, yielding a negative wait
				// and a busy spin) fall through to the maxIdle nap.
				target := rt.wall.TimeOf(int64(when))
				wait = target.Sub(rt.now())
				if wait < 0 {
					wait = 0
				}
			} else {
				wait = maxIdle
			}
		}
		if wait > maxIdle {
			wait = maxIdle
		}
		rt.mu.Unlock()

		// Re-arm the shared timer. It is always in the fired-or-stopped
		// state here (every select arm below consumes or stops it), so
		// Stop+drain makes Reset race-free per the time.Timer contract.
		if !wakeup.Stop() {
			select {
			case <-wakeup.C():
			default:
			}
		}
		wakeup.Reset(wait)
		select {
		case <-rt.stopCh:
			return
		case <-rt.wake:
			// A timer with an earlier deadline was scheduled (or Reset)
			// while the driver slept; loop to re-arm the sleep against
			// the new earliest deadline. schedule/Reset poke under
			// rt.mu, and the recompute above retakes rt.mu, so the new
			// timer is always visible by the time the sleep is re-armed
			// — the buffered channel coalesces a burst of pokes into
			// one recompute.
		case <-wakeup.C():
			rt.Poll()
		}
	}
}

// poke wakes the tickless driver after scheduling; a buffered channel
// coalesces bursts.
func (rt *Runtime) poke() {
	if rt.wake == nil {
		return
	}
	select {
	case rt.wake <- struct{}{}:
	default:
	}
}

// validateTickless panics unless the scheme supports O(1) next-expiry
// queries.
func validateTickless(s Scheme) {
	if _, ok := s.(nextExpirer); !ok {
		panic(fmt.Sprintf(
			"timer: tickless runtime requires a scheme with NextExpiry "+
				"(ordered list, tree, bounded wheel, or hybrid); %s does not provide one",
			s.Name()))
	}
}
