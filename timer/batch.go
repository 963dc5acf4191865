package timer

import "time"

// Req is one schedule request in a ScheduleBatch.
type Req struct {
	// After is the delay before Fn runs; it rounds up to a whole tick,
	// minimum one.
	After time.Duration
	// Fn is the expiry action; a nil Fn voids the entry (its slot in
	// the returned []*Timer is nil and ScheduleBatch reports
	// ErrNilCallback).
	Fn func()
	// Opt tunes overload behavior (e.g. WithPriority); the zero value
	// means PriorityNormal.
	Opt ScheduleOption
}

// ResetReq is one entry in a ResetBatch call.
type ResetReq struct {
	// T is the timer to re-arm; nil entries are skipped.
	T *Timer
	// After is the new delay; it rounds up to a whole tick, minimum one.
	After time.Duration
}

// ScheduleBatch schedules every request under a single lock
// acquisition, amortizing the admission cost across the batch. The
// returned slice is parallel to reqs; a slot is nil when its request
// was refused (nil Fn, or an interval the scheme cannot store), and the
// first such refusal is reported as the error alongside the timers that
// did get scheduled. On a draining or closed runtime nothing is
// scheduled and the slice is nil.
func (rt *Runtime) ScheduleBatch(reqs []Req) ([]*Timer, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	timers := make([]*Timer, len(reqs))
	wallTicks := rt.wall.TicksAt(rt.now())
	var firstErr error
	rt.mu.Lock()
	if err := rt.admitErrLocked(); err != nil {
		rt.mu.Unlock()
		return nil, err
	}
	for i, q := range reqs {
		if q.Fn == nil {
			if firstErr == nil {
				firstErr = ErrNilCallback
			}
			continue
		}
		t := rt.acquireTimer()
		t.fn, t.ch = q.Fn, nil
		t.prio, t.tag = PriorityNormal, 0
		q.Opt.apply(t)
		if err := rt.armLocked(t, rt.stretch(rt.wall.TicksFor(q.After), wallTicks)); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			rt.recycleTimer(t)
			continue
		}
		timers[i] = t
	}
	rt.mu.Unlock()
	rt.poke()
	return timers, firstErr
}

// StopBatch cancels every (non-nil) timer under a single lock
// acquisition and reports how many were cancelled before firing; the
// count is exact, with Stop's per-timer contract. Timers belonging to a
// different runtime (a mixed batch) are stopped through their own
// runtime, one by one.
func (rt *Runtime) StopBatch(timers []*Timer) int {
	accepted := 0
	locked := false
	for _, t := range timers {
		if t == nil {
			continue
		}
		if t.rt != rt {
			if locked {
				rt.mu.Unlock()
				locked = false
			}
			if t.Stop() {
				accepted++
			}
			continue
		}
		if !locked {
			rt.mu.Lock()
			if rt.closed {
				rt.mu.Unlock()
				return accepted
			}
			locked = true
		}
		if rt.cancelLocked(t) {
			rt.recycleTimer(t)
			accepted++
		}
	}
	if locked {
		rt.mu.Unlock()
	}
	return accepted
}

// ResetBatch re-arms every (non-nil) timer to fire After from now under
// a single lock acquisition — the retransmission-window idiom at batch
// scale (every packet in a send burst Resets its timeout) — and reports
// exactly how many re-arms took effect, each with Reset's per-timer
// contract. Timers from another runtime are reset through their own
// runtime one by one. On a draining or closed runtime the remaining
// resets are refused — the timers keep their current deadlines and the
// drain policy disposes of them.
func (rt *Runtime) ResetBatch(reqs []ResetReq) (int, error) {
	if len(reqs) == 0 {
		return 0, nil
	}
	wallTicks := rt.wall.TicksAt(rt.now())
	accepted := 0
	var firstErr error
	locked := false
	unlock := func() {
		if locked {
			rt.mu.Unlock()
			locked = false
		}
	}
	for _, q := range reqs {
		if q.T == nil {
			continue
		}
		if q.T.rt != rt {
			unlock()
			if _, err := q.T.Reset(q.After); err == nil {
				accepted++
			} else if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if !locked {
			rt.mu.Lock()
			locked = true
			if err := rt.admitErrLocked(); err != nil {
				rt.mu.Unlock()
				return accepted, err
			}
		}
		ticks := rt.stretch(rt.wall.TicksFor(q.After), wallTicks)
		if _, err := rt.resetLocked(q.T, ticks); err != nil {
			// The old arm (if any) terminated as stopped; the re-arm was
			// refused — the same ledger shape as a Reset whose re-arm
			// fails.
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		accepted++
	}
	unlock()
	rt.poke()
	return accepted, firstErr
}

// ScheduleBatch schedules the whole batch on one shard (round-robin),
// so the batch pays one admission regardless of shard count and its
// timers fire in deadline order relative to each other. Spreading load
// across shards happens batch-by-batch, not request-by-request.
func (s *Sharded) ScheduleBatch(reqs []Req) ([]*Timer, error) {
	return s.pick().ScheduleBatch(reqs)
}

// StopBatch cancels every (non-nil) timer, forwarding each run of
// same-shard timers as one batch; a batch returned by ScheduleBatch is
// a single run. Reports how many timers were cancelled before firing.
func (s *Sharded) StopBatch(timers []*Timer) int {
	accepted := 0
	for i := 0; i < len(timers); {
		if timers[i] == nil {
			i++
			continue
		}
		rt := timers[i].rt
		j := i + 1
		for j < len(timers) && (timers[j] == nil || timers[j].rt == rt) {
			j++
		}
		accepted += rt.StopBatch(timers[i:j])
		i = j
	}
	return accepted
}

// ResetBatch re-arms every (non-nil) timer, forwarding each run of
// same-shard timers as one batch; a batch returned by ScheduleBatch is
// a single run. Reports how many re-arms took effect and the first
// per-timer refusal.
func (s *Sharded) ResetBatch(reqs []ResetReq) (int, error) {
	accepted := 0
	var firstErr error
	for i := 0; i < len(reqs); {
		if reqs[i].T == nil {
			i++
			continue
		}
		rt := reqs[i].T.rt
		j := i + 1
		for j < len(reqs) && (reqs[j].T == nil || reqs[j].T.rt == rt) {
			j++
		}
		a, err := rt.ResetBatch(reqs[i:j])
		accepted += a
		if err != nil && firstErr == nil {
			firstErr = err
		}
		i = j
	}
	return accepted, firstErr
}
