package main

import (
	"fmt"
	"time"

	"timingwheels/internal/core"
	"timingwheels/internal/replay"
	"timingwheels/timer"
)

// applyVirtual replays a schedule against the full concurrent runtime
// on a fake clock: one schedule tick becomes gran of virtual time, and
// the VirtualDriver compresses the whole run into however long the
// callbacks take. The resulting trace is directly Diff-able against the
// raw in-process schemes, which is the point — the production runtime
// (admission, guard, catch-up, delivery) must fire the same
// timers at the same ticks as the bare data structures.
//
// Expiry actions run inline on this goroutine during vd.Run, so the
// trace bookkeeping needs no locking.
func applyVirtual(ops []replay.Op, gran time.Duration, opts ...timer.RuntimeOption) (*replay.Trace, error) {
	rt, vd := timer.NewVirtualRuntime(append([]timer.RuntimeOption{
		timer.WithGranularity(gran),
		timer.WithMaxCatchUp(0),
	}, opts...)...)
	defer rt.Close()

	start := vd.Clock().Now()
	tr := &replay.Trace{}
	handles := make(map[int]*timer.Timer)
	var end core.Tick

	for i, op := range ops {
		switch op.Kind {
		case replay.OpStart:
			if _, live := handles[op.Key]; live {
				return nil, fmt.Errorf("replay: op %d: key %d already live", i, op.Key)
			}
			key := op.Key
			tm, err := rt.AfterFunc(time.Duration(op.Interval)*gran, func() {
				at := core.Tick(vd.Clock().Now().Sub(start) / gran)
				tr.Fires = append(tr.Fires, replay.Fire{Key: key, At: at})
			})
			if err != nil {
				return nil, fmt.Errorf("replay: op %d: start %d/%d: %w", i, op.Key, op.Interval, err)
			}
			handles[op.Key] = tm
		case replay.OpStop:
			tm, live := handles[op.Key]
			if !live {
				tr.StopErrors++
				continue
			}
			// Stop-true recycles the handle; either way this key is done.
			if !tm.Stop() {
				tr.StopErrors++
			}
			delete(handles, op.Key)
		case replay.OpTick:
			vd.Run(time.Duration(op.N) * gran)
			end += op.N
		}
	}
	tr.End = end
	tr.Pending = int(rt.Snapshot().Outstanding)
	return tr, nil
}
