package main

import "fmt"

// Stop outcomes recorded in the ledger.
const (
	stopNone  int8 = iota
	stopTrue       // the daemon acked stopped:true — the timer must never fire
	stopFalse      // stopped:false — it had already settled, so it fires once
)

// tstate is what the client knows about one durable timer ID.
type tstate struct {
	// deadline is the acked deadline in wall unix ns; after a reset it
	// is the earliest deadline the daemon can have set (reset send time
	// plus the new interval), which can only undercount early fires.
	deadline int64
	acked    bool
	expect   bool // expected to fire before the run ends
	stop     int8
}

// fireRec is what the fired feed delivered for one ID.
type fireRec struct {
	count   int32
	firedNS int64 // daemon's fire stamp (wall unix ns)
	recvNS  int64 // when the client held the page (wall unix ns)
}

// ledger is the correctness oracle for the twd workloads: the sender
// records acks and stops in timers, the fired poller records deliveries
// in fires, and verify joins the two once both goroutines have stopped.
// Each slice has a single writer, so no lock is needed while the load
// runs. Index i holds durable timer ID i+1 (twd issues IDs densely from
// 1 on a fresh WAL).
type ledger struct {
	timers []tstate
	fires  []fireRec
	// unknown counts fires of IDs the sender never saw acked; seqGaps
	// counts fired-feed sequence numbers the poller never received.
	unknown int
	seqGaps int
}

func newLedger(capacity int) *ledger {
	return &ledger{timers: make([]tstate, capacity), fires: make([]fireRec, capacity)}
}

// ack records an admitted timer (sender side).
func (l *ledger) ack(id uint64, deadline int64, expect bool) {
	i := int(id - 1)
	for i >= len(l.timers) {
		l.timers = append(l.timers, make([]tstate, len(l.timers)+1)...)
	}
	l.timers[i] = tstate{deadline: deadline, acked: true, expect: expect}
}

// fired records one delivered fire (poller side).
func (l *ledger) fired(id uint64, firedNS, recvNS int64) {
	if id == 0 {
		l.unknown++
		return
	}
	i := int(id - 1)
	for i >= len(l.fires) {
		l.fires = append(l.fires, make([]fireRec, len(l.fires)+1)...)
	}
	f := &l.fires[i]
	f.count++
	f.firedNS, f.recvNS = firedNS, recvNS
}

// verdict is the oracle's judgement of one pass.
type verdict struct {
	fires      int // first fires of timers expected to fire
	early      int // fires stamped before the timer's deadline
	lost       int // acked, not stopped, never delivered
	violations []string
}

// verify joins acks and fires. lag receives, per delivered timer, the
// client receipt time minus the deadline. callErrors is the number of
// calls that failed client-side; a fire for an unacked ID is only a
// violation when every call was answered, since a failed call may have
// been admitted.
func (l *ledger) verify(lag *samples, callErrors int64) verdict {
	var v verdict
	var double, afterStop, unexpected, unknown int
	n := max(len(l.timers), len(l.fires))
	for i := 0; i < n; i++ {
		var t tstate
		var f fireRec
		if i < len(l.timers) {
			t = l.timers[i]
		}
		if i < len(l.fires) {
			f = l.fires[i]
		}
		switch {
		case !t.acked:
			if f.count > 0 {
				unknown++
			}
		case t.stop == stopTrue:
			if f.count > 0 {
				afterStop++
			}
		case !t.expect:
			if f.count > 0 {
				unexpected++
			}
		case f.count == 0:
			v.lost++
		default:
			if f.count > 1 {
				double++
			}
			v.fires++
			lag.add(f.recvNS - t.deadline)
			if f.firedNS < t.deadline {
				v.early++
			}
		}
	}
	unknown += l.unknown
	if double > 0 {
		v.violations = append(v.violations, fmt.Sprintf("%d timers fired more than once", double))
	}
	if afterStop > 0 {
		v.violations = append(v.violations, fmt.Sprintf("%d timers fired after a stop acked stopped:true", afterStop))
	}
	if v.lost > 0 {
		v.violations = append(v.violations, fmt.Sprintf("%d acked timers never fired", v.lost))
	}
	if unexpected > 0 {
		v.violations = append(v.violations, fmt.Sprintf("%d timers fired long before their deadline", unexpected))
	}
	if unknown > 0 && callErrors == 0 {
		v.violations = append(v.violations, fmt.Sprintf("%d fires for IDs that were never acked", unknown))
	}
	if l.seqGaps > 0 {
		v.violations = append(v.violations, fmt.Sprintf("fired feed skipped %d events", l.seqGaps))
	}
	return v
}

// runtimeLedgerError checks the in-process runtime's conservation
// ledger at quiescence: started == expired + stopped + outstanding.
func runtimeLedgerError(started, expired, stopped uint64, outstanding int) error {
	if started != expired+stopped+uint64(outstanding) {
		return fmt.Errorf("runtime ledger open: started %d != expired %d + stopped %d + outstanding %d",
			started, expired, stopped, outstanding)
	}
	return nil
}
