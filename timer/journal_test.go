package timer

import (
	"sync"
	"testing"
	"time"
)

// jEvent is one recorded Journal callback.
type jEvent struct {
	kind string // "armed" | "stopped" | "fired" | "shed"
	tag  uint64
	id   ID
	lag  int64
}

// recordingJournal captures every callback in order; safe for
// concurrent use (TimerFired may run on dispatch workers).
type recordingJournal struct {
	mu     sync.Mutex
	events []jEvent
}

func (j *recordingJournal) add(e jEvent) {
	j.mu.Lock()
	j.events = append(j.events, e)
	j.mu.Unlock()
}

func (j *recordingJournal) TimerArmed(tag uint64, id ID, _ Tick) {
	j.add(jEvent{kind: "armed", tag: tag, id: id})
}
func (j *recordingJournal) TimerStopped(tag uint64, id ID) {
	j.add(jEvent{kind: "stopped", tag: tag, id: id})
}
func (j *recordingJournal) TimerFired(tag uint64, id ID, lagNS int64) {
	j.add(jEvent{kind: "fired", tag: tag, id: id, lag: lagNS})
}
func (j *recordingJournal) TimerShed(tag uint64, id ID) {
	j.add(jEvent{kind: "shed", tag: tag, id: id})
}

// byTag returns the event kinds recorded for one tag, in order.
func (j *recordingJournal) byTag(tag uint64) []jEvent {
	j.mu.Lock()
	defer j.mu.Unlock()
	var out []jEvent
	for _, e := range j.events {
		if e.tag == tag {
			out = append(out, e)
		}
	}
	return out
}

func kinds(events []jEvent) []string {
	out := make([]string, len(events))
	for i, e := range events {
		out[i] = e.kind
	}
	return out
}

func sameKinds(got []jEvent, want ...string) bool {
	if len(got) != len(want) {
		return false
	}
	for i, e := range got {
		if e.kind != want[i] {
			return false
		}
	}
	return true
}

func TestJournalSyncLifecycle(t *testing.T) {
	j := &recordingJournal{}
	rt, fc := newManualRuntime(t, WithJournal(j))

	// Tag 1: arm then fire.
	if _, err := rt.AfterFunc(30*time.Millisecond, func() {}, WithTag(1)); err != nil {
		t.Fatalf("AfterFunc: %v", err)
	}
	// Tag 2: arm then stop.
	tm2, err := rt.AfterFunc(time.Second, func() {}, WithTag(2))
	if err != nil {
		t.Fatalf("AfterFunc: %v", err)
	}
	// Untagged: must never appear.
	if _, err := rt.AfterFunc(30*time.Millisecond, func() {}); err != nil {
		t.Fatalf("AfterFunc: %v", err)
	}

	if ev := j.byTag(1); !sameKinds(ev, "armed") {
		t.Fatalf("tag 1 before fire: %v, want [armed]", kinds(ev))
	}
	if !tm2.Stop() {
		t.Fatal("Stop refused")
	}
	fc.Advance(30 * time.Millisecond)
	rt.Poll()

	if ev := j.byTag(1); !sameKinds(ev, "armed", "fired") {
		t.Fatalf("tag 1: %v, want [armed fired]", kinds(ev))
	}
	if ev := j.byTag(2); !sameKinds(ev, "armed", "stopped") {
		t.Fatalf("tag 2: %v, want [armed stopped]", kinds(ev))
	}
	if ev := j.byTag(0); len(ev) != 0 {
		t.Fatalf("untagged timer journaled: %v", kinds(ev))
	}
}

func TestJournalFiredLag(t *testing.T) {
	j := &recordingJournal{}
	rt, fc := newManualRuntime(t, WithJournal(j))
	if _, err := rt.AfterFunc(10*time.Millisecond, func() {}, WithTag(9)); err != nil {
		t.Fatalf("AfterFunc: %v", err)
	}
	// Poll 40ms late: the delivery is 3 ticks (30ms) past the deadline.
	fc.Advance(40 * time.Millisecond)
	rt.Poll()
	ev := j.byTag(9)
	if !sameKinds(ev, "armed", "fired") {
		t.Fatalf("tag 9: %v, want [armed fired]", kinds(ev))
	}
	if got := ev[1].lag; got != int64(30*time.Millisecond) {
		t.Fatalf("fired lag = %dns, want %dns", got, int64(30*time.Millisecond))
	}
}

func TestJournalResetReportsRearm(t *testing.T) {
	j := &recordingJournal{}
	rt, fc := newManualRuntime(t, WithJournal(j))
	tm, err := rt.AfterFunc(30*time.Millisecond, func() {}, WithTag(5))
	if err != nil {
		t.Fatalf("AfterFunc: %v", err)
	}
	if _, err := tm.Reset(50 * time.Millisecond); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	fc.Advance(50 * time.Millisecond)
	rt.Poll()
	if ev := j.byTag(5); !sameKinds(ev, "armed", "armed", "fired") {
		t.Fatalf("tag 5: %v, want [armed armed fired]", kinds(ev))
	}
}
