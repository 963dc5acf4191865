package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"timingwheels/internal/hdr"
)

// TestOracleTripsOnDoctoredStream feeds the ledger a fired stream with
// one of each defect and checks that every one is reported.
func TestOracleTripsOnDoctoredStream(t *testing.T) {
	l := newLedger(4)
	for id := uint64(1); id <= 6; id++ {
		l.ack(id, 1000, true)
	}
	l.ack(7, 1000, false) // long timer: must not fire in the run
	l.timers[2].stop = stopTrue
	l.fired(1, 1000, 1100)
	l.fired(2, 1000, 1100)
	l.fired(2, 1000, 1100) // fired twice
	l.fired(3, 1000, 1100) // fired after stopped:true
	// 4 never fires
	l.fired(5, 990, 1100) // early: counted, not a violation
	l.fired(6, 1000, 1100)
	l.fired(7, 1000, 1100) // an hour early
	l.fired(9, 1000, 1100) // never acked
	l.seqGaps = 1

	v := l.verify(newSamples(8), 0)
	want := []string{"more than once", "after a stop", "never fired", "long before", "never acked", "skipped"}
	got := strings.Join(v.violations, "; ")
	for _, w := range want {
		if !strings.Contains(got, w) {
			t.Errorf("violation %q not reported; got %q", w, got)
		}
	}
	if v.early != 1 || v.lost != 1 {
		t.Errorf("early %d lost %d, want 1 and 1", v.early, v.lost)
	}
	// A fire for an unacked ID is forgiven when a call failed: that
	// call may have been admitted before its error.
	if v := l.verify(newSamples(8), 1); strings.Contains(strings.Join(v.violations, ";"), "never acked") {
		t.Errorf("unacked fire reported despite a failed call: %v", v.violations)
	}
}

func TestOracleCleanStream(t *testing.T) {
	l := newLedger(2)
	l.ack(1, 1000, true)
	l.ack(2, 2000, true)
	l.ack(3, 3000, true)
	l.timers[2].stop = stopFalse // stop lost the race: the fire stands
	l.fired(1, 1001, 1500)
	l.fired(2, 1999, 2100)
	l.fired(3, 3000, 3200)
	lag := newSamples(4)
	v := l.verify(lag, 0)
	if len(v.violations) != 0 {
		t.Fatalf("clean stream reported %v", v.violations)
	}
	if v.fires != 3 || v.early != 1 {
		t.Errorf("fires %d early %d, want 3 and 1", v.fires, v.early)
	}
	if got := lag.quantile(0.5); got != 200 {
		t.Errorf("median lag %v, want 200", got)
	}
}

func TestLedgerChecks(t *testing.T) {
	h := health{Scheduled: 10, Fired: 4, Cancelled: 3, Shed: 1, Outstanding: 2}
	if err := h.ledgerError(); err != nil {
		t.Errorf("closed ledger reported: %v", err)
	}
	h.Outstanding = 1
	if h.ledgerError() == nil {
		t.Error("open twd ledger not reported")
	}
	if runtimeLedgerError(10, 5, 3, 2) != nil {
		t.Error("closed runtime ledger reported")
	}
	if runtimeLedgerError(10, 5, 3, 1) == nil {
		t.Error("open runtime ledger not reported")
	}
}

// TestDeltaQuantile checks the /metrics delta readout against
// observations recorded between two scrapes.
func TestDeltaQuantile(t *testing.T) {
	h := hdr.New()
	for i := 0; i < 100; i++ {
		h.Record(5_000_000) // before the window: 5ms
	}
	before := promFromSnapshot(h.Snapshot())
	for i := 1; i <= 1000; i++ {
		h.Record(int64(i) * 1000) // in the window: 1..1000us
	}
	after := promFromSnapshot(h.Snapshot())
	p50, n := deltaQuantileUS(before, after, 0.5)
	if n != 1000 {
		t.Fatalf("count %v, want 1000", n)
	}
	if p50 < 480 || p50 > 520 {
		t.Errorf("p50 %vus, want about 500us", p50)
	}
	p99, _ := deltaQuantileUS(before, after, 0.99)
	if p99 < 960 || p99 > 1020 {
		t.Errorf("p99 %vus, want about 990us", p99)
	}
}

// promFromSnapshot builds what scrapeStages parses from twd's exporter:
// cumulative counts at the upper bound of every non-empty bucket.
func promFromSnapshot(s hdr.Snapshot) *promHist {
	p := &promHist{inf: float64(s.Count)}
	cum := 0.0
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		cum += float64(c)
		p.le = append(p.le, hdr.UpperBound(i))
		p.cum = append(p.cum, cum)
	}
	return p
}

// TestBenchmarkJSONMatches holds BENCHMARK.json's workload and metric
// lists in step with what the command reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &cfg); err != nil {
		t.Fatal(err)
	}
	if len(cfg.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the command %d", len(cfg.Workloads), len(workloads))
	}
	for i, w := range cfg.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s in the command", i, w.Name, workloads[i])
		}
		if _, ok := mixes[w.Name]; !ok {
			t.Errorf("workload %s has no layer-probe op mix", w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the command", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: %s %s in BENCHMARK.json, %s %s in the command",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", cfg.EndToEnd, endToEnd)
	check("per_layer", cfg.PerLayer, perLayer)
}
