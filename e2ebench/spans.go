package main

import (
	"bufio"
	"fmt"
	"net/http"
	"os"
	"sync/atomic"

	"timingwheels/twclient"
)

// Span names. Each wraps one call into a layer's public API, made from
// the benchmark's own code; nothing inside the program is instrumented.
const (
	spOp             uint8 = iota // one logical workload operation
	spSchedule                    // twclient.Client.Schedule
	spScheduleBatch               // twclient.Client.ScheduleBatch
	spStop                        // twclient.Client.Stop
	spReset                       // POST /v1/reset (twclient has no Reset)
	spFired                       // twclient.Client.Fired long poll
	spAttempt                     // one HTTP round trip under a client call
	spHealthz                     // GET /healthz, the transport floor
	spTimerReset                  // timer.Timer.Reset
	spTimerAfterFunc              // timer.Runtime.AfterFunc
	spTimerStop                   // timer.Timer.Stop
)

var spanNames = [...]string{
	"op", "twclient.Schedule", "twclient.ScheduleBatch", "twclient.Stop",
	"twd.reset", "twclient.Fired", "http.attempt", "http.healthz",
	"timer.Reset", "timer.AfterFunc", "timer.Stop",
}

// span is one timed call. parent is the index+1 of the enclosing span
// in the same tracer (0 for a root); op is the logical operation ID all
// spans of one operation share.
type span struct {
	start, end int64
	op         uint32
	parent     int32
	name       uint8
}

// tracer keeps one goroutine's spans in memory. It is not safe for
// concurrent use: every load goroutine owns its own.
type tracer struct {
	id      int
	spans   []span
	dropped int
	cur     int32  // open span that new attempt spans hang under
	op      uint32 // logical operation in progress
}

func newTracer(id, capacity int) *tracer {
	return &tracer{id: id, spans: make([]span, 0, capacity)}
}

// begin opens a span under parent and returns its handle (index+1), or
// 0 when the tracer is nil or full.
func (t *tracer) begin(name uint8, parent int32) int32 {
	if t == nil {
		return 0
	}
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return 0
	}
	t.spans = append(t.spans, span{start: nanotime(), op: t.op, parent: parent, name: name})
	return int32(len(t.spans))
}

func (t *tracer) end(h int32) {
	if t == nil || h == 0 {
		return
	}
	t.spans[h-1].end = nanotime()
}

// writeSpans writes every tracer's spans as JSON Lines. Span IDs are
// "<tracer>.<index>" so they stay unique across tracers.
func writeSpans(path string, tracers ...*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, t := range tracers {
		if t == nil {
			continue
		}
		for i, s := range t.spans {
			parent := ""
			if s.parent != 0 {
				parent = fmt.Sprintf("%d.%d", t.id, s.parent)
			}
			fmt.Fprintf(w, `{"span":"%d.%d","parent":"%s","name":"%s","op":%d,"start_ns":%d,"end_ns":%d}`+"\n",
				t.id, i+1, parent, spanNames[s.name], s.op, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// countingRT counts HTTP attempts, so retries inside twclient show up as
// attempts per call, and in a traced pass records each attempt as a
// child span of the client call in flight. One countingRT serves one
// load goroutine.
type countingRT struct {
	base     http.RoundTripper
	attempts atomic.Int64 // HTTP attempts made by twclient calls
	calls    atomic.Int64 // twclient calls: distinct trace IDs
	last     string       // trace ID of the previous attempt
	tr       *tracer
}

// RoundTrip counts attempts of twclient calls, which carry the call's
// trace ID on every retry; the benchmark's own /healthz, /metrics and
// /v1/reset requests carry none and are not counted.
func (c *countingRT) RoundTrip(r *http.Request) (*http.Response, error) {
	if id := r.Header.Get(twclient.HeaderTrace); id != "" {
		c.attempts.Add(1)
		if id != c.last {
			c.calls.Add(1)
			c.last = id
		}
	}
	h := c.tr.begin(spAttempt, c.tr.curOrZero())
	resp, err := c.base.RoundTrip(r)
	c.tr.end(h)
	return resp, err
}

func (t *tracer) curOrZero() int32 {
	if t == nil {
		return 0
	}
	return t.cur
}
