package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"timingwheels/twclient"
)

// Workload shape for the twd workloads. BENCHMARK.json's workload
// descriptions restate these; keep the two in step.
const (
	longAfterMS = 3_600_000 // an hour: never fires within a run

	admitPreload    = 48_000 // standing timers: 7.8 MB of WAL, so a run crosses 8 MB
	admitPayloadLen = 128    // bytes of payload per twd-admit timer
	// twd-admit's two clients each wait for their ack before the next
	// call, and together are paced to admitRate calls per second. An
	// unpaced loop saturates both vCPUs, and its throughput swung 1.8k
	// to 4.8k acks/s across ten runs on a busy host; at 1000/s a slow
	// fsync spell built a backlog. admitRate sits far below the slowest
	// rate seen, so a slower daemon shows as latency and CPU per op.
	admitClients = 2
	admitRate    = 300
	churnPreload = 10_000 // standing timers before twd-churn starts

	churnBatchRate = 16 // /v1/schedule-batch calls per second
	churnBatch     = 16 // timers per batch
	churnMinMS     = 100
	churnMaxMS     = 2000
	churnStopP     = 0.3 // share of acked timers later stopped
	churnResetP    = 0.3 // share of acked timers later reset

	// The twd-admit fire probe: after the admission window, one client
	// admits one short timer per probeEvery acked hour-long ones, one per
	// /v1/schedule call paced at admitRate (slotAt), so the fires spread
	// over seconds and one stall of the host cannot hold a tenth of them.
	// Sizing it by the window's acks keeps the share of probe timers, and
	// with it fail_ratio, independent of throughput.
	probeEvery = 5
	probeMinMS = 50
	probeMaxMS = 1000

	setupReps = 5 // boots per untraced run; setup_s is their median
)

// conn is one load goroutine's connection to the daemon: its own
// transport (one TCP connection), attempt counter and twclient.
type conn struct {
	tp *http.Transport
	rt *countingRT
	hc *http.Client
	tw *twclient.Client
}

func newConn(base string, tr *tracer) (*conn, error) {
	tp := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	rt := &countingRT{base: tp, tr: tr}
	hc := &http.Client{Transport: rt, Timeout: 60 * time.Second}
	tw, err := twclient.New(twclient.Config{Endpoints: []string{base}, HTTP: hc})
	if err != nil {
		return nil, err
	}
	return &conn{tp: tp, rt: rt, hc: hc, tw: tw}, nil
}

// twdSession is a booted, preloaded daemon and the benchmark's two
// connections to it.
type twdSession struct {
	d       *daemon
	c       [2]*conn
	tr      [2]*tracer
	led     *ledger
	payload []string
	setupS  float64
}

func (s *twdSession) close() {
	for _, c := range s.c {
		if c != nil {
			c.tp.CloseIdleConnections()
		}
	}
	if s.d != nil {
		s.d.kill()
	}
}

// bootTwd starts twd on a fresh directory and preloads the standing
// population through /v1/schedule-batch; setupS times exactly that.
func bootTwd(o *options, preload, payloadLen int, tr [2]*tracer) (*twdSession, error) {
	s := &twdSession{tr: tr, led: newLedger(preload + 1<<17)}
	s.payload = makePayloads(o.seed, payloadLen)
	boot := &http.Client{Timeout: 5 * time.Second, Transport: &http.Transport{}}
	defer boot.CloseIdleConnections()

	t0 := time.Now()
	d, err := startDaemon(o.twd, filepath.Join(o.work, "twd"), o.twdc, boot)
	if err != nil {
		return nil, err
	}
	s.d = d
	for i := range s.c {
		if s.c[i], err = newConn(d.base, tr[i]); err != nil {
			s.close()
			return nil, err
		}
	}
	reqs := make([]twclient.ScheduleReq, 256)
	r := newRNG(o.seed, 7)
	for done := 0; done < preload; done += len(reqs) {
		for i := range reqs {
			reqs[i] = twclient.ScheduleReq{AfterMS: longAfterMS, Payload: s.payload[r.intn(int64(len(s.payload)))]}
		}
		acks, err := s.c[0].tw.ScheduleBatch(context.Background(), reqs)
		if err != nil {
			s.close()
			return nil, fmt.Errorf("preload: %w", err)
		}
		for _, a := range acks {
			s.led.ack(a.ID, a.DeadlineNS, false)
		}
	}
	s.setupS = time.Since(t0).Seconds()
	return s, nil
}

// makePayloads builds the pool of payload strings requests pick from,
// so the load loop never formats one.
func makePayloads(seed uint64, n int) []string {
	if n == 0 {
		return []string{""}
	}
	r := newRNG(seed, 11)
	out := make([]string, 256)
	b := make([]byte, n)
	for i := range out {
		for j := range b {
			b[j] = 'a' + byte(r.intn(26))
		}
		out[i] = string(b)
	}
	return out
}

// passResult is what one measured pass of a workload observed. The
// twd-only fields stay zero for rt-churn.
type passResult struct {
	windowS   float64
	ops       int64 // acked timer-level operations in the window
	attempted int64
	failed    int64 // refused, errored or lost operations (early fires are in v)
	calls     int64
	callErrs  int64
	ack       recorder // per call: intended send time to ack, ns
	lateMax   int64    // generator lateness, ns
	daemonCPU float64  // twd user+system seconds over the window
	clientCPU float64  // this process's user+system seconds over the window
	rssMB     float64
	v         verdict
	lag       *samples // per fire: client receipt minus deadline, ns
	errs      []string

	// twd passes only; the per-layer metrics read them from a traced pass.
	admitRTT  *samples // per admission call: send to ack, ns
	attempts  int64    // HTTP attempts of twclient calls
	twCalls   int64    // twclient calls
	healthRTT *samples
	walSyncs  uint64
	walBytes  int64
	timers    int64 // timers admitted over the window (healthz delta)
	stages0   map[string]*promHist
	stages1   map[string]*promHist
	gc        gcWindow
}

// newTwdPassResult returns a twd pass's result, recording acks into ack.
func newTwdPassResult(ack *samples) *passResult {
	return &passResult{ack: ack, lag: newSamples(1 << 16),
		admitRTT: newSamples(cap(ack.v)), healthRTT: newSamples(1024)}
}

// window brackets the measured interval: it records daemon and client
// CPU and, in a traced pass, the /healthz and /metrics baselines.
type window struct {
	s      *twdSession
	res    *passResult
	traced bool
	start  int64
	cpu0   float64
	self0  float64
	h0     health
	walB   walBytes
}

func openWindow(s *twdSession, res *passResult, traced bool) (*window, error) {
	w := &window{s: s, res: res, traced: traced}
	var err error
	if traced {
		if w.h0, err = getHealth(s.c[0].hc, s.d.base); err != nil {
			return nil, err
		}
		w.walB.observe(w.h0)
		if res.stages0, err = scrapeStages(s.c[0].hc, s.d.base); err != nil {
			return nil, err
		}
		res.gc.begin()
	}
	if w.cpu0, err = procCPU(s.d.pid()); err != nil {
		return nil, err
	}
	w.self0 = selfCPU()
	w.start = nanotime()
	return w, nil
}

// probeHealth times one GET /healthz on the caller's connection and
// folds its WAL position into the byte count (traced passes only).
func (w *window) probeHealth(c *conn, tr *tracer) {
	h := tr.begin(spHealthz, 0)
	t0 := nanotime()
	hz, err := getHealth(c.hc, w.s.d.base)
	t1 := nanotime()
	tr.end(h)
	if err == nil {
		w.res.healthRTT.add(t1 - t0)
		w.walB.observe(hz)
	}
}

func (w *window) close() error {
	end := nanotime()
	cpu1, err := procCPU(w.s.d.pid())
	if err != nil {
		return err
	}
	w.res.windowS = float64(end-w.start) / 1e9
	w.res.daemonCPU = cpu1 - w.cpu0
	w.res.clientCPU = selfCPU() - w.self0
	if w.traced {
		w.res.gc.end()
		h1, err := getHealth(w.s.c[0].hc, w.s.d.base)
		if err != nil {
			return err
		}
		w.walB.observe(h1)
		w.res.walSyncs = h1.WAL.Syncs - w.h0.WAL.Syncs
		w.res.walBytes = w.walB.total
		w.res.timers = h1.Scheduled - w.h0.Scheduled
	}
	return nil
}

// finish settles a pass once its fires are in: checks the daemon's
// ledger and the client-side oracle, reads peak RSS and, when traced,
// the daemon's stage histograms.
func finish(s *twdSession, res *passResult, traced bool) error {
	h, err := getHealth(s.c[0].hc, s.d.base)
	if err != nil {
		return err
	}
	if lerr := h.ledgerError(); lerr != nil {
		res.errs = append(res.errs, lerr.Error())
	}
	if res.rssMB, err = peakRSSMB(s.d.pid()); err != nil {
		return err
	}
	res.v = s.led.verify(res.lag, res.callErrs)
	res.errs = append(res.errs, res.v.violations...)
	res.failed += int64(res.v.lost)
	for _, c := range s.c {
		res.attempts += c.rt.attempts.Load()
		res.twCalls += c.rt.calls.Load()
	}
	if traced {
		if res.stages1, err = scrapeStages(s.c[0].hc, s.d.base); err != nil {
			return err
		}
	}
	return nil
}

// poller long-polls /v1/fired on its own connection and records every
// delivery in the ledger.
type poller struct {
	c        *conn
	tr       *tracer
	led      *ledger
	cursor   uint64
	received atomic.Int64
}

func (p *poller) run(ctx context.Context) {
	for ctx.Err() == nil {
		h := p.tr.begin(spFired, 0)
		if p.tr != nil {
			p.tr.cur = h
		}
		page, err := p.c.tw.Fired(ctx, p.cursor, 500*time.Millisecond)
		p.tr.end(h)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			time.Sleep(time.Millisecond)
			continue
		}
		recv := wallNS(nanotime())
		for _, ev := range page.Events {
			if ev.Seq != p.cursor+1 {
				p.led.seqGaps += int(ev.Seq - p.cursor - 1)
			}
			p.led.fired(ev.ID, ev.FiredNS, recv)
			p.cursor = ev.Seq
		}
		if page.Next > p.cursor {
			p.led.seqGaps += int(page.Next - p.cursor)
			p.cursor = page.Next
		}
		p.received.Add(int64(len(page.Events)))
	}
}

// awaitFires waits until the poller has delivered want fires or the wall
// clock passes lastDeadline plus a grace period, then stops it.
func awaitFires(p *poller, cancel context.CancelFunc, done *sync.WaitGroup, want int64, lastDeadline int64) {
	limit := lastDeadline + int64(2*time.Second)
	for p.received.Load() < want && time.Now().UnixNano() < limit {
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	done.Wait()
}

// admitPass runs twd-admit's paced closed loop: admitClients clients,
// one timer per /v1/schedule call, each sending its next call at its
// next slot or, if the previous ack came later, as soon as it came.
// Latency counts from the slot. The timers are an hour long, so the
// standing set only grows. A fire probe follows the window.
func admitPass(o *options, s *twdSession, seconds float64, traced bool) (*passResult, error) {
	ack := newSamples(int(seconds*admitRate) + 64)
	res := newTwdPassResult(ack)
	w, err := openWindow(s, res, traced)
	if err != nil {
		return nil, err
	}
	stopAt := w.start + int64(seconds*1e9)
	type worker struct {
		ack, rtt *samples
		ids      []uint64
		dls      []int64
		ok, errs int64
		late     int64
	}
	var ws [admitClients]worker
	var wg sync.WaitGroup
	for g := range ws {
		n := int(seconds*admitRate/admitClients) + 64
		ws[g] = worker{ack: newSamples(n), rtt: newSamples(n), ids: make([]uint64, 0, n), dls: make([]int64, 0, n)}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			wk, c, tr := &ws[g], s.c[g], s.tr[g]
			r := newRNG(o.seed, uint64(20+g))
			ctx := context.Background()
			// The clients' slots interleave evenly.
			slot := int64(admitClients) * int64(time.Second) / admitRate
			for k := 0; ; k++ {
				at := w.start + int64(g)*slot/admitClients + int64(k)*slot
				if at >= stopAt {
					return
				}
				sleepUntil(at)
				t0 := nanotime()
				if t0-at > wk.late {
					wk.late = t0 - at
				}
				req := twclient.ScheduleReq{AfterMS: longAfterMS, Payload: s.payload[r.intn(int64(len(s.payload)))]}
				var opH int32
				if tr != nil {
					tr.op = uint32(k)
					opH = tr.begin(spOp, 0)
					tr.cur = tr.begin(spSchedule, opH)
				}
				ack, err := c.tw.Schedule(ctx, req)
				t1 := nanotime()
				if tr != nil {
					tr.end(tr.cur)
					tr.end(opH)
				}
				if err != nil {
					wk.errs++
					continue
				}
				wk.ack.add(t1 - at)
				wk.rtt.add(t1 - t0)
				wk.ok++
				wk.ids = append(wk.ids, ack.ID)
				wk.dls = append(wk.dls, ack.DeadlineNS)
				if traced && g == 0 && k%100 == 0 {
					w.probeHealth(c, tr)
				}
			}
		}(g)
	}
	wg.Wait()
	if err := w.close(); err != nil {
		return nil, err
	}
	for g := range ws {
		wk := &ws[g]
		ack.merge(wk.ack)
		res.admitRTT.merge(wk.rtt)
		res.ops += wk.ok
		res.calls += wk.ok + wk.errs
		res.callErrs += wk.errs
		res.failed += wk.errs
		res.lateMax = max(res.lateMax, wk.late)
		for i, id := range wk.ids {
			s.led.ack(id, wk.dls[i], false)
		}
	}
	res.attempted = res.calls
	if err := fireProbe(o, s, res, max(256, int(res.ops/probeEvery))); err != nil {
		return nil, err
	}
	return res, finish(s, res, traced)
}

// twdCapacity runs the workload's admission call unpaced on both
// connections for seconds — /v1/schedule of one hour-long timer for
// twd-admit, /v1/schedule-batch of churnBatch of them for twd-churn —
// each client sending its next call as soon as the last is acked, and
// checks the daemon's ledger afterwards. ops counts acked timers.
func twdCapacity(o *options, s *twdSession, seconds float64) (*passResult, error) {
	batch := churnBatch
	if o.workload == "twd-admit" {
		batch = 1
	}
	var acked, errs [len(s.c)]int64
	start := nanotime()
	stopAt := start + int64(seconds*1e9)
	var wg sync.WaitGroup
	for g := range s.c {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := newRNG(o.seed, uint64(120+g))
			reqs := make([]twclient.ScheduleReq, batch)
			for nanotime() < stopAt {
				for i := range reqs {
					reqs[i] = twclient.ScheduleReq{AfterMS: longAfterMS, Payload: s.payload[r.intn(int64(len(s.payload)))]}
				}
				var err error
				if batch == 1 {
					_, err = s.c[g].tw.Schedule(context.Background(), reqs[0])
				} else {
					_, err = s.c[g].tw.ScheduleBatch(context.Background(), reqs)
				}
				if err != nil {
					errs[g] += int64(batch)
				} else {
					acked[g] += int64(batch)
				}
			}
		}(g)
	}
	wg.Wait()
	res := &passResult{windowS: float64(nanotime()-start) / 1e9}
	for g := range s.c {
		res.ops += acked[g]
		res.failed += errs[g]
	}
	res.attempted = res.ops + res.failed
	h, err := getHealth(s.c[0].hc, s.d.base)
	if err != nil {
		return nil, err
	}
	if lerr := h.ledgerError(); lerr != nil {
		res.errs = append(res.errs, "capacity pass: "+lerr.Error())
	}
	return res, nil
}

// fireProbe measures fire delivery over the standing set admission
// built: short timers admitted on connection 0 while
// connection 1 long-polls /v1/fired.
func fireProbe(o *options, s *twdSession, res *passResult, n int) error {
	ctx, cancel := context.WithCancel(context.Background())
	p := &poller{c: s.c[1], tr: s.tr[1], led: s.led}
	var done sync.WaitGroup
	done.Add(1)
	go func() { defer done.Done(); p.run(ctx) }()

	r := newRNG(o.seed, 30)
	var want, last int64
	start := nanotime()
	for i := 0; i < n; i++ {
		sleepUntil(slotAt(start, int64(time.Second)/admitRate, o.seed, int64(i)))
		res.attempted++
		a, err := s.c[0].tw.Schedule(ctx, twclient.ScheduleReq{AfterMS: r.between(probeMinMS, probeMaxMS)})
		if err != nil {
			res.failed++
			res.callErrs++
			continue
		}
		s.led.ack(a.ID, a.DeadlineNS, true)
		last = max(last, a.DeadlineNS)
		want++
	}
	awaitFires(p, cancel, &done, want, last)
	return nil
}

// churnPlan is what the seeded stream decided for one timer of a batch
// before it was sent: its interval, and whether and when it is later
// stopped or reset.
type churnPlan struct {
	afterMS  int64
	kind     uint8 // pendNone, pendStop, pendReset
	offMS    int64 // from the batch's intended send time
	newAfter int64 // reset interval
}

const (
	pendNone uint8 = iota
	pendStop
	pendReset
)

// pend is a stop or reset waiting for its intended send time. id is a
// durable timer ID (twd) or a one-shot ring slot (rt-churn), and gen
// the slot's incarnation.
type pend struct {
	at      int64
	id      uint64
	afterMS int64 // reset interval
	gen     uint32
	kind    uint8
}

// pendHeap is a binary min-heap on at, over a preallocated slice (the
// container/heap interface would box every element).
type pendHeap struct{ v []pend }

func (h *pendHeap) push(p pend) {
	h.v = append(h.v, p)
	i := len(h.v) - 1
	for i > 0 {
		par := (i - 1) / 2
		if h.v[par].at <= h.v[i].at {
			break
		}
		h.v[par], h.v[i] = h.v[i], h.v[par]
		i = par
	}
}

func (h *pendHeap) pop() pend {
	top := h.v[0]
	n := len(h.v) - 1
	h.v[0] = h.v[n]
	h.v = h.v[:n]
	i := 0
	for {
		l, m := 2*i+1, i
		if l < n && h.v[l].at < h.v[m].at {
			m = l
		}
		if l+1 < n && h.v[l+1].at < h.v[m].at {
			m = l + 1
		}
		if m == i {
			return top
		}
		h.v[i], h.v[m] = h.v[m], h.v[i]
		i = m
	}
}

// churnPass runs twd-churn's open loop on connection 0 — batches of
// short timers at a fixed rate, with later stops and resets of acked
// timers at their planned times — while connection 1 long-polls
// /v1/fired. Every call is timed from its intended send time.
func churnPass(o *options, s *twdSession, seconds float64, traced bool) (*passResult, error) {
	res := newTwdPassResult(newSamples(int(seconds * churnBatchRate * 16)))
	ctx, cancel := context.WithCancel(context.Background())
	p := &poller{c: s.c[1], tr: s.tr[1], led: s.led}
	var done sync.WaitGroup
	done.Add(1)
	go func() { defer done.Done(); p.run(ctx) }()

	w, err := openWindow(s, res, traced)
	if err != nil {
		cancel()
		done.Wait()
		return nil, err
	}
	stopAt := w.start + int64(seconds*1e9)
	c, tr := s.c[0], s.tr[0]
	r := newRNG(o.seed, 40)
	heap := &pendHeap{v: make([]pend, 0, 1<<14)}
	reqs := make([]twclient.ScheduleReq, churnBatch)
	var plans [churnBatch]churnPlan
	var body bytes.Buffer
	period := int64(time.Second) / churnBatchRate
	var want, last int64
	var opID uint32
	for k := 0; ; {
		at, isBatch := slotAt(w.start, period, o.seed, int64(k)), true
		if len(heap.v) > 0 && heap.v[0].at < at {
			at, isBatch = heap.v[0].at, false
		}
		if at >= stopAt {
			break
		}
		sleepUntil(at)
		if late := nanotime() - at; late > res.lateMax {
			res.lateMax = late
		}
		var opH int32
		if tr != nil {
			opID++
			tr.op = opID
			opH = tr.begin(spOp, 0)
		}
		switch {
		case isBatch:
			k++
			for i := range plans {
				pl := &plans[i]
				pl.afterMS = r.between(churnMinMS, churnMaxMS)
				u := r.float()
				switch {
				case u < churnStopP:
					// Up to 100ms past the deadline, so some stops race
					// the fire and lose.
					pl.kind, pl.offMS = pendStop, r.between(20, pl.afterMS+100)
				case u < churnStopP+churnResetP:
					pl.kind, pl.offMS = pendReset, r.between(20, pl.afterMS*8/10)
					pl.newAfter = r.between(churnMinMS, churnMaxMS)
				default:
					pl.kind = pendNone
				}
				reqs[i] = twclient.ScheduleReq{AfterMS: pl.afterMS}
			}
			if tr != nil {
				tr.cur = tr.begin(spScheduleBatch, opH)
			}
			res.attempted += churnBatch
			res.calls++
			t0 := nanotime()
			acks, err := c.tw.ScheduleBatch(ctx, reqs)
			t1 := nanotime()
			if tr != nil {
				tr.end(tr.cur)
			}
			if err != nil || len(acks) != churnBatch {
				res.failed += churnBatch
				res.callErrs++
				break
			}
			res.ack.add(t1 - at)
			res.admitRTT.add(t1 - t0)
			res.ops += churnBatch
			for i, a := range acks {
				s.led.ack(a.ID, a.DeadlineNS, true)
				last = max(last, a.DeadlineNS)
				want++
				if pl := plans[i]; pl.kind != pendNone {
					heap.push(pend{at: at + pl.offMS*int64(time.Millisecond), id: a.ID, afterMS: pl.newAfter, kind: pl.kind})
				}
			}
		case heap.v[0].kind == pendStop:
			pd := heap.pop()
			if tr != nil {
				tr.cur = tr.begin(spStop, opH)
			}
			res.attempted++
			res.calls++
			stopped, err := c.tw.Stop(ctx, pd.id)
			t1 := nanotime()
			if tr != nil {
				tr.end(tr.cur)
			}
			if err != nil {
				res.failed++
				res.callErrs++
				break
			}
			res.ack.add(t1 - at)
			res.ops++
			if stopped {
				s.led.timers[pd.id-1].stop = stopTrue
				want--
			} else {
				s.led.timers[pd.id-1].stop = stopFalse
			}
		default:
			pd := heap.pop()
			if tr != nil {
				tr.cur = tr.begin(spReset, opH)
			}
			res.attempted++
			res.calls++
			sent := wallNS(nanotime())
			matched, err := postReset(ctx, c, &body, pd.id, pd.afterMS)
			t1 := nanotime()
			if tr != nil {
				tr.end(tr.cur)
			}
			if err != nil {
				res.failed++
				res.callErrs++
				break
			}
			res.ack.add(t1 - at)
			res.ops++
			if matched == 1 {
				dl := sent + pd.afterMS*int64(time.Millisecond)
				s.led.timers[pd.id-1].deadline = dl
				last = max(last, dl)
			}
		}
		if tr != nil {
			tr.end(opH)
		}
		if traced && isBatch && k%32 == 0 {
			w.probeHealth(c, tr)
		}
	}
	if err := w.close(); err != nil {
		cancel()
		done.Wait()
		return nil, err
	}
	awaitFires(p, cancel, &done, want, last)
	return res, finish(s, res, traced)
}

// postReset re-arms one timer through POST /v1/reset, which twclient
// does not wrap, on the connection's own HTTP client. It reports how
// many timers the daemon matched (0 when the timer had already settled).
func postReset(ctx context.Context, c *conn, body *bytes.Buffer, id uint64, afterMS int64) (int, error) {
	body.Reset()
	b := body.AvailableBuffer()
	b = append(b, `{"resets":[{"id":`...)
	b = strconv.AppendUint(b, id, 10)
	b = append(b, `,"after_ms":`...)
	b = strconv.AppendInt(b, afterMS, 10)
	b = append(b, `}]}`...)
	body.Write(b)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.tw.Endpoint()+"/v1/reset", bytes.NewReader(body.Bytes()))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var out struct {
		Matched int `json:"matched"`
	}
	derr := json.NewDecoder(resp.Body).Decode(&out)
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("reset: status %d", resp.StatusCode)
	}
	return out.Matched, derr
}
