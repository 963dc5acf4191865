package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"timingwheels/clock"
	"timingwheels/internal/hdr"
	"timingwheels/internal/lease"
	"timingwheels/internal/replica"
	"timingwheels/internal/stagetrace"
	"timingwheels/internal/wal"
	"timingwheels/timer"
	"timingwheels/timer/telemetry"
)

// config is the daemon's tuning, filled from flags (main.go) or
// directly by tests.
type config struct {
	dir          string
	shards       int
	granularity  time.Duration
	syncEvery    int
	syncInterval time.Duration
	snapBytes    int64 // segment size that triggers compaction; 0 disables
	defaultTTL   time.Duration
	clk          clock.Clock // time source; nil means clock.Real{}

	// follow makes this node a standby replicating the primary at this
	// base URL; empty means primary.
	follow string
	// followWait is the stream long-poll bound a standby sends; 0 takes
	// the replica package default.
	followWait time.Duration
	// startFenced boots the node fenced: state is recovered but nothing
	// is armed and every write is refused. Set when a -peers probe found
	// a higher term — this node was deposed while it was down.
	startFenced bool
	// logger receives structured operational events (promotions, fences,
	// snapshot failures, slow admissions) with trace/timer/term fields;
	// nil means a text handler on os.Stderr.
	logger *slog.Logger
	// traceSlow is the stage-timeline total at or above which a request
	// is kept as a slow exemplar (and logged); 0 takes defaultTraceSlow.
	traceSlow time.Duration
	// facTrace arms the facility's flight recorder with this many events
	// per shard (served on /v1/trace?facility=1); 0 takes 4096.
	facTrace int
}

// entry is one live timer the daemon tracks: the facility handle plus
// the durable identity the WAL and the client speak.
type entry struct {
	tm       *timer.Timer
	class    uint8
	leaseID  uint64
	deadline int64 // absolute wall deadline, unix nanoseconds
	payload  []byte
	// trace is the admitting request's correlation ID, inherited by the
	// fire timeline so client -> admission -> fire reads as one story.
	// Empty for timers reconstructed from the WAL (replay, promotion):
	// the log deliberately carries no trace field, so cross-process
	// correlation falls back to the durable timer ID.
	trace string
}

// firedEvent is one delivery, kept in a bounded ring for /v1/fired.
type firedEvent struct {
	Seq     uint64 `json:"seq"`
	ID      uint64 `json:"id"`
	FiredNS int64  `json:"fired_unix_ns"`
	LagNS   int64  `json:"lag_ns"`
	Payload string `json:"payload,omitempty"`
	// tlSeq links back to the fire's stage timeline so the first
	// long-poll delivery can amend the push leg in. Not serialized.
	tlSeq uint64
}

// firedRingMax bounds the /v1/fired history.
const firedRingMax = 8192

// server is the daemon: a sharded timer facility fronted by HTTP, with
// every client-visible transition written ahead to the WAL.
//
// Lock order: s.mu is held for the in-memory tables (entries, pending,
// fired ring, counters) and for every wal.Append — serializing appends
// against compaction, which rebuilds the snapshot record set under the
// same lock. The WAL's and lease table's internal mutexes are leaves
// under s.mu. The facility is NEVER called with s.mu held: the journal's
// TimerShed hook runs under a runtime's internal lock and takes s.mu,
// so a facility call under s.mu would deadlock. wal.Commit (which can
// block on fsync) also happens outside s.mu.
type server struct {
	cfg    config
	clk    clock.Clock
	log    *wal.Log
	fac    *timer.Sharded
	leases *lease.Table

	nextID atomic.Uint64

	// Replication identity: role transitions serialize on role.mu;
	// roleNow/termNow are the lock-free read side. repState is the
	// replayed-and-replicated wal.State — on a standby the follower keeps
	// appending to it, and promotion replays it; on a primary it is only
	// the boot recovery's state.
	role        roleState
	roleNow     atomic.Int32
	termNow     atomic.Uint64
	repState    *wal.State
	repMu       sync.Mutex // guards repState between the follower and healthz
	replApplied atomic.Uint64
	logger      *slog.Logger

	// Stage tracing (see trace.go): stages aggregates per-request and
	// per-fire latency decompositions; applyLag is the standby's
	// fire-record apply lag; traceIDs mints correlation IDs; slowNS is
	// the slow-admission logging threshold.
	stages   *stagetrace.Recorder
	applyLag *hdr.Histogram
	traceIDs *traceIDs
	slowNS   int64

	mu      sync.Mutex
	entries map[uint64]*entry
	// pending holds admitted, WAL-logged timers whose arm/publish is
	// still in flight, keyed by ID. Each carries the full durable record
	// (tm is nil until armed): a compaction that interleaves between the
	// WAL commit and the publish must fold these into the snapshot seed,
	// or rotating the log would drop acked-but-unpublished timers.
	pending  map[uint64]*entry
	earlyHit map[uint64]struct{} // fired before the admitting handler published the entry
	fired    []firedEvent
	firedSeq uint64
	// pushedSeq is the fired-ring watermark below which the push stage
	// has already been amended into fire timelines: only the first
	// delivery of an event counts as its push, no matter how many
	// long-pollers later replay it.
	pushedSeq uint64
	// firedNotify is closed-and-replaced on every fire: the broadcast
	// /v1/fired?wait= long-pollers block on.
	firedNotify chan struct{}
	draining    bool

	// Lifetime counters, seeded from replay so the conservation ledger
	//
	//	scheduled == fired + cancelled + len(entries)
	//
	// closes across restarts (compaction resets history to the
	// outstanding set).
	scheduled, firedN, cancelled uint64
	shed, lateSettles            uint64

	recovered *wal.RecoverResult

	compacting atomic.Bool
	stopped    atomic.Bool // shutdown ran (it is one-shot)
}

// noop is the shared expiry action for every client timer: delivery is
// observed through the Journal hook, keyed by tag, so admission costs
// no per-timer closure.
var noop = func() {}

// newServer opens the WAL in cfg.dir, replays it, and — on a primary —
// starts the facility with the recovered timers and leases re-armed. A
// standby (cfg.follow) arms nothing: it streams the primary's WAL into
// repState and only replays at promotion. A fenced boot
// (cfg.startFenced) arms nothing and never will.
func newServer(cfg config) (*server, error) {
	if cfg.shards < 1 {
		cfg.shards = 1
	}
	if cfg.granularity <= 0 {
		cfg.granularity = 10 * time.Millisecond
	}
	if cfg.clk == nil {
		cfg.clk = clock.Real{}
	}
	if cfg.logger == nil {
		cfg.logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	if cfg.facTrace == 0 {
		cfg.facTrace = 4096
	}
	log, rec, err := wal.Open(cfg.dir, wal.Options{
		SyncEvery:    cfg.syncEvery,
		SyncInterval: cfg.syncInterval,
	})
	if err != nil {
		return nil, fmt.Errorf("twd: open wal: %w", err)
	}
	s := &server{
		cfg:         cfg,
		clk:         cfg.clk,
		log:         log,
		entries:     make(map[uint64]*entry),
		pending:     make(map[uint64]*entry),
		earlyHit:    make(map[uint64]struct{}),
		firedNotify: make(chan struct{}),
		recovered:   rec,
		repState:    rec.State,
		logger:      cfg.logger,
		stages:      newStageRecorder(cfg),
		applyLag:    hdr.New(),
		traceIDs:    newTraceIDs(),
		scheduled:   rec.State.Scheduled,
		firedN:      rec.State.Fired,
		cancelled:   rec.State.Cancelled,
		// The fired cursor continues from the replayed fire count, so a
		// client's /v1/fired `since` stays monotonic across restarts and
		// failovers instead of resetting to zero.
		firedSeq: rec.State.Fired,
	}
	slow := cfg.traceSlow
	if slow == 0 {
		slow = defaultTraceSlow
	}
	s.slowNS = slow.Nanoseconds()
	s.fac = timer.NewSharded(cfg.shards,
		timer.WithGranularity(cfg.granularity),
		timer.WithJournal(s),
		timer.WithClockSource(cfg.clk),
		// The facility's own flight recorder, wall-stamped so
		// /v1/trace?facility=1 lines up with the stage timelines.
		timer.WithTrace(cfg.facTrace),
	)
	s.leases = lease.NewTable(s.fac, lease.Config{
		DefaultTTL: cfg.defaultTTL,
		OnExpire:   s.onLeaseExpired,
	})

	switch {
	case cfg.follow != "":
		s.roleNow.Store(int32(roleStandby))
		s.termNow.Store(loadTerm(cfg.dir))
		if err := s.startFollowing(); err != nil {
			s.fac.Close()
			log.Close()
			return nil, fmt.Errorf("twd: start following %s: %w", cfg.follow, err)
		}
	case cfg.startFenced:
		s.roleNow.Store(int32(roleFenced))
		s.termNow.Store(loadTerm(cfg.dir))
		s.mu.Lock()
		s.draining = true
		s.mu.Unlock()
	default:
		s.roleNow.Store(int32(rolePrimary))
		term := loadTerm(cfg.dir)
		if term == 0 {
			term = 1
			if err := saveTerm(cfg.dir, term); err != nil {
				s.fac.Close()
				log.Close()
				return nil, fmt.Errorf("twd: persist term: %w", err)
			}
		}
		s.termNow.Store(term)
		if err := s.replay(rec.State); err != nil {
			s.fac.Close()
			log.Close()
			return nil, err
		}
	}
	return s, nil
}

// Journal implementation. TimerArmed and TimerStopped are no-ops: the
// daemon logs admissions, cancels, and resets in the handlers, before
// acking — the WAL record IS the ack's durability. Delivery, though,
// is the facility's own act, so it is observed here.

func (s *server) TimerArmed(uint64, timer.ID, timer.Tick) {}
func (s *server) TimerStopped(uint64, timer.ID)           {}

// TimerFired and TimerShed run on a delivery goroutine with no facility
// lock held, so handlers may call into the facility while holding s.mu
// (s.mu before the facility lock, never the reverse).
func (s *server) TimerFired(tag uint64, _ timer.ID, _ int64) { s.onSettled(tag, false) }
func (s *server) TimerShed(tag uint64, _ timer.ID)           { s.onSettled(tag, true) }

// onSettled retires one delivered (or shed) timer: WAL fire record,
// lease detach, fired-ring event. Lag is computed against the durable
// wall-clock deadline, so a timer that fires on boot replay after
// downtime reports the true lag, not the re-arm's.
func (s *server) onSettled(id uint64, wasShed bool) {
	now := s.clk.Now().UnixNano()
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[id]
	if !ok {
		if _, inflight := s.pending[id]; inflight {
			// Fired before the admitting handler inserted the entry (a
			// deadline inside the first tick): the handler settles it.
			s.earlyHit[id] = struct{}{}
			return
		}
		// Settled by a concurrent cancel (the WAL cancel record wins) or
		// unknown: nothing to do.
		s.lateSettles++
		return
	}
	s.settleLocked(id, e, now, wasShed)
}

// settleLocked retires entry e as fired/shed. Caller holds s.mu.
func (s *server) settleLocked(id uint64, e *entry, nowNS int64, wasShed bool) {
	delete(s.entries, id)
	if e.leaseID != 0 {
		s.leases.Detach(e.leaseID, id)
	}
	// Fire records ride the sync policy rather than an explicit commit:
	// one lost in a crash replays the timer, which re-fires — the
	// documented at-least-once window.
	s.log.Append(wal.Record{Op: wal.OpFire, Class: e.class, ID: id, Lease: e.leaseID, Deadline: e.deadline})
	s.firedN++
	if wasShed {
		s.shed++
	}
	lag := nowNS - e.deadline
	if lag < 0 {
		lag = 0
	}
	// The fire's stage timeline: deadline -> wheel fire (the facility's
	// lag) and fire -> ring enqueue (this settle, WAL append included).
	// The push leg is amended in by the long-poll delivery; shed work
	// never reaches a client, so its timeline ends here.
	tl := stagetrace.Timeline{Kind: "fire", Trace: e.trace, ID: id, Count: 1, StartNS: e.deadline}
	tl.Add("fire", lag)
	tl.Add("enqueue", s.clk.Now().UnixNano()-nowNS)
	tlSeq := s.stages.Record(tl)
	s.firedSeq++
	if len(s.fired) == firedRingMax {
		s.fired = append(s.fired[:0], s.fired[1:]...)
	}
	s.fired = append(s.fired, firedEvent{
		Seq: s.firedSeq, ID: id, FiredNS: nowNS, LagNS: lag, Payload: string(e.payload),
		tlSeq: tlSeq,
	})
	// Wake the /v1/fired long-pollers: close-and-replace is a broadcast.
	close(s.firedNotify)
	s.firedNotify = make(chan struct{})
}

// onLeaseExpired is the lease table's OnExpire hook: the client stopped
// heartbeating, so its timers are garbage-collected and the whole
// transition is logged. Runs on a delivery goroutine (no facility lock
// held), so calling StopBatch is safe.
func (s *server) onLeaseExpired(id uint64, timers []uint64) {
	// Best-effort durability: nobody is waiting on an ack, so a WAL
	// failure here only means the expiry replays and GCs again on boot.
	s.gcLease(id, timers, false) //nolint:errcheck
}

// gcLease logs a lease's end and cancels every timer it still owned.
// commit forces the records durable before returning (client-acked
// release); the expiry path lets the sync policy absorb them. The
// returned error reports a WAL failure: the in-memory GC still ran —
// the lease is gone either way — but the caller must not ack success,
// because replay may resurrect some of the cancelled timers (the
// at-least-once window a 503 permits).
func (s *server) gcLease(leaseID uint64, timers []uint64, commit bool) ([]uint64, error) {
	s.mu.Lock()
	lsn, werr := s.log.Append(wal.Record{Op: wal.OpLeaseExpire, ID: leaseID})
	victims := make([]*timer.Timer, 0, len(timers))
	cancelled := make([]uint64, 0, len(timers))
	for _, tid := range timers {
		e, ok := s.entries[tid]
		if !ok {
			continue // already fired or cancelled
		}
		delete(s.entries, tid)
		l, aerr := s.log.Append(wal.Record{Op: wal.OpCancel, Class: e.class, ID: tid, Lease: leaseID})
		if aerr != nil && werr == nil {
			werr = aerr
		}
		if aerr == nil {
			lsn = l
		}
		s.cancelled++
		victims = append(victims, e.tm)
		cancelled = append(cancelled, tid)
	}
	s.mu.Unlock()
	if commit {
		if cerr := s.log.Commit(lsn); cerr != nil && werr == nil {
			werr = cerr
		}
	}
	s.fac.StopBatch(victims)
	return cancelled, werr
}

// routes builds the daemon's mux. Write endpoints pass through the
// role/term guard; reads and replication are served in every role
// (a standby's stream serves its own WAL, enabling chained replicas).
// Every response carries the node's term via stampTerm.
func (s *server) routes() http.Handler {
	streamer := &replica.Streamer{Src: s.log, Term: s.currentTerm, MaxWait: maxStreamWait}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/schedule", s.writeGuard(s.handleSchedule))
	mux.HandleFunc("/v1/schedule-batch", s.writeGuard(s.handleScheduleBatch))
	mux.HandleFunc("/v1/stop", s.writeGuard(s.handleStop))
	mux.HandleFunc("/v1/reset", s.writeGuard(s.handleReset))
	mux.HandleFunc("/v1/lease", s.writeGuard(s.handleLeaseGrant))
	mux.HandleFunc("/v1/lease/renew", s.writeGuard(s.handleLeaseRenew))
	mux.HandleFunc("/v1/lease/release", s.writeGuard(s.handleLeaseRelease))
	mux.HandleFunc("/v1/fired", s.handleFired)
	mux.HandleFunc("/v1/timers", s.handleTimers)
	mux.HandleFunc("/v1/trace", s.handleTrace)
	mux.HandleFunc("/v1/promote", s.handlePromote)
	mux.HandleFunc("/v1/replica/snapshot", streamer.ServeSnapshot)
	mux.HandleFunc("/v1/replica/stream", streamer.ServeStream)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.Handle("/metrics", telemetry.HandlerWith(s.fac, s.extraMetrics()...))
	return s.stampTerm(s.withTrace(mux))
}

// Long-poll bounds. Both must stay under the http.Server write timeout
// main.go configures (serverWriteTimeout), or a caught-up poller would
// see its response killed mid-wait.
const (
	maxFiredWait  = 30 * time.Second
	maxStreamWait = 2 * time.Second
)

type scheduleItem struct {
	AfterMS    int64  `json:"after_ms,omitempty"`
	DeadlineNS int64  `json:"deadline_unix_ns,omitempty"`
	Class      string `json:"class,omitempty"`
	Lease      uint64 `json:"lease,omitempty"`
	Payload    string `json:"payload,omitempty"`
}

type scheduledAck struct {
	ID         uint64 `json:"id"`
	DeadlineNS int64  `json:"deadline_unix_ns"`
}

func parseClass(s string) (timer.Priority, bool) {
	switch s {
	case "", "normal":
		return timer.PriorityNormal, true
	case "critical":
		return timer.PriorityCritical, true
	case "best-effort":
		return timer.PriorityBestEffort, true
	}
	return 0, false
}

func (s *server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	sp := s.stages.Begin("admit", r.Header.Get(HeaderTrace), 0, 1)
	var item scheduleItem
	if !readJSON(w, r, &item) {
		return
	}
	acks, status, code, err := s.admit([]scheduleItem{item}, &sp)
	if err != nil {
		httpError(w, status, code, err.Error())
		return
	}
	writeJSON(w, acks[0])
}

func (s *server) handleScheduleBatch(w http.ResponseWriter, r *http.Request) {
	sp := s.stages.Begin("admit", r.Header.Get(HeaderTrace), 0, 0)
	var req struct {
		Timers []scheduleItem `json:"timers"`
	}
	if !readJSON(w, r, &req) {
		return
	}
	if len(req.Timers) == 0 {
		httpError(w, http.StatusBadRequest, "bad_request", "empty batch")
		return
	}
	acks, status, code, err := s.admit(req.Timers, &sp)
	if err != nil {
		httpError(w, status, code, err.Error())
		return
	}
	writeJSON(w, map[string]any{"timers": acks})
}

// admit runs the durable admission protocol for a batch: validate,
// write-ahead (one group commit for the whole batch), arm in the
// facility, then publish the entries. The WAL commit precedes the arm
// so a crash after the ack always replays the timer; a crash before
// the commit acks nothing and replays nothing.
//
// sp is the request's stage span, opened at handler entry; admit marks
// the decode/append/commit/arm/publish boundaries and records the
// timeline only for successful admissions (a refused request has no
// end-to-end latency to decompose — its story is the error code).
func (s *server) admit(items []scheduleItem, sp *stagetrace.Span) ([]scheduledAck, int, string, error) {
	now := s.clk.Now()
	trace := sp.Trace()
	prios := make([]timer.Priority, len(items))
	deadlines := make([]int64, len(items))
	for i, it := range items {
		p, ok := parseClass(it.Class)
		if !ok {
			return nil, http.StatusBadRequest, "bad_request", fmt.Errorf("item %d: unknown class %q", i, it.Class)
		}
		prios[i] = p
		switch {
		case it.DeadlineNS > 0:
			deadlines[i] = it.DeadlineNS
		case it.AfterMS > 0:
			deadlines[i] = now.Add(time.Duration(it.AfterMS) * time.Millisecond).UnixNano()
		default:
			return nil, http.StatusBadRequest, "bad_request", fmt.Errorf("item %d: need after_ms or deadline_unix_ns", i)
		}
		if it.Lease != 0 {
			if _, live := s.leases.Expiry(it.Lease); !live {
				return nil, http.StatusConflict, "lease_not_alive", fmt.Errorf("item %d: lease %d is not alive", i, it.Lease)
			}
		}
	}
	sp.Mark("decode")

	// Write-ahead: one append per timer, one commit for the batch.
	ids := make([]uint64, len(items))
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, http.StatusServiceUnavailable, "draining", fmt.Errorf("draining")
	}
	var lsn wal.LSN
	for i, it := range items {
		ids[i] = s.nextID.Add(1)
		payload := []byte(it.Payload)
		var err error
		lsn, err = s.log.Append(wal.Record{
			Op: wal.OpSchedule, Class: uint8(prios[i]), ID: ids[i],
			Lease: it.Lease, Deadline: deadlines[i], Payload: payload,
		})
		if err != nil {
			s.abortAdmissionLocked(ids[:i])
			s.mu.Unlock()
			return nil, http.StatusServiceUnavailable, "wal_failed", fmt.Errorf("wal append: %w", err)
		}
		s.pending[ids[i]] = &entry{class: uint8(prios[i]), leaseID: it.Lease,
			deadline: deadlines[i], payload: payload, trace: trace}
		s.scheduled++
	}
	s.mu.Unlock()
	sp.Mark("append")
	if err := s.log.Commit(lsn); err != nil {
		s.abortAdmission(ids)
		return nil, http.StatusServiceUnavailable, "wal_failed", fmt.Errorf("wal commit: %w", err)
	}
	sp.Mark("commit")

	// Arm. The deadline is re-expressed as a delay; a deadline already
	// past arms at the minimum (one tick) and fires on the next poll.
	reqs := make([]timer.Req, len(items))
	for i := range items {
		d := time.Duration(deadlines[i] - now.UnixNano())
		if d < 1 {
			d = 1
		}
		reqs[i] = timer.Req{After: d, Fn: noop, Opt: timer.WithPriority(prios[i]).WithTag(ids[i])}
	}
	timers, err := s.fac.ScheduleBatch(reqs)
	sp.Mark("arm")
	if err != nil {
		// Partial or refused batch (draining): un-admit everything. The
		// armed subset is stopped; the WAL gets a cancel per timer so the
		// acked-nothing outcome is also the replayed outcome.
		s.fac.StopBatch(timers)
		s.abortAdmission(ids)
		return nil, http.StatusServiceUnavailable, "overloaded", fmt.Errorf("facility refused batch: %w", err)
	}

	// Publish. A timer whose deadline fell inside the first tick may
	// already have fired (the journal parked it in earlyHit); settle it
	// here instead of inserting.
	acks := make([]scheduledAck, len(items))
	var orphans []*timer.Timer
	// One settle timestamp for the whole publish pass: re-sampling the
	// clock per early hit would stamp timers of the same batch with
	// different fire times (and different lags) for the same event.
	pubNow := s.clk.Now().UnixNano()
	s.mu.Lock()
	for i, it := range items {
		id := ids[i]
		e := s.pending[id]
		delete(s.pending, id)
		e.tm = timers[i]
		if _, early := s.earlyHit[id]; early {
			delete(s.earlyHit, id)
			s.entries[id] = e // settleLocked removes it
			s.settleLocked(id, e, pubNow, false)
		} else {
			s.entries[id] = e
			if it.Lease != 0 && !s.leases.Attach(it.Lease, id) {
				// The lease died between validation and publish: its GC
				// already ran and missed this timer, so cancel it here.
				delete(s.entries, id)
				s.log.Append(wal.Record{Op: wal.OpCancel, Class: e.class, ID: id, Lease: it.Lease})
				s.cancelled++
				orphans = append(orphans, timers[i])
			}
		}
		acks[i] = scheduledAck{ID: id, DeadlineNS: deadlines[i]}
	}
	s.mu.Unlock()
	s.fac.StopBatch(orphans)
	sp.Mark("publish")
	sp.SetTimer(ids[0], len(items))
	total := sp.Total()
	sp.Finish()
	if total >= time.Duration(s.slowNS) {
		s.logger.Warn("slow admission",
			"trace", trace, "first_id", ids[0], "count", len(items),
			"total", total, "term", s.currentTerm())
	}
	s.maybeCompact()
	return acks, 0, "", nil
}

// abortAdmission voids WAL-admitted ids after a downstream failure:
// each gets a cancel record so replay agrees with the refused ack.
func (s *server) abortAdmission(ids []uint64) {
	s.mu.Lock()
	lsn := s.abortAdmissionLocked(ids)
	s.mu.Unlock()
	// Best-effort: the client is getting a 503 either way, and a cancel
	// that misses the disk only re-fires a timer the client was told
	// failed — the documented at-least-once ambiguity.
	s.log.Commit(lsn)
}

// abortAdmissionLocked is abortAdmission under an already-held s.mu; it
// returns the last cancel's LSN for the caller to commit.
func (s *server) abortAdmissionLocked(ids []uint64) wal.LSN {
	var lsn wal.LSN
	for _, id := range ids {
		delete(s.pending, id)
		delete(s.earlyHit, id)
		lsn, _ = s.log.Append(wal.Record{Op: wal.OpCancel, ID: id})
		s.cancelled++
	}
	return lsn
}

func (s *server) handleStop(w http.ResponseWriter, r *http.Request) {
	var req struct {
		ID uint64 `json:"id"`
	}
	if !readJSON(w, r, &req) {
		return
	}
	s.mu.Lock()
	e, ok := s.entries[req.ID]
	if !ok {
		s.mu.Unlock()
		writeJSON(w, map[string]any{"stopped": false})
		return
	}
	// Append before touching memory: a refused append then needs no
	// undo — the timer simply stays armed and the client gets a 503.
	lsn, werr := s.log.Append(wal.Record{Op: wal.OpCancel, Class: e.class, ID: req.ID, Lease: e.leaseID})
	if werr != nil {
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "wal_failed", "wal append: "+werr.Error())
		return
	}
	delete(s.entries, req.ID)
	if e.leaseID != 0 {
		s.leases.Detach(e.leaseID, req.ID)
	}
	s.cancelled++
	s.mu.Unlock()
	if err := s.log.Commit(lsn); err != nil {
		// The cancel record's durability is unknown (and the log is now
		// failed). Undo the in-memory cancel and 503: the timer stays
		// armed in this process, and either replay outcome — cancelled
		// or re-armed — is permissible for an unacknowledged stop.
		s.mu.Lock()
		s.entries[req.ID] = e
		if e.leaseID != 0 {
			s.leases.Attach(e.leaseID, req.ID)
		}
		s.cancelled--
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "wal_failed", "wal commit: "+err.Error())
		return
	}
	// The committed cancel is the answer. Stop may lose the race to a
	// fire already under way and report false, but that fire finds the
	// entry gone in onSettled and is swallowed: the client never sees
	// it, so the timer was stopped as far as anyone can observe.
	e.tm.Stop()
	s.maybeCompact()
	writeJSON(w, map[string]any{"stopped": true})
}

func (s *server) handleReset(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Resets []struct {
			ID      uint64 `json:"id"`
			AfterMS int64  `json:"after_ms"`
		} `json:"resets"`
	}
	if !readJSON(w, r, &req) {
		return
	}
	if len(req.Resets) == 0 {
		httpError(w, http.StatusBadRequest, "bad_request", "empty reset batch")
		return
	}
	now := s.clk.Now()
	rr := make([]timer.ResetReq, 0, len(req.Resets))
	resetIDs := make([]uint64, 0, len(req.Resets))
	// undo records each entry's pre-reset deadline so a WAL failure can
	// roll the in-memory view back to what replay will reconstruct.
	type undo struct {
		e   *entry
		was int64
	}
	undos := make([]undo, 0, len(req.Resets))
	revert := func() {
		for _, u := range undos {
			u.e.deadline = u.was
		}
	}
	matched := 0
	s.mu.Lock()
	var lsn wal.LSN
	for _, q := range req.Resets {
		if q.AfterMS <= 0 {
			continue
		}
		e, ok := s.entries[q.ID]
		if !ok {
			continue
		}
		after := time.Duration(q.AfterMS) * time.Millisecond
		deadline := now.Add(after).UnixNano()
		l, werr := s.log.Append(wal.Record{Op: wal.OpReset, Class: e.class, ID: q.ID, Lease: e.leaseID, Deadline: deadline})
		if werr != nil {
			revert()
			s.mu.Unlock()
			httpError(w, http.StatusServiceUnavailable, "wal_failed", "wal append: "+werr.Error())
			return
		}
		lsn = l
		undos = append(undos, undo{e: e, was: e.deadline})
		e.deadline = deadline
		matched++
		rr = append(rr, timer.ResetReq{T: e.tm, After: after})
		resetIDs = append(resetIDs, q.ID)
	}
	s.mu.Unlock()
	if matched > 0 {
		if err := s.log.Commit(lsn); err != nil {
			// No reset reached the facility yet; restoring the recorded
			// deadlines leaves memory, wheel, and replay agreeing on the
			// old schedule. The 503 tells the client nothing moved.
			s.mu.Lock()
			revert()
			s.mu.Unlock()
			httpError(w, http.StatusServiceUnavailable, "wal_failed", "wal commit: "+err.Error())
			return
		}
	}
	// Re-arm only the entries still live: a stop, lease GC or fire that
	// retired one after the append has settled it (a stop may already
	// have recycled its *Timer). Holding s.mu across the call keeps them
	// from retiring one mid-batch.
	s.mu.Lock()
	live := rr[:0]
	for i, q := range rr {
		if _, ok := s.entries[resetIDs[i]]; ok {
			live = append(live, q)
		}
	}
	accepted, _ := s.fac.ResetBatch(live)
	s.mu.Unlock()
	s.maybeCompact()
	writeJSON(w, map[string]any{"matched": matched, "accepted": accepted})
}

func (s *server) handleLeaseGrant(w http.ResponseWriter, r *http.Request) {
	var req struct {
		TTLMS int64 `json:"ttl_ms"`
	}
	if !readJSON(w, r, &req) {
		return
	}
	id, expiry, err := s.leases.Grant(time.Duration(req.TTLMS) * time.Millisecond)
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, "unavailable", err.Error())
		return
	}
	s.mu.Lock()
	lsn, werr := s.log.Append(wal.Record{Op: wal.OpLeaseGrant, ID: id, Deadline: expiry.UnixNano()})
	s.mu.Unlock()
	if werr == nil {
		werr = s.log.Commit(lsn)
	}
	if werr != nil {
		// An unacked grant must not live on in memory: if the record did
		// sneak to disk, replay restores a lease nobody holds and its
		// watchdog expires it through the normal path.
		s.leases.Release(id)
		httpError(w, http.StatusServiceUnavailable, "wal_failed", werr.Error())
		return
	}
	writeJSON(w, map[string]any{"lease": id, "expiry_unix_ns": expiry.UnixNano()})
}

func (s *server) handleLeaseRenew(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Lease uint64 `json:"lease"`
		TTLMS int64  `json:"ttl_ms"`
	}
	if !readJSON(w, r, &req) {
		return
	}
	oldExpiry, live := s.leases.Expiry(req.Lease)
	if !live {
		httpError(w, http.StatusNotFound, "lease_not_alive", "lease not alive")
		return
	}
	expiry, ok := s.leases.Renew(req.Lease, time.Duration(req.TTLMS)*time.Millisecond)
	if !ok {
		httpError(w, http.StatusNotFound, "lease_not_alive", "lease not alive")
		return
	}
	s.mu.Lock()
	lsn, werr := s.log.Append(wal.Record{Op: wal.OpLeaseRenew, ID: req.Lease, Deadline: expiry.UnixNano()})
	s.mu.Unlock()
	if werr == nil {
		werr = s.log.Commit(lsn)
	}
	if werr != nil {
		// An acked renewal that is not durable would silently revert to
		// the old expiry on restart — the client's timers would then be
		// GC'd early. Roll the in-memory expiry back (unless a later
		// renewal already moved it) so memory never promises more than
		// the log, and let the client retry against the 503.
		s.leases.RevertExpiry(req.Lease, expiry, oldExpiry)
		httpError(w, http.StatusServiceUnavailable, "wal_failed", werr.Error())
		return
	}
	writeJSON(w, map[string]any{"expiry_unix_ns": expiry.UnixNano()})
}

func (s *server) handleLeaseRelease(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Lease uint64 `json:"lease"`
	}
	if !readJSON(w, r, &req) {
		return
	}
	timers, ok := s.leases.Release(req.Lease)
	if !ok {
		httpError(w, http.StatusNotFound, "lease_not_alive", "lease not alive")
		return
	}
	cancelled, err := s.gcLease(req.Lease, timers, true)
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, "wal_failed", "released, but not durably: "+err.Error())
		return
	}
	s.maybeCompact()
	writeJSON(w, map[string]any{"cancelled": cancelled})
}

// handleFired serves the fired-event ring. `since` is the client's
// cursor; `wait` long-polls: if no event past the cursor exists yet,
// the handler blocks up to min(wait, maxFiredWait) for the next fire
// instead of forcing the client to poll.
func (s *server) handleFired(w http.ResponseWriter, r *http.Request) {
	var since uint64
	fmt.Sscanf(r.URL.Query().Get("since"), "%d", &since)
	var wait time.Duration
	if ws := r.URL.Query().Get("wait"); ws != "" {
		d, err := time.ParseDuration(ws)
		if err != nil || d < 0 {
			httpError(w, http.StatusBadRequest, "bad_request", "bad wait duration")
			return
		}
		if d > maxFiredWait {
			d = maxFiredWait
		}
		wait = d
	}
	deadline := time.Now().Add(wait)
	for {
		s.mu.Lock()
		events := make([]firedEvent, 0, 32)
		for _, ev := range s.fired {
			if ev.Seq > since {
				events = append(events, ev)
			}
		}
		next := s.firedSeq
		notify := s.firedNotify
		// next > since with no events means the cursor predates the ring's
		// retention: answer immediately so the client can resynchronize
		// rather than block on history that will never reappear.
		respond := len(events) > 0 || wait == 0 || next > since
		// Amend the push leg into each event's fire timeline exactly
		// once: the watermark advances under s.mu, so concurrent pollers
		// claim disjoint first deliveries.
		type pushMark struct {
			tlSeq   uint64
			firedNS int64
		}
		var pushes []pushMark
		if respond && len(events) > 0 {
			for _, ev := range events {
				if ev.Seq > s.pushedSeq && ev.tlSeq != 0 {
					pushes = append(pushes, pushMark{ev.tlSeq, ev.FiredNS})
				}
			}
			if last := events[len(events)-1].Seq; last > s.pushedSeq {
				s.pushedSeq = last
			}
		}
		s.mu.Unlock()
		if respond {
			if len(pushes) > 0 {
				pushNS := s.clk.Now().UnixNano()
				for _, p := range pushes {
					s.stages.Amend(p.tlSeq, "push", pushNS-p.firedNS)
				}
			}
			writeJSON(w, map[string]any{"events": events, "next": next})
			return
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			writeJSON(w, map[string]any{"events": events, "next": next})
			return
		}
		t := time.NewTimer(remain)
		select {
		case <-notify: // a fire landed; re-collect
			t.Stop()
		case <-t.C:
		case <-r.Context().Done():
			t.Stop()
			return
		}
	}
}

// handleTimers lists the outstanding set — the daemon's answer to
// "what would replay if you crashed right now". Intended for
// inspection and tests, not high-frequency polling.
func (s *server) handleTimers(w http.ResponseWriter, r *http.Request) {
	type timerView struct {
		ID         uint64 `json:"id"`
		DeadlineNS int64  `json:"deadline_unix_ns"`
		Class      string `json:"class"`
		Lease      uint64 `json:"lease,omitempty"`
	}
	s.mu.Lock()
	out := make([]timerView, 0, len(s.entries))
	for id, e := range s.entries {
		out = append(out, timerView{
			ID: id, DeadlineNS: e.deadline,
			Class: timer.Priority(e.class).String(), Lease: e.leaseID,
		})
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	writeJSON(w, map[string]any{"timers": out})
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	body := map[string]any{
		"status":          "ok",
		"role":            s.currentRole().String(),
		"term":            s.currentTerm(),
		"outstanding":     len(s.entries) + len(s.pending),
		"scheduled_total": s.scheduled,
		"fired_total":     s.firedN,
		"cancelled_total": s.cancelled,
		"shed_total":      s.shed,
	}
	s.mu.Unlock()
	ls := s.leases.Stats()
	body["leases_active"] = ls.Active
	ws := s.log.Stats()
	body["wal"] = map[string]any{
		"epoch": ws.Epoch, "lsn": ws.LSN, "durable": ws.Durable,
		"appends": ws.Appends, "syncs": ws.Syncs, "snapshots": ws.Snapshots,
		"segment_bytes": ws.SegmentBytes, "durable_bytes": ws.DurableBytes,
		"failed": ws.Failed,
	}
	if s.currentRole() == roleStandby {
		// Replication lag, observable without /metrics: how far this
		// standby trails the primary's commit point.
		rs := s.role.follower.Status()
		rep := map[string]any{
			"primary":        s.cfg.follow,
			"cursor_epoch":   rs.Cursor.Epoch,
			"cursor_offset":  rs.Cursor.Offset,
			"bytes_behind":   rs.BytesBehind,
			"records_behind": rs.RecordsBehind,
			"frames_applied": rs.FramesApplied,
			"seeds":          rs.Seeds,
			"resyncs":        rs.Resyncs,
			"net_errors":     rs.NetErrors,
		}
		if !rs.LastContact.IsZero() {
			rep["last_contact_ms_ago"] = time.Since(rs.LastContact).Milliseconds()
		}
		body["replication"] = rep
		s.repMu.Lock()
		st := s.repState
		body["replicated"] = map[string]any{
			"outstanding": st.Outstanding(),
			"scheduled":   st.Scheduled,
			"fired":       st.Fired,
			"cancelled":   st.Cancelled,
		}
		s.repMu.Unlock()
	}
	if ws.Failed {
		// The log hit an unrecoverable I/O error: every acked path is
		// refusing work with 503s and the daemon needs a restart.
		body["status"] = "degraded: wal failed"
	}
	rec := s.recovered
	body["recovered"] = map[string]any{
		"snapshot_records": rec.SnapshotRecords,
		"log_records":      rec.LogRecords,
		"torn":             rec.Torn,
		"torn_bytes":       rec.TornBytes,
		"sealed":           rec.State.Sealed,
		"timers":           rec.State.Scheduled - rec.State.Fired - rec.State.Cancelled,
	}
	writeJSON(w, body)
}

// extraMetrics exports the WAL and lease counters next to the
// facility's own series on /metrics.
func (s *server) extraMetrics() []telemetry.Metric {
	walStat := func(f func(wal.Stats) float64) func() float64 {
		return func() float64 { return f(s.log.Stats()) }
	}
	leaseStat := func(f func(lease.Stats) float64) func() float64 {
		return func() float64 { return f(s.leases.Stats()) }
	}
	srvStat := func(f func(*server) float64) func() float64 {
		return func() float64 { s.mu.Lock(); defer s.mu.Unlock(); return f(s) }
	}
	metrics := append([]telemetry.Metric(nil), s.stageMetrics()...)
	return append(metrics, []telemetry.Metric{
		{Name: "wal_appends_total", Help: "Records appended to the WAL.", Value: walStat(func(w wal.Stats) float64 { return float64(w.Appends) })},
		{Name: "wal_syncs_total", Help: "WAL fsync batches.", Value: walStat(func(w wal.Stats) float64 { return float64(w.Syncs) })},
		{Name: "wal_snapshots_total", Help: "WAL compaction snapshots.", Value: walStat(func(w wal.Stats) float64 { return float64(w.Snapshots) })},
		{Name: "wal_segment_bytes", Help: "Active WAL segment size.", Gauge: true, Value: walStat(func(w wal.Stats) float64 { return float64(w.SegmentBytes) })},
		{Name: "wal_unsynced_records", Help: "Appended records not yet durable.", Gauge: true, Value: walStat(func(w wal.Stats) float64 { return float64(w.LSN - w.Durable) })},
		{Name: "leases_active", Help: "Live client leases.", Gauge: true, Value: leaseStat(func(l lease.Stats) float64 { return float64(l.Active) })},
		{Name: "leases_granted_total", Help: "Leases granted.", Value: leaseStat(func(l lease.Stats) float64 { return float64(l.Granted) })},
		{Name: "leases_renewed_total", Help: "Lease renewals.", Value: leaseStat(func(l lease.Stats) float64 { return float64(l.Renewed) })},
		{Name: "leases_expired_total", Help: "Leases expired for missed heartbeats.", Value: leaseStat(func(l lease.Stats) float64 { return float64(l.Expired) })},
		{Name: "leases_released_total", Help: "Leases released by their clients.", Value: leaseStat(func(l lease.Stats) float64 { return float64(l.Released) })},
		{Name: "twd_scheduled_total", Help: "Timers durably admitted.", Value: srvStat(func(s *server) float64 { return float64(s.scheduled) })},
		{Name: "twd_fired_total", Help: "Timers delivered.", Value: srvStat(func(s *server) float64 { return float64(s.firedN) })},
		{Name: "twd_cancelled_total", Help: "Timers cancelled.", Value: srvStat(func(s *server) float64 { return float64(s.cancelled) })},
		{Name: "twd_role", Help: "Replication role (0 primary, 1 standby, 2 fenced).", Gauge: true, Value: func() float64 { return float64(s.roleNow.Load()) }},
		{Name: "twd_term", Help: "Fencing term.", Gauge: true, Value: func() float64 { return float64(s.currentTerm()) }},
		{Name: "wal_durable_bytes", Help: "Durable prefix of the active WAL segment (what replication serves).", Gauge: true, Value: walStat(func(w wal.Stats) float64 { return float64(w.DurableBytes) })},
		{Name: "replica_frames_applied_total", Help: "WAL frames applied from the primary (standby only).", Value: func() float64 { return float64(s.replApplied.Load()) }},
		{Name: "replica_bytes_behind", Help: "Replication lag in bytes (standby only).", Gauge: true, Value: func() float64 {
			if f := s.role.follower; f != nil {
				return float64(f.Status().BytesBehind)
			}
			return 0
		}},
		{Name: "replica_records_behind", Help: "Replication lag in records (standby only).", Gauge: true, Value: func() float64 {
			if f := s.role.follower; f != nil {
				return float64(f.Status().RecordsBehind)
			}
			return 0
		}},
	}...)
}

// maybeCompact triggers a background snapshot once the active segment
// outgrows the configured threshold. One compaction at a time.
func (s *server) maybeCompact() {
	if s.cfg.snapBytes <= 0 || s.log.SegmentBytes() < s.cfg.snapBytes {
		return
	}
	if !s.compacting.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer s.compacting.Store(false)
		s.compact()
	}()
}

// compact rewrites the WAL as a snapshot of the live state. Holding
// s.mu for the duration pins the record set: no append can land in the
// old segment after the set is built, so rotation loses nothing. The
// seed folds in s.pending — timers whose OpSchedule is committed but
// whose arm/publish is still in flight are acked state, and rotating
// them away would lose them on the next crash — plus a high-water pin
// so a restart never re-issues a settled timer's ID.
func (s *server) compact() {
	s.mu.Lock()
	defer s.mu.Unlock()
	recs := make([]wal.Record, 0, len(s.entries)+len(s.pending)+8)
	recs = append(recs, wal.Record{Op: wal.OpHighWater, ID: s.nextID.Load()})
	for id, e := range s.entries {
		recs = append(recs, wal.Record{
			Op: wal.OpSchedule, Class: e.class, ID: id, Lease: e.leaseID,
			Deadline: e.deadline, Payload: e.payload,
		})
	}
	for id, e := range s.pending {
		recs = append(recs, wal.Record{
			Op: wal.OpSchedule, Class: e.class, ID: id, Lease: e.leaseID,
			Deadline: e.deadline, Payload: e.payload,
		})
	}
	for _, le := range s.leases.Snapshot() {
		recs = append(recs, wal.Record{Op: wal.OpLeaseGrant, ID: le.ID, Deadline: le.Expiry.UnixNano()})
	}
	if err := s.log.Snapshot(recs); err != nil {
		// A failed snapshot rolled back to the old epoch (still
		// authoritative) or, if even the rollback failed, poisoned the
		// log — every later acked path then 503s. Either way the operator
		// must hear about it; durable state is never silently wrong.
		s.logger.Error("wal snapshot failed", "err", err, "term", s.currentTerm(),
			"outstanding", len(s.entries)+len(s.pending))
	}
}

// shutdown runs the graceful path: fence admissions, cancel the
// outstanding set in the facility (the WAL deliberately keeps those
// timers outstanding, so the next boot replays them), then seal and
// close the log so recovery knows the shutdown was clean.
func (s *server) shutdown(drainCtx context.Context) {
	if !s.stopped.CompareAndSwap(false, true) {
		return
	}
	if s.currentRole() == roleStandby && s.role.followStop != nil {
		// Stop the stream first, then persist a cursor that matches the
		// synced local journal — the restart resumes instead of re-seeding.
		s.role.followStop()
		<-s.role.followDone
		expired, cancel := context.WithCancel(context.Background())
		cancel() // pre-cancelled: Drain skips fetching, syncs, persists
		s.role.follower.Drain(expired)
	}
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.leases.Close()
	s.fac.Drain(drainCtx, timer.DrainCancelAll)
	s.mu.Lock()
	s.log.Append(wal.Record{Op: wal.OpSeal})
	s.mu.Unlock()
	s.log.Sync()
	s.log.Close()
}

// HTTP plumbing.

func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "method_not_allowed", "POST required")
		return false
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 4<<20))
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad_request", err.Error())
		return false
	}
	if err := json.Unmarshal(body, v); err != nil {
		httpError(w, http.StatusBadRequest, "bad_request", "bad json: "+err.Error())
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// httpError writes a machine-readable error: `error` is a stable code
// clients can switch on ("draining", "wal_failed", "not_primary", ...),
// `message` the human detail. 503s carry Retry-After so a well-behaved
// client backs off instead of hammering a daemon that is draining or
// whose WAL failed.
func httpError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": code, "message": msg})
}
