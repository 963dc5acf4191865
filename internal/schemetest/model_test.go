package schemetest

import (
	"sync"
	"testing"
	"time"

	"timingwheels/internal/core"
	"timingwheels/timer"
)

// facilitySubject adapts a raw core.Facility (any of the paper's seven
// schemes) to the model checker. Reset is update-in-place when the
// scheme offers it (core.Resetter) and stop+start otherwise — the
// checker thereby proves the two implementations observationally
// equivalent against the same oracle.
type facilitySubject struct {
	fac     core.Facility
	handles map[int]core.Handle
	fired   []int
}

func newFacilitySubject(factory Factory) func() Subject {
	return func() Subject {
		return &facilitySubject{fac: factory(), handles: make(map[int]core.Handle)}
	}
}

func (s *facilitySubject) Name() string { return s.fac.Name() }
func (s *facilitySubject) Exact() bool  { return true }

func (s *facilitySubject) cb(key int) core.Callback {
	return func(core.ID) { s.fired = append(s.fired, key) }
}

func (s *facilitySubject) Schedule(key int, interval int64) error {
	h, err := s.fac.StartTimer(core.Tick(interval), s.cb(key))
	if err != nil {
		return err
	}
	s.handles[key] = h
	return nil
}

func (s *facilitySubject) Stop(key int) bool {
	h := s.handles[key]
	delete(s.handles, key)
	return s.fac.StopTimer(h) == nil
}

func (s *facilitySubject) Reset(key int, interval int64) bool {
	h := s.handles[key]
	if r, ok := s.fac.(core.Resetter); ok {
		if r.ResetTimer(h, core.Tick(interval)) == nil {
			return true // re-armed in place: same handle, same entry
		}
		// Not pending (already fired): fall through to the re-arm the
		// oracle's reset-regardless semantics require.
	}
	wasPending := s.fac.StopTimer(h) == nil
	nh, err := s.fac.StartTimer(core.Tick(interval), s.cb(key))
	if err != nil {
		panic("facilitySubject.Reset: StartTimer: " + err.Error())
	}
	s.handles[key] = nh
	return wasPending
}

func (s *facilitySubject) Tick() []int {
	s.fired = s.fired[:0]
	s.fac.Tick()
	return s.fired
}

func (s *facilitySubject) Len() int { return s.fac.Len() }
func (s *facilitySubject) Close()   {}

// modelClock is a hand-driven clock for manual-driver runtimes.
type modelClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *modelClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *modelClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// runtimeSubject adapts a *timer.Runtime (manual driver, fake clock,
// one tick per model tick) to the model checker, in two flavors: per-op
// and batched. Batch flavors buffer consecutive schedules (and consecutive
// stops) and flush them as one ScheduleBatch/StopBatch at the next
// non-matching operation — the clock only moves inside Tick, after the
// flush, so buffering is timing-identical to eager admission.
type runtimeSubject struct {
	name  string
	rt    *timer.Runtime
	clk   *modelClock
	g     time.Duration
	batch bool
	exact bool

	timers map[int]*timer.Timer
	fired  []int

	pendKeys []int
	pendReqs []timer.Req
	pendStop []*timer.Timer
}

// newRuntimeSubject returns a factory for one runtime flavor. exact is
// false for batch flavors (per-op results are aggregated away); fired
// sets and pending counts are compared exactly for all of them.
func newRuntimeSubject(name string, batch, exact bool, opts ...timer.RuntimeOption) func() Subject {
	return func() Subject {
		clk := &modelClock{now: time.Unix(1_000_000, 0)}
		g := time.Millisecond
		rt := timer.NewRuntime(append([]timer.RuntimeOption{
			timer.WithGranularity(g),
			timer.WithNowFunc(clk.Now),
			timer.WithManualDriver(),
		}, opts...)...)
		return &runtimeSubject{
			name: name, rt: rt, clk: clk, g: g, batch: batch, exact: exact,
			timers: make(map[int]*timer.Timer),
		}
	}
}

func (s *runtimeSubject) Name() string { return s.name }
func (s *runtimeSubject) Exact() bool  { return s.exact }

func (s *runtimeSubject) flushSched() {
	if len(s.pendReqs) == 0 {
		return
	}
	timers, err := s.rt.ScheduleBatch(s.pendReqs)
	if err != nil {
		panic("runtimeSubject: ScheduleBatch: " + err.Error())
	}
	for i, k := range s.pendKeys {
		s.timers[k] = timers[i]
	}
	s.pendKeys, s.pendReqs = s.pendKeys[:0], s.pendReqs[:0]
}

func (s *runtimeSubject) flushStops() {
	if len(s.pendStop) == 0 {
		return
	}
	s.rt.StopBatch(s.pendStop)
	s.pendStop = s.pendStop[:0]
}

func (s *runtimeSubject) flush() {
	s.flushSched()
	s.flushStops()
}

func (s *runtimeSubject) Schedule(key int, interval int64) error {
	fn := func() { s.fired = append(s.fired, key) }
	d := time.Duration(interval) * s.g
	if s.batch {
		s.flushStops()
		s.pendKeys = append(s.pendKeys, key)
		s.pendReqs = append(s.pendReqs, timer.Req{After: d, Fn: fn})
		return nil
	}
	tm, err := s.rt.AfterFunc(d, fn)
	if err != nil {
		return err
	}
	s.timers[key] = tm
	return nil
}

func (s *runtimeSubject) Stop(key int) bool {
	s.flushSched()
	tm := s.timers[key]
	delete(s.timers, key)
	if s.batch {
		s.pendStop = append(s.pendStop, tm)
		return true // aggregate result lands at flush
	}
	return tm.Stop()
}

func (s *runtimeSubject) Reset(key int, interval int64) bool {
	s.flush()
	wasPending, err := s.timers[key].Reset(time.Duration(interval) * s.g)
	if err != nil {
		panic("runtimeSubject: Reset: " + err.Error())
	}
	return wasPending
}

func (s *runtimeSubject) Tick() []int {
	s.flush()
	s.fired = s.fired[:0]
	s.clk.advance(s.g)
	s.rt.Poll()
	return s.fired
}

func (s *runtimeSubject) Len() int {
	s.flush()
	return s.rt.Outstanding()
}

func (s *runtimeSubject) Close() { s.rt.Close() }

// modelSubjects is every implementation the differential checker runs:
// all raw schemes plus the Runtime's per-op and batched flavors. The
// runtime-ingress* subjects build their runtime with the deprecated
// WithIngress option, which the benchmark harness still passes, and
// hold it to the same exact contract as the runtime-sync* ones; they go
// with the option.
func modelSubjects() map[string]func() Subject {
	subs := make(map[string]func() Subject)
	for name, factory := range factories() {
		subs[name] = newFacilitySubject(factory)
	}
	gsq := timer.WithSchemeFactory(func() timer.Scheme { return timer.NewGroupedQueue(32, 8) })
	subs["runtime-sync"] = newRuntimeSubject("runtime-sync", false, true)
	subs["runtime-sync-batch"] = newRuntimeSubject("runtime-sync-batch", true, false)
	subs["runtime-ingress"] = newRuntimeSubject("runtime-ingress", false, true,
		timer.WithIngress(0))
	subs["runtime-ingress-batch"] = newRuntimeSubject("runtime-ingress-batch", true, false,
		timer.WithIngress(0))
	subs["runtime-ingress-tiny"] = newRuntimeSubject("runtime-ingress-tiny", false, true,
		timer.WithIngress(2))
	subs["runtime-ingress-tiny-batch"] = newRuntimeSubject("runtime-ingress-tiny-batch", true, false,
		timer.WithIngress(2))
	// The runtime over the grouped sorting queue exercises the in-place
	// Reset fast path (resetInPlaceLocked).
	subs["runtime-sync-gsq"] = newRuntimeSubject("runtime-sync-gsq", false, true, gsq)
	subs["runtime-ingress-gsq"] = newRuntimeSubject("runtime-ingress-gsq", false, true,
		timer.WithIngress(0), gsq)
	return subs
}

// TestModelDifferential runs identical random scripts through every
// subject; any disagreement with the oracle on what fires when (or on
// pending counts, or — for exact subjects — on stop/reset results)
// fails with a shrunk reproducer.
func TestModelDifferential(t *testing.T) {
	seeds := []uint64{1, 7, 42}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for name, mk := range modelSubjects() {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, seed := range seeds {
				RunModel(t, mk, GenScript(seed, 800, MaxModelInterval))
			}
		})
	}
}

// TestModelResetStorm drives the reset-dominated mix (>= 50% Resets)
// through the update-in-place scheme, its runtime flavors, and the
// wheels it races, so in-place re-arm bugs diverge from the oracle and
// shrink to minimal reproducers.
func TestModelResetStorm(t *testing.T) {
	seeds := []uint64{3, 9, 77}
	if testing.Short() {
		seeds = seeds[:1]
	}
	subs := modelSubjects()
	for _, name := range []string{
		"gsq", "gsq-w1", "gsq-band1", "scheme6", "scheme7", "hybrid",
		"runtime-sync-gsq", "runtime-ingress-gsq", "runtime-ingress-batch",
	} {
		name, mk := name, subs[name]
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, seed := range seeds {
				RunModel(t, mk, GenScriptMix(seed, 800, MaxModelInterval, ResetStormMix))
			}
		})
	}
}

// lateSubject wraps a conformant subject with a deliberate off-by-one
// scheduling bug, to prove the checker detects divergence and the
// shrinker reduces it.
type lateSubject struct{ Subject }

func (s lateSubject) Schedule(key int, interval int64) error {
	return s.Subject.Schedule(key, interval+1)
}

func (s lateSubject) Reset(key int, interval int64) bool {
	return s.Subject.Reset(key, interval+1)
}

func TestModelCheckerDetectsDivergence(t *testing.T) {
	mk := func() Subject { return lateSubject{newFacilitySubject(factories()["scheme6"])()} }
	script := GenScript(3, 400, MaxModelInterval)
	d := CheckScript(mk, script)
	if d == nil {
		t.Fatal("checker accepted a subject that schedules everything one tick late")
	}
	min := ShrinkScript(mk, script)
	if CheckScript(mk, min) == nil {
		t.Fatalf("shrunk script no longer diverges: %s", min)
	}
	// A lone late timer plus the ticks to its (missed) deadline suffices,
	// so the minimum is tiny; allow slack for shrinker local minima.
	if len(min) > 8 {
		t.Fatalf("shrinker left %d ops (want <= 8): %s", len(min), min)
	}
}

// TestModelShrinkKeepsConformant documents that ShrinkScript is the
// identity on conforming scripts.
func TestModelShrinkKeepsConformant(t *testing.T) {
	mk := newFacilitySubject(factories()["scheme6"])
	script := GenScript(5, 200, MaxModelInterval)
	if got := ShrinkScript(mk, script); len(got) != len(script) {
		t.Fatalf("shrinker rewrote a conformant script: %d -> %d ops", len(script), len(got))
	}
}

// FuzzModelMixedOps feeds fuzzer-chosen op sequences — arbitrary
// interleavings of schedule, stop, reset, and tick, including the
// single/batched mix the batch subjects create — through the
// recommended scheme, the hierarchy, and the batched runtime.
// FuzzModelResetStorm is the reset-storm smoke: the fuzzer picks the
// script seed, length, and the grouped-sorting-queue shape (band count
// and width, including degenerate single-band and width-1 queues), and
// every generated script is >= 50% Resets. The queue runs side by side
// with Scheme 6 and with the runtime's in-place reset path, all against
// the same oracle.
func FuzzModelResetStorm(f *testing.F) {
	f.Add(uint64(1), uint16(200), uint8(0x1b))
	f.Add(uint64(9), uint16(400), uint8(0x00))
	f.Add(uint64(77), uint16(96), uint8(0x0f))
	f.Add(uint64(42), uint16(640), uint8(0x21))
	f.Fuzz(func(t *testing.T, seed uint64, opCount uint16, shape uint8) {
		bands := 1 << (shape & 7)                   // 1..128 bands
		width := core.Tick(1) << ((shape >> 3) & 3) // width 1..8
		script := GenScriptMix(seed, int(opCount%800)+20, MaxModelInterval, ResetStormMix)
		for _, mk := range []func() Subject{
			newFacilitySubject(gsqFactory(bands, width)),
			newFacilitySubject(factories()["scheme6"]),
			newRuntimeSubject("runtime-sync-gsq", false, true,
				timer.WithSchemeFactory(func() timer.Scheme {
					return timer.NewGroupedQueue(bands, timer.Tick(width))
				})),
		} {
			if d := CheckScript(mk, script); d != nil {
				t.Fatal(d)
			}
		}
	})
}

func FuzzModelMixedOps(f *testing.F) {
	f.Add([]byte{0, 5, 7, 0, 3, 0, 7, 0})
	f.Add([]byte{0, 1, 0, 64, 4, 2, 7, 0, 7, 0, 3, 1})
	f.Add([]byte{2, 200, 1, 33, 5, 0, 0, 9, 4, 70, 6, 0, 3, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		script := DecodeScript(data)
		for _, mk := range []func() Subject{
			newFacilitySubject(factories()["scheme6"]),
			newFacilitySubject(factories()["scheme7"]),
			newRuntimeSubject("runtime-sync-batch", true, false),
		} {
			if d := CheckScript(mk, script); d != nil {
				t.Fatal(d)
			}
		}
	})
}
