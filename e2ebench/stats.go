package main

import (
	"math"
	"slices"
	"time"

	"timingwheels/internal/hdr"
)

// epoch anchors nanotime; every in-process timestamp is monotonic
// nanoseconds since the benchmark started.
var epoch = time.Now()

func nanotime() int64 { return int64(time.Since(epoch)) }

// wallNS converts a monotonic nanotime reading to wall-clock unix
// nanoseconds, the unit twd stamps deadlines and fires in.
func wallNS(mono int64) int64 { return epoch.UnixNano() + mono }

// samples is an append-only buffer of int64 observations, sized up front
// so recording on the hot path does not allocate.
type samples struct{ v []int64 }

func newSamples(capacity int) *samples { return &samples{v: make([]int64, 0, capacity)} }

func (s *samples) add(x int64) { s.v = append(s.v, x) }

func (s *samples) merge(o *samples) { s.v = append(s.v, o.v...) }

// quantile sorts the buffer in place and returns the q-quantile with
// linear interpolation between order statistics (the "R-7" rule).
func (s *samples) quantile(q float64) float64 {
	if len(s.v) == 0 {
		return 0
	}
	slices.Sort(s.v)
	return quantileSorted(s.v, q)
}

// latHist is a fixed-size histogram of non-negative latencies, for
// passes too long to keep every sample: its footprint stays the same
// however many operations a run issues, so the process's peak RSS is
// the system under test's.
type latHist struct{ h *hdr.Histogram }

func newLatHist() *latHist { return &latHist{h: hdr.New()} }

func (l *latHist) add(x int64) { l.h.Record(x) }

// quantile returns the q-quantile, interpolating linearly inside the
// bucket that holds it, so that it moves with the data rather than
// snapping to a bucket bound.
func (l *latHist) quantile(q float64) float64 {
	s := l.h.Snapshot()
	if s.Count == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	var seen float64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo := 0.0
			if i > 0 {
				lo = float64(hdr.UpperBound(i-1) + 1)
			}
			hi := float64(hdr.UpperBound(i) + 1)
			return lo + (rank-seen)/float64(c)*(hi-lo)
		}
		seen += float64(c)
	}
	return float64(s.Max)
}

// recorder is a latency distribution: raw samples or a latHist.
type recorder interface {
	add(x int64)
	quantile(q float64) float64
}

func quantileSorted(v []int64, q float64) float64 {
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return float64(v[lo]) + frac*float64(v[hi]-v[lo])
}

func median(xs []float64) float64 {
	c := slices.Clone(xs)
	slices.Sort(c)
	n := len(c)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// rng is a splitmix64 generator: deterministic for a seed, allocation
// free, and cheap enough to sit on the generator's hot path.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream uint64) *rng {
	return &rng{s: seed*0x9e3779b97f4a7c15 + stream*0xbf58476d1ce4e5b9 + 1}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a uniform integer in [0, n).
func (r *rng) intn(n int64) int64 { return int64(r.next() % uint64(n)) }

// between returns a uniform integer in [lo, hi].
func (r *rng) between(lo, hi int64) int64 { return lo + r.intn(hi-lo+1) }

// float returns a uniform float64 in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }
