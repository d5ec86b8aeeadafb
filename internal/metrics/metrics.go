// Package metrics is the engine-wide observability registry: a
// dependency-free set of atomic instruments (monotone counters, gauges,
// fixed-bucket histograms) the hot layers — Event Base appends, the
// triggering determination, the rule-processing loop — report into,
// plus a snapshot and text exposition for `chimerash show stats` and
// `engine.DB.Snapshot`, which the B0 benchmark's per-layer pass reads.
//
// # Zero overhead when off
//
// Instrumentation must never perturb the engine (the differential
// suite in internal/engine pins this), and must cost nothing when
// disabled. Both follow from one rule: every instrument method is a
// no-op on a nil receiver, and a nil *Registry hands out nil
// instruments. An instrumented call site is therefore always written
// unconditionally —
//
//	m.Appends.Inc()
//
// — and compiles to a single branch-predictable nil check when metrics
// are off: no allocation, no atomic operation, no map lookup, no
// interface dispatch. The enabled path is one (or for histograms, three)
// uncontended atomic adds.
//
// # Concurrency
//
// All instruments are safe for concurrent use. Counters are monotone
// (negative deltas are discarded) and individually linearizable: the
// value read is the count of increments that happened before the read.
// A histogram Observe adds to its bucket before the count, so any
// concurrent snapshot sees bucket-sum ≥ count; the two are equal
// whenever no Observe is in flight. Registry lookups take a read lock
// on the steady state and a write lock only to create a new instrument.
package metrics

import "sync/atomic"

// Counter is a monotonically increasing counter. The zero value is
// ready to use; a nil *Counter discards every operation.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n. Counters are monotone: negative deltas are discarded.
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous value (live window size, workers in use,
// watermark age). The zero value is ready to use; a nil *Gauge discards
// every operation.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by n (which may be negative).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed buckets: observation v lands
// in the first bucket whose upper bound is ≥ v, or the overflow bucket
// past every bound. Bounds are fixed at creation and immutable, so
// Observe is lock-free: one atomic add into the bucket, one into the
// count, one into the sum. A nil *Histogram discards every operation.
type Histogram struct {
	bounds  []int64 // ascending upper bounds; immutable after creation
	buckets []atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

func newHistogram(bounds []int64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("metrics: histogram bounds must ascend")
		}
	}
	return &Histogram{
		bounds:  append([]int64(nil), bounds...),
		buckets: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one observation. The bucket is written before the
// count, so a concurrent snapshot sees bucket-sum ≥ count and the two
// agree whenever no Observe is in flight.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations (0 on a nil receiver).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values (0 on a nil receiver).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// snapshot reads the histogram race-free (counts may trail in-flight
// Observes; see Observe).
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds, // immutable; shared read-only
		Counts: make([]int64, len(h.buckets)),
		Count:  h.count.Load(),
		Sum:    h.sum.Load(),
	}
	for i := range h.buckets {
		s.Counts[i] = h.buckets[i].Load()
	}
	return s
}
