package metrics

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// Property: counters are monotone — interleaved Inc/Add (including
// discarded negative deltas) never decrease the observed value.
func TestCounterMonotone(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var c Counter
	prev := int64(0)
	for i := 0; i < 10000; i++ {
		switch r.Intn(3) {
		case 0:
			c.Inc()
		case 1:
			c.Add(int64(r.Intn(50)))
		case 2:
			c.Add(-int64(r.Intn(50))) // discarded, not applied
		}
		v := c.Value()
		if v < prev {
			t.Fatalf("counter decreased: %d after %d", v, prev)
		}
		prev = v
	}
}

// Property: a histogram's bucket counts sum to its observation count,
// and its sum matches the values observed, for random bounds and
// observations (including values beyond the last bound).
func TestHistogramBucketSumEqualsCount(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		nb := 1 + r.Intn(8)
		bounds := make([]int64, nb)
		next := int64(0)
		for i := range bounds {
			next += 1 + int64(r.Intn(20))
			bounds[i] = next
		}
		h := newHistogram(bounds)
		n := r.Intn(500)
		wantSum := int64(0)
		for i := 0; i < n; i++ {
			v := int64(r.Intn(int(2*next+1))) - next/2
			wantSum += v
			h.Observe(v)
		}
		s := h.snapshot()
		var bucketSum int64
		for _, c := range s.Counts {
			bucketSum += c
		}
		if bucketSum != s.Count || s.Count != int64(n) {
			t.Fatalf("trial %d: bucket-sum %d, count %d, observed %d", trial, bucketSum, s.Count, n)
		}
		if s.Sum != wantSum {
			t.Fatalf("trial %d: sum %d, want %d", trial, s.Sum, wantSum)
		}
		if len(s.Counts) != len(bounds)+1 {
			t.Fatalf("trial %d: %d buckets for %d bounds", trial, len(s.Counts), len(bounds))
		}
	}
}

// Property: each observation lands in the first bucket whose bound is
// ≥ the value (boundary values inclusive), or the overflow bucket.
func TestHistogramBucketPlacement(t *testing.T) {
	h := newHistogram([]int64{10, 100})
	for _, c := range []struct {
		v    int64
		want int
	}{{-5, 0}, {0, 0}, {10, 0}, {11, 1}, {100, 1}, {101, 2}, {1 << 40, 2}} {
		before := h.snapshot()
		h.Observe(c.v)
		after := h.snapshot()
		for i := range after.Counts {
			delta := after.Counts[i] - before.Counts[i]
			if (i == c.want) != (delta == 1) {
				t.Fatalf("observe(%d): bucket %d delta %d, want bucket %d", c.v, i, delta, c.want)
			}
		}
	}
}

func TestHistogramRejectsUnsortedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unsorted bounds accepted")
		}
	}()
	newHistogram([]int64{5, 5})
}

// Concurrent increments are linearizable: with -race this also proves
// data-race freedom; without it, it proves no increment is lost.
func TestConcurrentIncrementLinearizable(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c")
	g := reg.Gauge("g")
	h := reg.Histogram("h", 10, 100, 1000)
	const workers, perWorker = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Set(int64(i))
				h.Observe(int64(i % 1500))
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter lost increments: %d, want %d", got, workers*perWorker)
	}
	// Every worker's last Set is perWorker-1, so whichever ran last, a
	// torn or lost write shows as another value.
	if got := g.Value(); got != perWorker-1 {
		t.Fatalf("gauge = %d, want the last value set, %d", got, perWorker-1)
	}
	s := h.snapshot()
	var bucketSum int64
	for _, n := range s.Counts {
		bucketSum += n
	}
	if s.Count != workers*perWorker || bucketSum != s.Count {
		t.Fatalf("histogram: count %d, bucket-sum %d, want %d", s.Count, bucketSum, workers*perWorker)
	}
}

// Snapshots taken while writers are running must be race-free and
// internally sane: counters never exceed the final totals, and the
// write ordering guarantees bucket-sum ≥ count in every snapshot.
func TestSnapshotDuringWrite(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("writes")
	h := reg.Histogram("sizes", 4, 16, 64)
	const total = 20000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < total; i++ {
			c.Inc()
			h.Observe(int64(i % 100))
		}
	}()
	for i := 0; i < 200; i++ {
		s := reg.Snapshot()
		if v := s.Counters["writes"]; v < 0 || v > total {
			t.Fatalf("snapshot counter out of range: %d", v)
		}
		hs, ok := s.Histograms["sizes"]
		if !ok {
			t.Fatal("histogram missing from snapshot")
		}
		var bucketSum int64
		for _, n := range hs.Counts {
			bucketSum += n
		}
		if bucketSum < hs.Count {
			t.Fatalf("snapshot saw bucket-sum %d < count %d", bucketSum, hs.Count)
		}
	}
	<-done
	if v := reg.Snapshot().Counters["writes"]; v != total {
		t.Fatalf("final counter %d, want %d", v, total)
	}
}

// Registry lookups converge: the same name always yields the same
// instrument, including under concurrent first-use creation.
func TestRegistryGetOrCreate(t *testing.T) {
	reg := NewRegistry()
	const workers = 16
	got := make([]*Counter, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = reg.Counter("shared")
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if got[w] != got[0] {
			t.Fatal("concurrent Counter(name) returned distinct instruments")
		}
	}
	if reg.Histogram("h", 1, 2) != reg.Histogram("h", 9, 99) {
		t.Fatal("Histogram(name) did not return the existing instrument")
	}
}

// The disabled configuration: a nil registry hands out nil instruments
// and every operation is a harmless no-op reading back zero.
func TestNilRegistryAndInstruments(t *testing.T) {
	var reg *Registry
	c := reg.Counter("c")
	g := reg.Gauge("g")
	h := reg.Histogram("h", 1, 2, 3)
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must return nil instruments")
	}
	c.Inc()
	c.Add(5)
	g.Set(9)
	h.Observe(42)
	if c.Value() != 0 || g.Value() != 0 {
		t.Fatal("nil instruments must read zero")
	}
	if s := reg.Snapshot(); len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Histograms) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
}

// The text exposition is deterministic and carries every instrument.
func TestSnapshotTextExposition(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("b_total").Add(2)
	reg.Counter("a_total").Inc()
	reg.Gauge("live").Set(7)
	h := reg.Histogram("wait_ns", 10, 100)
	h.Observe(5)
	h.Observe(50)
	h.Observe(500)
	text := reg.Snapshot().String()
	want := `a_total 1
b_total 2
live 7
wait_ns_bucket{le="10"} 1
wait_ns_bucket{le="100"} 2
wait_ns_bucket{le="+Inf"} 3
wait_ns_sum 555
wait_ns_count 3
`
	if text != want {
		t.Fatalf("exposition mismatch:\n--- got\n%s--- want\n%s", text, want)
	}
	if again := reg.Snapshot().String(); again != text {
		t.Fatal("exposition not deterministic")
	}
	if !strings.Contains(text, `le="+Inf"`) {
		t.Fatal("overflow bucket missing")
	}
}
