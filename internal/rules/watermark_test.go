package rules

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"chimera/internal/calculus"
	"chimera/internal/clock"
	"chimera/internal/event"
	"chimera/internal/types"
)

// TestWatermarkTracksConsiderations: for an all-consuming rule set the
// watermark is the minimum last consideration — it starts at the
// transaction start and advances only when the laggard rule is
// considered; the next transaction's Session starts it over.
func TestWatermarkTracksConsiderations(t *testing.T) {
	defs := make([]Def, 3)
	for i := range defs {
		defs[i] = Def{Name: fmt.Sprintf("r%d", i), Event: calculus.P(createStock), Priority: i}
	}
	s, b, c := newSupport(t, defs...)
	start := s.Start()
	if got := s.Watermark(); got != start {
		t.Fatalf("initial watermark = %d, want txn start %d", got, start)
	}
	log(t, s, b, c, createStock, 1)
	s.CheckTriggered(c.Now())
	at0 := c.Tick()
	if _, err := s.Consider("r0", at0); err != nil {
		t.Fatal(err)
	}
	if got := s.Watermark(); got != start {
		t.Fatalf("watermark after one consideration = %d, want %d (r1, r2 lag)", got, start)
	}
	at1 := c.Tick()
	if _, err := s.Consider("r1", at1); err != nil {
		t.Fatal(err)
	}
	if got := s.Watermark(); got != start {
		t.Fatalf("watermark after two considerations = %d, want %d (r2 lags)", got, start)
	}
	at2 := c.Tick()
	if _, err := s.Consider("r2", at2); err != nil {
		t.Fatal(err)
	}
	if got := s.Watermark(); got != at0 {
		t.Fatalf("watermark = %d, want min consideration %d", got, at0)
	}
	// Considering the laggard again moves the minimum to the next one.
	if _, err := s.Consider("r0", c.Tick()); err != nil {
		t.Fatal(err)
	}
	if got := s.Watermark(); got != at1 {
		t.Fatalf("watermark after reconsidering r0 = %d, want %d", got, at1)
	}
	// A new transaction's Session starts everything at its start.
	s.Release()
	next := s.sup.NewSession(b, c.Tick())
	defer next.Release()
	if got := next.Watermark(); got != next.Start() {
		t.Fatalf("watermark of the next Session = %d, want its start %d", got, next.Start())
	}
}

// TestWatermarkPreservingPinsAndDropUnpins is the satellite regression:
// one preserving rule pins the watermark at the transaction start no
// matter how far consuming rules advance; once the last preserving rule
// is dropped between two transactions, the next Session's watermark
// follows the consuming rules' considerations.
func TestWatermarkPreservingPinsAndDropUnpins(t *testing.T) {
	s, b, c := newSupport(t,
		Def{Name: "keep", Event: calculus.P(createStock), Consumption: Preserving},
		Def{Name: "churn", Event: calculus.P(createStock)})
	start := s.Start()
	for i := 0; i < 5; i++ {
		log(t, s, b, c, createStock, 1)
		s.CheckTriggered(c.Now())
		if _, err := s.Consider("churn", c.Tick()); err != nil {
			t.Fatal(err)
		}
		// The preserving rule is considered too — its consideration must
		// NOT advance the watermark: its window always reopens at start.
		if _, err := s.Consider("keep", c.Tick()); err != nil {
			t.Fatal(err)
		}
		if got := s.Watermark(); got != start {
			t.Fatalf("round %d: watermark = %d, want pinned at %d", i, got, start)
		}
	}
	sup := s.sup
	s.Release()
	if err := sup.Drop("keep"); err != nil {
		t.Fatal(err)
	}
	next := sup.NewSession(b, c.Tick())
	defer next.Release()
	log(t, next, b, c, createStock, 1)
	next.CheckTriggered(c.Now())
	lastConsider := c.Tick()
	if _, err := next.Consider("churn", lastConsider); err != nil {
		t.Fatal(err)
	}
	if got := next.Watermark(); got != lastConsider {
		t.Fatalf("watermark after dropping the last preserving rule = %d, want %d (unpinned)",
			got, lastConsider)
	}
	// And compaction actually proceeds now.
	if n := b.CompactBelow(next.Watermark()); n == 0 {
		t.Fatal("compaction still pinned after dropping the preserving rule")
	}
}

// TestCompactingMatchesUncompactedReference: the support over tiny
// segments with per-block low-watermark compaction must fire the
// identical rule set at identical instants as the oracle over a flat
// uncompacted base, on random consuming-rule expression/history pairs.
func TestCompactingMatchesUncompactedReference(t *testing.T) {
	r := rand.New(rand.NewSource(131))
	vocab := calculus.DefaultVocabulary()
	gen := calculus.GenOptions{Types: vocab, MaxDepth: 3,
		AllowNegation: true, AllowInstance: true, AllowPrecedence: true}
	for trial := 0; trial < 10; trial++ {
		defs := make([]Def, 40)
		for i := range defs {
			defs[i] = Def{
				Name:     fmt.Sprintf("r%02d", i),
				Event:    calculus.GenExpr(r, gen),
				Priority: i % 7,
			}
		}
		seed := r.Int63()
		want := replay(t, reference, defs, vocab, seed, 8, replayOpts{considerAll: true})
		got := replay(t, production, defs, vocab, seed, 8,
			replayOpts{considerAll: true, compact: true, segSize: 4})
		sameFirings(t, fmt.Sprintf("trial %d", trial), want, got)
	}
}

// TestPreservingSurvivesConsumingChurn pins the preserving-mode
// guarantee: after heavy consuming-rule churn with per-block compaction,
// a preserving rule's consideration window — the full transaction — is
// bit-identical to an uncompacted reference base. The preserving rule
// pins the watermark, so compaction must retire nothing while it is
// defined.
func TestPreservingSurvivesConsumingChurn(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	vocab := []event.Type{createStock, modStockQty, modShowQty}
	compacted := event.NewBaseSize(4)
	flat := event.NewBaseSize(1 << 20)
	c := clock.New()
	defs := []Def{{Name: "audit", Event: calculus.P(createStock), Consumption: Preserving, Priority: 99}}
	for i := 0; i < 8; i++ {
		defs = append(defs, Def{Name: fmt.Sprintf("hot%d", i), Event: calculus.P(vocab[i%len(vocab)]), Priority: i})
	}
	sup := supportWith(t, defs)
	s := sup.NewSession(compacted, c.Now())
	start := s.Start()
	for block := 0; block < 60; block++ {
		for i := 0; i < 3; i++ {
			ty := vocab[r.Intn(len(vocab))]
			oid := types.OID(1 + r.Intn(4))
			at := c.Tick()
			tid, err := compacted.AppendTID(ty, oid, at)
			if err != nil {
				t.Fatal(err)
			}
			s.NotifyArrivals([]int32{tid})
			if _, err := flat.Append(ty, oid, at); err != nil {
				t.Fatal(err)
			}
		}
		s.CheckTriggered(c.Now())
		// Churn: consider every consuming rule each block so their
		// horizons race far ahead of the preserving rule's window.
		for i := 0; i < 8; i++ {
			s.Consider(fmt.Sprintf("hot%d", i), c.Tick())
		}
		s.Consider("audit", c.Tick())
		compacted.CompactBelow(s.Watermark())
	}
	if got := compacted.Retired(); got != 0 {
		t.Fatalf("compaction retired %d occurrences while a preserving rule was defined", got)
	}
	// The preserving window is the whole transaction; it must match the
	// uncompacted reference exactly.
	now := c.Now()
	if g, w := compacted.Window(start, now), flat.Window(start, now); !reflect.DeepEqual(g, w) {
		t.Fatal("preserving window differs from uncompacted reference")
	}
	if g, w := compacted.OIDs(start, now), flat.OIDs(start, now); !reflect.DeepEqual(g, w) {
		t.Fatal("preserving OID domain differs from uncompacted reference")
	}
	for _, ty := range vocab {
		if g, w := compacted.LastOf(ty, start, now), flat.LastOf(ty, start, now); g != w {
			t.Fatalf("LastOf(%v) over the preserving window: %d vs %d", ty, g, w)
		}
	}
	// Dropping the preserving rule between two transactions unpins: the
	// same base now compacts below the next Session's watermark.
	s.Release()
	if err := sup.Drop("audit"); err != nil {
		t.Fatal(err)
	}
	next := sup.NewSession(compacted, c.Tick())
	defer next.Release()
	if n := compacted.CompactBelow(next.Watermark()); n == 0 {
		t.Fatal("nothing retired after the preserving pin was dropped")
	}
}
