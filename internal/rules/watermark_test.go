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
// considered.
func TestWatermarkTracksConsiderations(t *testing.T) {
	s, b, c := newSupport(t)
	for i := 0; i < 3; i++ {
		d := Def{Name: fmt.Sprintf("r%d", i), Event: calculus.P(createStock), Priority: i}
		if err := s.Define(d); err != nil {
			t.Fatal(err)
		}
	}
	start := s.TxnStart()
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
	at2 := c.Tick()
	if _, err := s.Consider("r2", at2); err != nil {
		t.Fatal(err)
	}
	if got := s.Watermark(); got != at0 {
		t.Fatalf("watermark = %d, want min consideration %d", got, at0)
	}

	// Regression: defining a rule after considerations must pull the
	// watermark back down to the transaction start (the new rule's window
	// opens there), not leave the cached minimum.
	if err := s.Define(Def{Name: "late", Event: calculus.P(modStockQty)}); err != nil {
		t.Fatal(err)
	}
	if got := s.Watermark(); got != start {
		t.Fatalf("watermark after late Define = %d, want %d", got, start)
	}
	if err := s.Drop("late"); err != nil {
		t.Fatal(err)
	}
	if got := s.Watermark(); got != at0 {
		t.Fatalf("watermark after dropping the laggard = %d, want %d", got, at0)
	}
	// Dropping the minimum-holding rule advances the watermark too.
	if err := s.Drop("r0"); err != nil {
		t.Fatal(err)
	}
	if got := s.Watermark(); got != at1 {
		t.Fatalf("watermark after dropping r0 = %d, want %d", got, at1)
	}
	// BeginTransaction resets everything to the new start.
	s.BeginTransaction(c.Tick())
	if got := s.Watermark(); got != s.TxnStart() {
		t.Fatalf("watermark after BeginTransaction = %d, want %d", got, s.TxnStart())
	}
}

// TestWatermarkPreservingPinsAndDropUnpins is the satellite regression:
// one preserving rule pins the watermark at the transaction start no
// matter how far consuming rules advance, and dropping the last
// preserving rule unpins compaction immediately — with no further rule
// activity needed.
func TestWatermarkPreservingPinsAndDropUnpins(t *testing.T) {
	s, b, c := newSupport(t)
	if err := s.Define(Def{Name: "keep", Event: calculus.P(createStock),
		Consumption: Preserving}); err != nil {
		t.Fatal(err)
	}
	if err := s.Define(Def{Name: "churn", Event: calculus.P(createStock)}); err != nil {
		t.Fatal(err)
	}
	start := s.TxnStart()
	var lastConsider clock.Time
	for i := 0; i < 5; i++ {
		log(t, s, b, c, createStock, 1)
		s.CheckTriggered(c.Now())
		lastConsider = c.Tick()
		if _, err := s.Consider("churn", lastConsider); err != nil {
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
	if err := s.Drop("keep"); err != nil {
		t.Fatal(err)
	}
	if got := s.Watermark(); got != lastConsider {
		t.Fatalf("watermark after dropping last preserving rule = %d, want %d (unpinned immediately)",
			got, lastConsider)
	}
	// And compaction actually proceeds now.
	if n := b.CompactBelow(s.Watermark()); n == 0 {
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
	s := NewSupport(compacted, Options{})
	s.BeginTransaction(c.Now())
	if err := s.Define(Def{Name: "audit", Event: calculus.P(createStock),
		Consumption: Preserving, Priority: 99}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := s.Define(Def{Name: fmt.Sprintf("hot%d", i),
			Event: calculus.P(vocab[i%len(vocab)]), Priority: i}); err != nil {
			t.Fatal(err)
		}
	}
	start := s.TxnStart()
	for block := 0; block < 60; block++ {
		for i := 0; i < 3; i++ {
			ty := vocab[r.Intn(len(vocab))]
			oid := types.OID(1 + r.Intn(4))
			at := c.Tick()
			if _, err := compacted.Append(ty, oid, at); err != nil {
				t.Fatal(err)
			}
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
		if g, w := compacted.OccurrencesOf(ty, start, now), flat.OccurrencesOf(ty, start, now); !reflect.DeepEqual(g, w) {
			t.Fatalf("OccurrencesOf(%v) over the preserving window differs", ty)
		}
	}
	// Dropping the preserving rule unpins: the same base now compacts.
	if err := s.Drop("audit"); err != nil {
		t.Fatal(err)
	}
	if n := compacted.CompactBelow(s.Watermark()); n == 0 {
		t.Fatal("nothing retired after the preserving pin was dropped")
	}
}
