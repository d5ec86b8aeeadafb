package engine

import (
	"testing"

	"chimera/internal/calculus"
	"chimera/internal/cond"
	"chimera/internal/event"
	"chimera/internal/rules"
	"chimera/internal/schema"
	"chimera/internal/types"
)

// driveLongTxn runs one long transaction (lines × one create each)
// against a single always-considered rule and returns the Event Base
// statistics observed just before commit.
func driveLongTxn(t *testing.T, consumption rules.Consumption, disable bool, lines int) (appended, live, retired int) {
	t.Helper()
	db := New(Options{DisableCompaction: disable})
	if err := db.DefineClass("item",
		schema.Attribute{Name: "n", Kind: types.KindInt},
		schema.Attribute{Name: "cap", Kind: types.KindInt}); err != nil {
		t.Fatal(err)
	}
	// Fires on every create, condition never satisfied: each line is one
	// consideration, so a consuming rule's horizon tracks the line rate.
	err := db.DefineRule(
		rules.Def{Name: "watch", Target: "item", Consumption: consumption,
			Event: calculus.P(event.Create("item"))},
		Body{Condition: cond.Formula{Atoms: []cond.Atom{
			cond.Class{Class: "item", Var: "S"},
			cond.Compare{L: cond.Attr{Var: "S", Attr: "n"}, Op: cond.CmpGt,
				R: cond.Attr{Var: "S", Attr: "cap"}},
		}}})
	if err != nil {
		t.Fatal(err)
	}
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < lines; i++ {
		if _, err := tx.Create("item", map[string]types.Value{
			"n": types.Int(1), "cap": types.Int(100),
		}); err != nil {
			t.Fatal(err)
		}
		if err := tx.EndLine(); err != nil {
			t.Fatal(err)
		}
	}
	b := tx.Base()
	live, retired = b.Len(), b.Retired()
	appended = live + retired
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return appended, live, retired
}

// TestLongTransactionBoundedMemory: with an all-consuming rule set the
// engine's per-block compaction keeps the live Event Base bounded by the
// rule horizon (a couple of segments), not by transaction length.
func TestLongTransactionBoundedMemory(t *testing.T) {
	const lines = 1500 // ~6 default-size segments
	appended, live, retired := driveLongTxn(t, rules.Consuming, false, lines)
	if appended != lines {
		t.Fatalf("appended = %d, want %d", appended, lines)
	}
	if retired == 0 {
		t.Fatal("long consuming transaction retired nothing")
	}
	// The live window is at most the segment being filled plus the sealed
	// segment the watermark has not fully passed.
	if max := 2 * event.DefaultSegmentSize; live > max {
		t.Fatalf("live occurrences = %d, want ≤ %d (bounded by the rule horizon)", live, max)
	}
	if live+retired != appended {
		t.Fatalf("live %d + retired %d != appended %d", live, retired, appended)
	}
}

// TestLongTransactionPreservingPins: a preserving rule keeps the whole
// transaction visible — compaction must retire nothing.
func TestLongTransactionPreservingPins(t *testing.T) {
	const lines = 600
	appended, live, retired := driveLongTxn(t, rules.Preserving, false, lines)
	if retired != 0 || live != appended {
		t.Fatalf("preserving transaction: appended=%d live=%d retired=%d, want full retention",
			appended, live, retired)
	}
}

// TestDisableCompactionRetainsLog: the opt-out keeps the complete log
// even for consuming rule sets.
func TestDisableCompactionRetainsLog(t *testing.T) {
	const lines = 600
	appended, live, retired := driveLongTxn(t, rules.Consuming, true, lines)
	if retired != 0 || live != appended {
		t.Fatalf("DisableCompaction: appended=%d live=%d retired=%d, want full retention",
			appended, live, retired)
	}
}
