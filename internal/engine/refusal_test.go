package engine

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"chimera/internal/act"
	"chimera/internal/calculus"
	"chimera/internal/cond"
	"chimera/internal/event"
	"chimera/internal/rules"
	"chimera/internal/schema"
	"chimera/internal/types"
)

// TestRefusedBlockContract pins what a refused block leaves behind
// (docs/SEMANTICS.md §7), on a solo and on a latched line: the
// transaction stays open at its savepoint — store, Event Base, marks and
// cascade guard as the savepoint found them — while clock ticks and
// counters keep what the block consumed, and a solo line hands the
// block's OIDs out again where a latched one does not.
func TestRefusedBlockContract(t *testing.T) {
	for _, sessions := range []int{1, 2} {
		db := New(Options{MaxRuleExecutions: 20, MaxSessions: sessions})
		if err := db.DefineClass("stock", schema.Attribute{Name: "quantity", Kind: types.KindInt}); err != nil {
			t.Fatal(err)
		}
		if err := db.DefineRule(rules.Def{Name: "loop",
			Event: calculus.Disj(calculus.P(event.External("boom")), calculus.P(event.Modify("stock", "quantity")))},
			Body{
				Condition: cond.Formula{Atoms: []cond.Atom{cond.Class{Class: "stock", Var: "S"}}},
				Action: act.Action{Statements: []act.Statement{act.Modify{Class: "stock", Attr: "quantity", Var: "S",
					Value: cond.Arith{Op: cond.OpAdd, L: cond.Attr{Var: "S", Attr: "quantity"}, R: cond.Const{V: types.Int(1)}}}}},
			}); err != nil {
			t.Fatal(err)
		}
		tx, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		kept, err := tx.Create("stock", map[string]types.Value{"quantity": types.Int(0)})
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.EndLine(); err != nil {
			t.Fatal(err)
		}
		clock0, live0, marks0 := db.Clock().Now(), tx.Base().Len(), tx.view.Marks()
		refused, err := tx.Create("stock", map[string]types.Value{"quantity": types.Int(7)})
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Raise("boom"); err != nil {
			t.Fatal(err)
		}
		if err := tx.EndLine(); !errors.Is(err, ErrRuleLimit) {
			t.Fatalf("sessions %d: EndLine = %v, want ErrRuleLimit", sessions, err)
		}
		o, ok := tx.Get(kept)
		if !ok || o.MustGet("quantity").AsInt() != 0 || db.Store().Len() != 1 {
			t.Fatalf("sessions %d: the refused block's writes survived: %v, %d objects", sessions, o, db.Store().Len())
		}
		if got := tx.Base().Len(); got != live0 {
			t.Fatalf("sessions %d: Event Base holds %d occurrences, %d at the savepoint", sessions, got, live0)
		}
		if got, err := tx.Marks(); err != nil || len(got) != 1 || got[0] != marks0[0] {
			t.Fatalf("sessions %d: marks %v (%v), %v at the savepoint", sessions, got, err, marks0)
		}
		if tx.execs != 0 {
			t.Fatalf("sessions %d: the cascade guard counts %d executions of the refused block", sessions, tx.execs)
		}
		if db.Clock().Now() <= clock0 {
			t.Fatalf("sessions %d: the clock went back to %d", sessions, db.Clock().Now())
		}
		if st := db.Stats(); st.RuleLimitHits != 1 || st.RuleExecutions < 20 || st.Events < 22 {
			t.Fatalf("sessions %d: counters forgot the refused block: %+v", sessions, st)
		}
		next, err := tx.Create("stock", nil)
		if err != nil {
			t.Fatal(err)
		}
		if reused := next == refused; reused != (sessions == 1) {
			t.Fatalf("sessions %d: the refused block's OID %v, the next create's %v", sessions, refused, next)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if db.Store().Len() != 2 {
			t.Fatalf("sessions %d: %d objects committed, want 2", sessions, db.Store().Len())
		}
	}
}

// A savepoint on a warm line allocates nothing, under 10 rules as under
// 1 000 whose marks the block changed: the line's fold finds the
// modified object already imaged, and the Event Base and the session
// note a length and a generation.
func TestSavepointAllocatesNothing(t *testing.T) {
	for _, n := range []int{10, 1000} {
		db := New(DefaultOptions())
		if err := db.DefineClass("c", schema.Attribute{Name: "n", Kind: types.KindInt}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := db.DefineRule(rules.Def{Name: fmt.Sprintf("waits%d", i),
				Event: calculus.Conj(calculus.P(event.Modify("c", "n")), calculus.P(event.External("never")))},
				Body{}); err != nil {
				t.Fatal(err)
			}
		}
		tx, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		oid, err := tx.Create("c", map[string]types.Value{"n": types.Int(0)})
		if err != nil {
			t.Fatal(err)
		}
		var mallocs uint64
		for i := 0; i < 200; i++ {
			if err := tx.Modify(oid, "n", types.Int(int64(i))); err != nil {
				t.Fatal(err)
			}
			// The block's sweep changes every rule's pending bit, and the
			// session logs each mark's image.
			if err := tx.flushBlock(); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			tx.savepoint()
			runtime.ReadMemStats(&after)
			if i >= 100 {
				mallocs += after.Mallocs - before.Mallocs
			}
		}
		if mallocs != 0 {
			t.Fatalf("%d rules: 100 warm savepoints allocated %d times", n, mallocs)
		}
		if err := tx.Rollback(); err != nil {
			t.Fatal(err)
		}
	}
}
