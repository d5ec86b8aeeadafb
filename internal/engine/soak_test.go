package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"chimera/internal/act"
	"chimera/internal/calculus"
	"chimera/internal/clock"
	"chimera/internal/cond"
	"chimera/internal/event"
	"chimera/internal/rules"
	"chimera/internal/schema"
	"chimera/internal/types"
)

// Soak test: hundreds of random transactions against a mixed rule set,
// with structural invariants checked after every commit/rollback:
//
//   - the store's class indexes agree with the objects' own classes;
//   - no rule remains triggered after a committed transaction (every
//     triggered rule is considered before commit returns — read off the
//     tracer, since the line's marks go with it);
//   - rolled-back transactions leave the store fingerprint unchanged;
//   - the logical clock is strictly monotone across the run.
func TestSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	r := rand.New(rand.NewSource(2026))
	db := New(DefaultOptions())
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(db.DefineClass("item",
		schema.Attribute{Name: "n", Kind: types.KindInt},
		schema.Attribute{Name: "cap", Kind: types.KindInt}))
	must(db.DefineClass("order", schema.Attribute{Name: "n", Kind: types.KindInt}))
	must(db.DefineSubclass("rush", "order"))
	must(db.DefineClass("note", schema.Attribute{Name: "n", Kind: types.KindInt}))

	// A mixed rule set: clamp, a deferred composite with instance
	// negation, an instance sequence, and a targeted select listener.
	must(db.DefineRule(
		rules.Def{Name: "clamp", Target: "item", Priority: 1,
			Event: calculus.Disj(calculus.P(event.Create("item")), calculus.P(event.Modify("item", "n")))},
		Body{
			Condition: cond.Formula{Atoms: []cond.Atom{
				cond.Class{Class: "item", Var: "S"},
				cond.Compare{L: cond.Attr{Var: "S", Attr: "n"}, Op: cond.CmpGt,
					R: cond.Attr{Var: "S", Attr: "cap"}},
			}},
			Action: act.Action{Statements: []act.Statement{
				act.Modify{Class: "item", Attr: "n", Var: "S",
					Value: cond.Attr{Var: "S", Attr: "cap"}},
			}},
		}))
	must(db.DefineRule(
		rules.Def{Name: "rushless", Coupling: rules.Deferred, Priority: 2,
			Event: calculus.Conj(
				calculus.P(event.Create("order")),
				calculus.NegI(calculus.ConjI(
					calculus.P(event.Create("order")), calculus.P(event.Modify("order", "n")))))},
		Body{
			Condition: cond.Formula{Atoms: []cond.Atom{
				cond.Occurred{Event: calculus.P(event.Create("order")), Var: "X"},
			}},
			Action: act.Action{Statements: []act.Statement{
				act.Create{Class: "note", Once: true, Vals: map[string]cond.Term{
					"n": cond.Const{V: types.Int(1)}}},
			}},
		}))
	must(db.DefineRule(
		rules.Def{Name: "seq", Priority: 3,
			Event: calculus.PrecI(calculus.P(event.Create("item")), calculus.P(event.Modify("item", "n")))},
		Body{}))

	open := &openTriggers{rules: map[string]bool{}}
	db.SetTracer(open)
	prevClock := db.Clock().Now()
	for txn := 0; txn < 300; txn++ {
		before := fingerprint(db)
		tx, err := db.Begin()
		must(err)
		willRollback := r.Intn(4) == 0
		var live []types.OID
		for _, class := range []string{"item", "order", "rush"} {
			oids, _ := db.Store().Select(class)
			live = append(live, oids...)
		}
		nOps := 1 + r.Intn(10)
		for i := 0; i < nOps; i++ {
			switch r.Intn(7) {
			case 0, 1:
				class := []string{"item", "order", "rush"}[r.Intn(3)]
				vals := map[string]types.Value{"n": types.Int(int64(r.Intn(200)))}
				if class == "item" {
					vals["cap"] = types.Int(100)
				}
				oid, err := tx.Create(class, vals)
				must(err)
				live = append(live, oid)
			case 2:
				if len(live) > 0 {
					oid := live[r.Intn(len(live))]
					if _, ok := tx.Get(oid); ok {
						must(tx.Modify(oid, "n", types.Int(int64(r.Intn(200)))))
					}
				}
			case 3:
				if len(live) > 0 {
					idx := r.Intn(len(live))
					oid := live[idx]
					if _, ok := tx.Get(oid); ok {
						must(tx.Delete(oid))
					}
					live = append(live[:idx], live[idx+1:]...)
				}
			case 4:
				if len(live) > 0 {
					oid := live[r.Intn(len(live))]
					if o, ok := tx.Get(oid); ok && o.Class().Name() == "order" {
						must(tx.Specialize(oid, "rush"))
					}
				}
			case 5:
				must(tx.Raise(fmt.Sprintf("sig%d", r.Intn(2))))
			case 6:
				if err := tx.EndLine(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if willRollback {
			must(tx.Rollback())
			if after := fingerprint(db); after != before {
				t.Fatalf("txn %d: rollback changed state:\n--- before\n%s--- after\n%s",
					txn, before, after)
			}
		} else {
			if err := tx.Commit(); err != nil {
				if errors.Is(err, ErrRuleLimit) {
					t.Fatalf("txn %d: unexpected rule-limit hit", txn)
				}
				t.Fatal(err)
			}
			if len(open.rules) > 0 {
				t.Fatalf("txn %d: rules %v still triggered after commit", txn, open.rules)
			}
			// Clamp invariant: no item exceeds its cap after commit.
			oids, _ := db.Store().Select("item")
			for _, oid := range oids {
				o, _ := db.Store().Get(oid)
				if o.MustGet("n").AsInt() > o.MustGet("cap").AsInt() {
					t.Fatalf("txn %d: clamp invariant violated on %s", txn, oid)
				}
			}
		}
		// Class-index consistency.
		for _, class := range []string{"item", "order", "rush", "note"} {
			oids, _ := db.Store().Select(class)
			cls, _ := db.Schema().Class(class)
			for _, oid := range oids {
				o, ok := db.Store().Get(oid)
				if !ok || !o.Class().IsA(cls) {
					t.Fatalf("txn %d: class index corrupt for %s/%s", txn, class, oid)
				}
			}
		}
		if now := db.Clock().Now(); now < prevClock {
			t.Fatalf("txn %d: clock went backwards", txn)
		} else {
			prevClock = now
		}
	}
	if db.Stats().RuleExecutions == 0 {
		t.Fatal("soak run never executed a rule")
	}
}

// openTriggers is a tracer that holds the rules the current transaction
// triggered and has not considered since: the triggered flags of the
// line's marks, followed through their transitions.
type openTriggers struct {
	NopTracer
	rules map[string]bool
}

func (o *openTriggers) TransactionStart(clock.Time) { clear(o.rules) }

func (o *openTriggers) RuleTriggered(rule string, _ clock.Time, _ int) { o.rules[rule] = true }

func (o *openTriggers) Considered(rule string, _, _ clock.Time, _ int) { delete(o.rules, rule) }
