package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"chimera/internal/act"
	"chimera/internal/calculus"
	"chimera/internal/cond"
	"chimera/internal/event"
	"chimera/internal/rules"
	"chimera/internal/schema"
	"chimera/internal/types"
)

// Differential testing: the V(E) filter and the naive Trigger Support
// must produce byte-identical databases on identical workloads — the
// optimization may only change how much work triggering does, never what
// the rules do.

// diffWorkload drives a scripted random workload against a database.
type diffOp struct {
	kind int // 0 create, 1 modify, 2 delete, 3 endline, 4 raise
	arg  int64
}

func genWorkload(r *rand.Rand, n int) []diffOp {
	ops := make([]diffOp, n)
	for i := range ops {
		ops[i] = diffOp{kind: r.Intn(5), arg: int64(r.Intn(100))}
	}
	return ops
}

func buildDiffDB(t *testing.T, opts Options, seed int64) *DB {
	t.Helper()
	db := New(opts)
	if err := db.DefineClass("item",
		schema.Attribute{Name: "n", Kind: types.KindInt},
		schema.Attribute{Name: "cap", Kind: types.KindInt}); err != nil {
		t.Fatal(err)
	}
	if err := db.DefineClass("note",
		schema.Attribute{Name: "n", Kind: types.KindInt}); err != nil {
		t.Fatal(err)
	}
	// Rule 1: clamp items over capacity on create/modify.
	evt := calculus.Disj(
		calculus.P(event.Create("item")),
		calculus.P(event.Modify("item", "n")))
	if err := db.DefineRule(
		rules.Def{Name: "clamp", Target: "item", Event: evt, Priority: 1},
		Body{
			Condition: cond.Formula{Atoms: []cond.Atom{
				cond.Class{Class: "item", Var: "S"},
				cond.Occurred{Event: calculus.DisjI(
					calculus.P(event.Create("item")),
					calculus.P(event.Modify("item", "n"))), Var: "S"},
				cond.Compare{L: cond.Attr{Var: "S", Attr: "n"}, Op: cond.CmpGt,
					R: cond.Attr{Var: "S", Attr: "cap"}},
			}},
			Action: act.Action{Statements: []act.Statement{
				act.Modify{Class: "item", Attr: "n", Var: "S",
					Value: cond.Attr{Var: "S", Attr: "cap"}},
			}},
		}); err != nil {
		t.Fatal(err)
	}
	// Rule 2 (deferred, composite with negation): a note when items were
	// created but none deleted afterwards.
	if err := db.DefineRule(
		rules.Def{Name: "audit", Coupling: rules.Deferred, Priority: 2,
			Event: calculus.Conj(
				calculus.P(event.Create("item")),
				calculus.Neg(calculus.Prec(
					calculus.P(event.Create("item")),
					calculus.P(event.Delete("item")))))},
		Body{
			Condition: cond.Formula{Atoms: []cond.Atom{
				cond.Occurred{Event: calculus.P(event.Create("item")), Var: "X"},
			}},
			Action: act.Action{Statements: []act.Statement{
				act.Create{Class: "note", Once: true, Vals: map[string]cond.Term{
					"n": cond.Const{V: types.Int(1)}}},
			}},
		}); err != nil {
		t.Fatal(err)
	}
	// Rule 3: instance sequence create <= modify(n) logs per object.
	if err := db.DefineRule(
		rules.Def{Name: "seq", Priority: 3,
			Event: calculus.PrecI(calculus.P(event.Create("item")), calculus.P(event.Modify("item", "n")))},
		Body{
			Condition: cond.Formula{Atoms: []cond.Atom{
				cond.Occurred{Event: calculus.PrecI(
					calculus.P(event.Create("item")), calculus.P(event.Modify("item", "n"))), Var: "X"},
			}},
			Action: act.Action{Statements: []act.Statement{
				act.Create{Class: "note", Once: true, Vals: map[string]cond.Term{
					"n": cond.Const{V: types.Int(2)}}},
			}},
		}); err != nil {
		t.Fatal(err)
	}
	_ = seed
	return db
}

func runDiffWorkload(t *testing.T, db *DB, ops []diffOp) {
	t.Helper()
	var live []types.OID
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range ops {
		switch op.kind {
		case 0:
			oid, err := tx.Create("item", map[string]types.Value{
				"n": types.Int(op.arg), "cap": types.Int(50)})
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, oid)
		case 1:
			if len(live) > 0 {
				oid := live[int(op.arg)%len(live)]
				if _, ok := tx.Get(oid); ok {
					if err := tx.Modify(oid, "n", types.Int(op.arg)); err != nil {
						t.Fatal(err)
					}
				}
			}
		case 2:
			if len(live) > 0 {
				idx := int(op.arg) % len(live)
				oid := live[idx]
				if _, ok := tx.Get(oid); ok {
					if err := tx.Delete(oid); err != nil {
						t.Fatal(err)
					}
				}
				live = append(live[:idx], live[idx+1:]...)
			}
		case 3:
			if err := tx.EndLine(); err != nil {
				t.Fatal(err)
			}
			// Occasionally split into a fresh transaction.
			if op.arg%3 == 0 {
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
				tx, err = db.Begin()
				if err != nil {
					t.Fatal(err)
				}
				live = nil
				for _, class := range []string{"item"} {
					oids, _ := db.Store().Select(class)
					live = append(live, oids...)
				}
			}
		case 4:
			if err := tx.Raise(fmt.Sprintf("sig%d", op.arg%3)); err != nil {
				t.Fatal(err)
			}
		}
		_ = i
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// fingerprint renders the full database state deterministically.
func fingerprint(db *DB) string {
	out := ""
	for _, class := range db.Schema().Names() {
		oids, _ := db.Store().Select(class)
		for _, oid := range oids {
			if o, ok := db.Store().Get(oid); ok && o.Class().Name() == class {
				out += o.String() + "\n"
			}
		}
	}
	return out
}

// TestDifferentialSmallSegments: tiny segments force the triggering scan
// across seals and compaction, and must leave the database, and the
// rule executions that built it, identical to the default segment size.
func TestDifferentialSmallSegments(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		seed := int64(1000 + trial)
		ops := genWorkload(rand.New(rand.NewSource(seed)), 60)

		opt := buildDiffDB(t, Options{}, seed)
		runDiffWorkload(t, opt, ops)

		small := buildDiffDB(t, Options{SegmentSize: 4}, seed)
		runDiffWorkload(t, small, ops)

		if fpOpt, fpSmall := fingerprint(opt), fingerprint(small); fpOpt != fpSmall {
			t.Fatalf("trial %d: small-segment database diverged:\n--- default\n%s--- small\n%s",
				trial, fpOpt, fpSmall)
		}
		if opt.Stats().RuleExecutions != small.Stats().RuleExecutions {
			t.Fatalf("trial %d: rule executions diverged: %d vs %d",
				trial, opt.Stats().RuleExecutions, small.Stats().RuleExecutions)
		}
	}
}
