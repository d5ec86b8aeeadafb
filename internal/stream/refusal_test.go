package stream_test

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"chimera/internal/act"
	"chimera/internal/calculus"
	"chimera/internal/clock"
	"chimera/internal/cond"
	"chimera/internal/engine"
	"chimera/internal/event"
	"chimera/internal/rules"
	"chimera/internal/schema"
	"chimera/internal/storage"
	"chimera/internal/stream"
	"chimera/internal/types"
)

// objects renders every live object, ascending by OID, and the OID
// allocation point: the state a refused batch must leave as the batch
// before it did.
func objects(db *engine.DB) string {
	var b strings.Builder
	fmt.Fprintf(&b, "nextOID=%d\n", db.Store().NextOID())
	for _, o := range db.Store().Objects() {
		b.WriteString(o.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestStreamRefusedBatchKeepsEarlierBatches: a batch refused by
// MaxEvents rolls back to the savepoint the batch before it left. The
// note that batch's immediate rule created survives, and so does the
// deferred rule's note at Close, which that batch's create triggered.
func TestStreamRefusedBatchKeepsEarlierBatches(t *testing.T) {
	o := engine.DefaultOptions()
	o.MaxEvents = 6
	db, err := engine.Open(o)
	if err != nil {
		t.Fatal(err)
	}
	defineStreamCatalog(t, db)
	item := seedItems(t, db, 1)[0]

	s, err := stream.Open(db, stream.Options{Clock: clock.NewManual(time.Unix(0, 0))})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Emit(event.Create("item"), item); err != nil {
		t.Fatal(err)
	}
	if err := s.Emit(event.Modify("item", "n"), item); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("batch 1: %v", err)
	}
	for i := 0; i < 20; i++ {
		if err := s.Raise("flood"); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); !errors.Is(err, engine.ErrEventLimit) {
		t.Fatalf("batch 2: %v, want ErrEventLimit", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	notes, _ := db.Store().Select("note")
	var ns []string
	for _, oid := range notes {
		n, _ := db.Store().Get(oid)
		ns = append(ns, n.MustGet("n").String())
	}
	// The seeding transaction's own audit note, then seq's from batch 1,
	// then audit's at Close.
	if got := strings.Join(ns, ","); got != "1,2,1" {
		t.Fatalf("notes n=[%s], want [1,2,1]", got)
	}
	if st := s.Stats(); st.Events != 2 || st.Batches != 1 || st.Restarts != 0 || st.Refused != 1 || st.BudgetKills != 0 {
		t.Fatalf("Stats events=%d batches=%d restarts=%d refused=%d kills=%d, want 2/1/0/1/0",
			st.Events, st.Batches, st.Restarts, st.Refused, st.BudgetKills)
	}
}

// TestStreamInvalidTypeRefusesWholeBatch: an arrival whose type the
// engine rejects refuses its whole batch, the arrivals before it in the
// batch included. The create the refused batch carried first must not
// survive: neither seq, on the next batch's modify, nor the deferred
// audit, at Close, may see it.
func TestStreamInvalidTypeRefusesWholeBatch(t *testing.T) {
	db, err := engine.Open(engine.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defineStreamCatalog(t, db)
	item := seedItems(t, db, 1)[0]
	s, err := stream.Open(db, stream.Options{MaxBatch: 8, Clock: clock.NewManual(time.Unix(0, 0))})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Raise("start"); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("batch 1: %v", err)
	}
	before := objects(db)

	if err := s.Emit(event.Create("item"), item); err != nil {
		t.Fatal(err)
	}
	if err := s.Emit(event.T(event.OpModify, "item"), item); err != nil { // no attribute
		t.Fatal(err)
	}
	if err := s.Raise("after"); err != nil {
		t.Fatal(err)
	}
	err = s.Flush()
	var be *stream.BatchError
	if !errors.As(err, &be) || len(be.Events) != 3 || errors.Is(err, engine.ErrEventLimit) {
		t.Fatalf("batch 2: %v, want a BatchError of 3 events that is not a limit", err)
	}

	if err := s.Emit(event.Modify("item", "n"), item); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("batch 3: %v", err)
	}
	if got := objects(db); got != before {
		t.Fatalf("after batch 3 the store reads\n%swant batch 1's\n%s", got, before)
	}
	st := s.Stats()
	if st.Events != 2 || st.Batches != 2 || st.LiveEvents != 2 || st.Refused != 1 || st.BudgetKills != 0 {
		t.Fatalf("Stats events=%d batches=%d live=%d refused=%d kills=%d, want 2/2/2/1/0",
			st.Events, st.Batches, st.LiveEvents, st.Refused, st.BudgetKills)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := objects(db); got != before {
		t.Fatalf("after Close the store reads\n%swant batch 1's\n%s", got, before)
	}
}

// TestStreamDatabaseBudgetBoundsEachBatch: on a database opened with a
// GasLimit and a stream with no per-batch budget, the database's limit
// bounds each batch. A batch that spends more is refused, and the
// batches after it, which together spend more than the limit, are
// accepted.
func TestStreamDatabaseBudgetBoundsEachBatch(t *testing.T) {
	o := engine.DefaultOptions()
	o.GasLimit = 64 // a one-item batch spends 12, a 32-item one 198
	db, err := engine.Open(o)
	if err != nil {
		t.Fatal(err)
	}
	defineStreamCatalog(t, db)
	var items []types.OID
	for i := 0; i < 32; i++ {
		items = append(items, seedItems(t, db, 1)...)
	}
	s, err := stream.Open(db, stream.Options{MaxBatch: 64, Clock: clock.NewManual(time.Unix(0, 0))})
	if err != nil {
		t.Fatal(err)
	}
	for _, oid := range items {
		if err := s.Emit(event.Modify("item", "n"), oid); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); !errors.Is(err, calculus.ErrGasExhausted) {
		t.Fatalf("poisoned batch: %v, want ErrGasExhausted", err)
	}
	for i := 0; i < 8; i++ {
		if err := s.Emit(event.Modify("item", "n"), items[i]); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatalf("batch %d after the poisoned one: %v", i+1, err)
		}
	}
	if st := s.Stats(); st.Batches != 8 || st.Refused != 1 || st.BudgetKills != 1 {
		t.Fatalf("Stats batches=%d refused=%d kills=%d, want 8/1/1", st.Batches, st.Refused, st.BudgetKills)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// defineLoop declares item(n, cap) with the clamp rule of
// defineStreamCatalog, and note(n) with a rule that increments every
// note on external(boom) or on its own modification: a cascade that
// never ends, which MaxRuleExecutions cuts after its actions have run.
func defineLoop(t *testing.T, db *engine.DB) {
	t.Helper()
	if err := db.DefineClass("item",
		schema.Attribute{Name: "n", Kind: types.KindInt},
		schema.Attribute{Name: "cap", Kind: types.KindInt}); err != nil {
		t.Fatal(err)
	}
	if err := db.DefineClass("note", schema.Attribute{Name: "n", Kind: types.KindInt}); err != nil {
		t.Fatal(err)
	}
	modN := calculus.P(event.Modify("item", "n"))
	if err := db.DefineRule(rules.Def{Name: "clamp", Target: "item", Priority: 1, Event: modN},
		engine.Body{
			Condition: cond.Formula{Atoms: []cond.Atom{
				cond.Class{Class: "item", Var: "S"},
				cond.Occurred{Event: modN, Var: "S"},
				cond.Compare{L: cond.Attr{Var: "S", Attr: "n"}, Op: cond.CmpGt,
					R: cond.Attr{Var: "S", Attr: "cap"}},
			}},
			Action: act.Action{Statements: []act.Statement{
				act.Modify{Class: "item", Attr: "n", Var: "S", Value: cond.Attr{Var: "S", Attr: "cap"}},
			}},
		}); err != nil {
		t.Fatal(err)
	}
	if err := db.DefineRule(rules.Def{Name: "loop", Priority: 2,
		Event: calculus.Disj(calculus.P(event.External("boom")), calculus.P(event.Modify("note", "n")))},
		engine.Body{
			Condition: cond.Formula{Atoms: []cond.Atom{cond.Class{Class: "note", Var: "N"}}},
			Action: act.Action{Statements: []act.Statement{
				act.Modify{Class: "note", Attr: "n", Var: "N",
					Value: cond.Arith{Op: cond.OpAdd, L: cond.Attr{Var: "N", Attr: "n"}, R: cond.Const{V: types.Int(1)}}},
			}},
		}); err != nil {
		t.Fatal(err)
	}
	if err := db.Run(func(tx *engine.Txn) error {
		if _, err := tx.Create("item", map[string]types.Value{"n": types.Int(100), "cap": types.Int(50)}); err != nil {
			return err
		}
		_, err := tx.Create("note", map[string]types.Value{"n": types.Int(0)})
		return err
	}); err != nil {
		t.Fatal(err)
	}
}

// TestStreamRefusedCascadeKeepsEarlierBatches: a batch whose cascade
// MaxRuleExecutions refuses after its actions ran rolls back those
// actions, and only them: the clamp the batch before it applied stays.
func TestStreamRefusedCascadeKeepsEarlierBatches(t *testing.T) {
	o := engine.DefaultOptions()
	o.MaxRuleExecutions = 20
	db, err := engine.Open(o)
	if err != nil {
		t.Fatal(err)
	}
	defineLoop(t, db)
	items, _ := db.Store().Select("item")
	s, err := stream.Open(db, stream.Options{MaxBatch: 8, Clock: clock.NewManual(time.Unix(0, 0))})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Emit(event.Modify("item", "n"), items[0]); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("clamp batch: %v", err)
	}
	clamped := objects(db)
	if err := s.Raise("boom"); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); !errors.Is(err, engine.ErrRuleLimit) {
		t.Fatalf("boom batch: %v, want ErrRuleLimit", err)
	}
	if got := objects(db); got != clamped {
		t.Fatalf("after the refusal the store reads\n%swant the clamp batch's\n%s", got, clamped)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := objects(db); got != clamped || !strings.Contains(got, "n: 50") {
		t.Fatalf("after Close the store reads\n%swant the clamped item and the untouched note\n%s", got, clamped)
	}
	if st := s.Stats(); st.Events != 1 || st.Batches != 1 || st.Restarts != 0 {
		t.Fatalf("Stats events=%d batches=%d restarts=%d, want 1/1/0", st.Events, st.Batches, st.Restarts)
	}
}

// TestStreamDurableRefusal: on a durable stream, a batch refused after
// its cascade's actions ran leaves the log and the checkpoint byte for
// byte as its savepoint left them — with a checkpoint at every block as
// with none — and recovery after the next batch, which logs a signal
// the refused batch logged first, rebuilds the live store.
func TestStreamDurableRefusal(t *testing.T) {
	for _, every := range []int{1, 0} {
		store := storage.NewMemStore()
		o := engine.DefaultOptions()
		o.MaxRuleExecutions = 20
		o.Durability = engine.DurabilityOptions{Store: store, Fsync: engine.FsyncOff, CheckpointEvery: every}
		db, err := engine.Open(o)
		if err != nil {
			t.Fatal(err)
		}
		defineLoop(t, db)
		items, _ := db.Store().Select("item")
		s, err := stream.Open(db, stream.Options{MaxBatch: 8, Clock: clock.NewManual(time.Unix(0, 0))})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Emit(event.Modify("item", "n"), items[0]); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatalf("every %d: clamp batch: %v", every, err)
		}
		saved := func() ([]byte, []byte) {
			t.Helper()
			if err := db.SyncWAL(); err != nil {
				t.Fatal(err)
			}
			wal, err := store.WAL()
			if err != nil {
				t.Fatal(err)
			}
			ckpt, err := store.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			return bytes.Clone(wal), bytes.Clone(ckpt)
		}
		wal0, ckpt0 := saved()
		live := objects(db)
		if err := s.Raise("mark"); err != nil {
			t.Fatal(err)
		}
		if err := s.Raise("boom"); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); !errors.Is(err, engine.ErrRuleLimit) {
			t.Fatalf("every %d: boom batch: %v, want ErrRuleLimit", every, err)
		}
		wal1, ckpt1 := saved()
		if !bytes.Equal(wal1, wal0) || !bytes.Equal(ckpt1, ckpt0) {
			t.Fatalf("every %d: the refused batch reached the store: WAL %d → %d bytes, checkpoint %d → %d bytes",
				every, len(wal0), len(wal1), len(ckpt0), len(ckpt1))
		}
		if got := objects(db); got != live {
			t.Fatalf("every %d: after the refusal the store reads\n%swant\n%s", every, got, live)
		}
		// The next batch's savepoint hands over its own records only, and
		// they declare the signal's type again.
		if err := s.Raise("mark"); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatalf("every %d: batch after the refusal: %v", every, err)
		}
		if err := db.SyncWAL(); err != nil {
			t.Fatal(err)
		}

		ro := engine.DefaultOptions()
		ro.MaxRuleExecutions = 20
		ro.Durability = engine.DurabilityOptions{Store: store.Clone(), Fsync: engine.FsyncOff}
		re, rtx, _, err := engine.Recover(ro)
		if err != nil {
			t.Fatalf("every %d: %v", every, err)
		}
		if rtx == nil {
			t.Fatalf("every %d: recovery lost the stream's open transaction", every)
		}
		if got := objects(re); got != live {
			t.Fatalf("every %d: recovered store\n%swant the live one\n%s", every, got, live)
		}
		if err := rtx.Rollback(); err != nil {
			t.Fatal(err)
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
