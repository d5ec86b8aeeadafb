package object

import (
	"errors"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"chimera/internal/types"
)

// blockingOpts makes conflicting lines wait for each other (generously,
// so slow CI machines don't time out a legitimate wait).
var blockingOpts = LineOptions{Wait: 10 * time.Second}

// tryOpts makes conflicts fail immediately.
var tryOpts = LineOptions{Wait: 0}

func TestLineCommitPublishesWrites(t *testing.T) {
	st := newStockStore(t)
	ln := st.BeginLine(tryOpts)
	oid, err := ln.Create("stock", map[string]types.Value{"quantity": types.Int(5)})
	if err != nil {
		t.Fatal(err)
	}
	if err := ln.Modify(oid, "quantity", types.Int(7)); err != nil {
		t.Fatal(err)
	}
	ln.Commit()
	o, ok := st.Get(oid)
	if !ok || o.MustGet("quantity").AsInt() != 7 {
		t.Fatalf("committed write lost: %v %v", o, ok)
	}
}

func TestLineRollbackUndoesEverything(t *testing.T) {
	st := newStockStore(t)
	keep := seed(t, st, "stock", map[string]types.Value{"quantity": types.Int(1)})

	ln := st.BeginLine(tryOpts)
	oid, err := ln.Create("order", map[string]types.Value{"item": types.String_("x")})
	if err != nil {
		t.Fatal(err)
	}
	if err := ln.Specialize(oid, "notFilledOrder"); err != nil {
		t.Fatal(err)
	}
	if err := ln.Modify(keep, "quantity", types.Int(99)); err != nil {
		t.Fatal(err)
	}
	if err := ln.Delete(keep); err != nil {
		t.Fatal(err)
	}
	ln.Rollback()

	if _, ok := st.Get(oid); ok {
		t.Error("rolled-back creation still live")
	}
	o, ok := st.Get(keep)
	if !ok {
		t.Fatal("rolled-back delete did not restore the object")
	}
	if o.MustGet("quantity").AsInt() != 1 {
		t.Errorf("quantity = %d after rollback, want 1", o.MustGet("quantity").AsInt())
	}
	if got, _ := st.Select("notFilledOrder"); len(got) != 0 {
		t.Errorf("rolled-back specialize left extension %v", got)
	}
}

func TestLineWriteWriteConflict(t *testing.T) {
	st := newStockStore(t)
	oid := seed(t, st, "stock", map[string]types.Value{"quantity": types.Int(1)})

	a := st.BeginLine(tryOpts)
	b := st.BeginLine(tryOpts)
	if err := a.Modify(oid, "quantity", types.Int(2)); err != nil {
		t.Fatal(err)
	}
	if err := b.Modify(oid, "quantity", types.Int(3)); !errors.Is(err, ErrConflict) {
		t.Fatalf("second writer got %v, want ErrConflict", err)
	}
	// b can still read other data and commit what it has.
	if _, err := b.Create("order", map[string]types.Value{"item": types.String_("y")}); err != nil {
		t.Fatal(err)
	}
	a.Commit()
	// With a's latch released, a fresh line can write the object.
	c := st.BeginLine(tryOpts)
	if err := c.Modify(oid, "quantity", types.Int(4)); err != nil {
		t.Fatalf("post-commit write: %v", err)
	}
	c.Rollback()
	b.Rollback()
	o, _ := st.Get(oid)
	if o.MustGet("quantity").AsInt() != 2 {
		t.Errorf("quantity = %d, want 2 (a's committed write)", o.MustGet("quantity").AsInt())
	}
}

func TestLineReadBlocksWriter(t *testing.T) {
	st := newStockStore(t)
	oid := seed(t, st, "stock", map[string]types.Value{"quantity": types.Int(1)})

	r := st.BeginLine(tryOpts)
	if _, ok := r.Get(oid); !ok {
		t.Fatal("read failed")
	}
	w := st.BeginLine(tryOpts)
	if err := w.Modify(oid, "quantity", types.Int(2)); !errors.Is(err, ErrConflict) {
		t.Fatalf("writer vs reader got %v, want ErrConflict", err)
	}
	// The reader itself may upgrade to a write (sole-reader upgrade).
	if err := r.Modify(oid, "quantity", types.Int(3)); err != nil {
		t.Fatalf("sole-reader upgrade: %v", err)
	}
	r.Commit()
	w.Rollback()
}

func TestLineSelectConflictsWithExtensionChange(t *testing.T) {
	st := newStockStore(t)

	w := st.BeginLine(tryOpts)
	if _, err := w.Create("notFilledOrder", map[string]types.Value{"item": types.String_("x")}); err != nil {
		t.Fatal(err)
	}
	// The uncommitted creation changed notFilledOrder's and order's
	// extensions; a scan of either class from another line must conflict
	// rather than observe the half-done line.
	r := st.BeginLine(tryOpts)
	if _, err := r.Select("order"); !errors.Is(err, ErrConflict) {
		t.Fatalf("Select(order) vs uncommitted create got %v, want ErrConflict", err)
	}
	if _, err := r.Select("notFilledOrder"); !errors.Is(err, ErrConflict) {
		t.Fatalf("Select(notFilledOrder) got %v, want ErrConflict", err)
	}
	// An unrelated class scans fine.
	if _, err := r.Select("stock"); err != nil {
		t.Fatalf("Select(stock): %v", err)
	}
	w.Commit()
	r.Rollback()
}

func TestLineBlockingWaitSucceeds(t *testing.T) {
	st := newStockStore(t)
	oid := seed(t, st, "stock", map[string]types.Value{"quantity": types.Int(1)})

	a := st.BeginLine(blockingOpts)
	if err := a.Modify(oid, "quantity", types.Int(2)); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		b := st.BeginLine(blockingOpts)
		defer b.Commit()
		done <- b.Modify(oid, "quantity", types.Int(3))
	}()
	time.Sleep(10 * time.Millisecond) // let b reach the latch wait
	a.Commit()
	if err := <-done; err != nil {
		t.Fatalf("blocked writer after release: %v", err)
	}
	o, _ := st.Get(oid)
	if o.MustGet("quantity").AsInt() != 3 {
		t.Errorf("quantity = %d, want 3", o.MustGet("quantity").AsInt())
	}
}

// TestLineInterleavedMigrationRollback drives the ISSUE's edge case: two
// lines interleaving Specialize/Generalize on disjoint objects, one
// committing and one rolling back, with the surviving state checked for
// both. Run under -race this also proves the latch table keeps the
// migrations' bookkeeping disjoint.
func TestLineInterleavedMigrationRollback(t *testing.T) {
	st := newStockStore(t)
	o1 := seed(t, st, "order", map[string]types.Value{"item": types.String_("a")})
	o2 := seed(t, st, "order", map[string]types.Value{"item": types.String_("b")})

	a := st.BeginLine(blockingOpts)
	b := st.BeginLine(blockingOpts)

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if err := a.Specialize(o1, "notFilledOrder"); err != nil {
			t.Error(err)
		}
		if err := a.Modify(o1, "missing", types.Int(4)); err != nil {
			t.Error(err)
		}
		a.Commit()
	}()
	go func() {
		defer wg.Done()
		if err := b.Specialize(o2, "notFilledOrder"); err != nil {
			t.Error(err)
		}
		if err := b.Generalize(o2, "order"); err != nil {
			t.Error(err)
		}
		b.Rollback()
	}()
	wg.Wait()

	oa, _ := st.Get(o1)
	if oa.Class().Name() != "notFilledOrder" || oa.MustGet("missing").AsInt() != 4 {
		t.Errorf("committed migration lost: %v", oa)
	}
	ob, _ := st.Get(o2)
	if ob.Class().Name() != "order" {
		t.Errorf("rolled-back migration left class %s", ob.Class().Name())
	}
	ext, _ := st.Select("notFilledOrder")
	if len(ext) != 1 || ext[0] != o1 {
		t.Errorf("notFilledOrder extension = %v, want [%v]", ext, o1)
	}
}

// TestLineStressDisjointWriters hammers the store from many lines over
// disjoint OIDs — the partitioned workload shape — asserting every
// commit survives and every rollback vanishes. Exercised by the CI
// -race job.
func TestLineStressDisjointWriters(t *testing.T) {
	st := newStockStore(t)
	const lines, rounds = 8, 50
	oids := make([][]types.OID, lines)
	for i := range oids {
		for j := 0; j < 4; j++ {
			oid := seed(t, st, "stock", map[string]types.Value{"quantity": types.Int(0)})
			oids[i] = append(oids[i], oid)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < lines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				ln := st.BeginLine(blockingOpts)
				for _, oid := range oids[i] {
					if err := ln.Modify(oid, "quantity", types.Int(int64(r+1))); err != nil {
						t.Error(err)
						ln.Rollback()
						return
					}
				}
				if r%5 == 4 {
					ln.Rollback()
				} else {
					ln.Commit()
				}
			}
		}(i)
	}
	wg.Wait()
	for i := range oids {
		for _, oid := range oids[i] {
			o, ok := st.Get(oid)
			if !ok {
				t.Fatalf("object %v lost", oid)
			}
			// Last committed round is rounds-1 (round index rounds-2 — the
			// final round rounds-1 has index%5==4 and rolls back).
			if got := o.MustGet("quantity").AsInt(); got != int64(rounds-1) {
				t.Errorf("oid %v quantity = %d, want %d", oid, got, rounds-1)
			}
		}
	}
}

// TestLineStressContendedCounter has every line increment one shared
// counter through a read→upgrade→write cycle: latch serialization must
// make the total exact. Every line's Fetch takes the shared latch and
// its Modify upgrades, so concurrent lines hit the upgrade fast-fail
// constantly — the jittered retry backoff is what desynchronizes them.
// Exercised by the CI -race job.
func TestLineStressContendedCounter(t *testing.T) {
	st := newStockStore(t)
	oid := seed(t, st, "stock", map[string]types.Value{"quantity": types.Int(0)})
	const lines, rounds = 8, 25
	var wg sync.WaitGroup
	for i := 0; i < lines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for {
					ln := st.BeginLine(LineOptions{Wait: 50 * time.Millisecond})
					o, err := ln.Fetch(oid)
					if err == nil {
						err = ln.Modify(oid, "quantity", types.Int(o.MustGet("quantity").AsInt()+1))
					}
					if err == nil {
						ln.Commit()
						break
					}
					ln.Rollback()
					if !errors.Is(err, ErrConflict) {
						t.Error(err)
						return
					}
					time.Sleep(time.Duration(rand.IntN(400)+50) * time.Microsecond)
				}
			}
		}()
	}
	wg.Wait()
	o, _ := st.Get(oid)
	if got := o.MustGet("quantity").AsInt(); got != lines*rounds {
		t.Errorf("counter = %d, want %d", got, lines*rounds)
	}
}

func TestLineClosedRejectsUse(t *testing.T) {
	st := newStockStore(t)
	ln := st.BeginLine(tryOpts)
	ln.Commit()
	if _, err := ln.Create("stock", nil); err == nil {
		t.Error("create on closed line accepted")
	}
	if err := ln.Modify(1, "quantity", types.Int(1)); err == nil {
		t.Error("modify on closed line accepted")
	}
	ln.Rollback() // must be a no-op, not a crash
}

// An ended line keeps its storage for Reopen, but no more than
// keptEntries of each slice, and nothing of its state: a reopened line is
// a new line with a new id, and works as one.
func TestReopenedLineKeepsTrimmedStorage(t *testing.T) {
	st := newStockStore(t)
	for _, n := range []int{5, 2048} {
		ln := st.BeginLine(blockingOpts)
		var oids []types.OID
		for i := 0; i < n; i++ {
			oid, err := ln.Create("stock", map[string]types.Value{"quantity": types.Int(int64(i))})
			if err != nil {
				t.Fatal(err)
			}
			oids = append(oids, oid)
		}
		ln.Savepoint()
		if err := ln.Modify(oids[0], "quantity", types.Int(-1)); err != nil {
			t.Fatal(err)
		}
		if len(ln.TouchedOIDs()) != n {
			t.Fatalf("%d objects touched, want %d", len(ln.TouchedOIDs()), n)
		}
		ln.Commit()
		if cap(ln.undo) > keptEntries || cap(ln.held) > keptEntries || cap(ln.fresh) > keptEntries ||
			cap(ln.touched) > keptEntries || len(ln.index) != 0 {
			t.Fatalf("after %d creates the ended line keeps room for %d undo entries, %d latches, %d images, %d OIDs and %d index entries",
				n, cap(ln.undo), cap(ln.held), cap(ln.fresh), cap(ln.touched), len(ln.index))
		}
		if n <= keptEntries && cap(ln.undo) == 0 {
			t.Fatal("a short line's undo log storage was not kept")
		}
		id := ln.id
		ln.Reopen(tryOpts)
		if ln.id == id || ln.done || len(ln.undo) != 0 || ln.folded != 0 || len(ln.held) != 0 {
			t.Fatal("a reopened line carries its predecessor's state")
		}
		if got := ln.TouchedOIDs(); got != nil {
			t.Fatalf("a reopened line has touched %v", got)
		}
		if err := ln.Modify(oids[n-1], "quantity", types.Int(1)); err != nil {
			t.Fatal(err)
		}
		ln.Rollback()
		if o, _ := st.Get(oids[n-1]); o.MustGet("quantity").AsInt() != int64(n-1) {
			t.Fatalf("a reopened line's rollback left quantity %d", o.MustGet("quantity").AsInt())
		}
	}
}
