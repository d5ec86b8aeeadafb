package engine

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"chimera/internal/metrics"
	"chimera/internal/schema"
	"chimera/internal/types"
)

// mkStock creates one committed stock object and returns its OID.
func mkStock(t *testing.T, db *DB, qty int64) types.OID {
	t.Helper()
	var oid types.OID
	if err := db.Run(func(tx *Txn) error {
		var err error
		oid, err = tx.Create("stock", map[string]types.Value{
			"name": types.String_("s"), "quantity": types.Int(qty)})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return oid
}

func snapQty(t *testing.T, rt *ReadTxn, oid types.OID) int64 {
	t.Helper()
	o, ok := rt.Get(oid)
	if !ok {
		t.Fatalf("object %v not in snapshot (epoch %d)", oid, rt.Epoch())
	}
	v, err := o.Get("quantity")
	if err != nil {
		t.Fatal(err)
	}
	return v.AsInt()
}

// TestReadTxnSnapshotIsolation pins a read transaction and commits a
// writer past it: the read txn must keep observing the pinned epoch's
// state, and a fresh read txn must observe the new commit.
func TestReadTxnSnapshotIsolation(t *testing.T) {
	db := stockDB(t)
	oid := mkStock(t, db, 5)

	rt := db.BeginRead()
	epoch := rt.Epoch()
	if got := snapQty(t, &rt, oid); got != 5 {
		t.Fatalf("pinned quantity = %d, want 5", got)
	}

	if err := db.Run(func(tx *Txn) error {
		return tx.Modify(oid, "quantity", types.Int(9))
	}); err != nil {
		t.Fatal(err)
	}

	// The pinned snapshot is immutable: same epoch, same value.
	if rt.Epoch() != epoch {
		t.Errorf("epoch moved under an open read txn: %d -> %d", epoch, rt.Epoch())
	}
	if got := snapQty(t, &rt, oid); got != 5 {
		t.Errorf("read txn observed a concurrent commit: quantity = %d, want 5", got)
	}

	rt2 := db.BeginRead()
	if rt2.Epoch() <= epoch {
		t.Errorf("epoch did not advance past a commit: %d then %d", epoch, rt2.Epoch())
	}
	if got := snapQty(t, &rt2, oid); got != 9 {
		t.Errorf("fresh read txn quantity = %d, want 9", got)
	}
	rt.Close()
	rt2.Close()
}

// TestReadTxnSeesDeletes: an object deleted by a commit is absent from
// later snapshots but present in earlier ones.
func TestReadTxnSeesDeletes(t *testing.T) {
	db := stockDB(t)
	oid := mkStock(t, db, 1)
	before := db.BeginRead()
	if err := db.Run(func(tx *Txn) error { return tx.Delete(oid) }); err != nil {
		t.Fatal(err)
	}
	after := db.BeginRead()
	if _, ok := before.Get(oid); !ok {
		t.Error("pre-delete snapshot lost the object")
	}
	if _, ok := after.Get(oid); ok {
		t.Error("post-delete snapshot still holds the deleted object")
	}
}

// TestReadTxnErrReadOnly: every write-shaped operation fails with the
// typed sentinel, testable via errors.Is.
func TestReadTxnErrReadOnly(t *testing.T) {
	db := stockDB(t)
	oid := mkStock(t, db, 1)
	rt := db.BeginRead()
	defer rt.Close()
	checks := map[string]error{}
	_, createErr := rt.Create("stock", nil)
	checks["Create"] = createErr
	checks["Modify"] = rt.Modify(oid, "quantity", types.Int(2))
	checks["Delete"] = rt.Delete(oid)
	checks["Specialize"] = rt.Specialize(oid, "stock")
	checks["Generalize"] = rt.Generalize(oid, "stock")
	checks["Raise"] = rt.Raise("sig")
	for op, err := range checks {
		if !errors.Is(err, ErrReadOnly) {
			t.Errorf("%s on read txn = %v, want ErrReadOnly", op, err)
		}
	}
}

// TestReadTxnClosed: a closed handle answers nothing.
func TestReadTxnClosed(t *testing.T) {
	db := stockDB(t)
	oid := mkStock(t, db, 1)
	rt := db.BeginRead()
	rt.Close()
	if _, ok := rt.Get(oid); ok {
		t.Error("Get succeeded on a closed read txn")
	}
	if _, err := rt.Select("stock"); !errors.Is(err, ErrNoTransaction) {
		t.Errorf("Select on closed read txn = %v, want ErrNoTransaction", err)
	}
	if n := rt.Len(); n != 0 {
		t.Errorf("Len on closed read txn = %d, want 0", n)
	}
	rt.Close() // idempotent
}

// TestReadTxnSelect: the snapshot extension sorts ascending and logs no
// events (the documented divergence from Txn.Select).
func TestReadTxnSelect(t *testing.T) {
	db := stockDB(t)
	var oids []types.OID
	for i := 0; i < 3; i++ {
		oids = append(oids, mkStock(t, db, int64(i)))
	}
	events0 := db.Stats().Events
	rt := db.BeginRead()
	defer rt.Close()
	got, err := rt.Select("stock")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(oids) {
		t.Fatalf("Select returned %d OIDs, want %d", len(got), len(oids))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("Select not ascending: %v", got)
		}
	}
	if d := db.Stats().Events - events0; d != 0 {
		t.Errorf("snapshot Select logged %d event(s), want 0", d)
	}
}

// TestReadTxnZeroAlloc: the whole begin/get/len/close cycle must not
// allocate in steady state — the lock-free read path's core promise.
func TestReadTxnZeroAlloc(t *testing.T) {
	db := stockDB(t)
	oid := mkStock(t, db, 7)
	read := func() {
		rt := db.BeginRead()
		if _, ok := rt.Get(oid); !ok {
			t.Fatal("object missing")
		}
		_ = rt.Len()
		rt.Close()
	}
	read() // warm up
	if allocs := testing.AllocsPerRun(50, read); allocs != 0 {
		t.Errorf("snapshot read path allocates %.1f times per cycle, want 0", allocs)
	}
}

// TestReadTxnStats: BeginRead counts into Stats.ReadTxns and the
// published-epoch gauge tracks commits.
func TestReadTxnStats(t *testing.T) {
	reg := metrics.NewRegistry()
	opts := DefaultOptions()
	opts.Metrics = reg
	db := New(opts)
	if err := db.DefineClass("stock"); err != nil {
		t.Fatal(err)
	}
	before := db.Stats().ReadTxns
	for i := 0; i < 3; i++ {
		rt := db.BeginRead()
		rt.Close()
	}
	if d := db.Stats().ReadTxns - before; d != 3 {
		t.Errorf("ReadTxns delta = %d, want 3", d)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["chimera_engine_read_txns_total"]; got != 3 {
		t.Errorf("read_txns_total = %d, want 3", got)
	}
	if got := snap.Gauges["chimera_engine_snapshot_epoch"]; got < 1 {
		t.Errorf("snapshot_epoch gauge = %d, want >= 1", got)
	}
}

// TestCommitWaitObservedOnce: the commit-latch wait histogram must gain
// exactly one observation per commitMu acquisition — one per commit —
// never two (the regression this pins down was a double Observe on the
// same acquisition inflating latency percentiles).
func TestCommitWaitObservedOnce(t *testing.T) {
	reg := metrics.NewRegistry()
	opts := DefaultOptions()
	opts.Metrics = reg
	db := New(opts)
	if err := db.DefineClass("stock",
		schema.Attribute{Name: "quantity", Kind: types.KindInt}); err != nil {
		t.Fatal(err)
	}
	count := func() int64 {
		h, ok := reg.Snapshot().Histograms["chimera_engine_commit_wait_ns"]
		if !ok {
			return 0
		}
		return h.Count
	}
	base := count()
	const commits = 4
	for i := 0; i < commits; i++ {
		if err := db.Run(func(tx *Txn) error {
			_, err := tx.Create("stock", map[string]types.Value{"quantity": types.Int(1)})
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	if d := count() - base; d != commits {
		t.Errorf("commit_wait observations = %d after %d commits, want exactly %d", d, commits, commits)
	}
	// A rollback never takes the commit latch: no observation.
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	pre := count()
	if _, err := tx.Create("stock", map[string]types.Value{"quantity": types.Int(2)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if d := count() - pre; d != 0 {
		t.Errorf("rollback added %d commit_wait observation(s), want 0", d)
	}
}

// TestMultiSessionReadersWriters races snapshot readers against
// committing writers (picked up by make race-stress). Each writer owns
// a pair of objects and every commit moves quantity between them,
// keeping the pair sum constant — any snapshot showing a torn sum
// caught a commit publishing non-atomically. Writer 0 also creates an
// object of its own in one commit and deletes it in the next, so
// snapshots alternately take over and replace their class-extension
// cache while readers race to fill it. Readers check epoch monotonicity
// across successive BeginReads, and that each snapshot Select of the
// class is ascending, holds both members of every pair, and names only
// objects the same snapshot resolves.
func TestMultiSessionReadersWriters(t *testing.T) {
	const (
		writers = 2
		readers = 4
		pairSum = 100
		commits = 150
	)
	db := multiDB(t, writers)
	pairs := make([][2]types.OID, writers)
	for w := range pairs {
		if err := db.Run(func(tx *Txn) error {
			for side := 0; side < 2; side++ {
				oid, err := tx.Create("stock", map[string]types.Value{
					"name":     types.String_(fmt.Sprintf("w%d-%d", w, side)),
					"quantity": types.Int(int64(pairSum / 2)),
				})
				if err != nil {
					return err
				}
				pairs[w][side] = oid
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}

	var stop atomic.Bool
	errs := make(chan error, writers+readers)
	var writersWG, readersWG sync.WaitGroup

	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			a, b := pairs[w][0], pairs[w][1]
			var own types.OID // writer 0's own object, NilOID between its create and delete
			for i := 0; i < commits; i++ {
				next := own
				err := db.Run(func(tx *Txn) error {
					if w == 0 && own == types.NilOID {
						oid, err := tx.Create("stock", map[string]types.Value{"name": types.String_("own")})
						if err != nil {
							return err
						}
						next = oid
					} else if w == 0 {
						if err := tx.Delete(own); err != nil {
							return err
						}
						next = types.NilOID
					}
					oa, ok := tx.Get(a)
					if !ok {
						return fmt.Errorf("writer %d lost object %v", w, a)
					}
					va, err := oa.Get("quantity")
					if err != nil {
						return err
					}
					delta := int64(i%7 - 3)
					if err := tx.Modify(a, "quantity", types.Int(va.AsInt()-delta)); err != nil {
						return err
					}
					ob, ok := tx.Get(b)
					if !ok {
						return fmt.Errorf("writer %d lost object %v", w, b)
					}
					vb, err := ob.Get("quantity")
					if err != nil {
						return err
					}
					return tx.Modify(b, "quantity", types.Int(vb.AsInt()+delta))
				})
				if err != nil {
					errs <- fmt.Errorf("writer %d commit %d: %w", w, i, err)
					return
				}
				own = next
			}
		}(w)
	}

	for r := 0; r < readers; r++ {
		readersWG.Add(1)
		go func(r int) {
			defer readersWG.Done()
			var lastEpoch uint64
			for !stop.Load() {
				rt := db.BeginRead()
				if e := rt.Epoch(); e < lastEpoch {
					errs <- fmt.Errorf("reader %d: epoch went backwards %d -> %d", r, lastEpoch, e)
					return
				} else {
					lastEpoch = e
				}
				for w := 0; w < writers; w++ {
					oa, oka := rt.Get(pairs[w][0])
					ob, okb := rt.Get(pairs[w][1])
					if !oka || !okb {
						errs <- fmt.Errorf("reader %d: pair %d missing at epoch %d", r, w, rt.Epoch())
						return
					}
					va, erra := oa.Get("quantity")
					vb, errb := ob.Get("quantity")
					if erra != nil || errb != nil {
						errs <- fmt.Errorf("reader %d: attr read failed: %v %v", r, erra, errb)
						return
					}
					if sum := va.AsInt() + vb.AsInt(); sum != pairSum {
						errs <- fmt.Errorf("reader %d: torn snapshot at epoch %d: pair %d sums to %d, want %d",
							r, rt.Epoch(), w, sum, pairSum)
						return
					}
				}
				all, err := rt.Select("stock")
				if err != nil {
					errs <- fmt.Errorf("reader %d: Select: %v", r, err)
					return
				}
				for i, oid := range all {
					if _, ok := rt.Get(oid); !ok || i > 0 && all[i-1] >= oid {
						errs <- fmt.Errorf("reader %d: Select at epoch %d = %v: %v unresolved or out of order", r, rt.Epoch(), all, oid)
						return
					}
				}
				for _, pair := range pairs {
					for _, oid := range pair {
						if _, found := slices.BinarySearch(all, oid); !found {
							errs <- fmt.Errorf("reader %d: Select at epoch %d = %v lacks %v", r, rt.Epoch(), all, oid)
							return
						}
					}
				}
				rt.Close()
			}
		}(r)
	}

	writersWG.Wait()
	stop.Store(true)
	readersWG.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestOpenImageRefusesOIDBelowOne: OIDs start at 1, so an image holding
// an object at OID 0 or below does not open, and no read transaction can
// find it; the same image with the object at OID 5 opens and serves it.
func TestOpenImageRefusesOIDBelowOne(t *testing.T) {
	img := func(oid types.OID) *Image {
		return &Image{
			Classes: []ImageClass{{Name: "stock", Attrs: []schema.Attribute{{Name: "quantity", Kind: types.KindInt}}}},
			Objects: []ImageObject{{OID: oid, Class: "stock", Attrs: []ImageAttr{{Name: "quantity", Val: types.Int(7)}}}},
			NextOID: 5,
		}
	}
	for _, oid := range []types.OID{-5, 0} {
		if db, err := OpenImage(img(oid), DefaultOptions()); err == nil {
			rt := db.BeginRead()
			_, found := rt.Get(oid)
			t.Errorf("OpenImage of an object at OID %d succeeded; ReadTxn.Get finds it: %t", oid, found)
		}
	}
	db, err := OpenImage(img(5), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rt := db.BeginRead()
	defer rt.Close()
	if q := snapQty(t, &rt, 5); q != 7 || rt.Len() != 1 {
		t.Errorf("image at OID 5 reads quantity %d in %d objects, want 7 in 1", q, rt.Len())
	}
}
