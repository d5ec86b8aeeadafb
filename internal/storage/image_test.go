package storage

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"chimera/internal/engine"
	"chimera/internal/schema"
	"chimera/internal/types"
)

// TestSaveMatchesFormat2Golden: a snapshot of the same idle state is
// byte-identical to the one an earlier release wrote
// (testdata/golden-format2.json), field names, key sets and order.
func TestSaveMatchesFormat2Golden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "golden-format2.json"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "db.json")
	if err := SaveFile(buildDB(t), path); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("snapshot differs from the format-2 golden:\n--- want\n%s--- got\n%s", want, got)
	}
}

// counterDB opens a database at the given MaxSessions with one committed
// counter object (n = 1) and an empty row class.
func counterDB(t *testing.T, sessions int) (*engine.DB, types.OID) {
	t.Helper()
	db, err := engine.Open(engine.Options{MaxSessions: sessions})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.DefineClass("counter", schema.Attribute{Name: "n", Kind: types.KindInt}); err != nil {
		t.Fatal(err)
	}
	if err := db.DefineClass("row", schema.Attribute{Name: "k", Kind: types.KindInt}); err != nil {
		t.Fatal(err)
	}
	var oid types.OID
	if err := db.Run(func(tx *engine.Txn) error {
		var err error
		oid, err = tx.Create("counter", map[string]types.Value{"n": types.Int(1)})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return db, oid
}

// TestSaveCapturesCommittedState: a snapshot taken while a line holds an
// uncommitted Modify and Create records the committed values only, in
// both session modes.
func TestSaveCapturesCommittedState(t *testing.T) {
	for _, sessions := range []int{0, 2} {
		db, oid := counterDB(t, sessions)
		tx, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Modify(oid, "n", types.Int(99)); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Create("row", map[string]types.Value{"k": types.Int(7)}); err != nil {
			t.Fatal(err)
		}
		snap, err := Capture(db)
		if err != nil {
			t.Fatal(err)
		}
		if len(snap.Objects) != 1 {
			t.Fatalf("MaxSessions %d: snapshot holds %d object(s), want the committed counter only", sessions, len(snap.Objects))
		}
		if n := *snap.Objects[0].Attrs["n"].Int; n != 1 {
			t.Errorf("MaxSessions %d: snapshot captured n=%d, committed value is 1", sessions, n)
		}
		if err := tx.Rollback(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSaveBesideCommittingWriter captures snapshots in a loop while a
// writer commits at MaxSessions 2: every snapshot is one committed
// state (the counter equals the rows committed with it). Run under
// -race by make crash-smoke.
func TestSaveBesideCommittingWriter(t *testing.T) {
	db, oid := counterDB(t, 2)
	const commits = 200
	var wg sync.WaitGroup
	wg.Add(1)
	errc := make(chan error, 1)
	go func() {
		defer wg.Done()
		for i := 2; i <= commits; i++ {
			if err := db.Run(func(tx *engine.Txn) error {
				if err := tx.Modify(oid, "n", types.Int(int64(i))); err != nil {
					return err
				}
				_, err := tx.Create("row", map[string]types.Value{"k": types.Int(int64(i))})
				return err
			}); err != nil {
				errc <- err
				return
			}
		}
	}()
	for last := int64(1); last < commits; {
		snap, err := Capture(db)
		if err != nil {
			t.Fatal(err)
		}
		var n, rows int64
		for _, o := range snap.Objects {
			if o.Class == "counter" {
				n = *o.Attrs["n"].Int
			} else {
				rows++
			}
		}
		if n != rows+1 || n < last {
			t.Fatalf("snapshot is no committed state: counter %d, %d row(s), previous counter %d", n, rows, last)
		}
		last = n
		select {
		case err := <-errc:
			t.Fatal(err)
		default:
		}
	}
	wg.Wait()
}

// TestLoadDurable loads a snapshot into a durable store: the loaded
// state is the store's first checkpoint, so a recovery from a clone
// lands on it. Invalid options and a store that already holds state are
// refused.
func TestLoadDurable(t *testing.T) {
	snap, err := Capture(buildDB(t))
	if err != nil {
		t.Fatal(err)
	}
	store := NewMemStore()
	opts := engine.Options{Durability: engine.DurabilityOptions{Store: store, Fsync: engine.FsyncOff}}
	db, err := Load(snap, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	render := func(db *engine.DB) string {
		t.Helper()
		snap, err := Capture(db)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := Write(&buf, snap); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	want := render(db)
	opts.Durability.Store = store.Clone()
	rdb, _, rep, err := engine.Recover(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer rdb.Close()
	if rep.CheckpointSeq != 1 {
		t.Errorf("recovered from checkpoint %d, want the first", rep.CheckpointSeq)
	}
	if got := render(rdb); got != want {
		t.Fatalf("recovered state differs from the loaded one:\n--- loaded\n%s--- recovered\n%s", want, got)
	}
	if rtx := rdb.BeginRead(); rtx.Len() != db.Store().Len() {
		t.Error("recovered snapshot reads do not see the loaded objects")
	}

	if _, err := Load(snap, engine.Options{SegmentSize: -1}); err == nil {
		t.Error("Load accepted a negative SegmentSize")
	}
	opts.Durability.Store = store
	if _, err := Load(snap, opts); !errors.Is(err, engine.ErrNeedsRecovery) {
		t.Errorf("Load over a store holding state = %v, want ErrNeedsRecovery", err)
	}
}
