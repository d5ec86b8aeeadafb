package engine_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"chimera/internal/engine"
	"chimera/internal/storage"
	"chimera/internal/types"
)

// goldenScript is the workload behind testdata/golden-v1: a committed
// transaction, then a transaction that crosses several segment seals,
// is checkpointed at a block boundary, and runs three more blocks. It
// returns the transaction, still open.
func goldenScript(t *testing.T, db *engine.DB) *engine.Txn {
	t.Helper()
	defineDurCatalog(t, db)
	if err := db.Run(func(tx *engine.Txn) error {
		for _, n := range []int64{10, 60, 5} {
			if _, err := tx.Create("item", map[string]types.Value{
				"n": types.Int(n), "cap": types.Int(50)}); err != nil {
				return err
			}
		}
		_, err := tx.Create("note", map[string]types.Value{"n": types.Int(9)})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	var made []types.OID
	for i := 0; i < 6; i++ {
		oid, err := tx.Create("item", map[string]types.Value{
			"n": types.Int(int64(i * 20)), "cap": types.Int(50)})
		must(err)
		made = append(made, oid)
		must(tx.Modify(1, "n", types.Int(int64(40+i))))
		must(tx.Raise(fmt.Sprintf("sig%d", i%2)))
		must(tx.EndLine())
	}
	must(db.Checkpoint())
	for i := 0; i < 3; i++ {
		must(tx.Modify(made[i], "n", types.Int(int64(70+i))))
		must(tx.Delete(made[5-i]))
		_, err := tx.Create("note", map[string]types.Value{"n": types.Int(int64(i))})
		must(err)
		must(tx.EndLine())
	}
	return tx
}

// TestRecoverGoldenStore recovers a FileStore written by an earlier
// release — a version-1 checkpoint taken inside a transaction, its
// sealed segments and the WAL after it — and requires the state a live
// run of the same script reaches: the checkpoint and log formats stay
// readable across the change that introduced version 2.
func TestRecoverGoldenStore(t *testing.T) {
	src := filepath.Join("testdata", "golden-v1")
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	fs, err := storage.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	rdb, rtx, rep, err := engine.Recover(durOptions(fs, 0))
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer rdb.Close()
	if rtx == nil || rep.CheckpointSeq < 2 || rep.Segments == 0 || rep.Blocks < 3 {
		t.Fatalf("recovered open=%v report %+v; want an open transaction, a checkpoint past Open's, its segments and at least 3 blocks", rtx != nil, rep)
	}

	live, err := engine.Open(durOptions(storage.NewMemStore(), 0))
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	ltx := goldenScript(t, live)
	if want, got := durFingerprint(live, ltx), durFingerprint(rdb, rtx); want != got {
		t.Fatalf("golden store recovered to a different state:\n--- live\n%s--- recovered\n%s", want, got)
	}
	// The recovered line goes on like the live one.
	for _, tx := range []*engine.Txn{ltx, rtx} {
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if want, got := durFingerprint(live, nil), durFingerprint(rdb, nil); want != got {
		t.Fatalf("after commit:\n--- live\n%s--- recovered\n%s", want, got)
	}
}
