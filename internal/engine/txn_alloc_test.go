package engine_test

import (
	"fmt"
	"testing"

	"chimera/internal/engine"
	"chimera/internal/schema"
	"chimera/internal/storage"
	"chimera/internal/types"
)

// A warm durable transaction that writes five objects — Begin, five
// Modify, Commit, synced per commit on a MemStore — allocates what it
// writes and little else, in single-session mode and with two lines
// admitted: its Event Base, object-store line, condition context and WAL
// scratch are the work of the line before (engine lineWork), an
// uncontended latch allocates nothing, and the commit's wait for its
// sync parks on the group committer's condition variable. What is left
// is the snapshot copies of the five objects it wrote (StageTouched: one
// arena, 2 allocations) and the Txn handle. The gate is the 3
// allocations per transaction measured so in both modes (Go 1.24,
// linux/amd64, -race too; 5 while each waiting commit made a wake-up
// channel and its commit record escaped, 18 while each snapshot copy had
// its own attribute map, 61 single-session and 91 with two lines while
// every line built its work afresh) plus 3. The same transaction rolled
// back publishes nothing and logs at most its rollback record, framed
// into the line's run buffer: it allocates only the Txn handle (1, plus
// the same 3).
func TestDurableShortTransactionAllocs(t *testing.T) {
	for _, c := range []struct {
		prefix string
		perTxn float64
		end    func(*engine.Txn) error
	}{
		{"", 3 + 3, (*engine.Txn).Commit},
		{"rollback/", 1 + 3, (*engine.Txn).Rollback},
	} {
		for _, sessions := range []int{1, 2} {
			t.Run(fmt.Sprintf("%ssessions=%d", c.prefix, sessions), func(t *testing.T) {
				testShortTransactionAllocs(t, sessions, c.perTxn, c.end)
			})
		}
	}
}

func testShortTransactionAllocs(t *testing.T, sessions int, perTxn float64, end func(*engine.Txn) error) {
	opts := engine.DefaultOptions()
	opts.MaxSessions = sessions
	opts.Durability = engine.DurabilityOptions{Store: storage.NewMemStore(), Fsync: engine.FsyncPerCommit}
	db, err := engine.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.DefineClass("stock",
		schema.Attribute{Name: "quantity", Kind: types.KindInt},
		schema.Attribute{Name: "maxquantity", Kind: types.KindInt}); err != nil {
		t.Fatal(err)
	}
	var oids []types.OID
	if err := db.Run(func(tx *engine.Txn) error {
		for i := 0; i < 250; i++ {
			oid, err := tx.Create("stock", map[string]types.Value{
				"quantity": types.Int(0), "maxquantity": types.Int(40)})
			if err != nil {
				return err
			}
			oids = append(oids, oid)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	k := 0
	write := func() {
		tx, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			k++
			if err := tx.Modify(oids[k*7%len(oids)], "quantity", types.Int(int64(k))); err != nil {
				t.Fatal(err)
			}
		}
		if err := end(tx); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		write() // warm: the pooled work and every latch shard at their steady size
	}
	allocs := testing.AllocsPerRun(200, write)
	t.Logf("%.2f allocations per transaction", allocs)
	if allocs > perTxn {
		t.Errorf("a five-write durable transaction allocates %.2f times, want at most %.0f", allocs, perTxn)
	}
}
