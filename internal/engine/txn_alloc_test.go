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
// scratch are the work of the line before (engine lineWork), and an
// uncontended latch allocates nothing. What is left is the snapshot
// copies of the five objects it wrote (StageTouched: one arena, 2
// allocations), the Txn handle and the wake-up channel of the commit
// that waits for its sync. The gate is the 5 allocations per
// transaction measured so in both modes (Go 1.24, linux/amd64, -race
// too; 18 while each snapshot copy had its own attribute map, 61
// single-session and 91 with two lines while every line built its work
// afresh) plus 3.
func TestDurableShortTransactionAllocs(t *testing.T) {
	const perTxn = 5 + 3
	for _, sessions := range []int{1, 2} {
		t.Run(fmt.Sprintf("sessions=%d", sessions), func(t *testing.T) {
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
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 64; i++ {
				write() // warm: the pooled work and every latch shard at their steady size
			}
			allocs := testing.AllocsPerRun(200, write)
			t.Logf("%.2f allocations per transaction", allocs)
			if allocs > perTxn {
				t.Errorf("a five-write durable transaction allocates %.2f times, want at most %d", allocs, perTxn)
			}
		})
	}
}
