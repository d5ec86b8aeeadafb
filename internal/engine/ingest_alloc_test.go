package engine

import (
	"fmt"
	"runtime"
	"testing"

	"chimera/internal/calculus"
	"chimera/internal/clock"
	"chimera/internal/event"
	"chimera/internal/rules"
	"chimera/internal/schema"
	"chimera/internal/types"
)

// A warm in-memory transaction ingests blocks of 256 events over 8
// types and 32 objects, each block ended by EndLine, under rules that
// listen to every type and never fire (each waits for a signal that
// never comes), while retention keeps compaction retiring segments.
// Appending an event, announcing it to the line's session and checking
// the block allocate nothing per event, and a roll-over reuses the index
// storage of a retired segment: what allocates is a segment's two
// columns, 16 bytes per occurrence. The gates are at most a hundredth of
// an allocation and 20 bytes per event.
func TestIngestAllocationsPerEvent(t *testing.T) {
	const blocks, perBlock, ntypes, objects = 16, 256, 8, 32
	db := New(DefaultOptions())
	attrs := make([]schema.Attribute, ntypes)
	for i := range attrs {
		attrs[i] = schema.Attribute{Name: fmt.Sprintf("f%d", i), Kind: types.KindInt}
	}
	if err := db.DefineClass("card", attrs...); err != nil {
		t.Fatal(err)
	}
	tys := make([]event.Type, ntypes)
	for i := range tys {
		tys[i] = event.Modify("card", fmt.Sprintf("f%d", i))
		def := rules.Def{
			Name:  fmt.Sprintf("waits%d", i),
			Event: calculus.Conj(calculus.P(tys[i]), calculus.P(event.External("never"))),
		}
		if err := db.DefineRule(def, Body{}); err != nil {
			t.Fatal(err)
		}
	}
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	if err := tx.SetRetention(4 * perBlock); err != nil {
		t.Fatal(err)
	}
	k := 0
	ingest := func() {
		for b := 0; b < blocks; b++ {
			for i := 0; i < perBlock; i++ {
				if err := tx.Emit(tys[k%ntypes], types.OID(1+k/ntypes%objects)); err != nil {
					t.Fatal(err)
				}
				k++
			}
			if err := tx.EndLine(); err != nil {
				t.Fatal(err)
			}
		}
	}
	ingest() // warm: every table and scratch buffer at its steady size
	perEvent := testing.AllocsPerRun(4, ingest) / (blocks * perBlock)
	t.Logf("%.4f allocations per event", perEvent)
	if perEvent > 0.01 {
		t.Errorf("ingest allocates %.4f times per event, want at most 0.01", perEvent)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 4
	for i := 0; i < runs; i++ {
		ingest()
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / (runs * blocks * perBlock)
	t.Logf("%.2f bytes per event", bytes)
	if bytes > 20 {
		t.Errorf("ingest allocates %.2f bytes per event, want at most 20", bytes)
	}
	// Every rule was in every block's batch, and none fired.
	if st := tx.view.Stats(); st.Triggerings != 0 || st.RulesExamined-st.RulesSkipped != st.Checks*ntypes {
		t.Fatalf("%+v: every rule must listen to every block without firing", st)
	}
}

// The group committer keeps both its buffers — the batch producers fill
// and the one it drained last — across wake-ups that find nothing to
// write: once two runs have been drained, enqueueing and draining a run
// no larger allocates nothing, however many empty wake-ups come between
// them. A drained batch past keptWALBytes is not kept.
func TestCommitterKeepsBuffersAcrossEmptyWakeUps(t *testing.T) {
	w := newWALWriter(nullStore{}, FsyncPerCommit, 0, clock.Wall, &engineMetrics{})
	defer w.close()
	run := make([]byte, 512)
	// idle rings the doorbell three times, each time waiting until the
	// committer has taken the ring: it takes one only after it has
	// finished with the one before, so at least two wake-ups, each with
	// nothing enqueued and nothing to sync, have run to their end.
	idle := func() {
		for i := 0; i < 3; i++ {
			w.ring()
			for len(w.wake) > 0 {
				runtime.Gosched()
			}
		}
	}
	round := func() {
		if _, err := w.appendRun(run, 1); err != nil {
			t.Fatal(err)
		}
		if err := w.syncAll(); err != nil {
			t.Fatal(err)
		}
		idle()
	}
	round() // warm: both buffers hold a run's bytes
	round()
	if allocs := testing.AllocsPerRun(16, round); allocs != 0 {
		t.Errorf("a drained run after empty wake-ups allocates %.2f times, want 0", allocs)
	}
	run = make([]byte, keptWALBytes+1)
	round()
	w.mu.Lock()
	defer w.mu.Unlock()
	if cap(w.buf) > keptWALBytes || cap(w.spare) > keptWALBytes {
		t.Errorf("after a bulk run the committer keeps buffers of %d and %d bytes, want at most %d",
			cap(w.buf), cap(w.spare), keptWALBytes)
	}
}

// A warm in-memory transaction that writes five objects — Begin, five
// Modify, Commit — allocates what it writes: the snapshot copies of the
// five objects, in one arena, and the Txn handle. Its Event Base,
// object-store line and scratch are the work of the line before, reset
// (engine lineWork). The gate is the 1 376 bytes per transaction
// measured so (Go 1.24, linux/amd64, -race too; 2 904 while each
// snapshot copy had its own attribute map, 7 000 while every line built
// a new Base, line and latch set, 7 528 while each base interned its
// types in a map of its own) plus 1 KiB.
func TestShortTransactionBytes(t *testing.T) {
	const perTxn = 1376 + 1024
	db := stockDB(t)
	var oids []types.OID
	if err := db.Run(func(tx *Txn) error {
		for i := 0; i < 5; i++ {
			oid, err := tx.Create("stock", map[string]types.Value{"quantity": types.Int(0)})
			if err != nil {
				return err
			}
			oids = append(oids, oid)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	k := int64(0)
	write := func() {
		tx, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		for _, oid := range oids {
			k++
			if err := tx.Modify(oid, "quantity", types.Int(k)); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		write() // warm: recycled sessions and snapshots at their steady size
	}
	const runs = 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		write()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d bytes per transaction", bytes)
	if bytes > perTxn {
		t.Errorf("a five-write transaction allocates %d bytes, want at most %d", bytes, perTxn)
	}
}
