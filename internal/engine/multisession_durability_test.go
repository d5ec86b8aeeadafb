package engine_test

// Multi-session durability: concurrently-arriving commits stage their
// WAL records privately and append them as one contiguous run under the
// commit latch, so the log is a serial stream of whole transactions in
// commit order — and the group committer can cover any number of
// concurrent FsyncPerCommit commits with a single fsync. This suite
// proves the ordering (recovery lands on the identical state even when
// commit order inverts begin order), the privacy (rolled-back and
// in-flight transactions leave no trace in the log), and the sharing
// (fsyncs strictly fewer than commits under concurrency).

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chimera/internal/engine"
	"chimera/internal/metrics"
	"chimera/internal/schema"
	"chimera/internal/storage"
	"chimera/internal/types"
)

func multiDurOptions(store engine.SegmentStore, sessions int) engine.Options {
	o := durOptions(store, 0)
	o.MaxSessions = sessions
	o.LockWait = 5 * time.Second
	return o
}

// storeFingerprint renders the committed object state: every object in
// class order plus the OID allocation point. (Unlike durFingerprint it
// omits the clock — in multi-session mode a rolled-back transaction's
// ticks advance the live clock but are deliberately absent from the
// log.)
func storeFingerprint(db *engine.DB) string {
	var b strings.Builder
	fmt.Fprintf(&b, "nextOID=%d\n", db.Store().NextOID())
	for _, class := range db.Schema().Names() {
		oids, _ := db.Store().Select(class)
		for _, oid := range oids {
			if o, ok := db.Store().Get(oid); ok && o.Class().Name() == class {
				b.WriteString(o.String())
				b.WriteByte('\n')
			}
		}
	}
	return b.String()
}

// TestMultiSessionRecoveryCommitOrder is the two-session recovery
// differential: OID allocation interleaves across two lines but the
// second-begun line commits first, so replay (which runs the log in
// commit order) must land creations at their logged identities, not
// re-derive them from allocation order.
func TestMultiSessionRecoveryCommitOrder(t *testing.T) {
	store := storage.NewMemStore()
	db, err := engine.Open(multiDurOptions(store, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	defineDurCatalog(t, db)

	tx1, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	tx2, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	// Interleaved allocation across disjoint classes (same-class creates
	// would conflict on the class-extension latch): tx1 takes the first
	// and third OIDs, tx2 the second...
	if _, err := tx1.Create("item", map[string]types.Value{
		"n": types.Int(1), "cap": types.Int(50)}); err != nil {
		t.Fatal(err)
	}
	if _, err := tx2.Create("note", map[string]types.Value{
		"n": types.Int(2)}); err != nil {
		t.Fatal(err)
	}
	if _, err := tx1.Create("item", map[string]types.Value{
		"n": types.Int(3), "cap": types.Int(50)}); err != nil {
		t.Fatal(err)
	}
	// ...but tx2 commits first: the log holds tx2's run, then tx1's.
	// tx1's commit also fires the deferred audit rule (it saw item
	// creates), whose note-create lands inside tx1's logged run.
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}

	if err := db.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	want := storeFingerprint(db)
	rdb, rtx, rep, err := engine.Recover(multiDurOptions(store.Clone(), 2))
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer rdb.Close()
	if rtx != nil {
		t.Fatal("recovery of a fully-committed multi-session log returned an open transaction")
	}
	if rep.TxnOpen {
		t.Error("report claims an open transaction")
	}
	if got := storeFingerprint(rdb); got != want {
		t.Errorf("recovered state differs:\n--- live ---\n%s--- recovered ---\n%s", want, got)
	}
}

// TestMultiSessionRollbackLeavesNoTrace: a rolled-back line's staged run
// is discarded, never appended — the log (and so recovery) must not know
// the transaction existed, while a concurrent committed line survives.
func TestMultiSessionRollbackLeavesNoTrace(t *testing.T) {
	store := storage.NewMemStore()
	db, err := engine.Open(multiDurOptions(store, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	defineDurCatalog(t, db)

	txKeep, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	txDrop, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := txDrop.Create("item", map[string]types.Value{
		"n": types.Int(99), "cap": types.Int(50)}); err != nil {
		t.Fatal(err)
	}
	if _, err := txKeep.Create("note", map[string]types.Value{
		"n": types.Int(7)}); err != nil {
		t.Fatal(err)
	}
	if err := txDrop.Rollback(); err != nil {
		t.Fatal(err)
	}
	if err := txKeep.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.SyncWAL(); err != nil {
		t.Fatal(err)
	}

	rdb, rtx, _, err := engine.Recover(multiDurOptions(store.Clone(), 2))
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer rdb.Close()
	if rtx != nil {
		t.Fatal("unexpected open transaction after recovery")
	}
	items, err := rdb.Store().Select("item")
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 0 {
		t.Errorf("recovered %d item(s) from a rolled-back line, want 0", len(items))
	}
	notes, err := rdb.Store().Select("note")
	if err != nil {
		t.Fatal(err)
	}
	if len(notes) != 1 {
		t.Fatalf("recovered %d note(s), want exactly the committed one", len(notes))
	}
	o, _ := rdb.Store().Get(notes[0])
	if v, err := o.Get("n"); err != nil || v.AsInt() != 7 {
		t.Errorf("recovered note n = %v (err %v), want 7", v, err)
	}
}

// TestMultiSessionCrashMidTransaction: a crash while a line is open
// mid-run loses that line entirely (its records were staged privately,
// never in the store) and recovery reports no open transaction.
func TestMultiSessionCrashMidTransaction(t *testing.T) {
	store := storage.NewMemStore()
	db, err := engine.Open(multiDurOptions(store, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	defineDurCatalog(t, db)

	if err := db.Run(func(tx *engine.Txn) error {
		_, err := tx.Create("item", map[string]types.Value{
			"n": types.Int(1), "cap": types.Int(50)})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Create("item", map[string]types.Value{
		"n": types.Int(2), "cap": types.Int(50)}); err != nil {
		t.Fatal(err)
	}

	// Crash here: clone the store with the second transaction open.
	if err := db.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	rdb, rtx, rep, err := engine.Recover(multiDurOptions(store.Clone(), 2))
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer rdb.Close()
	if rtx != nil || rep.TxnOpen {
		t.Fatal("multi-session recovery returned an open transaction")
	}
	oids, err := rdb.Store().Select("item")
	if err != nil {
		t.Fatal(err)
	}
	if len(oids) != 1 {
		t.Fatalf("recovered %d item(s), want 1 (the committed one)", len(oids))
	}
	tx.Rollback()
}

// imageFingerprint renders a database's committed image (DB.Image):
// every object with the attributes ever set on it, plus the OID
// allocation point. Open lines' writes are not in it.
func imageFingerprint(db *engine.DB) string {
	img := db.Image()
	var b strings.Builder
	fmt.Fprintf(&b, "nextOID=%d\n", img.NextOID)
	for _, o := range img.Objects {
		fmt.Fprintf(&b, "%s(%s)%v\n", o.Class, o.OID, o.Attrs)
	}
	return b.String()
}

// TestMultiSessionCheckpointWithLinesOpen checkpoints while three lines
// are open, each with writes made before the checkpoint. The image
// holds only committed state; afterwards one line commits, one rolls
// back, and one commits into a log torn mid-run. Recovery must land on
// the committed state each time.
func TestMultiSessionCheckpointWithLinesOpen(t *testing.T) {
	store := storage.NewMemStore()
	db, err := engine.Open(multiDurOptions(store, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	defineDurCatalog(t, db)
	var a, b types.OID
	if err := db.Run(func(tx *engine.Txn) error {
		var err error
		if a, err = tx.Create("item", map[string]types.Value{
			"n": types.Int(1), "cap": types.Int(50)}); err != nil {
			return err
		}
		b, err = tx.Create("item", map[string]types.Value{
			"n": types.Int(2), "cap": types.Int(50)})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	begin := func() *engine.Txn {
		t.Helper()
		tx, err := db.Begin()
		must(err)
		return tx
	}
	commits, rolls, torn := begin(), begin(), begin()
	made, err := commits.Create("item", map[string]types.Value{
		"n": types.Int(3), "cap": types.Int(50)})
	must(err)
	must(commits.EndLine())
	_, err = rolls.Create("note", map[string]types.Value{"n": types.Int(4)})
	must(err)
	must(torn.Modify(b, "n", types.Int(20)))
	must(torn.EndLine())

	committed := imageFingerprint(db)
	must(db.Checkpoint())
	rdb, rtx, rep, err := engine.Recover(multiDurOptions(store.Clone(), 4))
	must(err)
	if rtx != nil || rep.Records != 1 {
		t.Fatalf("recovery right after the checkpoint: open=%v, %d record(s); want none open and only the marker", rtx != nil, rep.Records)
	}
	if got := imageFingerprint(rdb); got != committed {
		t.Fatalf("checkpoint image is not the committed state:\n--- committed\n%s--- recovered\n%s", committed, got)
	}
	rdb.Close()

	// After the checkpoint: the committing line writes again, the other
	// rolls back, the third keeps its write open.
	must(commits.Modify(made, "n", types.Int(5)))
	must(commits.Modify(a, "n", types.Int(6)))
	must(rolls.Rollback())
	must(commits.Commit())
	must(db.SyncWAL())
	want := imageFingerprint(db)
	before := store.WALLen()
	must(torn.Modify(a, "n", types.Int(7)))
	must(torn.Commit())
	must(db.SyncWAL())
	after := store.WALLen()

	// The whole log recovers to the live state, clock included: the
	// header's clock and allocator were already advanced by the open
	// lines, and replaying their runs lands on the live values.
	rdb, _, _, err = engine.Recover(multiDurOptions(store.Clone(), 4))
	must(err)
	if live, got := storeFingerprint(db), storeFingerprint(rdb); got != live {
		t.Errorf("full-log recovery differs:\n--- live\n%s--- recovered\n%s", live, got)
	}
	if live, got := db.Clock().Now(), rdb.Clock().Now(); got != live {
		t.Errorf("recovered clock %d, live %d", got, live)
	}
	rdb.Close()

	// Torn anywhere inside the last run, the log recovers to the state
	// before that run.
	for _, cut := range []int{before + 1, (before + after) / 2, after - 1} {
		clone := store.Clone()
		clone.TruncateWAL(cut)
		rdb, rtx, rep, err := engine.Recover(multiDurOptions(clone, 4))
		must(err)
		if rtx != nil || !rep.TruncatedWAL {
			t.Errorf("cut at %d of %d..%d: open=%v truncated=%v; want a torn tail and no open line", cut, before, after, rtx != nil, rep.TruncatedWAL)
		}
		if got := imageFingerprint(rdb); got != want {
			t.Errorf("cut at %d: recovered state differs:\n--- want\n%s--- recovered\n%s", cut, want, got)
		}
		rdb.Close()
	}
}

// TestMultiSessionAutoCheckpointsConcurrent runs 8 concurrent writers
// at MaxSessions 8 with CheckpointEvery 4, while a checker takes
// explicit checkpoints and clones the store at random points. Every
// clone must recover to a committed state: each worker's counter item
// agrees with the rows it committed beside it (atomicity), and no
// transaction that committed before the clone's SyncWAL is missing
// (durability). Once the writers stop, recovery equals the live store.
func TestMultiSessionAutoCheckpointsConcurrent(t *testing.T) {
	const workers = 8
	perWorker := 40
	if testing.Short() {
		perWorker = 15
	}
	store := storage.NewMemStore()
	reg := metrics.NewRegistry()
	opts := multiDurOptions(store, workers)
	opts.Durability.CheckpointEvery = 4
	opts.Metrics = reg
	db, err := engine.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	defineDurCatalog(t, db)
	if err := db.DefineClass("row",
		schema.Attribute{Name: "w", Kind: types.KindInt},
		schema.Attribute{Name: "k", Kind: types.KindInt}); err != nil {
		t.Fatal(err)
	}
	counters := make([]types.OID, workers)
	if err := db.Run(func(tx *engine.Txn) error {
		for w := range counters {
			var err error
			if counters[w], err = tx.Create("item", map[string]types.Value{
				"n": types.Int(0), "cap": types.Int(1 << 40)}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// recovered reads, per worker, the counter value and the rows.
	recovered := func(rdb *engine.DB) (ns, rows []int64) {
		ns, rows = make([]int64, workers), make([]int64, workers)
		for w, oid := range counters {
			o, ok := rdb.Store().Get(oid)
			if !ok {
				t.Fatalf("counter %d lost", w)
			}
			ns[w] = o.MustGet("n").AsInt()
		}
		oids, _ := rdb.Store().Select("row")
		for _, oid := range oids {
			o, _ := rdb.Store().Get(oid)
			rows[o.MustGet("w").AsInt()]++
		}
		return ns, rows
	}

	var done [workers]atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, workers+1) // one per writer, one for the checker
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				rollback := r.Intn(5) == 0
				err := db.Run(func(tx *engine.Txn) error {
					o, ok := tx.Get(counters[w])
					if !ok {
						return fmt.Errorf("counter %d missing", w)
					}
					n := o.MustGet("n").AsInt()
					if err := tx.Modify(counters[w], "n", types.Int(n+1)); err != nil {
						return err
					}
					if err := tx.EndLine(); err != nil {
						return err
					}
					if _, err := tx.Create("row", map[string]types.Value{
						"w": types.Int(int64(w)), "k": types.Int(n + 1)}); err != nil {
						return err
					}
					if rollback {
						return errRollback
					}
					return nil
				})
				switch {
				case err == nil:
					done[w].Add(1)
				case errors.Is(err, errRollback):
				default:
					errs <- fmt.Errorf("worker %d: %w", w, err)
					return
				}
			}
		}(w)
	}

	stop := make(chan struct{})
	checked := make(chan int)
	var explicit atomic.Int64
	go func() {
		r := rand.New(rand.NewSource(99))
		n := 0
		defer func() { checked <- n }()
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Duration(r.Intn(3)) * time.Millisecond):
			}
			if r.Intn(3) == 0 {
				if err := db.Checkpoint(); err != nil {
					errs <- fmt.Errorf("explicit checkpoint: %w", err)
					return
				}
				explicit.Add(1)
			}
			var floor [workers]int64
			for w := range floor {
				floor[w] = done[w].Load()
			}
			if err := db.SyncWAL(); err != nil {
				errs <- err
				return
			}
			rdb, _, _, err := engine.Recover(func() engine.Options {
				o := multiDurOptions(store.Clone(), workers)
				o.Durability.CheckpointEvery = 4
				return o
			}())
			if err != nil {
				errs <- fmt.Errorf("recover: %w", err)
				return
			}
			ns, rows := recovered(rdb)
			rdb.Close()
			for w := range ns {
				if ns[w] != rows[w] || ns[w] < floor[w] {
					errs <- fmt.Errorf("clone %d, worker %d: counter %d, %d row(s), %d committed before the clone",
						n, w, ns[w], rows[w], floor[w])
					return
				}
			}
			n++
		}
	}()
	wg.Wait()
	close(stop)
	clones := <-checked
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if clones == 0 {
		t.Error("no clone was recovered while the writers ran")
	}
	// Open's checkpoint, the explicit ones, and the automatic ones.
	if auto := reg.Snapshot().Counters["chimera_ckpt_total"] - 1 - explicit.Load(); auto == 0 {
		t.Error("no automatic checkpoint was written")
	}

	if err := db.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	rdb, _, _, err := engine.Recover(func() engine.Options {
		o := multiDurOptions(store.Clone(), workers)
		o.Durability.CheckpointEvery = 4
		return o
	}())
	if err != nil {
		t.Fatal(err)
	}
	defer rdb.Close()
	// The objects match exactly. The allocator may end lower than the
	// live one: OIDs that rolled-back lines allocated after the last
	// checkpoint are never logged, and none of them is committed.
	want, got := storeFingerprint(db), storeFingerprint(rdb)
	_, wantObjs, _ := strings.Cut(want, "\n")
	_, gotObjs, _ := strings.Cut(got, "\n")
	if wantObjs != gotObjs {
		t.Errorf("final recovery differs:\n--- live\n%s--- recovered\n%s", want, got)
	}
	objs := rdb.Store().Objects()
	if next := rdb.Store().NextOID(); next > db.Store().NextOID() || next < objs[len(objs)-1].OID() {
		t.Errorf("recovered allocator at %v: live %v, highest recovered OID %v",
			next, db.Store().NextOID(), objs[len(objs)-1].OID())
	}
	ns, rows := recovered(rdb)
	for w := range ns {
		if ns[w] != done[w].Load() || rows[w] != ns[w] {
			t.Errorf("worker %d: counter %d, %d row(s), %d commits", w, ns[w], rows[w], done[w].Load())
		}
	}
	t.Logf("%d clones recovered during the run", clones)
}

var errRollback = errors.New("roll back")

// slowSyncStore delays SyncWAL so concurrent FsyncPerCommit committers
// pile up behind one in-flight fsync — the condition group commit
// exists to exploit.
type slowSyncStore struct {
	*storage.MemStore
	delay time.Duration
}

func (s *slowSyncStore) SyncWAL() error {
	time.Sleep(s.delay)
	return s.MemStore.SyncWAL()
}

// TestMultiSessionGroupCommitSharesFsyncs drives 8 concurrent
// FsyncPerCommit writers against a slow-sync store and requires
// strictly fewer fsyncs than commits: concurrently-arriving commit
// records ride the same sync.
func TestMultiSessionGroupCommitSharesFsyncs(t *testing.T) {
	reg := metrics.NewRegistry()
	store := &slowSyncStore{MemStore: storage.NewMemStore(), delay: 2 * time.Millisecond}
	opts := multiDurOptions(store, 8)
	opts.Durability.Fsync = engine.FsyncPerCommit
	opts.Metrics = reg
	db, err := engine.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	defineDurCatalog(t, db)

	fsyncs := func() int64 { return reg.Snapshot().Counters["chimera_wal_fsyncs_total"] }
	base := fsyncs()

	const workers, perWorker = 8, 12
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if err := db.Run(func(tx *engine.Txn) error {
					_, err := tx.Create("item", map[string]types.Value{
						"n": types.Int(int64(w)), "cap": types.Int(50)})
					return err
				}); err != nil {
					errs <- fmt.Errorf("worker %d: %w", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	const commits = workers * perWorker
	got := fsyncs() - base
	if got == 0 {
		t.Fatal("no fsyncs recorded under FsyncPerCommit")
	}
	if got >= commits {
		t.Errorf("group commit shared nothing: %d fsyncs for %d commits", got, commits)
	}
	t.Logf("group commit: %d commits over %d fsyncs (%.2f fsyncs/commit)",
		commits, got, float64(got)/float64(commits))

	// And the durable state is complete: every committed create survives.
	if err := db.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	want := storeFingerprint(db)
	rdb, _, _, err := engine.Recover(func() engine.Options {
		o := multiDurOptions(store.Clone(), 8)
		o.Durability.Fsync = engine.FsyncPerCommit
		return o
	}())
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer rdb.Close()
	if gotFP := storeFingerprint(rdb); gotFP != want {
		t.Error("recovered state differs after concurrent group-committed workload")
	}
}

// heldSyncStore parks every SyncWAL until release, so FsyncPerCommit
// commits pile up as waiters on the group committer.
type heldSyncStore struct {
	*storage.MemStore
	mu      sync.Mutex
	gate    chan struct{} // nil once released
	entered chan struct{} // signalled when a sync reaches the held gate
}

func (s *heldSyncStore) release() {
	s.mu.Lock()
	defer s.mu.Unlock()
	close(s.gate)
	s.gate = nil
}

func (s *heldSyncStore) SyncWAL() error {
	s.mu.Lock()
	gate := s.gate
	s.mu.Unlock()
	if gate != nil {
		select {
		case s.entered <- struct{}{}:
		default:
		}
		<-gate
	}
	return s.MemStore.SyncWAL()
}

// TestCommitterWakesEveryWaiter parks four concurrent FsyncPerCommit
// commits behind a held fsync and then fails the sync, closes the
// database, or checkpoints it: every parked commit must return, none may
// be stranded by a lost wake-up.
func TestCommitterWakesEveryWaiter(t *testing.T) {
	const lines = 4
	const deadline = 10 * time.Second
	// park opens a database whose syncs are held and commits one create
	// on each of four lines, returning once every commit has joined the log
	// and the committer sits in the held sync; results receives each
	// Commit's error.
	park := func(t *testing.T) (db *engine.DB, store *heldSyncStore, results chan error) {
		t.Helper()
		store = &heldSyncStore{MemStore: storage.NewMemStore(),
			gate: make(chan struct{}), entered: make(chan struct{}, 1)}
		reg := metrics.NewRegistry()
		opts := multiDurOptions(store, lines)
		opts.Durability.Fsync = engine.FsyncPerCommit
		opts.Metrics = reg
		db, err := engine.Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		defineDurCatalog(t, db)
		commits := func() int64 { return reg.Snapshot().Counters["chimera_engine_commits_total"] }
		base := commits()
		results = make(chan error, lines)
		for i := 0; i < lines; i++ {
			go func(i int) {
				results <- db.Run(func(tx *engine.Txn) error {
					_, err := tx.Create("item", map[string]types.Value{
						"n": types.Int(int64(i)), "cap": types.Int(50)})
					return err
				})
			}(i)
		}
		until := time.Now().Add(deadline)
		for commits()-base < lines {
			if time.Now().After(until) {
				t.Fatal("the commits never joined the log")
			}
			time.Sleep(time.Millisecond)
		}
		select {
		case <-store.entered:
		case <-time.After(deadline):
			t.Fatal("the committer never reached the held sync")
		}
		return db, store, results
	}
	// collect returns every line's Commit error, failing the test if one
	// does not return within the deadline.
	collect := func(t *testing.T, results chan error) []error {
		t.Helper()
		var errs []error
		for len(errs) < lines {
			select {
			case err := <-results:
				errs = append(errs, err)
			case <-time.After(deadline):
				t.Fatalf("%d of %d commits still parked after %v", lines-len(errs), lines, deadline)
			}
		}
		return errs
	}

	t.Run("sync fails", func(t *testing.T) {
		db, store, results := park(t)
		defer db.Close()
		store.FailSync(errors.New("fsync: I/O error"))
		store.release()
		for _, err := range collect(t, results) {
			if !errors.Is(err, engine.ErrWALFailed) {
				t.Errorf("commit over a failed sync returned %v, want ErrWALFailed", err)
			}
		}
	})

	t.Run("close", func(t *testing.T) {
		db, store, results := park(t)
		closed := make(chan error, 1)
		go func() { closed <- db.Close() }()
		// Close wakes the parked commits before the held sync ends.
		for _, err := range collect(t, results) {
			if err != nil && !errors.Is(err, engine.ErrClosed) {
				t.Errorf("commit raced by Close returned %v, want nil or ErrClosed", err)
			}
		}
		store.release()
		select {
		case err := <-closed:
			if err != nil {
				t.Errorf("Close: %v", err)
			}
		case <-time.After(deadline):
			t.Fatal("Close did not return")
		}
	})

	t.Run("checkpoint", func(t *testing.T) {
		db, store, results := park(t)
		defer db.Close()
		ckpt := make(chan error, 1)
		go func() { ckpt <- db.Checkpoint() }()
		store.release()
		for _, err := range collect(t, results) {
			if err != nil {
				t.Errorf("commit waiting across a checkpoint: %v", err)
			}
		}
		select {
		case err := <-ckpt:
			if err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
		case <-time.After(deadline):
			t.Fatal("Checkpoint did not return")
		}
		// The committer resumed after the barrier: a later commit syncs.
		done := make(chan error, 1)
		go func() {
			done <- db.Run(func(tx *engine.Txn) error {
				_, err := tx.Create("item", map[string]types.Value{
					"n": types.Int(9), "cap": types.Int(50)})
				return err
			})
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("commit after the checkpoint: %v", err)
			}
		case <-time.After(deadline):
			t.Fatal("commit after the checkpoint never synced")
		}
	})
}
