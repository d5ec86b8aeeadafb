package stream_test

// The streaming suite: a stream session must be bit-identical to an
// equivalent one-transaction-per-batch replay (the differential test),
// honor backpressure and per-batch budgets without stalling, keep
// steady-state memory flat under a retention window, and survive a
// -race soak with concurrent producers and compaction on (the
// `make stream-smoke` target runs this file with -race).
//
// Lives in package stream_test because the durable smoke needs
// internal/storage, which imports the engine.

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chimera/internal/act"
	"chimera/internal/calculus"
	"chimera/internal/clock"
	"chimera/internal/cond"
	"chimera/internal/engine"
	"chimera/internal/event"
	"chimera/internal/metrics"
	"chimera/internal/rules"
	"chimera/internal/schema"
	"chimera/internal/storage"
	"chimera/internal/stream"
	"chimera/internal/types"
)

// defineStreamCatalog installs the differential schema and rule set:
// an immediate clamp, a deferred composite with negation, an
// instance-oriented sequence (same shapes as the engine suites).
func defineStreamCatalog(t *testing.T, db *engine.DB) {
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

// seedItems creates (and commits) k items the streamed observations
// refer to.
func seedItems(t *testing.T, db *engine.DB, k int) []types.OID {
	t.Helper()
	oids := make([]types.OID, 0, k)
	if err := db.Run(func(tx *engine.Txn) error {
		for i := 0; i < k; i++ {
			oid, err := tx.Create("item", map[string]types.Value{
				"n": types.Int(int64(i)), "cap": types.Int(50)})
			if err != nil {
				return err
			}
			oids = append(oids, oid)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return oids
}

// genEvents produces the deterministic observation workload both sides
// of the differential ingest.
func genEvents(r *rand.Rand, oids []types.OID, n int) []stream.Event {
	evs := make([]stream.Event, n)
	for i := range evs {
		oid := oids[r.Intn(len(oids))]
		switch r.Intn(10) {
		case 0, 1, 2:
			evs[i] = stream.Event{Type: event.Create("item"), OID: oid}
		case 3:
			evs[i] = stream.Event{Type: event.Delete("item"), OID: oid}
		case 4:
			evs[i] = stream.Event{Type: event.External("tick"), OID: types.NilOID}
		default:
			evs[i] = stream.Event{Type: event.Modify("item", "n"), OID: oid}
		}
	}
	return evs
}

// fingerprint renders the post-commit state the differential compares:
// logical clock, OID allocation point, every object, and (withStats —
// they are process-lifetime, not recovered) the engine's counters. The
// rules' marks end with the transaction line; ruleTrace follows them.
func fingerprint(db *engine.DB, withStats bool) string {
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
	if withStats {
		st := db.Stats()
		fmt.Fprintf(&b, "events=%d blocks=%d cons=%d exec=%d\n",
			st.Events, st.Blocks, st.Considerations, st.RuleExecutions)
	}
	return b.String()
}

// ruleTrace records every triggering and consideration a database
// reports, in order. Each carries the mark values of its transition —
// the activation instant and the events since the horizon, the horizon
// a consideration left and the one it set — so two traces agree exactly
// when the two lines' marks went through the same states.
type ruleTrace struct {
	engine.NopTracer
	mu sync.Mutex
	b  strings.Builder
}

func (r *ruleTrace) RuleTriggered(rule string, at clock.Time, events int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fmt.Fprintf(&r.b, "triggered %s at=%d events=%d\n", rule, at, events)
}

func (r *ruleTrace) Considered(rule string, since, at clock.Time, bindings int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fmt.Fprintf(&r.b, "considered %s since=%d at=%d bindings=%d\n", rule, since, at, bindings)
}

func (r *ruleTrace) String() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.b.String()
}

// TestStreamDifferential proves the central equivalence: a stream
// session ingesting a workload in MaxBatch-sized micro-batches is
// bit-identical to a plain transaction replaying the same batches as
// explicit Emit+EndLine blocks — same objects, clock, engine counters,
// the same sequence of mark transitions, and (in the durable variant)
// the same WAL bytes.
func TestStreamDifferential(t *testing.T) {
	const batch = 32
	const n = 600 // deliberately not a multiple of batch
	for _, durable := range []bool{false, true} {
		name := "memory"
		if durable {
			name = "durable"
		}
		t.Run(name, func(t *testing.T) {
			open := func() (*engine.DB, *storage.MemStore) {
				o := engine.DefaultOptions()
				var store *storage.MemStore
				if durable {
					store = storage.NewMemStore()
					o.Durability = engine.DurabilityOptions{
						Store: store, Fsync: engine.FsyncOff}
				}
				db, err := engine.Open(o)
				if err != nil {
					t.Fatal(err)
				}
				return db, store
			}

			streamDB, streamStore := open()
			refDB, refStore := open()
			defineStreamCatalog(t, streamDB)
			defineStreamCatalog(t, refDB)
			sOids := seedItems(t, streamDB, 8)
			rOids := seedItems(t, refDB, 8)
			evs := genEvents(rand.New(rand.NewSource(42)), sOids, n)
			refEvs := genEvents(rand.New(rand.NewSource(42)), rOids, n)
			streamTrace, refTrace := &ruleTrace{}, &ruleTrace{}
			streamDB.SetTracer(streamTrace)
			refDB.SetTracer(refTrace)

			// Stream side: manual clock (no tick ever fires), so the only
			// sweep boundaries are size flushes plus the Flush barrier.
			s, err := stream.Open(streamDB, stream.Options{
				MaxBatch:  batch,
				QueueSize: n,
				Clock:     clock.NewManual(time.Unix(0, 0)),
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, ev := range evs {
				if err := s.Emit(ev.Type, ev.OID); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			st := s.Stats()
			if st.Events != n {
				t.Fatalf("stream ingested %d events, want %d", st.Events, n)
			}
			if want := uint64((n + batch - 1) / batch); st.Batches != want {
				t.Fatalf("stream swept %d batches, want %d", st.Batches, want)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			// Reference side: one transaction, explicit batch blocks.
			txn, err := refDB.Begin()
			if err != nil {
				t.Fatal(err)
			}
			for i, ev := range refEvs {
				if err := txn.Emit(ev.Type, ev.OID); err != nil {
					t.Fatal(err)
				}
				if (i+1)%batch == 0 {
					if err := txn.EndLine(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if n%batch != 0 {
				if err := txn.EndLine(); err != nil {
					t.Fatal(err)
				}
			}
			if err := txn.Commit(); err != nil {
				t.Fatal(err)
			}

			if got, want := fingerprint(streamDB, true), fingerprint(refDB, true); got != want {
				t.Fatalf("stream diverged from batch replay:\n--- stream ---\n%s--- replay ---\n%s",
					got, want)
			}
			got, want := streamTrace.String(), refTrace.String()
			if got != want {
				t.Fatalf("stream marks diverged from batch replay:\n--- stream ---\n%s--- replay ---\n%s",
					got, want)
			}
			if strings.Count(want, "triggered ") == 0 || strings.Count(want, "considered ") == 0 {
				t.Fatalf("the workload triggered or considered nothing:\n%s", want)
			}
			if durable {
				// Force both group committers to drain before comparing:
				// WAL bytes reach the store asynchronously.
				if err := streamDB.SyncWAL(); err != nil {
					t.Fatal(err)
				}
				if err := refDB.SyncWAL(); err != nil {
					t.Fatal(err)
				}
			}
			if durable && streamStore.WALLen() != refStore.WALLen() {
				t.Fatalf("WAL length diverged: stream=%d replay=%d",
					streamStore.WALLen(), refStore.WALLen())
			}
			if err := streamDB.Close(); err != nil {
				t.Fatal(err)
			}
			if err := refDB.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestStreamCloseCommits checks Close publishes the session's
// rule-action mutations: the deferred audit rule creates a note at the
// stream's commit, visible in the store afterwards.
func TestStreamCloseCommits(t *testing.T) {
	db, err := engine.Open(engine.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defineStreamCatalog(t, db)
	oids := seedItems(t, db, 2)

	s, err := stream.Open(db, stream.Options{
		Clock: clock.NewManual(time.Unix(0, 0)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Emit(event.Create("item"), oids[0]); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	notes, _ := db.Store().Select("note")
	if len(notes) == 0 {
		t.Fatal("deferred rule mutation not visible after Close")
	}

	// Closed-session semantics: everything reports ErrClosed, Close is
	// idempotent.
	if err := s.Emit(event.Create("item"), oids[1]); !errors.Is(err, stream.ErrClosed) {
		t.Fatalf("Emit after Close = %v, want ErrClosed", err)
	}
	if err := s.Flush(); !errors.Is(err, stream.ErrClosed) {
		t.Fatalf("Flush after Close = %v, want ErrClosed", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
}

// TestStreamBudgetKill checks the satellite contract: a poisoned batch
// trips the per-batch budget, the error is typed and carries the
// offending events, the batch accepted before it survives on the same
// line, and the pipeline continues instead of stalling.
func TestStreamBudgetKill(t *testing.T) {
	db, err := engine.Open(engine.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defineStreamCatalog(t, db)
	oids := seedItems(t, db, 2)

	var cbErrs []*stream.BatchError
	s, err := stream.Open(db, stream.Options{
		MaxBatch:     8,
		GasPerBatch:  1, // any rule evaluation trips
		Clock:        clock.NewManual(time.Unix(0, 0)),
		OnBatchError: func(be *stream.BatchError) { cbErrs = append(cbErrs, be) },
	})
	if err != nil {
		t.Fatal(err)
	}
	// A batch no rule listens to spends no gas and is accepted.
	if err := s.Raise("noop"); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("pre-kill Flush = %v, want nil", err)
	}
	for i := 0; i < 4; i++ {
		if err := s.Emit(event.Modify("item", "n"), oids[i%2]); err != nil {
			t.Fatal(err)
		}
	}
	err = s.Flush()
	if err == nil {
		t.Fatal("poisoned batch swept cleanly, want budget error")
	}
	var be *stream.BatchError
	if !errors.As(err, &be) {
		t.Fatalf("Flush error %T, want *stream.BatchError", err)
	}
	if !errors.Is(err, calculus.ErrGasExhausted) {
		t.Fatalf("Flush error %v, want ErrGasExhausted", err)
	}
	if len(be.Events) != 4 {
		t.Fatalf("BatchError carries %d events, want the 4 offenders", len(be.Events))
	}
	st := s.Stats()
	if st.BudgetKills != 1 || st.Restarts != 0 {
		t.Fatalf("kills=%d restarts=%d, want 1/0", st.BudgetKills, st.Restarts)
	}
	if st.Events != 1 {
		t.Fatalf("ingested %d events, want the pre-kill batch's 1 and none of the refused", st.Events)
	}
	if st.LiveEvents != 1 {
		t.Fatalf("the line's Event Base holds %d occurrences, want the pre-kill batch's 1", st.LiveEvents)
	}
	if len(cbErrs) != 1 || cbErrs[0] != be {
		t.Fatalf("OnBatchError saw %d errors, want the same BatchError once", len(cbErrs))
	}
	if got := s.Err(); !errors.Is(got, calculus.ErrGasExhausted) {
		t.Fatalf("Err() = %v, want the batch error", got)
	}

	// The pipeline continues: an innocuous batch sweeps cleanly on the
	// same line.
	if err := s.Raise("noop"); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("post-kill Flush = %v, want nil", err)
	}
	if st := s.Stats(); st.Events != 2 || st.LiveEvents != 2 {
		t.Fatalf("post-kill ingested %d events, %d live, want 2 and 2", st.Events, st.LiveEvents)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamDropPolicy checks the Drop backpressure policy sheds into
// the drop counter instead of blocking, and never loses arrivals
// silently (enqueued + dropped == produced).
func TestStreamDropPolicy(t *testing.T) {
	db, err := engine.Open(engine.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// MaxBatch 1 makes every arrival a full sweep, so the cap-1 queue
	// backs up against a single tight producer almost immediately.
	s, err := stream.Open(db, stream.Options{
		MaxBatch:     1,
		QueueSize:    1,
		Backpressure: stream.Drop,
		Clock:        clock.NewManual(time.Unix(0, 0)),
	})
	if err != nil {
		t.Fatal(err)
	}
	var produced uint64
	for i := 0; i < 200000; i++ {
		if err := s.Raise("burst"); err != nil {
			t.Fatal(err)
		}
		produced++
		if i%1024 == 0 && s.Stats().Dropped > 0 {
			break
		}
	}
	st := s.Stats()
	if st.Dropped == 0 {
		t.Fatal("tight producer against cap-1 queue never dropped")
	}
	if st.Enqueued+st.Dropped != produced {
		t.Fatalf("enqueued %d + dropped %d != produced %d",
			st.Enqueued, st.Dropped, produced)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamRetentionFlatMemory checks the flat-memory mechanism: with
// a retention window the session's Event Base stays bounded even though
// a dormant rule pins the consumption watermark; without one the same
// workload accumulates every occurrence.
func TestStreamRetentionFlatMemory(t *testing.T) {
	const n = 8192
	const window = 256
	const segSize = 64
	open := func() *engine.DB {
		o := engine.DefaultOptions()
		o.SegmentSize = segSize
		db, err := engine.Open(o)
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	run := func(window clock.Time) stream.Stats {
		db := open()
		defineStreamCatalog(t, db) // rules stay dormant: no item events arrive
		s, err := stream.Open(db, stream.Options{
			MaxBatch:  128,
			QueueSize: 1024,
			Window:    window,
			Clock:     clock.NewManual(time.Unix(0, 0)),
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := s.Raise("noise"); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		st := s.Stats()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		return st
	}

	unbounded := run(0)
	if unbounded.LiveEvents != n {
		t.Fatalf("without a window the dormant rule set should pin all %d events, kept %d",
			n, unbounded.LiveEvents)
	}
	bounded := run(window)
	if bounded.Events != n {
		t.Fatalf("windowed run ingested %d events, want %d", bounded.Events, n)
	}
	// Compaction retires whole segments below the retention bound, so
	// the residual window is Window plus at most two partial segments.
	if max := window + 2*segSize; bounded.LiveEvents > max {
		t.Fatalf("windowed run retains %d live events, want <= %d", bounded.LiveEvents, max)
	}
	if max := window/segSize + 2; bounded.LiveSegments > max {
		t.Fatalf("windowed run retains %d segments, want <= %d", bounded.LiveSegments, max)
	}
	if bounded.Floor == 0 {
		t.Fatal("windowed run never advanced the compaction floor")
	}
}

// TestStreamStatsWindowConsistent polls Stats beside a stream whose
// retention window keeps compaction retiring segments: every poll must
// describe one instant of the base, where only the tail segment may be
// partial, so (LiveSegments−1)·segSize < LiveEvents ≤
// LiveSegments·segSize, or both are 0. Reading the three figures under
// separate locks lets a compaction fall between them.
func TestStreamStatsWindowConsistent(t *testing.T) {
	const n, segSize = 20000, 8
	o := engine.DefaultOptions()
	o.SegmentSize = segSize
	db, err := engine.Open(o)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s, err := stream.Open(db, stream.Options{
		MaxBatch:  16,
		QueueSize: 1024,
		Window:    4 * segSize,
		Clock:     clock.NewManual(time.Unix(0, 0)),
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	polled := make(chan int)
	go func() {
		polls := 0
		defer func() { polled <- polls }()
		for {
			select {
			case <-done:
				return
			default:
			}
			st := s.Stats()
			polls++
			if live, segs := st.LiveEvents, st.LiveSegments; live > segs*segSize || (segs > 0 && live <= (segs-1)*segSize) {
				t.Errorf("Stats reports %d live events in %d segments of %d", live, segs, segSize)
				return
			}
		}
	}()
	for i := 0; i < n; i++ {
		if err := s.Raise("noise"); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	close(done)
	if polls := <-polled; polls == 0 {
		t.Fatal("Stats was never polled")
	}
	st := s.Stats()
	if st.Events != n || st.Floor == clock.Never {
		t.Fatalf("%+v: every event ingested and compaction run expected", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamIdleSweeps checks clock-driven behavior under a manual
// source: ticks flush partial batches, and on a quiet stream they run
// idle sweeps that advance the logical clock so time-based operators
// make progress without arrivals.
func TestStreamIdleSweeps(t *testing.T) {
	db, err := engine.Open(engine.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	man := clock.NewManual(time.Unix(0, 0))
	s, err := stream.Open(db, stream.Options{
		MaxBatch:      64,
		FlushInterval: 10 * time.Millisecond,
		Clock:         man,
	})
	if err != nil {
		t.Fatal(err)
	}

	// A partial batch must flush on the tick, not wait for MaxBatch.
	if err := s.Raise("a"); err != nil {
		t.Fatal(err)
	}
	if err := s.Raise("b"); err != nil {
		t.Fatal(err)
	}
	waitStream(t, func() bool {
		man.Advance(10 * time.Millisecond)
		return s.Stats().Events == 2
	})

	// With the queue drained and no arrivals, further ticks are idle
	// sweeps and each advances the logical clock.
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	c0 := db.Clock().Now()
	waitStream(t, func() bool {
		man.Advance(10 * time.Millisecond)
		return s.Stats().IdleSweeps >= 2
	})
	if now := db.Clock().Now(); now <= c0 {
		t.Fatalf("idle sweeps did not advance the logical clock: %d -> %d", c0, now)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamSoak is the -race soak: concurrent producers over a Block
// queue, active rules, compaction on via a retention window. Lossless
// ingestion (no drops, every event counted) and bounded live segments
// are the invariants.
func TestStreamSoak(t *testing.T) {
	const producers = 4
	perProducer := 10000
	if testing.Short() {
		perProducer = 2000
	}
	const segSize = 64
	const window = 512

	o := engine.DefaultOptions()
	o.SegmentSize = segSize
	db, err := engine.Open(o)
	if err != nil {
		t.Fatal(err)
	}
	defineStreamCatalog(t, db)
	oids := seedItems(t, db, 16)

	s, err := stream.Open(db, stream.Options{
		MaxBatch:      128,
		FlushInterval: 2 * time.Millisecond,
		QueueSize:     1024,
		Backpressure:  stream.Block,
		Window:        window,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Sample live segments while the soak runs; the retention window
	// must keep them bounded despite dormant composite rules.
	monitorDone := make(chan struct{})
	var maxSegs int
	go func() {
		defer close(monitorDone)
		for {
			select {
			case <-monitorDone:
				return
			default:
			}
			if n := s.Stats().LiveSegments; n > maxSegs {
				maxSegs = n
			}
			time.Sleep(time.Millisecond)
		}
	}()

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < perProducer; i++ {
				oid := oids[r.Intn(len(oids))]
				var err error
				switch r.Intn(8) {
				case 0:
					err = s.Emit(event.Create("item"), oid)
				case 1:
					err = s.Raise("hum")
				default:
					err = s.Emit(event.Modify("item", "n"), oid)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(p + 1))
	}
	wg.Wait()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	monitorDone <- struct{}{}
	<-monitorDone

	total := uint64(producers * perProducer)
	if st.Dropped != 0 {
		t.Fatalf("Block policy dropped %d events", st.Dropped)
	}
	if st.Events != total || st.Enqueued != st.Events {
		t.Fatalf("soak enqueued %d and ingested %d events, want %d each", st.Enqueued, st.Events, total)
	}
	if bound := window/segSize + 8; maxSegs > bound {
		t.Fatalf("live segments peaked at %d, want <= %d (flat-memory bound)", maxSegs, bound)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamDurableSmoke runs a stream over a durable store and
// recovers from the bytes it left behind: the committed stream state
// must survive the crash boundary.
func TestStreamDurableSmoke(t *testing.T) {
	store := storage.NewMemStore()
	o := engine.DefaultOptions()
	o.Durability = engine.DurabilityOptions{Store: store, Fsync: engine.FsyncOff}
	db, err := engine.Open(o)
	if err != nil {
		t.Fatal(err)
	}
	defineStreamCatalog(t, db)
	oids := seedItems(t, db, 4)

	s, err := stream.Open(db, stream.Options{
		MaxBatch: 16,
		Clock:    clock.NewManual(time.Unix(0, 0)),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if err := s.Emit(event.Modify("item", "n"), oids[i%4]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Emit(event.Create("item"), oids[0]); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	want := fingerprint(db, false)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	ro := engine.DefaultOptions()
	ro.Durability = engine.DurabilityOptions{Store: store.Clone(), Fsync: engine.FsyncOff}
	re, rtx, _, err := engine.Recover(ro)
	if err != nil {
		t.Fatal(err)
	}
	if rtx != nil {
		t.Fatal("clean close left an open transaction at recovery")
	}
	if got := fingerprint(re, false); got != want {
		t.Fatalf("recovered state diverged:\n--- recovered ---\n%s--- committed ---\n%s", got, want)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamDurableMultiSessionLogsAtClose pins where a durable
// multi-session stream's batches reach the log: its line stages every
// accepted batch privately, as any multi-session line does, and hands
// the whole run to the group committer at Close. A crash before Close
// recovers the state before the stream, with no open transaction; after
// Close, every batch.
func TestStreamDurableMultiSessionLogsAtClose(t *testing.T) {
	store := storage.NewMemStore()
	o := engine.DefaultOptions()
	o.MaxSessions = 2
	o.Durability = engine.DurabilityOptions{Store: store, Fsync: engine.FsyncOff}
	db, err := engine.Open(o)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	defineStreamCatalog(t, db)
	oids := seedItems(t, db, 4)
	before := fingerprint(db, false)
	recovered := func() string {
		t.Helper()
		if err := db.SyncWAL(); err != nil {
			t.Fatal(err)
		}
		ro := o
		ro.Durability.Store = store.Clone()
		re, rtx, _, err := engine.Recover(ro)
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		if rtx != nil {
			t.Fatal("recovery returned an open transaction")
		}
		return fingerprint(re, false)
	}

	s, err := stream.Open(db, stream.Options{
		MaxBatch: 16,
		Clock:    clock.NewManual(time.Unix(0, 0)),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if err := s.Emit(event.Modify("item", "n"), oids[i%4]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := recovered(); got != before {
		t.Fatalf("flushed batches reached the log before Close:\n--- recovered ---\n%s--- before the stream ---\n%s", got, before)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	want := fingerprint(db, false)
	if want == before {
		t.Fatal("the stream changed nothing")
	}
	if got := recovered(); got != want {
		t.Fatalf("the closed stream's run is not in the log:\n--- recovered ---\n%s--- committed ---\n%s", got, want)
	}
}

func waitStream(t *testing.T, step func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !step() {
		if time.Now().After(deadline) {
			t.Fatal("condition never reached")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStreamEmitRacingClose pins the Emit/Close contract: producers
// racing Close either have their arrival swept before Close returns or
// get ErrClosed. An Emit that returned nil is never lost, neither
// counted as enqueued and left unswept nor refused without an error.
func TestStreamEmitRacingClose(t *testing.T) {
	const producers = 8
	trials := 1000
	if testing.Short() {
		trials = 200
	}
	// The race needs producers running beside the closer: ask for at
	// least four Ps on a smaller machine.
	if runtime.GOMAXPROCS(0) < 4 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	}
	deadline := time.Now().Add(3 * time.Second)
	for trial := 0; trial < trials && time.Now().Before(deadline); trial++ {
		db, err := engine.Open(engine.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		s, err := stream.Open(db, stream.Options{
			MaxBatch:  64,
			QueueSize: 64,
			Clock:     clock.NewManual(time.Unix(0, 0)),
		})
		if err != nil {
			t.Fatal(err)
		}
		var accepted atomic.Uint64
		refusals := make(chan error, producers)
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					if err := s.Raise("tick"); err != nil {
						refusals <- err
						return
					}
					accepted.Add(1)
				}
			}()
		}
		for accepted.Load() < 64 {
			runtime.Gosched()
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		close(refusals)
		for err := range refusals {
			if !errors.Is(err, stream.ErrClosed) {
				t.Fatalf("trial %d: Emit racing Close returned %v, want ErrClosed", trial, err)
			}
		}
		n, st := accepted.Load(), s.Stats()
		if st.Enqueued != n || st.Events != n {
			t.Fatalf("trial %d: %d Emits returned nil, but %d were enqueued and %d swept",
				trial, n, st.Enqueued, st.Events)
		}
	}
}

// parkedStream opens a stream with MaxBatch 1 whose sweep goroutine is
// parked when it returns: an item modification trips GasPerBatch 1, and
// the refused batch's OnBatchError waits until release is called.
// Signals spend no gas, so they sweep cleanly once it is released.
func parkedStream(t *testing.T, opts stream.Options) (s *stream.Stream, release func()) {
	t.Helper()
	db, err := engine.Open(engine.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defineStreamCatalog(t, db)
	oids := seedItems(t, db, 1)
	parked, hold := make(chan struct{}), make(chan struct{})
	var once sync.Once
	opts.MaxBatch = 1
	opts.GasPerBatch = 1
	opts.Clock = clock.NewManual(time.Unix(0, 0))
	opts.OnBatchError = func(*stream.BatchError) {
		once.Do(func() {
			close(parked)
			<-hold
		})
	}
	if s, err = stream.Open(db, opts); err != nil {
		t.Fatal(err)
	}
	if err := s.Emit(event.Modify("item", "n"), oids[0]); err != nil {
		t.Fatal(err)
	}
	<-parked
	return s, func() { close(hold) }
}

// raiseAll runs one producer per signal and returns the channel their
// Raise results arrive on.
func raiseAll(s *stream.Stream, n int) <-chan error {
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() { errs <- s.Raise("late") }()
	}
	return errs
}

// waitRoom waits until n goroutines wait inside Emit for ring room.
func waitRoom(t *testing.T, n int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	waitStream(t, func() bool {
		waiting := 0
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "sync.(*Cond).Wait") && strings.Contains(g, "stream.(*Stream).Emit") {
				waiting++
			}
		}
		return waiting >= n
	})
}

// collect receives n results from errs, failing the test when they do
// not all arrive within five seconds.
func collect(t *testing.T, errs <-chan error, n int) []error {
	t.Helper()
	out := make([]error, 0, n)
	timeout := time.After(5 * time.Second)
	for len(out) < n {
		select {
		case err := <-errs:
			out = append(out, err)
		case <-timeout:
			t.Fatalf("%d of %d producers returned", len(out), n)
		}
	}
	return out
}

// TestStreamRingBackpressure drives the arrival ring against a parked
// sweep goroutine: Block producers wait on a full ring and wake when
// the sweep takes a batch or Close runs, Drop sheds exactly the
// overflow, and QueueDepth reports the ring's occupancy.
func TestStreamRingBackpressure(t *testing.T) {
	const size, late = 4, 3
	fill := func(t *testing.T, s *stream.Stream, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := s.Raise("fill"); err != nil {
				t.Fatal(err)
			}
		}
	}

	t.Run("block-wakes-on-take", func(t *testing.T) {
		s, release := parkedStream(t, stream.Options{QueueSize: size})
		fill(t, s, size)
		if d := s.Stats().QueueDepth; d != size {
			t.Fatalf("QueueDepth = %d on a full ring, want %d", d, size)
		}
		errs := raiseAll(s, late)
		waitRoom(t, late)
		release()
		for _, err := range collect(t, errs, late) {
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		st := s.Stats()
		if st.Enqueued != 1+size+late || st.Events != size+late || st.Dropped != 0 || st.QueueDepth != 0 {
			t.Fatalf("enqueued %d, swept %d, dropped %d, depth %d; want %d, %d, 0, 0",
				st.Enqueued, st.Events, st.Dropped, st.QueueDepth, 1+size+late, size+late)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("block-refused-on-close", func(t *testing.T) {
		s, release := parkedStream(t, stream.Options{QueueSize: size})
		fill(t, s, size)
		errs := raiseAll(s, late)
		waitRoom(t, late)
		closed := make(chan error, 1)
		go func() { closed <- s.Close() }()
		// The sweep goroutine is still parked: Close alone must wake the
		// waiting producers.
		for _, err := range collect(t, errs, late) {
			if !errors.Is(err, stream.ErrClosed) {
				t.Fatalf("producer waiting on a full ring got %v at Close, want ErrClosed", err)
			}
		}
		release()
		if err := <-closed; err != nil {
			t.Fatal(err)
		}
		if st := s.Stats(); st.Enqueued != 1+size || st.Events != size || st.QueueDepth != 0 {
			t.Fatalf("enqueued %d, swept %d, depth %d; want %d, %d, 0",
				st.Enqueued, st.Events, st.QueueDepth, 1+size, size)
		}
	})

	t.Run("drop-counts-the-overflow", func(t *testing.T) {
		s, release := parkedStream(t, stream.Options{QueueSize: size, Backpressure: stream.Drop})
		fill(t, s, size+late)
		st := s.Stats()
		if st.Enqueued != 1+size || st.Dropped != late || st.QueueDepth != size {
			t.Fatalf("enqueued %d, dropped %d, depth %d; want %d, %d, %d",
				st.Enqueued, st.Dropped, st.QueueDepth, 1+size, late, size)
		}
		release()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if st := s.Stats(); st.Events != size || st.Enqueued+st.Dropped != 1+size+late {
			t.Fatalf("swept %d, enqueued %d + dropped %d; want %d swept of %d produced",
				st.Events, st.Enqueued, st.Dropped, size, 1+size+late)
		}
	})
}

// TestStreamRingZeroesSlots checks the sweep zeroes every slot it takes,
// so the ring keeps no event's strings alive once they are swept.
func TestStreamRingZeroesSlots(t *testing.T) {
	db, err := engine.Open(engine.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s, err := stream.Open(db, stream.Options{
		MaxBatch:  3,
		QueueSize: 8,
		Clock:     clock.NewManual(time.Unix(0, 0)),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 21; i++ { // wraps the ring more than twice
		if err := s.Raise(fmt.Sprintf("signal-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, ev := range stream.RingSlots(s) {
		if ev != (stream.Event{}) {
			t.Errorf("slot %d still holds %v after the sweep took it", i, ev)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamEmitAllocatesNothing pins the warm hand-off: an Emit into a
// ring with room allocates nothing, metrics registry included.
func TestStreamEmitAllocatesNothing(t *testing.T) {
	o := engine.DefaultOptions()
	o.Metrics = metrics.NewRegistry()
	db, err := engine.Open(o)
	if err != nil {
		t.Fatal(err)
	}
	// A batch bound above every arrival: no sweep runs inside the
	// measurement, so only Emit and the sweep goroutine's take allocate.
	s, err := stream.Open(db, stream.Options{
		MaxBatch:  4096,
		QueueSize: 4096,
		Clock:     clock.NewManual(time.Unix(0, 0)),
	})
	if err != nil {
		t.Fatal(err)
	}
	ty := event.External("tick")
	if err := s.Emit(ty, types.NilOID); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := s.Emit(ty, types.NilOID); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a warm Emit allocates %.2f times, want 0", allocs)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// spanCount is a tracer that counts the spans it sees open and close.
type spanCount struct {
	engine.NopTracer
	blocks, blockEnds, sweeps, sweepEnds, txns, txnEnds atomic.Int64
}

func (c *spanCount) BlockStart(int)                { c.blocks.Add(1) }
func (c *spanCount) BlockEnd(int, []string)        { c.blockEnds.Add(1) }
func (c *spanCount) SweepStart(clock.Time)         { c.sweeps.Add(1) }
func (c *spanCount) SweepEnd(int, int)             { c.sweepEnds.Add(1) }
func (c *spanCount) TransactionStart(clock.Time)   { c.txns.Add(1) }
func (c *spanCount) TransactionEnd(committed bool) { c.txnEnds.Add(1) }

// TestSetTracerWhileStreaming swaps the tracer (and removes it) over and
// over while a stream's sweep goroutine runs blocks. Under -race the swap
// must be clean, and every tracer must see each span it saw open also
// close: a block, a sweep and a transaction each report to the tracer
// installed when they began.
func TestSetTracerWhileStreaming(t *testing.T) {
	db, err := engine.Open(engine.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defineStreamCatalog(t, db)
	oids := seedItems(t, db, 4)
	tracers := []*spanCount{{}, {}, {}}
	db.SetTracer(tracers[0])
	s, err := stream.Open(db, stream.Options{
		MaxBatch: 4,
		Clock:    clock.NewManual(time.Unix(0, 0)),
	})
	if err != nil {
		t.Fatal(err)
	}
	stop, swapped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(swapped)
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%4 == 3 {
				db.SetTracer(nil)
			} else {
				db.SetTracer(tracers[i%4])
			}
			runtime.Gosched()
		}
	}()
	for i := 0; i < 2000; i++ {
		if err := s.Emit(event.Modify("item", "n"), oids[i%len(oids)]); err != nil {
			t.Fatal(err)
		}
		if i%100 == 99 {
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	<-swapped
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var blocks int64
	for i, c := range tracers {
		if c.blocks.Load() != c.blockEnds.Load() || c.sweeps.Load() != c.sweepEnds.Load() ||
			c.txns.Load() != c.txnEnds.Load() {
			t.Errorf("tracer %d: %d/%d blocks, %d/%d sweeps, %d/%d transactions opened/closed", i,
				c.blocks.Load(), c.blockEnds.Load(), c.sweeps.Load(), c.sweepEnds.Load(),
				c.txns.Load(), c.txnEnds.Load())
		}
		blocks += c.blocks.Load()
	}
	if blocks == 0 {
		t.Error("no tracer saw a block")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}
