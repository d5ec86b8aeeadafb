package torture

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"chimera"
	"chimera/internal/calculus"
	"chimera/internal/clock"
	"chimera/internal/engine"
	"chimera/internal/event"
	"chimera/internal/storage"
	"chimera/internal/stream"
	"chimera/internal/types"
)

// The refusal differential's limits. Every block sweeps under a budget
// of refusalGas, as a stream's GasPerBatch gives it; only a heavy block,
// whose events reach the instance-oriented rule over h on hundreds of
// objects, spends it all. A loop block's cascade never ends, and a flood
// block logs past MaxEvents.
const (
	refusalGas   = 300
	refusalRules = 60
	refusalLive  = 3000
)

// refusal is why a block is to be refused, or accepted.
type refusal int

const (
	accepted refusal = iota
	byGas
	byRuleLimit
	byEventLimit
)

func (r refusal) err() error {
	return [...]error{nil, chimera.ErrGasExhausted, chimera.ErrRuleLimit, chimera.ErrEventLimit}[r]
}

// refusalBlock is one block of arrivals and the refusal it must meet.
type refusalBlock struct {
	evs    []stream.Event
	refuse refusal
}

// refusalProgram renders the catalogue and the rules: classes c0..c2
// and h, k; nRules rules drawn from immediate or deferred coupling,
// consuming or preserving consumption and set or instance granularity,
// each incrementing the objects it binds while their n is below 4, so
// every cascade of accepted blocks ends; heavy, the instance-oriented
// rule over h that a heavy block's events make expensive; and loop, a
// cascade over k that never ends once external(boom) starts it.
func refusalProgram(r *rand.Rand, nRules int) string {
	var b strings.Builder
	b.WriteString(classSrc(3))
	b.WriteString("class h (n: integer)\nclass k (n: integer)\n")
	instance := []string{"create += modify(n)", "create <= modify(n)", "modify(n) ,= delete", "create ,= modify(n)"}
	for i := 0; i < nRules; i++ {
		var mods []string
		if r.Intn(3) == 0 {
			mods = append(mods, "deferred")
		}
		if r.Intn(3) == 0 {
			mods = append(mods, "preserving")
		}
		mod := strings.Join(append(mods, ""), " ")
		c := className(r.Intn(3))
		if r.Intn(2) == 0 {
			e := deepNestSrc(r, r.Intn(2), 3)
			fmt.Fprintf(&b, "define %sr%d priority %d\nevents %s\ncondition %s(S), S.n < 4\naction modify(%s.n, S, S.n + 1)\nend\n",
				mod, i, r.Intn(4), e, c, c)
			continue
		}
		e := instance[r.Intn(len(instance))]
		fmt.Fprintf(&b, "define %sr%d for %s priority %d\nevents %s\ncondition %s(S), occurred(%s, S), S.n < 4\naction modify(n, S, S.n + 1)\nend\n",
			mod, i, c, r.Intn(4), e, c, e)
	}
	b.WriteString("define heavy for h priority 5\nevents create += modify(n)\nend\n")
	b.WriteString("define loop priority 9\nevents external(boom) , modify(k.n)\ncondition k(K)\naction modify(k.n, K, K.n + 1)\nend\n")
	return b.String()
}

// refusalBlocks draws n blocks over the seeded objects: most are a few
// arrivals the generated rules listen to, about one in four is marked to
// be refused by gas, by the rule limit or by the event limit.
func refusalBlocks(r *rand.Rand, n int, objs []types.OID) []refusalBlock {
	blocks := make([]refusalBlock, n)
	for i := range blocks {
		bl := &blocks[i]
		for j := 1 + r.Intn(5); j > 0; j-- {
			oid := objs[r.Intn(len(objs))]
			c := className(int(oid-1) % 3)
			ty := []event.Type{event.Create(c), event.Modify(c, "n"), event.Delete(c)}[r.Intn(3)]
			bl.evs = append(bl.evs, stream.Event{Type: ty, OID: oid})
		}
		if r.Intn(4) != 0 {
			continue
		}
		bl.refuse = refusal(1 + r.Intn(3))
		switch bl.refuse {
		case byGas:
			for o := 0; o < 200; o++ {
				bl.evs = append(bl.evs, stream.Event{Type: event.Create("h"), OID: types.OID(10_000 + o)})
			}
		case byRuleLimit:
			bl.evs = append(bl.evs, stream.Event{Type: event.External("boom")})
		case byEventLimit:
			for o := 0; o < refusalLive; o++ {
				bl.evs = append(bl.evs, stream.Event{Type: event.External("flood")})
			}
		}
	}
	return blocks
}

// traceRec records the rule transitions a database reports. cut drops
// what a refused block recorded.
type traceRec struct {
	engine.NopTracer
	mu    sync.Mutex
	lines []string
}

func (r *traceRec) RuleTriggered(rule string, at clock.Time, events int) {
	r.add(fmt.Sprintf("triggered %s at=%d events=%d", rule, at, events))
}

func (r *traceRec) Considered(rule string, since, at clock.Time, bindings int) {
	r.add(fmt.Sprintf("considered %s since=%d at=%d bindings=%d", rule, since, at, bindings))
}

func (r *traceRec) add(s string) {
	r.mu.Lock()
	r.lines = append(r.lines, s)
	r.mu.Unlock()
}

func (r *traceRec) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.lines)
}

func (r *traceRec) cut(n int) {
	r.mu.Lock()
	r.lines = r.lines[:n]
	r.mu.Unlock()
}

func (r *traceRec) String() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return strings.Join(r.lines, "\n")
}

// refusalRun is what one entry point leaves: after every accepted block
// the object store (uncommitted writes included) and, where the entry
// point exposes them, the marks; then the firing trace and the store
// after commit.
type refusalRun struct {
	objects, marks []string
	trace, final   string
}

// refusalDB opens a database over the program and seeds two objects per
// class c0..c2 (OIDs 1..6, class c(i-1)%3) and three of k.
func refusalDB(t *testing.T, opts chimera.Options, src string) *chimera.DB {
	t.Helper()
	var db *chimera.DB
	if opts.Durability.Store != nil {
		var err error
		if db, err = chimera.OpenDurable(opts); err != nil {
			t.Fatal(err)
		}
	} else {
		db = chimera.OpenWith(opts)
	}
	if err := chimera.Load(db, src); err != nil {
		t.Fatal(err)
	}
	if err := db.Run(func(tx *chimera.Txn) error {
		for i := 0; i < 6; i++ {
			if _, err := tx.Create(className(i%3), map[string]types.Value{"n": types.Int(0)}); err != nil {
				return err
			}
		}
		for i := 0; i < 3; i++ {
			if _, err := tx.Create("k", map[string]types.Value{"n": types.Int(0)}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return db
}

// limitOpts are the subject entry points' options: the rule and event
// limits the marked blocks trip.
func limitOpts() chimera.Options {
	o := chimera.DefaultOptions()
	o.MaxRuleExecutions = refusalRules
	o.MaxEvents = refusalLive
	return o
}

// sweepBlock runs one block on a line as a stream's sweep does: a fresh
// cascade guard and gas budget, the arrivals, EndLine. It returns the
// first error, after which the line stands at the last savepoint.
func sweepBlock(tx *chimera.Txn, bl refusalBlock) error {
	if err := tx.ResetRuleGuard(); err != nil {
		return err
	}
	if err := tx.SetBudget(calculus.NewBudget(refusalGas, time.Time{})); err != nil {
		return err
	}
	defer tx.SetBudget(nil) //nolint:errcheck
	for _, ev := range bl.evs {
		if err := tx.Emit(ev.Type, ev.OID); err != nil {
			return err
		}
	}
	return tx.EndLine()
}

// checkRefusal fails unless err is the refusal the block was marked for.
func checkRefusal(t *testing.T, i int, bl refusalBlock, err error) {
	t.Helper()
	if want := bl.refuse.err(); (want == nil) != (err == nil) || (want != nil && !errors.Is(err, want)) {
		t.Fatalf("block %d (%d arrivals, refusal %d): %v, want %v", i, len(bl.evs), bl.refuse, err, want)
	}
}

// runTxn drives the blocks through one Txn on a database admitting
// sessions lines, EndLine per block. clocks receives the logical clock
// after every block.
func runTxn(t *testing.T, src string, blocks []refusalBlock, sessions int) (refusalRun, []clock.Time) {
	t.Helper()
	opts := limitOpts()
	opts.MaxSessions = sessions
	db := refusalDB(t, opts, src)
	tr := &traceRec{}
	db.SetTracer(tr)
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	var run refusalRun
	var clocks []clock.Time
	for i, bl := range blocks {
		n := tr.len()
		err := sweepBlock(tx, bl)
		checkRefusal(t, i, bl, err)
		clocks = append(clocks, db.Clock().Now())
		if err != nil {
			tr.cut(n)
			continue
		}
		run.objects = append(run.objects, objFingerprint(db))
		run.marks = append(run.marks, marksFingerprint(t, tx))
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	run.trace, run.final = tr.String(), objFingerprint(db)
	return run, clocks
}

// runStream drives the blocks through a stream session, one batch per
// block.
func runStream(t *testing.T, src string, blocks []refusalBlock) refusalRun {
	t.Helper()
	db := refusalDB(t, limitOpts(), src)
	tr := &traceRec{}
	db.SetTracer(tr)
	s, err := stream.Open(db, stream.Options{
		MaxBatch:    2 * refusalLive,
		QueueSize:   2 * refusalLive,
		GasPerBatch: refusalGas,
		Clock:       clock.NewManual(time.Unix(0, 0)),
	})
	if err != nil {
		t.Fatal(err)
	}
	var run refusalRun
	for i, bl := range blocks {
		n := tr.len()
		for _, ev := range bl.evs {
			if err := s.Emit(ev.Type, ev.OID); err != nil {
				t.Fatal(err)
			}
		}
		err := s.Flush()
		checkRefusal(t, i, bl, err)
		if err != nil {
			tr.cut(n)
			continue
		}
		run.objects = append(run.objects, objFingerprint(db))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	run.trace, run.final = tr.String(), objFingerprint(db)
	return run
}

// runDurable drives the blocks through the line a durable stream runs
// on — Emit and EndLine per block on a durable database — crashing
// after every block: the store is cloned, and the next block runs on
// the transaction Recover returns from the clone. The log never saw a
// refused block, so the recovered clock stands where the savepoint left
// it.
func runDurable(t *testing.T, src string, blocks []refusalBlock) refusalRun {
	t.Helper()
	opts := limitOpts()
	store := storage.NewMemStore()
	opts.Durability = chimera.DurabilityOptions{Store: store, Fsync: chimera.FsyncOff}
	db := refusalDB(t, opts, src)
	tr := &traceRec{}
	db.SetTracer(tr)
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	var run refusalRun
	for i, bl := range blocks {
		n := tr.len()
		err := sweepBlock(tx, bl)
		checkRefusal(t, i, bl, err)
		if err != nil {
			tr.cut(n)
		} else {
			run.objects = append(run.objects, objFingerprint(db))
			run.marks = append(run.marks, marksFingerprint(t, tx))
		}
		if err := db.SyncWAL(); err != nil {
			t.Fatal(err)
		}
		store = store.Clone()
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		opts.Durability.Store = store
		if db, tx, _, err = chimera.Recover(opts); err != nil {
			t.Fatalf("block %d: recover: %v", i, err)
		}
		if tx == nil {
			t.Fatalf("block %d: recovery lost the open transaction", i)
		}
		db.SetTracer(tr)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	run.trace, run.final = tr.String(), objFingerprint(db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return run
}

// runOracle runs only the accepted blocks, on a fresh database with no
// limits. With clocks, the clock also moves past each refused block to
// where the subject's stood after it, as a refused block's ticks stay
// consumed on a live line.
func runOracle(t *testing.T, src string, blocks []refusalBlock, clocks []clock.Time) refusalRun {
	t.Helper()
	db := refusalDB(t, chimera.DefaultOptions(), src)
	tr := &traceRec{}
	db.SetTracer(tr)
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	var run refusalRun
	for i, bl := range blocks {
		if bl.refuse != accepted {
			if clocks != nil {
				db.Clock().AdvanceTo(clocks[i])
			}
			continue
		}
		for _, ev := range bl.evs {
			if err := tx.Emit(ev.Type, ev.OID); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.EndLine(); err != nil {
			t.Fatalf("oracle block %d: %v", i, err)
		}
		run.objects = append(run.objects, objFingerprint(db))
		run.marks = append(run.marks, marksFingerprint(t, tx))
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	run.trace, run.final = tr.String(), objFingerprint(db)
	return run
}

// compareRuns fails at the first difference between an entry point's
// run and the oracle's. A stream's marks only its trace shows.
func compareRuns(t *testing.T, name string, got, want refusalRun) {
	t.Helper()
	if len(got.objects) != len(want.objects) {
		t.Fatalf("%s: %d accepted blocks, the oracle %d", name, len(got.objects), len(want.objects))
	}
	for i := range got.objects {
		if got.objects[i] != want.objects[i] {
			t.Fatalf("%s: store after accepted block %d\n%s\nthe oracle's\n%s", name, i, got.objects[i], want.objects[i])
		}
		if got.marks != nil && got.marks[i] != want.marks[i] {
			t.Fatalf("%s: marks after accepted block %d\n%s\nthe oracle's\n%s", name, i, got.marks[i], want.marks[i])
		}
	}
	if got.trace != want.trace {
		t.Fatalf("%s: firing trace\n%s\nthe oracle's\n%s", name, got.trace, want.trace)
	}
	if got.final != want.final {
		t.Fatalf("%s: committed store\n%s\nthe oracle's\n%s", name, got.final, want.final)
	}
}

// refusalSeeds is the number of seeds TestTorture_Differential_RefusedBlocks
// runs: 16 by default, more under make torture.
var refusalSeeds = flag.Int("torture.seeds", 16, "seeds of the refused-block differential")

// TestTorture_Differential_RefusedBlocks: a line whose refused blocks
// roll back to their savepoints ends exactly as a line that never ran
// them — same object store after every accepted block and after commit,
// same marks, same firing trace — whether the blocks go through a Txn
// (EndLine per block) in single-session mode or on one of two admitted
// lines, a stream session (a batch per block) or a durable line
// recovered after every block. The blocks are refused by the gas
// budget, by MaxRuleExecutions and by MaxEvents. The generated rules
// create no objects, so the OIDs a latched line consumes do not show.
func TestTorture_Differential_RefusedBlocks(t *testing.T) {
	kinds := map[refusal]int{}
	for seed := int64(1); seed <= int64(*refusalSeeds); seed++ {
		r := rand.New(rand.NewSource(seed))
		src := refusalProgram(r, 10)
		var objs []types.OID
		for oid := types.OID(1); oid <= 6; oid++ {
			objs = append(objs, oid)
		}
		blocks := refusalBlocks(r, 24, objs)
		for _, bl := range blocks {
			kinds[bl.refuse]++
		}
		txnRun, clocks := runTxn(t, src, blocks, 1)
		ticked := runOracle(t, src, blocks, clocks)
		compareRuns(t, fmt.Sprintf("seed %d txn", seed), txnRun, ticked)
		multiRun, _ := runTxn(t, src, blocks, 2)
		compareRuns(t, fmt.Sprintf("seed %d multi-session txn", seed), multiRun, ticked)
		compareRuns(t, fmt.Sprintf("seed %d stream", seed), runStream(t, src, blocks), ticked)
		compareRuns(t, fmt.Sprintf("seed %d durable", seed), runDurable(t, src, blocks),
			runOracle(t, src, blocks, nil))
	}
	for _, k := range []refusal{accepted, byGas, byRuleLimit, byEventLimit} {
		if kinds[k] == 0 {
			t.Errorf("no block of kind %d: the generator misses a refusal", k)
		}
	}
}
