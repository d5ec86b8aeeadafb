package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"chimera"
)

// readSpec is read_mostly: an in-memory two-line database of account
// pairs. One reader goroutine runs snapshot reads back to back (BeginRead,
// eight Get over four pairs, Close; every 64th also one Select of the
// whole class) and is the unit of work; one writer goroutine commits, on a
// fixed schedule, transactions that set both members of a pair to one new
// value. Every read checks that the two members of each pair it saw are
// equal: a snapshot that exposed half a commit would break that.
type readSpec struct {
	name       string
	accts      int
	writerRate float64 // commits/s, open loop, fixed
	limitMs    float64 // frozen latency limit of the writer's schedule
}

const (
	readPairsPerTxn = 4
	readSelectEvery = 64
	readPool        = 1 << 16
)

// readInput is the pre-generated input of both goroutines: the pairs each
// read transaction visits, and the pair and value of each write.
type readInput struct {
	reads  [][readPairsPerTxn]int32
	wpair  []int32
	wvalue []int64
}

// newReadInput draws pairs uniformly; one written value in sixteen is
// negative, which the floor rule raises back to zero.
func newReadInput(seed int64, accts int) *readInput {
	r := rand.New(rand.NewSource(seed))
	pairs := accts / 2
	in := &readInput{
		reads:  make([][readPairsPerTxn]int32, readPool),
		wpair:  make([]int32, readPool),
		wvalue: make([]int64, readPool),
	}
	for i := range in.reads {
		for k := range in.reads[i] {
			in.reads[i][k] = int32(r.Intn(pairs))
		}
		in.wpair[i] = int32(r.Intn(pairs))
		in.wvalue[i] = int64(r.Intn(1024) - 64)
	}
	return in
}

// readDB is one opened database of the workload.
type readDB struct {
	sp   *readSpec
	in   *readInput
	db   *chimera.DB
	acct []chimera.OID
	tr   *spanTracer

	reads      atomic.Int64 // read transactions completed
	violations atomic.Int64 // reads that saw a broken pair or a short class
	epochs     atomic.Int64 // reads that pinned a newer epoch than the one before
	writes     int64        // next write index (writer goroutine only)
	rnext      int64        // next read index (reader goroutine only)
	commitNs   []int64      // Commit call durations, kept while tracing (writer goroutine only)
}

func (sp *readSpec) open(in *readInput, reg *chimera.MetricsRegistry) (*readDB, error) {
	opts := chimera.DefaultOptions()
	opts.MaxSessions = 2
	opts.Metrics = reg
	h := &readDB{sp: sp, in: in, db: chimera.OpenWith(opts)}
	if err := chimera.Load(h.db, readCatalogue); err != nil {
		return nil, err
	}
	var err error
	h.acct, err = sp.populate(h.db)
	return h, err
}

// discard drops the database; an in-memory engine holds nothing else.
func (h *readDB) discard() error { return h.db.Close() }

// populate creates the accounts, all at balance zero.
func (sp *readSpec) populate(db *chimera.DB) ([]chimera.OID, error) {
	acct := make([]chimera.OID, 0, sp.accts)
	err := db.Run(func(tx *chimera.Txn) error {
		for i := 0; i < sp.accts; i++ {
			oid, err := tx.Create("acct", chimera.Values{"balance": chimera.Int(0)})
			if err != nil {
				return err
			}
			acct = append(acct, oid)
		}
		return nil
	})
	return acct, err
}

// write commits the writer's next transaction.
func (h *readDB) write() error {
	i := h.writes % readPool
	h.writes++
	if h.tr != nil {
		h.tr.opStart()
		defer h.tr.opEnd()
	}
	a, b, v := h.acct[2*h.in.wpair[i]], h.acct[2*h.in.wpair[i]+1], chimera.Int(h.in.wvalue[i])
	tx, err := h.db.Begin()
	if err != nil {
		return err
	}
	if err := errors.Join(tx.Modify(a, "balance", v), tx.Modify(b, "balance", v)); err != nil {
		tx.Rollback() //nolint:errcheck // the Modify error is the one to report
		return err
	}
	t0 := time.Now()
	err = tx.Commit()
	if h.tr != nil {
		h.commitNs = append(h.commitNs, time.Since(t0).Nanoseconds())
	}
	return err
}

// read runs the reader's next transaction. lastEpoch is the epoch the
// previous one pinned.
func (h *readDB) read(lastEpoch uint64) uint64 {
	i := h.rnext
	h.rnext++
	rt := h.db.BeginRead()
	for _, pair := range h.in.reads[i%readPool] {
		a, okA := rt.Get(h.acct[2*pair])
		b, okB := rt.Get(h.acct[2*pair+1])
		if !okA || !okB || a.MustGet("balance").AsInt() != b.MustGet("balance").AsInt() {
			h.violations.Add(1)
		}
	}
	if i%readSelectEvery == 0 {
		if all, err := rt.Select("acct"); err != nil || len(all) != h.sp.accts {
			h.violations.Add(1)
		}
	}
	epoch := rt.Epoch()
	rt.Close()
	if epoch != lastEpoch {
		h.epochs.Add(1)
	}
	h.reads.Add(1)
	return epoch
}

// run is the workload's one measured shape: the reader in a closed loop
// beside the writer on its schedule, for dur. It returns the reader's
// windows and the writer's commit latencies and lateness, in due order.
func (h *readDB) run(dur time.Duration, nwin int) (ws []window, latency, late []int64, err error) {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		var epoch uint64
		for {
			select {
			case <-stop:
				return
			default:
				epoch = h.read(epoch)
				// The reader yields between transactions, so that the
				// collector's workers and the sampling goroutine get a
				// processor without waiting for a preemption.
				runtime.Gosched()
			}
		}
	}()
	var werr error
	go func() {
		defer wg.Done()
		// Where there are two processors the writer keeps one to itself.
		how := spinYield
		if runtime.GOMAXPROCS(0) >= 2 {
			how = spinBusy
		}
		p := newPacer(h.sp.writerRate, how)
		for i := int64(0); p.due(i) < dur; i++ {
			lateBy := p.wait(i)
			if werr = h.write(); werr != nil {
				return
			}
			latency = append(latency, int64(time.Since(p.start)-p.due(i)))
			late = append(late, int64(lateBy))
		}
	}()
	for w := 0; w < nwin; w++ {
		n0 := h.reads.Load()
		m := startMeter()
		time.Sleep(dur / time.Duration(nwin))
		u := m.stop()
		ws = append(ws, window{n: h.reads.Load() - n0, u: u})
	}
	close(stop)
	wg.Wait()
	return ws, latency, late, werr
}

// verify checks the quiescent database: no read saw a broken pair, every
// pair is equal and not negative, and the engine began as many
// transactions as the writer committed.
func (h *readDB) verify(txns0 int64) error {
	if v := h.violations.Load(); v != 0 {
		return fmt.Errorf("%s: %d reads saw the two members of a pair differ", h.sp.name, v)
	}
	rt := h.db.BeginRead()
	defer rt.Close()
	for p := 0; p < h.sp.accts/2; p++ {
		a, _ := rt.Get(h.acct[2*p])
		b, _ := rt.Get(h.acct[2*p+1])
		if a == nil || b == nil {
			return fmt.Errorf("%s: pair %d vanished", h.sp.name, p)
		}
		if va, vb := a.MustGet("balance").AsInt(), b.MustGet("balance").AsInt(); va != vb || va < 0 {
			return fmt.Errorf("%s: pair %d ends at %d and %d", h.sp.name, p, va, vb)
		}
	}
	if begun := h.db.Stats().Transactions - txns0; begun != h.writes {
		return fmt.Errorf("%s: %d transactions begun, %d written", h.sp.name, begun, h.writes)
	}
	return nil
}

// gate is the deterministic correctness pass: each of the first writes,
// run alone, must be visible to the next read at its floored value.
func (sp *readSpec) gate(c *config, in *readInput) error {
	n := 400
	if c.smoke {
		n = 50
	}
	h, err := sp.open(in, nil)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if err := h.write(); err != nil {
			return fmt.Errorf("%s gate: %w", sp.name, err)
		}
		want := max(in.wvalue[i], 0)
		rt := h.db.BeginRead()
		a, _ := rt.Get(h.acct[2*in.wpair[i]])
		b, _ := rt.Get(h.acct[2*in.wpair[i]+1])
		rt.Close()
		if a == nil || b == nil || a.MustGet("balance").AsInt() != want || b.MustGet("balance").AsInt() != want {
			return fmt.Errorf("%s gate: write %d of %d to pair %d reads back as %v, %v", sp.name, i, in.wvalue[i], in.wpair[i], a, b)
		}
	}
	if h.db.Stats().RuleExecutions == 0 {
		return fmt.Errorf("%s gate: the floor rule never executed", sp.name)
	}
	return nil
}

func (sp *readSpec) e2e(c *config) (*outcome, error) {
	in := newReadInput(c.seed, sp.accts)
	if err := sp.gate(c, in); err != nil {
		return nil, err
	}
	out := newOutcome()
	heap0 := liveHeapMB()
	h, setup, err := setUp(c, func() (*readDB, error) { return sp.open(in, nil) })
	if err != nil {
		return nil, err
	}
	out.set("setup_s", setup)
	txns0 := h.db.Stats().Transactions

	if _, _, _, err := h.run(c.phase(0.1), 1); err != nil {
		return nil, err
	}
	ws, _, _, err := h.run(c.phase(0.9), windows(c.phase(0.9)))
	if err != nil {
		return nil, err
	}
	out.usage(ws)
	out.set("live_heap_mb", liveHeapMB()-heap0)
	if err := h.verify(txns0); err != nil {
		return nil, err
	}
	out.attempted, out.failed = h.reads.Load(), h.violations.Load()
	return out, nil
}

// kernel describes the workload to the kernels: a block is one write
// transaction's two modifications.
func (sp *readSpec) kernel(in *readInput) *kernelSpec {
	ty := chimera.ModifyOf("acct", "balance")
	return &kernelSpec{
		catalogue: readCatalogue, sessions: 2, block: 2,
		seed: sp.populate,
		at: func(i int64) (chimera.EventType, int) {
			return ty, 2*int(in.wpair[(i/2)%readPool]) + int(i%2)
		},
		rule: "floor", class: "acct", attr: "balance",
	}
}

// layers is the traced pass. The workload has no rate ladder: the writer's
// one rate is sustained or not. The ledger's unit of work is the writer's
// transaction — the reader never enters the engine's rule machinery — and
// the reader contributes the stale-snapshot ratio.
func (sp *readSpec) layers(c *config) (*outcome, error) {
	in := newReadInput(c.seed, sp.accts)
	out := newOutcome()

	h, err := sp.open(in, nil)
	if err != nil {
		return nil, err
	}
	txns0 := h.db.Stats().Transactions
	if _, _, _, err := h.run(c.phase(0.05), 1); err != nil {
		return nil, err
	}
	ws, latency, late, err := h.run(c.phase(0.3), 1)
	if err != nil {
		return nil, err
	}
	plain := ws[0].rate()
	writer := &paced{latency: latency, late: late}
	out.ladder([]float64{sp.writerRate}, []verdict{judge(sp.limitMs, writer, 0, false)}, 0, writer)
	if err := h.verify(txns0); err != nil {
		return nil, err
	}
	out.attempted, out.failed = h.reads.Load(), h.violations.Load()

	reg := chimera.NewMetricsRegistry()
	tr := newSpanTracer(false, false)
	if h, err = sp.open(in, reg); err != nil {
		return nil, err
	}
	txns0 = h.db.Stats().Transactions
	if _, _, _, err := h.run(c.phase(0.05), 1); err != nil {
		return nil, err
	}
	if ws, _, _, err = h.run(c.phase(0.2), 1); err != nil {
		return nil, err
	}
	withRegistry := ws[0].rate()

	h.tr = tr
	h.db.SetTracer(tr)
	p := &tracedPhase{tr: tr, reg0: h.db.Snapshot(), stats0: h.db.Stats()}
	reads0, epochs0, writes0 := h.reads.Load(), h.epochs.Load(), h.writes
	if ws, _, _, err = h.run(c.phase(0.3), 1); err != nil {
		return nil, err
	}
	h.db.SetTracer(nil)
	withTracer := ws[0].rate()
	p.wall, p.ops, p.commits = ws[0].u.wall, h.writes-writes0, h.writes-writes0
	p.reg1, p.stats1 = h.db.Snapshot(), h.db.Stats()
	out.ledger(p)
	out.overheads(plain, withRegistry, withTracer)
	out.set("engine.commit_us_p50", us(quantile(h.commitNs, 0.5)))
	out.set("object.stale_snapshot_ratio", ratio(float64(h.epochs.Load()-epochs0), float64(h.reads.Load()-reads0)))
	if err := h.verify(txns0); err != nil {
		return nil, err
	}
	out.attempted += h.reads.Load()
	out.failed += h.violations.Load()

	if err := runKernels(c, sp.kernel(in), out); err != nil {
		return nil, fmt.Errorf("%s kernels: %w", sp.name, err)
	}
	return out, writeTrace(c, sp.name, tr, p.reg1)
}
