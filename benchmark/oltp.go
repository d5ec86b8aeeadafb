package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"chimera"
)

// oltpSpec is oltp_durable: two client goroutines on a two-line durable
// database (FileStore, FsyncPerCommit, no checkpoint during the run). A
// unit of work is a committed transaction: Begin, four Modify of
// stock.quantity on Zipf(1.1) keys (in key order, so two clients cannot
// deadlock), one Modify of the client's ledger object, Commit. A latch
// conflict rolls the transaction back and retries it, five times at most.
type oltpSpec struct {
	name    string
	stocks  int
	rates   [3]float64 // frozen open-loop rates, transactions/s over both clients
	limitMs float64    // frozen latency limit of the sustained-rate test
}

const (
	oltpClients    = 2
	oltpOpsPerTxn  = 4
	oltpMaxRetries = 5
	oltpMaxQty     = 40 // stock.maxquantity; written quantities are drawn from [0, 60)
	oltpPool       = 1 << 15
)

// oltpTxn is one pre-generated transaction: four distinct stock indices in
// ascending order and the quantities to write.
type oltpTxn struct {
	key [oltpOpsPerTxn]int32
	qty [oltpOpsPerTxn]int64
}

// oltpInput generates each client's transaction pool.
func oltpInput(seed int64, stocks int) [oltpClients][]oltpTxn {
	r := rand.New(rand.NewSource(seed))
	perm := r.Perm(stocks)
	draw := keyDraw(r, stocks, true)
	var in [oltpClients][]oltpTxn
	for c := range in {
		in[c] = make([]oltpTxn, oltpPool)
		for i := range in[c] {
			t := &in[c][i]
			for k := 0; k < oltpOpsPerTxn; {
				key := int32(perm[draw()])
				dup := false
				for _, prev := range t.key[:k] {
					dup = dup || prev == key
				}
				if !dup {
					t.key[k] = key
					k++
				}
			}
			sort.Slice(t.key[:], func(a, b int) bool { return t.key[a] < t.key[b] })
			for k := range t.qty {
				t.qty[k] = int64(r.Intn(60))
			}
		}
	}
	return in
}

// oltpDB is one opened database of the workload.
type oltpDB struct {
	sp     *oltpSpec
	in     [oltpClients][]oltpTxn
	db     *chimera.DB
	store  *meteredStore
	dir    string
	stock  []chimera.OID
	ledger [oltpClients]chimera.OID
	tr     *spanTracer // set in the traced pass: brackets every unit of work

	next     [oltpClients]int64   // next pool index per client
	acked    [oltpClients]int64   // transactions acknowledged per client (= last ledger seq)
	commitNs [oltpClients][]int64 // Commit call durations, kept while tracing
	commits  atomic.Int64
	retries  atomic.Int64
	failed   atomic.Int64
}

func (sp *oltpSpec) options(store chimera.SegmentStore, reg *chimera.MetricsRegistry) chimera.Options {
	opts := chimera.DefaultOptions()
	opts.MaxSessions = oltpClients
	opts.Metrics = reg
	opts.Durability = chimera.DurabilityOptions{Store: store, Fsync: chimera.FsyncPerCommit}
	return opts
}

// open is the workload's set-up: open the store, load the catalogue, seed
// the stock and the ledger objects.
func (sp *oltpSpec) open(c *config, in [oltpClients][]oltpTxn, reg *chimera.MetricsRegistry, tr *spanTracer) (*oltpDB, error) {
	h := &oltpDB{sp: sp, in: in, tr: tr}
	var err error
	if h.dir, err = os.MkdirTemp(c.tmp, sp.name+"-"); err != nil {
		return nil, err
	}
	fs, err := chimera.NewFileStore(h.dir)
	if err != nil {
		return nil, err
	}
	h.store = newMeteredStore(fs, tr)
	if h.db, err = chimera.OpenDurable(sp.options(h.store, reg)); err != nil {
		return nil, err
	}
	if err := chimera.Load(h.db, oltpCatalogue); err != nil {
		return nil, err
	}
	h.stock, h.ledger, err = seedStock(h.db, sp.stocks)
	return h, err
}

func seedStock(db *chimera.DB, stocks int) (stock []chimera.OID, ledger [oltpClients]chimera.OID, err error) {
	err = db.Run(func(tx *chimera.Txn) error {
		for i := 0; i < stocks; i++ {
			oid, err := tx.Create("stock", chimera.Values{"quantity": chimera.Int(0), "maxquantity": chimera.Int(oltpMaxQty)})
			if err != nil {
				return err
			}
			stock = append(stock, oid)
		}
		for c := range ledger {
			oid, err := tx.Create("ledger", chimera.Values{"client": chimera.Int(int64(c)), "seq": chimera.Int(0)})
			if err != nil {
				return err
			}
			ledger[c] = oid
		}
		return nil
	})
	return stock, ledger, err
}

func (h *oltpDB) discard() error {
	err := h.db.Close()
	if rerr := os.RemoveAll(h.dir); err == nil {
		err = rerr
	}
	return err
}

// attemptTxn runs one transaction once and returns how long its Commit
// call took.
func attemptTxn(db *chimera.DB, stock []chimera.OID, ledger chimera.OID, t *oltpTxn, seq int64) (time.Duration, error) {
	tx, err := db.Begin()
	if err != nil {
		return 0, err
	}
	for k, key := range t.key {
		if err := tx.Modify(stock[key], "quantity", chimera.Int(t.qty[k])); err != nil {
			tx.Rollback() //nolint:errcheck // the Modify error is the one to report
			return 0, err
		}
	}
	if err := tx.Modify(ledger, "seq", chimera.Int(seq)); err != nil {
		tx.Rollback() //nolint:errcheck // as above
		return 0, err
	}
	t0 := time.Now()
	err = tx.Commit() // rolls back by itself on error
	return time.Since(t0), err
}

// do runs client c's next unit of work to its acknowledged commit,
// retrying latch conflicts. It reports whether the transaction committed;
// an error is anything but a conflict.
func (h *oltpDB) do(c int) (bool, error) {
	t := &h.in[c][h.next[c]%oltpPool]
	h.next[c]++
	if h.tr != nil {
		h.tr.opStart()
		defer h.tr.opEnd()
	}
	for try := 0; ; try++ {
		commit, err := attemptTxn(h.db, h.stock, h.ledger[c], t, h.acked[c]+1)
		switch {
		case err == nil:
			h.acked[c]++
			h.commits.Add(1)
			if h.tr != nil {
				h.commitNs[c] = append(h.commitNs[c], commit.Nanoseconds())
			}
			return true, nil
		case !errors.Is(err, chimera.ErrConflict):
			return false, err
		case try == oltpMaxRetries:
			h.failed.Add(1)
			return false, nil
		}
		h.retries.Add(1)
		// The other line holds what this one needs until it commits; give
		// it the time to, a little longer at each retry.
		time.Sleep(50 * time.Microsecond << try)
	}
}

// saturate is the closed-loop phase: both clients run back to back for
// dur. The caller's goroutine reads the meters at the window boundaries.
func (h *oltpDB) saturate(dur time.Duration, nwin int) ([]window, error) {
	stop := make(chan struct{})
	errs := make(chan error, oltpClients)
	var wg sync.WaitGroup
	for c := 0; c < oltpClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := h.do(c); err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	out := make([]window, 0, nwin)
	for w := 0; w < nwin; w++ {
		n0 := h.commits.Load()
		m := startMeter()
		time.Sleep(dur / time.Duration(nwin))
		u := m.stop()
		out = append(out, window{n: h.commits.Load() - n0, u: u})
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		return nil, err
	default:
		return out, nil
	}
}

// openLoop deals transactions due at start + i/rate round-robin to the two
// clients; a client starts its next transaction when it is due or, if the
// client was still busy then, as soon as it is free. Latency runs from the
// due time to the acknowledged (durable) commit. The backlog it reports is
// the number of transactions already due but not yet started.
func (h *oltpDB) openLoop(rate float64, dur time.Duration) (res paced, err error) {
	type sample struct{ lat, late int64 }
	var per [oltpClients][]sample
	errs := make(chan error, oltpClients)
	p := newPacer(rate, sleepSpin)
	var started atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < oltpClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := int64(c); p.due(i) < dur; i += oltpClients {
				lateBy := p.wait(i)
				started.Add(1)
				ok, err := h.do(c)
				if err != nil {
					errs <- err
					return
				}
				if ok {
					per[c] = append(per[c], sample{lat: int64(time.Since(p.start) - p.due(i)), late: int64(lateBy)})
				}
			}
		}(c)
	}
	backlog := func() int {
		due := int64(float64(time.Since(p.start))/p.perOp) + 1
		return int(due - started.Load())
	}
	time.Sleep(dur / 2)
	res.depthMid = backlog()
	time.Sleep(dur - time.Since(p.start))
	res.depthEnd = backlog()
	wg.Wait()
	select {
	case err = <-errs:
		return paced{}, err
	default:
	}
	for i := 0; i < len(per[0]) || i < len(per[1]); i++ {
		for c := range per {
			if i < len(per[c]) {
				res.latency = append(res.latency, per[c][i].lat)
				res.late = append(res.late, per[c][i].late)
			}
		}
	}
	return res, nil
}

// verify checks, on the quiescent database, what must hold after any
// interleaving: every stock within its maximum, each ledger at its
// client's acknowledged count, and as many transactions begun as were
// committed or retried.
func (h *oltpDB) verify(txns0 int64) error {
	for _, oid := range h.stock {
		o, ok := h.db.Store().Get(oid)
		if !ok {
			return fmt.Errorf("%s: stock %v vanished", h.sp.name, oid)
		}
		if q := o.MustGet("quantity").AsInt(); q > oltpMaxQty || q < 0 {
			return fmt.Errorf("%s: %s escaped the cap rule", h.sp.name, o)
		}
	}
	for c, oid := range h.ledger {
		o, _ := h.db.Store().Get(oid)
		if o == nil || o.MustGet("seq").AsInt() != h.acked[c] {
			return fmt.Errorf("%s: client %d was acknowledged %d transactions, its ledger reads %v", h.sp.name, c, h.acked[c], o)
		}
	}
	begun := h.db.Stats().Transactions - txns0
	if want := h.commits.Load() + h.retries.Load() + h.failed.Load(); begun != want {
		return fmt.Errorf("%s: %d transactions begun, %d committed, retried or given up", h.sp.name, begun, want)
	}
	return nil
}

// copyStore copies the store directory, cutting wal.log to walLen bytes
// when walLen >= 0.
func copyStore(src, dst string, walLen int64) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		in, err := os.Open(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		out, err := os.Create(filepath.Join(dst, e.Name()))
		if err != nil {
			in.Close()
			return err
		}
		if e.Name() == "wal.log" && walLen >= 0 {
			_, err = io.CopyN(out, in, walLen)
		} else {
			_, err = io.Copy(out, in)
		}
		in.Close()
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// recovered is what one chimera.Recover of a store copy gave.
type recovered struct {
	print  string
	ledger [oltpClients]int64
	took   time.Duration
	report chimera.RecoveryReport
}

// recoverCopy copies the live store (cut to walLen if >= 0), recovers a
// database from the copy and reads it back.
func (h *oltpDB) recoverCopy(c *config, walLen int64) (recovered, error) {
	var r recovered
	dir, err := os.MkdirTemp(c.tmp, h.sp.name+"-copy-")
	if err != nil {
		return r, err
	}
	defer os.RemoveAll(dir)
	if err := copyStore(h.dir, dir, walLen); err != nil {
		return r, err
	}
	fs, err := chimera.NewFileStore(dir)
	if err != nil {
		return r, err
	}
	t0 := time.Now()
	db, open, report, err := chimera.Recover(h.sp.options(fs, nil))
	r.took = time.Since(t0)
	if err != nil {
		fs.Close()
		return r, err
	}
	defer db.Close()
	if open != nil {
		return r, fmt.Errorf("%s: recovery returned an open transaction from a multi-session log", h.sp.name)
	}
	r.report = *report
	r.print = fingerprint(db)
	for c, oid := range h.ledger {
		if o, ok := db.Store().Get(oid); ok {
			r.ledger[c] = o.MustGet("seq").AsInt()
		}
	}
	return r, nil
}

// crashCheck is the durability check: a copy of the store, with wal.log
// cut to the length the last completed SyncWAL covered — what only the
// operating system's cache held is discarded — must recover to the live
// database's state, with every acknowledged transaction's sequence number
// in its client's ledger. The clients are quiescent, so every commit in
// the live state was acknowledged.
func (h *oltpDB) crashCheck(c *config) error {
	r, err := h.recoverCopy(c, h.store.synced())
	if err != nil {
		return fmt.Errorf("%s: recovering the crash image: %w", h.sp.name, err)
	}
	if r.report.TruncatedWAL {
		return fmt.Errorf("%s: the synced WAL prefix ends inside a record", h.sp.name)
	}
	for cl := range h.ledger {
		if r.ledger[cl] != h.acked[cl] {
			return fmt.Errorf("%s: client %d was acknowledged %d transactions, the crash image holds %d",
				h.sp.name, cl, h.acked[cl], r.ledger[cl])
		}
	}
	if live := fingerprint(h.db); r.print != live {
		return fmt.Errorf("%s: the crash image recovers to a state other than the live one", h.sp.name)
	}
	return nil
}

// gate is the deterministic correctness pass: one client's first
// transactions, run alone, must leave every stock at the capped value of
// its last write.
func (sp *oltpSpec) gate(c *config, in [oltpClients][]oltpTxn) error {
	n := 400
	if c.smoke {
		n = 50
	}
	opts := chimera.DefaultOptions()
	opts.MaxSessions = oltpClients
	db := chimera.OpenWith(opts)
	if err := chimera.Load(db, oltpCatalogue); err != nil {
		return err
	}
	stock, ledger, err := seedStock(db, sp.stocks)
	if err != nil {
		return err
	}
	model := make(map[int32]int64)
	for i := 0; i < n; i++ {
		t := &in[0][i]
		if _, err := attemptTxn(db, stock, ledger[0], t, int64(i+1)); err != nil {
			return fmt.Errorf("%s gate: %w", sp.name, err)
		}
		for k, key := range t.key {
			model[key] = min(t.qty[k], oltpMaxQty)
		}
	}
	for key, want := range model {
		o, _ := db.Store().Get(stock[key])
		if o == nil || o.MustGet("quantity").AsInt() != want {
			return fmt.Errorf("%s gate: stock %d should hold %d, holds %v", sp.name, key, want, o)
		}
	}
	if o, _ := db.Store().Get(ledger[0]); o == nil || o.MustGet("seq").AsInt() != int64(n) {
		return fmt.Errorf("%s gate: ledger reads %v after %d transactions", sp.name, o, n)
	}
	if db.Stats().RuleExecutions == 0 {
		return fmt.Errorf("%s gate: the cap rule never executed", sp.name)
	}
	return nil
}

func (sp *oltpSpec) e2e(c *config) (*outcome, error) {
	in := oltpInput(c.seed, sp.stocks)
	if err := sp.gate(c, in); err != nil {
		return nil, err
	}
	out := newOutcome()
	heap0 := liveHeapMB()
	h, setup, err := setUp(c, func() (*oltpDB, error) { return sp.open(c, in, nil, nil) })
	if err != nil {
		return nil, err
	}
	defer h.discard() //nolint:errcheck // the success path checks it below
	out.set("setup_s", setup)
	txns0 := h.db.Stats().Transactions

	if _, err := h.saturate(c.phase(0.1), 1); err != nil {
		return nil, err
	}
	ws, err := h.saturate(c.phase(0.9), windows(c.phase(0.9)))
	if err != nil {
		return nil, err
	}
	out.usage(ws)
	out.set("live_heap_mb", liveHeapMB()-heap0)

	if err := h.verify(txns0); err != nil {
		return nil, err
	}
	if err := h.crashCheck(c); err != nil {
		return nil, err
	}
	out.attempted = h.commits.Load() + h.failed.Load()
	out.failed = h.failed.Load()
	if float64(out.failed) >= 0.01*float64(out.attempted) {
		return nil, fmt.Errorf("%s: %d of %d transactions failed after %d retries", sp.name, out.failed, out.attempted, oltpMaxRetries)
	}
	return out, h.discard()
}

// kernel describes the workload to the kernels: a block is one
// transaction's five modifications.
func (sp *oltpSpec) kernel(in [oltpClients][]oltpTxn, wal []byte) *kernelSpec {
	qty, seq := chimera.ModifyOf("stock", "quantity"), chimera.ModifyOf("ledger", "seq")
	return &kernelSpec{
		catalogue: oltpCatalogue, sessions: oltpClients, block: oltpOpsPerTxn + 1, wal: wal,
		seed: func(db *chimera.DB) ([]chimera.OID, error) {
			stock, ledger, err := seedStock(db, sp.stocks)
			return append(stock, ledger[:]...), err
		},
		at: func(i int64) (chimera.EventType, int) {
			t, k := &in[0][(i/(oltpOpsPerTxn+1))%oltpPool], int(i%(oltpOpsPerTxn+1))
			if k == oltpOpsPerTxn {
				return seq, sp.stocks
			}
			return qty, int(t.key[k])
		},
		rule: "cap", class: "stock", attr: "quantity",
	}
}

// layers is the traced pass: the rate ladder and the saturation reference
// on a plain database; saturation with the registry, then with the span
// tracer, on a second one; three timed recoveries of its final store; the
// kernels.
func (sp *oltpSpec) layers(c *config) (*outcome, error) {
	in := oltpInput(c.seed, sp.stocks)
	out := newOutcome()

	h, err := sp.open(c, in, nil, nil)
	if err != nil {
		return nil, err
	}
	defer h.discard() //nolint:errcheck // checked on the success path
	txns0 := h.db.Stats().Transactions
	if _, err := h.saturate(c.phase(0.05), 1); err != nil {
		return nil, err
	}
	var vs []verdict
	var r2 paced
	for i, r := range sp.rates {
		failed0 := h.failed.Load()
		p, err := h.openLoop(r, c.phase(0.15))
		if err != nil {
			return nil, err
		}
		vs = append(vs, judge(sp.limitMs, &p, oltpClients, h.failed.Load() != failed0))
		if i == 1 {
			r2 = p
		}
	}
	out.ladder(sp.rates[:], vs, 1, &r2)
	ws, err := h.saturate(c.phase(0.1), 1)
	if err != nil {
		return nil, err
	}
	plain := ws[0].rate()
	if err := h.verify(txns0); err != nil {
		return nil, err
	}
	out.attempted = h.commits.Load() + h.failed.Load()
	out.failed = h.failed.Load()
	if err := h.discard(); err != nil {
		return nil, err
	}

	reg := chimera.NewMetricsRegistry()
	tr := newSpanTracer(false, true)
	if h, err = sp.open(c, in, reg, tr); err != nil {
		return nil, err
	}
	defer h.discard() //nolint:errcheck // checked on the success path
	h.tr = nil
	if _, err := h.saturate(c.phase(0.05), 1); err != nil {
		return nil, err
	}
	if ws, err = h.saturate(c.phase(0.1), 1); err != nil {
		return nil, err
	}
	withRegistry := ws[0].rate()

	// No line is open between two saturation phases: the tracer goes in at
	// a quiescent point.
	tr.reset()
	h.tr = tr
	h.db.SetTracer(tr)
	p := &tracedPhase{tr: tr, reg0: h.db.Snapshot(), stats0: h.db.Stats(), store0: h.store.counts()}
	if ws, err = h.saturate(c.phase(0.2), 1); err != nil {
		return nil, err
	}
	h.db.SetTracer(nil)
	h.tr = nil
	withTracer := ws[0].rate()
	p.wall, p.ops, p.commits = ws[0].u.wall, ws[0].n, ws[0].n
	p.reg1, p.stats1, p.store1 = h.db.Snapshot(), h.db.Stats(), h.store.counts()
	out.ledger(p)
	out.overheads(plain, withRegistry, withTracer)
	out.set("engine.commit_us_p50", us(quantile(append(h.commitNs[0], h.commitNs[1]...), 0.5)))
	out.attempted += h.commits.Load() + h.failed.Load()
	out.failed += h.failed.Load()

	// Recovery, timed on untruncated copies of the final store.
	var took, replay, records []float64
	for i := 0; i < 3; i++ {
		r, err := h.recoverCopy(c, -1)
		if err != nil {
			return nil, fmt.Errorf("%s: recovering a copy of the final store: %w", sp.name, err)
		}
		took = append(took, r.took.Seconds())
		replay = append(replay, r.report.Replay.Seconds())
		records = append(records, float64(r.report.Records))
	}
	out.set("engine.recover_records", median(records))
	out.set("engine.recover_records_per_s", ratio(median(records), median(took)))
	out.set("engine.replay_share_pct", 100*ratio(median(replay), median(took)))

	if err := runKernels(c, sp.kernel(in, h.store.head()), out); err != nil {
		return nil, fmt.Errorf("%s kernels: %w", sp.name, err)
	}
	if err := writeTrace(c, sp.name, tr, p.reg1); err != nil {
		return nil, err
	}
	return out, h.discard()
}
