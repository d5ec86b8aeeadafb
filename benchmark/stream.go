package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"chimera"
)

// streamSpec describes one of the three stream workloads. All three push
// pre-generated events through chimera.OpenStream (MaxBatch 256, Window
// 4096, blocking backpressure) from one producer goroutine; the unit of
// work is the event.
type streamSpec struct {
	name    string
	objects int  // cards, or objects of the rule vocabulary
	zipf    bool // Zipf(1.1) keys instead of uniform
	durable bool // FileStore + FsyncInterval instead of the in-memory engine
	rules   bool // the 1 000-rule catalogue instead of fraud12
	// rates are the open-loop arrival rates r1 < r2 < r3 in events/s: about
	// 25%, 50% and 70% of the saturation throughput measured on the commit
	// that added the benchmark, rounded to two digits. They are frozen: a
	// later change is measured at these rates, not at its own.
	rates [3]float64
	// limitMs is the latency limit of the sustained-rate test: ten times
	// the median latency at r1 on that same commit, equally frozen.
	limitMs float64
	// gateEvents is the length of the differential correctness pass.
	gateEvents int
}

const (
	streamBatch  = 256
	streamWindow = 4096
)

// sized returns the workload as the run measures it: a smoke run keeps at
// most 2 048 objects, so that a set-up takes milliseconds.
func (sp *streamSpec) sized(c *config) *streamSpec {
	if !c.smoke || sp.objects <= 2048 {
		return sp
	}
	small := *sp
	small.objects = 2048
	return &small
}

func (sp *streamSpec) catalogue() string {
	if sp.rules {
		return rules1000()
	}
	return fraud12
}

// input generates the workload's event pool and, for the card workloads,
// the rank of every card (which decides whether it is seeded over limit).
func (sp *streamSpec) input(seed int64) (in *streamInput, rank []int) {
	if sp.rules {
		return rulesInput(seed), nil
	}
	in, perm := fraudInput(seed, sp.objects, sp.zipf)
	rank = make([]int, len(perm))
	for r, card := range perm {
		rank[card] = r
	}
	return in, rank
}

func holder(card int) string { return fmt.Sprintf("h%05d", card) }

// seedObjects creates the workload's population in one transaction and
// returns the OID table the event pool's keys index.
func (sp *streamSpec) seedObjects(db *chimera.DB, rank []int) ([]chimera.OID, error) {
	oids := make([]chimera.OID, 0, sp.objects)
	err := db.Run(func(tx *chimera.Txn) error {
		for i := 0; i < sp.objects; i++ {
			var (
				oid chimera.OID
				err error
			)
			if sp.rules {
				oid, err = tx.Create(ruleClass(i/rulesPerObject), chimera.Values{"v": chimera.Int(0), "w": chimera.Int(0)})
			} else {
				spent := int64(10)
				if overLimitRank(rank[i]) {
					spent = 1000
				}
				oid, err = tx.Create("card", chimera.Values{
					"holder": chimera.Str(holder(i)), "spent": chimera.Int(spent), "limit": chimera.Int(100)})
			}
			if err != nil {
				return err
			}
			oids = append(oids, oid)
		}
		return nil
	})
	return oids, err
}

// streamDB is one opened database of a stream workload with its stream
// session. The session is reopened between phases that need a different
// tracer: DB.SetTracer is a plain field write, and a live session's sweep
// goroutine reads that field at every tick.
type streamDB struct {
	sp    *streamSpec
	in    *streamInput
	db    *chimera.DB
	store *meteredStore // nil for the in-memory engine
	dir   string
	oids  []chimera.OID
	s     *chimera.Stream
	next  int64 // index of the next pool event to emit

	emitted int64        // events handed to Emit over the database's life
	refused atomic.Int64 // events of refused batches (counted on the sweep goroutine)
}

// open is the workload's set-up: open the store, load the catalogue, seed
// the objects, open the stream session.
func (sp *streamSpec) open(c *config, in *streamInput, rank []int, reg *chimera.MetricsRegistry, tr *spanTracer) (*streamDB, error) {
	h := &streamDB{sp: sp, in: in}
	opts := chimera.DefaultOptions()
	opts.Metrics = reg
	var err error
	if sp.durable {
		if h.dir, err = os.MkdirTemp(c.tmp, sp.name+"-"); err != nil {
			return nil, err
		}
		fs, err := chimera.NewFileStore(h.dir)
		if err != nil {
			return nil, err
		}
		h.store = newMeteredStore(fs, tr)
		opts.Durability = chimera.DurabilityOptions{Store: h.store, Fsync: chimera.FsyncInterval}
		if h.db, err = chimera.OpenDurable(opts); err != nil {
			return nil, err
		}
	} else {
		h.db = chimera.OpenWith(opts)
	}
	if err := chimera.Load(h.db, sp.catalogue()); err != nil {
		return nil, err
	}
	if h.oids, err = sp.seedObjects(h.db, rank); err != nil {
		return nil, err
	}
	if err := h.openSession(); err != nil {
		return nil, err
	}
	return h, nil
}

func (h *streamDB) openSession() error {
	s, err := chimera.OpenStream(h.db, chimera.StreamOptions{
		MaxBatch: streamBatch, Window: streamWindow, Backpressure: chimera.BackpressureBlock,
		OnBatchError: func(be *chimera.BatchError) { h.refused.Add(int64(len(be.Events))) },
	})
	h.s = s
	return err
}

// closeSession drains and commits the session and returns how long the
// commit call took.
func (h *streamDB) closeSession() (time.Duration, error) {
	t0 := time.Now()
	err := h.s.Close()
	h.s = nil
	return time.Since(t0), err
}

// retrace closes the session, installs tr at that quiescent point and
// opens a new session.
func (h *streamDB) retrace(tr chimera.Tracer) error {
	if _, err := h.closeSession(); err != nil {
		return err
	}
	h.db.SetTracer(tr)
	return h.openSession()
}

// discard closes everything and removes the store directory.
func (h *streamDB) discard() error {
	var err error
	if h.s != nil {
		_, err = h.closeSession()
	}
	if cerr := h.db.Close(); err == nil {
		err = cerr
	}
	if h.dir != "" {
		if rerr := os.RemoveAll(h.dir); err == nil {
			err = rerr
		}
	}
	return err
}

func (h *streamDB) emit() error {
	ty, oid := h.in.at(h.next, h.oids)
	h.next++
	h.emitted++
	return h.s.Emit(ty, oid)
}

// saturate is a closed-loop phase: the producer emits as fast as the
// session accepts for dur. The phase is cut into windows; each window
// reports the events the session swept in it (read from its own counter,
// so no barrier disturbs the flow) and what they cost.
func (h *streamDB) saturate(dur time.Duration, nwin int) ([]window, error) {
	if err := h.s.Flush(); err != nil {
		return nil, err
	}
	out := make([]window, 0, nwin)
	start := time.Now()
	for w := 1; w <= nwin; w++ {
		end := start.Add(dur * time.Duration(w) / time.Duration(nwin))
		swept0 := h.s.Stats().Events
		m := startMeter()
		for time.Now().Before(end) {
			for k := 0; k < 64; k++ {
				if err := h.emit(); err != nil {
					return nil, err
				}
			}
		}
		u := m.stop()
		out = append(out, window{n: int64(h.s.Stats().Events - swept0), u: u})
	}
	return out, h.s.Flush()
}

// openLoop emits events on a fixed schedule for dur: event i is due at
// start + i/rate, is emitted as soon as it is due and the previous Emit
// returned, and its latency runs from the due time to the BlockEnd of the
// batch that carried it, as sink reports it. The sink must be the
// database's tracer.
func (h *streamDB) openLoop(sink *blockSink, rate float64, dur time.Duration) (paced, error) {
	if err := h.s.Flush(); err != nil {
		return paced{}, err
	}
	base, mark0 := sink.events, len(sink.marks)
	st0 := h.s.Stats()
	want := int64(rate*dur.Seconds()) + 1
	res := paced{late: make([]int64, 0, want)}
	p := newPacer(rate, spinYield)
	now := time.Since(p.start)
	midTaken := false
	for i := int64(0); ; i++ {
		due := p.due(i)
		if due >= dur {
			break
		}
		if now < due {
			// Spin to the due time (pacer.wait's spinYield, inlined to save a
			// clock reading per event at 480 000 events/s). Lateness is the
			// generator's own: how far past the due time it noticed. An
			// event overdue on arrival was held up by the previous Emit,
			// which is the system's doing and shows as latency.
			for now < due {
				runtime.Gosched()
				now = time.Since(p.start)
			}
			res.late = append(res.late, int64(now-due))
		} else {
			res.late = append(res.late, -1)
		}
		t0 := now
		if err := h.emit(); err != nil {
			return paced{}, err
		}
		now = time.Since(p.start)
		res.inEmit += now - t0
		res.n++
		if atMid := !midTaken && now >= dur/2; atMid || i%1024 == 0 {
			depth := h.s.Stats().QueueDepth
			if atMid {
				res.depthMid, midTaken = depth, true
			}
			res.depthMax = max(res.depthMax, depth)
		}
	}
	res.depthEnd = h.s.Stats().QueueDepth
	res.wall = time.Since(p.start)
	if err := h.s.Flush(); err != nil {
		return paced{}, err
	}
	st1 := h.s.Stats()
	if b := st1.Batches - st0.Batches; b > 0 {
		res.batchMean = float64(st1.Events-st0.Events) / float64(b)
	}
	if got := sink.events - base; got != res.n {
		return paced{}, fmt.Errorf("%s: %d events emitted but batch blocks closed over %d", h.sp.name, res.n, got)
	}
	offset := p.start.Sub(sink.epoch)
	res.latency = make([]int64, 0, res.n)
	i := int64(0)
	for _, m := range sink.marks[mark0:] {
		for ; i < m.upTo-base; i++ {
			res.latency = append(res.latency, int64(m.at-offset-p.due(i)))
		}
	}
	return res, nil
}

// checkSession fails on any event the session shed, refused or lost.
func (h *streamDB) checkSession() error {
	st := h.s.Stats()
	switch {
	case h.s.Err() != nil:
		return fmt.Errorf("%s: batch refused: %w", h.sp.name, h.s.Err())
	case st.Dropped != 0 || st.BudgetKills != 0 || st.Restarts != 0 || h.refused.Load() != 0:
		return fmt.Errorf("%s: stream shed events: %+v", h.sp.name, st)
	case st.Enqueued != st.Events:
		return fmt.Errorf("%s: %d events enqueued, %d swept after a flush", h.sp.name, st.Enqueued, st.Events)
	}
	return nil
}

// epilogue checks the invariants that hold however the run's batches were
// cut. For the card workloads: after a settle signal no alert survives;
// then one swipe of every over-limit card and of as many others must leave
// over-limit alerts for exactly the over-limit holders. For stream_rules:
// every rule body is empty, so every consideration executes.
func (h *streamDB) epilogue(rank []int) error {
	if err := h.s.Flush(); err != nil {
		return err
	}
	if err := h.checkSession(); err != nil {
		return err
	}
	st := h.db.Stats()
	if st.Events < h.emitted {
		return fmt.Errorf("%s: engine logged %d events, %d were emitted", h.sp.name, st.Events, h.emitted)
	}
	if h.sp.rules {
		if st.RuleExecutions != st.Considerations {
			return fmt.Errorf("%s: %d considerations of empty conditions but %d executions",
				h.sp.name, st.Considerations, st.RuleExecutions)
		}
		return nil
	}
	if err := h.s.Raise("settle"); err != nil {
		return err
	}
	h.emitted++
	if err := h.s.Flush(); err != nil {
		return err
	}
	if alerts, _ := h.db.Store().Select("alert"); len(alerts) != 0 {
		return fmt.Errorf("%s: %d alerts survive a settle signal", h.sp.name, len(alerts))
	}
	want := map[string]bool{}
	others := 0
	for card, r := range rank {
		over := overLimitRank(r)
		if !over && others >= len(rank)/overLimitEvery {
			continue
		}
		if over {
			want[holder(card)] = true
		} else {
			others++
		}
		if err := h.s.Emit(chimera.ModifyOf("card", "spent"), h.oids[card]); err != nil {
			return err
		}
		h.emitted++
	}
	if err := h.s.Flush(); err != nil {
		return err
	}
	got := map[string]bool{}
	alerts, _ := h.db.Store().Select("alert")
	for _, oid := range alerts {
		o, ok := h.db.Store().Get(oid)
		if !ok {
			continue
		}
		if o.MustGet("kind").AsString() != "over-limit" {
			return fmt.Errorf("%s: unexpected alert after the epilogue: %s", h.sp.name, o)
		}
		got[o.MustGet("holder").AsString()] = true
	}
	for hld := range want {
		if !got[hld] {
			return fmt.Errorf("%s: over-limit card %s was swiped and has no alert", h.sp.name, hld)
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d holders alerted, %d cards are over limit", h.sp.name, len(got), len(want))
	}
	return h.checkSession()
}

// gate is the deterministic correctness pass run before any timing: the
// first gateEvents events go through a stream session with a barrier every
// 256 (size-driven flushes only, so the cuts are exact) and, on a second
// database, through Txn.Emit ×256 + EndLine on the same cuts. Objects,
// alerts and the engine's rule counters must agree.
func (sp *streamSpec) gate(c *config, in *streamInput, rank []int) error {
	n := sp.gateEvents
	if c.smoke {
		n /= 8
	}
	type side struct {
		print string
		stats chimera.Stats
	}
	run := func(streamed bool) (side, error) {
		db := chimera.Open()
		if err := chimera.Load(db, sp.catalogue()); err != nil {
			return side{}, err
		}
		oids, err := sp.seedObjects(db, rank)
		if err != nil {
			return side{}, err
		}
		if streamed {
			s, err := chimera.OpenStream(db, chimera.StreamOptions{
				MaxBatch: streamBatch, Window: streamWindow, FlushInterval: time.Hour})
			if err != nil {
				return side{}, err
			}
			for i := 0; i < n; i++ {
				ty, oid := in.at(int64(i), oids)
				if err := s.Emit(ty, oid); err != nil {
					return side{}, err
				}
				if i%streamBatch == streamBatch-1 {
					if err := s.Flush(); err != nil {
						return side{}, err
					}
				}
			}
			if err := s.Close(); err != nil {
				return side{}, err
			}
			if st := s.Stats(); st.Events != uint64(n) || st.Dropped != 0 || st.Restarts != 0 {
				return side{}, fmt.Errorf("gate stream swept %d of %d events: %+v", st.Events, n, st)
			}
		} else {
			tx, err := db.Begin()
			if err != nil {
				return side{}, err
			}
			if err := tx.SetRetention(streamWindow); err != nil {
				return side{}, err
			}
			for i := 0; i < n; i++ {
				if i%streamBatch == 0 {
					if err := tx.ResetRuleGuard(); err != nil {
						return side{}, err
					}
				}
				ty, oid := in.at(int64(i), oids)
				if err := tx.Emit(ty, oid); err != nil {
					return side{}, err
				}
				if i%streamBatch == streamBatch-1 || i == n-1 {
					if err := tx.EndLine(); err != nil {
						return side{}, err
					}
				}
			}
			if err := tx.Commit(); err != nil {
				return side{}, err
			}
		}
		return side{print: fingerprint(db), stats: db.Stats()}, nil
	}
	var a, b side
	var errA, errB error
	done := make(chan struct{})
	go func() { a, errA = run(true); close(done) }()
	b, errB = run(false)
	<-done
	if err := errors.Join(errA, errB); err != nil {
		return fmt.Errorf("%s gate: %w", sp.name, err)
	}
	if a.print != b.print {
		return fmt.Errorf("%s gate: streamed and transactional runs of %d events end in different object states", sp.name, n)
	}
	if a.stats.RuleExecutions != b.stats.RuleExecutions || a.stats.Considerations != b.stats.Considerations ||
		a.stats.Events != b.stats.Events || a.stats.Blocks != b.stats.Blocks {
		return fmt.Errorf("%s gate: engine counters differ: streamed %+v, transactional %+v", sp.name, a.stats, b.stats)
	}
	if a.stats.RuleExecutions == 0 {
		return fmt.Errorf("%s gate: no rule executed in %d events", sp.name, n)
	}
	return nil
}

// e2e is the untraced pass: the gate, set-up (repeated; median), warm-up,
// saturation with no tracer at all, and the invariants of the epilogue.
func (sp *streamSpec) e2e(c *config) (*outcome, error) {
	sp = sp.sized(c)
	in, rank := sp.input(c.seed)
	if err := sp.gate(c, in, rank); err != nil {
		return nil, err
	}
	out := newOutcome()

	heap0 := liveHeapMB()
	h, setup, err := setUp(c, func() (*streamDB, error) { return sp.open(c, in, rank, nil, nil) })
	if err != nil {
		return nil, err
	}
	defer h.discard() //nolint:errcheck // the success path checks it below
	out.set("setup_s", setup)

	// What a session holds grows with the events it has taken, and how many
	// the timed phases push through depends on the machine's speed. The heap
	// is therefore read where every run of a seed arrives alike: two seconds'
	// worth of events at r2 into the session (an eighth of a second's in a
	// smoke run).
	heapEvents := int(2 * sp.rates[1])
	if c.smoke {
		heapEvents /= 16
	}
	for i := 0; i < heapEvents; i++ {
		if err := h.emit(); err != nil {
			return nil, err
		}
	}
	if err := h.s.Flush(); err != nil {
		return nil, err
	}
	out.set("live_heap_mb", liveHeapMB()-heap0)

	if _, err := h.saturate(c.phase(0.1), 1); err != nil {
		return nil, err
	}
	ws, err := h.saturate(c.phase(0.9), windows(c.phase(0.9)))
	if err != nil {
		return nil, err
	}
	out.usage(ws)
	if err := h.checkSession(); err != nil {
		return nil, err
	}

	if err := h.epilogue(rank); err != nil {
		return nil, err
	}
	out.attempted, out.failed = h.emitted, h.refused.Load()
	if err := h.discard(); err != nil {
		return nil, err
	}
	return out, nil
}

// kernel describes the workload to the kernels.
func (sp *streamSpec) kernel(in *streamInput, rank []int, wal []byte) *kernelSpec {
	k := &kernelSpec{
		catalogue: sp.catalogue(), sessions: 1, block: streamBatch, wal: wal,
		seed: func(db *chimera.DB) ([]chimera.OID, error) { return sp.seedObjects(db, rank) },
		at: func(i int64) (chimera.EventType, int) {
			j := i % int64(len(in.typ))
			return in.types[in.typ[j]], int(in.key[j])
		},
		rule: "overlimit", class: "card", attr: "spent",
	}
	if sp.rules {
		k.rule, k.class, k.attr = "r0000", ruleClass(0), "v"
	}
	return k
}

// layers is the traced pass. On a plain database it walks the rate ladder
// (sustained rate, queue and batch behaviour at r2) and takes the
// saturation reference; on a second database opened with a registry it
// measures saturation again, then with the span tracer installed, and
// builds the ledger from that last phase; the kernels run last.
func (sp *streamSpec) layers(c *config) (*outcome, error) {
	sp = sp.sized(c)
	in, rank := sp.input(c.seed)
	out := newOutcome()

	h, err := sp.open(c, in, rank, nil, nil)
	if err != nil {
		return nil, err
	}
	defer h.discard() //nolint:errcheck // checked on the success path
	sink := &blockSink{epoch: time.Now()}
	if err := h.retrace(sink); err != nil {
		return nil, err
	}
	if _, err := h.saturate(c.phase(0.05), 1); err != nil {
		return nil, err
	}
	var vs []verdict
	var r2 paced
	for i, r := range sp.rates {
		p, err := h.openLoop(sink, r, c.phase(0.15))
		if err != nil {
			return nil, err
		}
		vs = append(vs, judge(sp.limitMs, &p, streamBatch, h.refused.Load() != 0))
		if i == 1 {
			r2 = p
		}
	}
	out.ladder(sp.rates[:], vs, 1, &r2)
	out.set("stream.queue_depth_max", float64(r2.depthMax))
	out.set("stream.batch_events_mean", r2.batchMean)
	out.set("stream.emit_blocked_pct", 100*ratio(float64(r2.inEmit), float64(r2.wall)))
	if err := h.retrace(nil); err != nil {
		return nil, err
	}
	ws, err := h.saturate(c.phase(0.1), 1)
	if err != nil {
		return nil, err
	}
	plain := ws[0].rate()
	if err := h.checkSession(); err != nil {
		return nil, err
	}
	out.set("stream.refused_events", float64(h.refused.Load()))
	out.attempted, out.failed = h.emitted, h.refused.Load()
	if err := h.discard(); err != nil {
		return nil, err
	}

	reg := chimera.NewMetricsRegistry()
	tr := newSpanTracer(true, false)
	h, err = sp.open(c, in, rank, reg, tr)
	if err != nil {
		return nil, err
	}
	defer h.discard() //nolint:errcheck // checked on the success path
	if _, err := h.saturate(c.phase(0.05), 1); err != nil {
		return nil, err
	}
	if ws, err = h.saturate(c.phase(0.1), 1); err != nil {
		return nil, err
	}
	withRegistry := ws[0].rate()
	if _, err := h.closeSession(); err != nil {
		return nil, err
	}
	tr.reset()
	h.db.SetTracer(tr)
	if err := h.openSession(); err != nil {
		return nil, err
	}
	p := &tracedPhase{tr: tr, reg0: h.db.Snapshot(), stats0: h.db.Stats()}
	if h.store != nil {
		p.store0 = h.store.counts()
	}
	t0 := time.Now()
	if ws, err = h.saturate(c.phase(0.2), 1); err != nil {
		return nil, err
	}
	withTracer := ws[0].rate()
	commit, err := h.closeSession()
	if err != nil {
		return nil, err
	}
	p.wall = time.Since(t0)
	h.db.SetTracer(nil)
	p.ops, p.stream = ws[0].n, true // commits stays 0: a session commits once, at Close
	p.reg1, p.stats1 = h.db.Snapshot(), h.db.Stats()
	var wal []byte
	if h.store != nil {
		p.store1, wal = h.store.counts(), h.store.head()
	}
	out.ledger(p)
	out.overheads(plain, withRegistry, withTracer)
	out.set("engine.commit_us_p50", us(commit.Nanoseconds()))
	out.attempted += h.emitted
	out.failed += h.refused.Load()

	if err := runKernels(c, sp.kernel(in, rank, wal), out); err != nil {
		return nil, fmt.Errorf("%s kernels: %w", sp.name, err)
	}
	if err := writeTrace(c, sp.name, tr, p.reg1); err != nil {
		return nil, err
	}
	return out, h.discard()
}
