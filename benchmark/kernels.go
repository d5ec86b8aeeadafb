package main

import (
	"fmt"
	"time"

	"chimera"
	"chimera/internal/clock"
	"chimera/internal/cond"
	"chimera/internal/event"
	"chimera/internal/lang"
	"chimera/internal/object"
	"chimera/internal/rules"
	"chimera/internal/types"
	"chimera/internal/wire"
)

// The kernels are the K source of the per-layer ledger: each calls one
// internal package's exported functions directly, on the workload's own
// recorded input, with no engine around it. What a kernel reports is the
// cost of that layer alone on this workload's data; the end-to-end passes
// say how much of it the user sees. They are the only files of the
// benchmark that import internal packages.

// kernelSpec is what a workload hands the kernels.
type kernelSpec struct {
	catalogue string
	sessions  int // the workload's Options.MaxSessions
	// seed creates the workload's population in db and returns its OIDs.
	seed func(db *chimera.DB) ([]chimera.OID, error)
	// block is the number of events in one of the workload's user blocks
	// (a micro-batch, or the operations of one transaction).
	block int
	// at returns recorded event i: its type and the index of the object it
	// affects (negative: none).
	at func(i int64) (chimera.EventType, int)
	// rule names the rule whose condition cond.eval_us evaluates.
	rule string
	// class and attr are what object.modify_ns writes.
	class, attr string
	// wal is a recorded prefix of the workload's WAL (nil: the workload
	// writes none, and wire frames synthetic 48-byte records).
	wal []byte
}

// Iteration counts of the kernels; a smoke run divides them by smokeDiv.
const (
	kernelEvents    = 1 << 16 // events replayed by the event and object kernels
	kernelBlocks    = 48      // user blocks replayed by the rules kernel
	kernelTxns      = 2000    // empty transactions
	kernelPublishes = 200     // snapshot publications
	smokeDiv        = 8
)

func perOp(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }

// runKernels runs every kernel and sets its metrics.
func runKernels(c *config, k *kernelSpec, o *outcome) error {
	div := 1
	if c.smoke {
		div = smokeDiv
	}
	events, blocks, txns, publishes := kernelEvents/div, kernelBlocks/div, kernelTxns/div, kernelPublishes/div

	// lang: parsing the catalogue.
	const parses = 5
	t0 := time.Now()
	var prog lang.Program
	for i := 0; i < parses; i++ {
		var err error
		if prog, err = lang.ParseProgram(k.catalogue); err != nil {
			return err
		}
	}
	o.set("lang.parse_ms", perOp(time.Since(t0), parses)/1e6)

	// event: appends into a windowed columnar base, one compaction per block.
	base := event.NewBaseSize(0)
	base.SetRetention(streamWindow)
	var appendT, compactT time.Duration
	var ts clock.Time
	appended := 0
	for i := int64(0); i < int64(events); {
		t0 = time.Now()
		for j := 0; j < k.block; j, i = j+1, i+1 {
			ty, idx := k.at(i)
			ts++
			if _, err := base.Append(ty, types.OID(idx+1), ts); err != nil {
				return err
			}
		}
		t1 := time.Now()
		base.CompactBelow(base.RetentionBound(0, ts))
		appendT += t1.Sub(t0)
		compactT += time.Since(t1)
		appended++
	}
	o.set("event.append_ns_per_ev", perOp(appendT, appended*k.block))
	o.set("event.compact_us_per_block", perOp(compactT, appended)/1e3)

	// rules: NotifyArrivals + CheckTriggered per user block, rules
	// detriggered by a bare Consider as the engine would after running them.
	base = event.NewBaseSize(0)
	base.SetRetention(streamWindow)
	sup := rules.NewSupport(base, chimera.DefaultOptions().Support)
	for _, r := range prog.Rules {
		if err := sup.Define(r.Def); err != nil {
			return err
		}
	}
	sup.BeginTransaction(0)
	ts = 0
	var checkT time.Duration
	occs := make([]event.Occurrence, 0, k.block)
	for b, i := 0, int64(0); b < blocks; b++ {
		occs = occs[:0]
		for j := 0; j < k.block; j, i = j+1, i+1 {
			ty, idx := k.at(i)
			ts++
			occ, err := base.Append(ty, types.OID(idx+1), ts)
			if err != nil {
				return err
			}
			occs = append(occs, occ)
		}
		t0 = time.Now()
		sup.NotifyArrivals(occs)
		sup.CheckTriggered(ts)
		checkT += time.Since(t0)
		for {
			name, ok := sup.Pick(nil)
			if !ok {
				break
			}
			ts++
			if _, err := sup.Consider(name, ts); err != nil {
				return err
			}
		}
		base.CompactBelow(base.RetentionBound(sup.Watermark(), ts))
	}
	o.set("rules.check_us_per_block", perOp(checkT, blocks)/1e3)

	// The remaining kernels need the workload's population.
	opts := chimera.DefaultOptions()
	opts.MaxSessions = k.sessions
	db := chimera.OpenWith(opts)
	if err := chimera.Load(db, k.catalogue); err != nil {
		return err
	}
	oids, err := k.seed(db)
	if err != nil {
		return err
	}

	// engine: an empty transaction.
	t0 = time.Now()
	for i := 0; i < txns; i++ {
		tx, err := db.Begin()
		if err != nil {
			return err
		}
		if err := tx.Commit(); err != nil {
			return err
		}
	}
	o.set("engine.txn_overhead_us", perOp(time.Since(t0), txns)/1e3)

	// cond: the rule's condition over the population, its window holding
	// one block of recorded events.
	base = event.NewBaseSize(0)
	for j := 0; j < k.block; j++ {
		ty, idx := k.at(int64(j))
		var oid chimera.OID
		if idx >= 0 {
			oid = oids[idx]
		}
		if _, err := base.Append(ty, oid, clock.Time(j+1)); err != nil {
			return err
		}
	}
	body := db.RuleBody(k.rule)
	ctx := &cond.Ctx{Store: db.Store(), Base: base, Since: 0, At: clock.Time(k.block)}
	evals := 5 + 4000/len(oids)
	var bindings []cond.Binding
	t0 = time.Now()
	for i := 0; i < evals; i++ {
		if bindings, err = body.Condition.Eval(ctx); err != nil {
			return fmt.Errorf("condition of %s: %w", k.rule, err)
		}
	}
	o.set("cond.eval_us", perOp(time.Since(t0), evals)/1e3)
	if len(bindings) > 0 {
		o.set("cond.rows_per_binding", float64(len(oids))/float64(len(bindings)))
	}

	// object: Line.Modify over the recorded keys, then staging a block's
	// write set and materialising the next snapshot.
	ln := db.Store().BeginLine(object.LineOptions{Solo: k.sessions <= 1, Wait: 100 * time.Millisecond})
	keys := make([]chimera.OID, 0, events)
	for i := int64(0); len(keys) < events; i++ {
		if ty, idx := k.at(i); idx >= 0 && ty.Class == k.class {
			keys = append(keys, oids[idx])
		}
	}
	t0 = time.Now()
	for i, oid := range keys {
		if err := ln.Modify(oid, k.attr, types.Int(int64(i))); err != nil {
			return err
		}
	}
	o.set("object.modify_ns", perOp(time.Since(t0), len(keys)))
	ln.Rollback()
	t0 = time.Now()
	for i := 0; i < publishes; i++ {
		db.Store().StageTouched(keys[i*k.block : (i+1)*k.block])
		db.Store().Published()
	}
	o.set("object.publish_us_per_commit", perOp(time.Since(t0), publishes)/1e3)

	// object: snapshot reads.
	rt := db.BeginRead()
	t0 = time.Now()
	for _, oid := range keys {
		if _, ok := rt.Get(oid); !ok {
			return fmt.Errorf("snapshot lost object %v", oid)
		}
	}
	o.set("object.read_get_ns", perOp(time.Since(t0), len(keys)))
	rt.Close()

	// wire: framing and unframing the recorded WAL records.
	var payloads [][]byte
	for rest := k.wal; len(rest) > 0; {
		p, r, err := wire.NextFrame(rest)
		if err != nil {
			break // the recorded prefix ends inside a frame
		}
		payloads, rest = append(payloads, p), r
	}
	if len(payloads) == 0 {
		for i := 0; i < 256; i++ {
			payloads = append(payloads, make([]byte, 48))
		}
	}
	const rounds = 20
	var buf []byte
	t0 = time.Now()
	for r := 0; r < rounds; r++ {
		buf = buf[:0]
		for _, p := range payloads {
			buf = wire.AppendFrame(buf, p)
		}
		for rest := buf; len(rest) > 0; {
			if _, rest, err = wire.NextFrame(rest); err != nil {
				return err
			}
		}
	}
	o.set("wire.frame_ns_per_record", perOp(time.Since(t0), rounds*len(payloads)))
	return nil
}
