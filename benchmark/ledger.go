package main

import (
	"path/filepath"
	"time"

	"chimera"
)

// tracedPhase is everything the traced pass observed over its traced
// saturation phase: the span tracer (T), the registry before and after
// (R), the engine's own counters, the storage wrapper's counters (S) and
// what the generator saw (G).
type tracedPhase struct {
	tr      *spanTracer
	wall    time.Duration // length of the phase
	ops     int64         // units of work completed in it
	commits int64         // transactions committed in it
	stream  bool          // no generator span brackets a unit: its observed time is the phase's

	reg0, reg1     chimera.MetricsSnapshot
	stats0, stats1 chimera.Stats
	store0, store1 storeCounts
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ledger sets every per-layer metric that comes from the traced phase.
func (o *outcome) ledger(p *tracedPhase) {
	ops := float64(p.ops)

	// T: span durations and self times. Rule-action blocks outnumber user
	// blocks and are nearly empty, so the medians describe them; the means
	// carry the user blocks' weight.
	sum := p.tr.summary()
	block, sweep, consider, exec := sum.by[spanBlock], sum.by[spanSweep], sum.by[spanConsider], sum.by[spanExec]
	o.set("engine.block_us_p50", block.p50)
	o.set("engine.block_self_us_p50", block.selfP50)
	o.set("engine.block_us_mean", block.meanUs())
	o.set("rules.sweep_us_p50", sweep.p50)
	o.set("rules.sweep_us_mean", sweep.meanUs())
	o.set("rules.sweep_share", ratio(float64(sweep.total), float64(block.total)))
	o.set("cond.consider_us_p50", consider.p50)
	o.set("cond.consider_us_mean", consider.meanUs())
	o.set("cond.bindings_per_consideration", ratio(float64(sum.bindings), float64(consider.count)))
	o.set("act.exec_us_p50", exec.p50)
	o.set("act.exec_us_mean", exec.meanUs())
	self := func(name string) float64 { return float64(sum.by[name].self) }
	traced := self(spanIngest) + self(spanBlock) + self(spanSweep) + self(spanConsider) + self(spanExec)
	total := traced + self(spanTxn) + self(spanOp)
	o.set("share.ingest_pct", 100*ratio(self(spanIngest), total))
	o.set("share.engine_block_pct", 100*ratio(self(spanBlock), total))
	o.set("share.rules_sweep_pct", 100*ratio(self(spanSweep), total))
	o.set("share.cond_pct", 100*ratio(self(spanConsider), total))
	o.set("share.act_pct", 100*ratio(self(spanExec), total))
	o.set("share.other_pct", 100*ratio(self(spanTxn), total))
	o.set("share.outside_txn_pct", 100*ratio(self(spanOp), total))
	// Generator-observed time of the units: the gen.op spans, or for a
	// stream (whose units the generator cannot bracket) the phase itself.
	opTime := float64(sum.by[spanOp].total)
	if p.stream {
		opTime = float64(p.wall)
	}
	o.set("engine.ledger_coverage", ratio(traced, opTime))
	o.set("storage.append_busy_pct", 100*ratio(self(spanAppend), float64(p.wall)))
	o.set("storage.sync_busy_pct", 100*ratio(self(spanSync), float64(p.wall)))
	o.set("event.compactions_per_op", ratio(float64(sum.compacts), ops))

	// The engine's own counters.
	st := func(get func(chimera.Stats) int64) float64 { return float64(get(p.stats1) - get(p.stats0)) }
	o.set("engine.blocks_per_op", st(func(s chimera.Stats) int64 { return s.Blocks })/ops)
	o.set("engine.considerations_per_op", st(func(s chimera.Stats) int64 { return s.Considerations })/ops)
	o.set("engine.rule_execs_per_op", st(func(s chimera.Stats) int64 { return s.RuleExecutions })/ops)
	o.set("object.conflicts_per_commit", ratio(st(func(s chimera.Stats) int64 { return s.Conflicts }), float64(p.commits)))

	// R: registry deltas.
	c := func(name string) float64 { return float64(p.reg1.Counters[name] - p.reg0.Counters[name]) }
	g := func(name string) float64 { return float64(p.reg1.Gauges[name]) }
	hsum := func(name string) float64 { return float64(p.reg1.Histograms[name].Sum - p.reg0.Histograms[name].Sum) }
	hcount := func(name string) float64 {
		return float64(p.reg1.Histograms[name].Count - p.reg0.Histograms[name].Count)
	}
	o.set("rules.examined_per_block", ratio(c("chimera_trigger_rules_examined_total"), c("chimera_trigger_checks_total")))
	o.set("rules.skipped_ratio", ratio(c("chimera_trigger_rules_skipped_total"),
		c("chimera_trigger_rules_skipped_total")+c("chimera_trigger_rules_examined_total")))
	o.set("rules.triggerings_per_op", c("chimera_trigger_triggerings_total")/ops)
	o.set("calculus.ts_evals_per_op", c("chimera_trigger_ts_evals_total")/ops)
	o.set("calculus.memo_hit_ratio", ratio(c("chimera_plan_memo_hits_total"),
		c("chimera_plan_memo_hits_total")+c("chimera_plan_memo_misses_total")))
	o.set("calculus.sweep_cache_hit_ratio", ratio(c("chimera_sweep_cache_hits_total"), c("chimera_sweep_probes_total")))
	o.set("calculus.plan_nodes", g("chimera_plan_nodes"))
	o.set("calculus.plan_shared_ratio", ratio(g("chimera_plan_shared_nodes"), g("chimera_plan_nodes")))
	o.set("event.retired_per_appended", ratio(c("chimera_eb_occurrences_retired_total"), c("chimera_eb_appends_total")))
	o.set("event.live_segments", g("chimera_eb_live_segments"))
	o.set("engine.wal_records_per_op", c("chimera_wal_records_total")/ops)
	o.set("engine.commit_wait_us_mean", ratio(hsum("chimera_engine_commit_wait_ns"), hcount("chimera_engine_commit_wait_ns"))/1e3)
	o.set("object.latch_waits_per_commit", ratio(hcount("chimera_object_latch_wait_ns"), float64(p.commits)))
	o.set("object.latch_wait_share_pct", 100*ratio(hsum("chimera_object_latch_wait_ns"), opTime))

	// S: the storage wrapper.
	s := p.store1.sub(p.store0)
	o.set("storage.wal_bytes_per_op", float64(s.appendB)/ops)
	o.set("storage.append_bytes_mean", ratio(float64(s.appendB), float64(s.appends)))
	o.set("storage.fsyncs_per_commit", ratio(float64(s.syncs), float64(p.commits)))
	o.set("storage.commits_per_sync", ratio(float64(p.commits), float64(s.syncs)))
	o.set("storage.syncs_per_s", float64(s.syncs)/p.wall.Seconds())
	o.set("storage.segment_puts", float64(s.segPuts))
}

// overheads sets the two instrumentation-overhead metrics from the
// saturation throughput without instruments, with the registry, and with
// the registry and the full tracer.
func (o *outcome) overheads(plain, withRegistry, withTracer float64) {
	o.set("metrics.registry_overhead_pct", 100*(1-ratio(withRegistry, plain)))
	o.set("metrics.trace_overhead_pct", 100*(1-ratio(withTracer, plain)))
}

// paced is the outcome of an open-loop phase.
type paced struct {
	n         int64
	latency   []int64 // per unit, due time → result, ns, in due order
	late      []int64 // per unit, due time → issue when the generator waited for it, ns; -1 when it was overdue on arrival
	inEmit    time.Duration
	wall      time.Duration
	depthMid  int // backlog (queue depth, or due units not yet started) at the midpoint,
	depthEnd  int // at the end,
	depthMax  int // and at its deepest
	batchMean float64
}

// verdict is one open-loop phase judged against a workload's latency limit.
type verdict struct {
	lateP99us float64
	sustained bool // p99 within the limit, backlog not growing, nothing failed
	invalid   bool // the generator's own lateness exceeds a tenth of the limit
}

// judge rates a phase: slack is the backlog growth from midpoint to end
// that still counts as steady (one batch).
func judge(limitMs float64, p *paced, slack int, failed bool) verdict {
	var waited []int64
	for _, l := range p.late {
		if l >= 0 {
			waited = append(waited, l)
		}
	}
	v := verdict{lateP99us: us(quantile(waited, 0.99))}
	v.invalid = v.lateP99us/1e3 > limitMs/10
	p99 := ms(quantile(p.latency, 0.99))
	v.sustained = p99 <= limitMs && p.depthEnd <= p.depthMid+slack && !failed
	return v
}

// ladder sets the gen.* metrics from the verdicts of a rate ladder; shown
// is the step (r2) whose latencies and lateness are reported in detail.
func (o *outcome) ladder(rates []float64, vs []verdict, shown int, p *paced) {
	best, steps, invalid := 0.0, 0, 0
	for i, v := range vs {
		if v.sustained {
			best, steps = rates[i], steps+1
		}
		if v.invalid {
			invalid++
		}
	}
	o.set("gen.sustained_rate_ops_s", best)
	o.set("gen.rate_steps_sustained", float64(steps))
	o.set("gen.invalid_phases", float64(invalid))
	o.set("gen.late_us_p99", vs[shown].lateP99us)
	o.tail(p.latency)
}

// writeTrace writes trace-<workload>.json under -out, if one was given.
func writeTrace(c *config, workload string, tr *spanTracer, snap chimera.MetricsSnapshot) error {
	if c.out == "" {
		return nil
	}
	return tr.write(filepath.Join(c.out, "trace-"+workload+".json"), workload, c.seed, snap)
}
