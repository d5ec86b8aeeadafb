package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"chimera/internal/calculus"
	"chimera/internal/clock"
	"chimera/internal/cond"
	"chimera/internal/event"
	"chimera/internal/metrics"
	"chimera/internal/rules"
	"chimera/internal/types"
)

// Differential testing of the observability layer: metrics and tracer
// enabled vs disabled must be observably inert — identical triggerings,
// identical rule executions, identical final database fingerprints —
// filtered and not, compacting and not. The instrumentation may only
// watch the engine, never steer it.

// spanRecorder records the structured lifecycle spans and checks their
// invariants (balanced BlockStart/BlockEnd, transaction bracketing).
type spanRecorder struct {
	NopTracer
	blockStarts, blockEnds int
	sweepStarts, sweepEnds int
	txnStarts, txnEnds     int
	considered, executed   int
	triggeredSeq           []string // RuleTriggered names, in firing order
	compactedOccs          int
	compactedSegs          int
	maxDepth, depth        int
}

func (r *spanRecorder) BlockStart(events int) {
	r.blockStarts++
	r.depth++
	if r.depth > r.maxDepth {
		r.maxDepth = r.depth
	}
}
func (r *spanRecorder) BlockEnd(events int, triggered []string) {
	r.blockEnds++
	r.depth--
}
func (r *spanRecorder) SweepStart(at clock.Time) { r.sweepStarts++ }
func (r *spanRecorder) SweepEnd(examined, fired int) {
	r.sweepEnds++
}
func (r *spanRecorder) RuleTriggered(rule string, at clock.Time, events int) {
	r.triggeredSeq = append(r.triggeredSeq, fmt.Sprintf("%s@t%d", rule, at))
}
func (r *spanRecorder) Compaction(occs, segs int, wm clock.Time) {
	r.compactedOccs += occs
	r.compactedSegs += segs
}
func (r *spanRecorder) Considered(rule string, since, at clock.Time, bindings int) {
	r.considered++
}
func (r *spanRecorder) Executed(rule string)          { r.executed++ }
func (r *spanRecorder) TransactionStart(s clock.Time) { r.txnStarts++ }
func (r *spanRecorder) TransactionEnd(committed bool) { r.txnEnds++ }

// addFillerRules defines n deterministic immediate consuming rules over
// the diff schema whose conditions never hold: they trigger, get
// considered and detrigger without mutating anything, which (a) widens
// the batch every check examines, and (b) keeps every rule's
// consideration horizon moving so the consumption low-watermark
// advances and compaction retires segments.
func addFillerRules(t *testing.T, db *DB, n int) {
	t.Helper()
	create := calculus.P(event.Create("item"))
	mod := calculus.P(event.Modify("item", "n"))
	del := calculus.P(event.Delete("item"))
	neverTrue := cond.Formula{Atoms: []cond.Atom{
		cond.Class{Class: "item", Var: "S"},
		cond.Compare{L: cond.Attr{Var: "S", Attr: "n"}, Op: cond.CmpGt,
			R: cond.Const{V: types.Int(1 << 40)}},
	}}
	for i := 0; i < n; i++ {
		var e calculus.Expr
		switch i % 4 {
		case 0:
			e = calculus.Disj(create, mod)
		case 1:
			// Non-monotone: exercises the ∃t' sweep, not the boundary
			// collapse.
			e = calculus.Conj(create, calculus.Neg(del))
		case 2:
			e = calculus.Disj(create, calculus.P(event.External(fmt.Sprintf("sig%d", i%3))))
		default:
			e = calculus.Conj(mod, calculus.Neg(calculus.Prec(del, create)))
		}
		if err := db.DefineRule(
			rules.Def{Name: fmt.Sprintf("fill%02d", i), Event: e, Priority: 100 + i},
			Body{Condition: neverTrue},
		); err != nil {
			t.Fatal(err)
		}
	}
}

// obsConfigs are the engine configurations the inertness claim is
// pinned on.
var obsConfigs = []struct {
	name    string
	fillers int
	opts    Options
}{
	{"sequential", 0, Options{}},
	// 40 fillers whose types arrive: the batch holds many rules, each at
	// a horizon of its own.
	{"fillers", 40, Options{}},
	{"compacting", 40, Options{SegmentSize: 4}},
	{"no-compaction", 0, Options{DisableCompaction: true}},
}

// buildObsDB builds the differential database for one config,
// optionally instrumented.
func buildObsDB(t *testing.T, cfg Options, fillers int, reg *metrics.Registry, seed int64) *DB {
	t.Helper()
	cfg.Metrics = reg
	db := buildDiffDB(t, cfg, seed)
	if fillers > 0 {
		addFillerRules(t, db, fillers)
	}
	return db
}

func TestDifferentialInstrumentationInert(t *testing.T) {
	for _, cfg := range obsConfigs {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			for trial := 0; trial < 8; trial++ {
				seed := int64(4000 + trial)
				// Long enough that the 4-occurrence segments of the
				// compacting config roll over many times.
				ops := genWorkload(rand.New(rand.NewSource(seed)), 240)

				// Reference: no metrics, no tracer.
				plain := buildObsDB(t, cfg.opts, cfg.fillers, nil, seed)
				runDiffWorkload(t, plain, ops)

				// Tracer only.
				traced := buildObsDB(t, cfg.opts, cfg.fillers, nil, seed)
				tr1 := &spanRecorder{}
				traced.SetTracer(tr1)
				runDiffWorkload(t, traced, ops)

				// Metrics + tracer.
				reg := metrics.NewRegistry()
				full := buildObsDB(t, cfg.opts, cfg.fillers, reg, seed)
				tr2 := &spanRecorder{}
				full.SetTracer(tr2)
				runDiffWorkload(t, full, ops)

				// The observable outcomes must be bit-identical.
				fpPlain, fpTraced, fpFull := fingerprint(plain), fingerprint(traced), fingerprint(full)
				if fpPlain != fpTraced {
					t.Fatalf("trial %d: tracer perturbed the database:\n--- plain\n%s--- traced\n%s",
						trial, fpPlain, fpTraced)
				}
				if fpPlain != fpFull {
					t.Fatalf("trial %d: metrics perturbed the database:\n--- plain\n%s--- instrumented\n%s",
						trial, fpPlain, fpFull)
				}
				if plain.Stats() != traced.Stats() || plain.Stats() != full.Stats() {
					t.Fatalf("trial %d: engine counters diverged: plain %+v traced %+v full %+v",
						trial, plain.Stats(), traced.Stats(), full.Stats())
				}
				if a, b := plain.Support().Stats().Triggerings, full.Support().Stats().Triggerings; a != b {
					t.Fatalf("trial %d: triggerings diverged: %d vs %d", trial, a, b)
				}
				// Same triggered rules, in the same order, at the same
				// instants (tracer-only vs metrics+tracer).
				if fmt.Sprint(tr1.triggeredSeq) != fmt.Sprint(tr2.triggeredSeq) {
					t.Fatalf("trial %d: triggering sequences diverged:\n%v\n%v",
						trial, tr1.triggeredSeq, tr2.triggeredSeq)
				}

				checkSpanInvariants(t, trial, tr2, full)
				checkMetricsTruth(t, trial, reg, full)
			}
		})
	}
}

// checkSpanInvariants asserts the structural guarantees the Tracer
// contract documents.
func checkSpanInvariants(t *testing.T, trial int, tr *spanRecorder, db *DB) {
	t.Helper()
	if tr.blockStarts != tr.blockEnds {
		t.Fatalf("trial %d: unbalanced block spans: %d starts, %d ends",
			trial, tr.blockStarts, tr.blockEnds)
	}
	if tr.depth != 0 {
		t.Fatalf("trial %d: block span depth %d at quiescence", trial, tr.depth)
	}
	if tr.sweepStarts != tr.sweepEnds {
		t.Fatalf("trial %d: unbalanced sweep spans: %d starts, %d ends",
			trial, tr.sweepStarts, tr.sweepEnds)
	}
	if tr.txnStarts != tr.txnEnds {
		t.Fatalf("trial %d: unbalanced transactions: %d starts, %d ends",
			trial, tr.txnStarts, tr.txnEnds)
	}
	st := db.Stats()
	if int64(tr.blockEnds) != st.Blocks {
		t.Fatalf("trial %d: %d block spans, engine counted %d blocks",
			trial, tr.blockEnds, st.Blocks)
	}
	if int64(tr.considered) != st.Considerations {
		t.Fatalf("trial %d: %d Considered spans, engine counted %d",
			trial, tr.considered, st.Considerations)
	}
	if int64(tr.executed) != st.RuleExecutions {
		t.Fatalf("trial %d: %d Executed spans, engine counted %d",
			trial, tr.executed, st.RuleExecutions)
	}
}

// checkMetricsTruth asserts the registry reports exactly what the
// engine's own counters saw — metrics must tell the truth, not an
// approximation.
func checkMetricsTruth(t *testing.T, trial int, reg *metrics.Registry, db *DB) {
	t.Helper()
	s := reg.Snapshot()
	st := db.Stats()
	ts := db.Support().Stats()
	for _, c := range []struct {
		name string
		want int64
	}{
		{"chimera_engine_transactions_total", st.Transactions},
		{"chimera_engine_blocks_total", st.Blocks},
		{"chimera_engine_events_total", st.Events},
		{"chimera_engine_considerations_total", st.Considerations},
		{"chimera_engine_executions_total", st.RuleExecutions},
		{"chimera_eb_appends_total", st.Events},
		{"chimera_trigger_checks_total", ts.Checks},
		{"chimera_trigger_rules_examined_total", ts.RulesExamined},
		{"chimera_trigger_rules_skipped_total", ts.RulesSkipped},
		{"chimera_trigger_ts_evals_total", ts.TsEvaluations},
		{"chimera_trigger_triggerings_total", ts.Triggerings},
	} {
		if got := s.Counters[c.name]; got != c.want {
			t.Fatalf("trial %d: %s = %d, engine saw %d", trial, c.name, got, c.want)
		}
	}
	if got := s.Counters["chimera_engine_commits_total"] + s.Counters["chimera_engine_rollbacks_total"]; got != st.Transactions {
		t.Fatalf("trial %d: commits+rollbacks %d != transactions %d", trial, got, st.Transactions)
	}
}

// TestCompactingPathExercised pins that the compacting configuration
// above actually reaches the machinery it claims to cover: it retires
// segments, and the Compaction spans agree with the metrics. Without
// this the inertness suite could silently degrade into copies of the
// sequential test.
func TestCompactingPathExercised(t *testing.T) {
	seed := int64(4000)
	ops := genWorkload(rand.New(rand.NewSource(seed)), 240)

	regComp := metrics.NewRegistry()
	compacting := buildObsDB(t, Options{SegmentSize: 4}, 40, regComp, seed)
	tr := &spanRecorder{}
	compacting.SetTracer(tr)
	runDiffWorkload(t, compacting, ops)
	snap := regComp.Snapshot()
	if snap.Counters["chimera_eb_occurrences_retired_total"] == 0 {
		t.Fatal("compacting config retired nothing (watermark never advanced?)")
	}
	if tr.compactedOccs != int(snap.Counters["chimera_eb_occurrences_retired_total"]) {
		t.Fatalf("Compaction spans saw %d occurrences retired, metrics saw %d",
			tr.compactedOccs, snap.Counters["chimera_eb_occurrences_retired_total"])
	}
	if tr.compactedSegs != int(snap.Counters["chimera_eb_segments_retired_total"]) {
		t.Fatalf("Compaction spans saw %d segments retired, metrics saw %d",
			tr.compactedSegs, snap.Counters["chimera_eb_segments_retired_total"])
	}
}
