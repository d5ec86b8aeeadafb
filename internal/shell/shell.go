// Package shell implements the interactive session logic behind the
// chimerash command: parsing one command at a time, maintaining the open
// transaction, and rendering inspection output. It lives outside the
// main package so the whole REPL surface is unit-testable.
package shell

import (
	"fmt"
	"io"
	"strings"
	"time"

	"chimera"
	"chimera/internal/calculus"
	"chimera/internal/clock"
	"chimera/internal/cond"
	"chimera/internal/lang"
	"chimera/internal/metrics"
)

// Execute additionally understands two session verbs outside the lang
// grammar: "save <path>" snapshots the database and "load <path>"
// replaces it with a restored one (both refuse inside a transaction).

// Shell is one interactive session over a database.
type Shell struct {
	db   *chimera.DB
	txn  *chimera.Txn
	rtxn *chimera.ReadTxn
	out  io.Writer
}

// InteractiveOptions is the configuration interactive sessions should
// run with: the defaults, minus Event Base compaction — `show events`
// is an inspection tool and must display the complete in-transaction
// log, not just the window live rules can still observe — plus a
// metrics registry so `show stats` can render the full instrument set.
func InteractiveOptions() chimera.Options {
	opts := chimera.DefaultOptions()
	opts.DisableCompaction = true
	opts.Metrics = chimera.NewMetricsRegistry()
	return opts
}

// New builds a session writing its output to out.
func New(db *chimera.DB, out io.Writer) *Shell {
	return &Shell{db: db, out: out}
}

// InTransaction reports whether a transaction (writing or read-only) is
// open.
func (s *Shell) InTransaction() bool { return s.txn != nil || s.rtxn != nil }

// Close rolls back any open transaction (used on session exit).
func (s *Shell) Close() {
	if s.txn != nil {
		s.txn.Rollback()
		s.txn = nil
	}
	if s.rtxn != nil {
		s.rtxn.Close()
		s.rtxn = nil
	}
}

// NeedsMore reports whether the accumulated input opens a define block
// that has not seen its "end" yet — the REPL keeps reading lines until
// the block closes.
func NeedsMore(src string) bool {
	toks, err := lang.Lex(src)
	if err != nil {
		return false // let the parser report it
	}
	depth := 0
	for _, t := range toks {
		if t.Is("define") {
			depth++
		}
		if t.Is("end") {
			depth--
		}
	}
	return depth > 0
}

// Help renders the command summary.
func (s *Shell) Help() {
	fmt.Fprint(s.out, `commands:
  class <name> [extends <super>] (attr: type, ...)   define a class
  define ... end                                     define a rule (paper syntax)
  drop rule <name>                                   remove a rule
  begin | commit | rollback                          transaction control
  begin read                                         lock-free snapshot read transaction
  create <class>(attr = literal, ...)                create an object
  modify o<N>.<attr> = literal                       update an attribute
  delete o<N>                                        delete an object
  specialize o<N>, <class> / generalize o<N>, <class>
  select <class> [where attr > 5, ...]               query (generates select events)
  raise <signal>                                     signal an external event
  show objects | rules | events | stats | stream | analysis | limits | o<N>   inspect state
  explain <rule>                                     why is the rule (not) triggered?
  save <file> / load <file>                          snapshot / restore
  quit
Each data command outside begin/commit runs as its own transaction.
`)
}

// Execute parses and runs one command (a complete define block counts as
// one command).
func (s *Shell) Execute(src string) error {
	if fields := strings.Fields(src); len(fields) == 2 && fields[0] == "explain" {
		return s.explain(fields[1])
	}
	if fields := strings.Fields(src); len(fields) == 2 &&
		fields[0] == "begin" && fields[1] == "read" {
		if s.InTransaction() {
			return fmt.Errorf("transaction already open")
		}
		rt := s.db.BeginRead()
		s.rtxn = &rt
		fmt.Fprintf(s.out, "read transaction open at epoch %d (%d object(s))\n",
			rt.Epoch(), rt.Len())
		return nil
	}
	if fields := strings.Fields(src); len(fields) == 2 &&
		(fields[0] == "save" || fields[0] == "load") {
		if s.InTransaction() {
			return fmt.Errorf("%s requires no open transaction", fields[0])
		}
		if fields[0] == "save" {
			if err := chimera.Save(s.db, fields[1]); err != nil {
				return err
			}
			fmt.Fprintf(s.out, "saved to %s\n", fields[1])
			return nil
		}
		db, err := chimera.RestoreWith(fields[1], InteractiveOptions())
		if err != nil {
			return err
		}
		s.db = db
		fmt.Fprintf(s.out, "loaded %s\n", fields[1])
		return nil
	}
	cmd, err := lang.ParseCommand(src)
	if err != nil {
		return err
	}
	if s.rtxn != nil {
		return s.readCmd(cmd)
	}
	switch c := cmd.(type) {
	case lang.CmdBegin:
		if s.txn != nil {
			return fmt.Errorf("transaction already open")
		}
		t, err := s.db.Begin()
		if err != nil {
			return err
		}
		s.txn = t
		return nil
	case lang.CmdCommit:
		if s.txn == nil {
			return fmt.Errorf("no open transaction")
		}
		err := s.txn.Commit()
		s.txn = nil
		if err == nil {
			fmt.Fprintln(s.out, "committed")
		}
		return err
	case lang.CmdRollback:
		if s.txn == nil {
			return fmt.Errorf("no open transaction")
		}
		err := s.txn.Rollback()
		s.txn = nil
		if err == nil {
			fmt.Fprintln(s.out, "rolled back")
		}
		return err
	case lang.CmdDefineClass:
		attrs := classAttrs(c.Class)
		if c.Class.Extends != "" {
			return s.db.DefineSubclass(c.Class.Name, c.Class.Extends, attrs...)
		}
		return s.db.DefineClass(c.Class.Name, attrs...)
	case lang.CmdDefineRule:
		return s.db.DefineRule(c.Rule.Def, chimera.Body{
			Condition: c.Rule.Condition, Action: c.Rule.Action})
	case lang.CmdDropRule:
		return s.db.DropRule(c.Name)
	case lang.CmdShow:
		return s.show(c)
	default:
		return s.inTxn(func(t *chimera.Txn) error { return s.data(t, cmd) })
	}
}

// inTxn runs fn inside the open transaction (as one line) or, with no
// open transaction, inside a fresh single-line transaction.
func (s *Shell) inTxn(fn func(*chimera.Txn) error) error {
	if s.txn != nil {
		if err := fn(s.txn); err != nil {
			return err
		}
		return s.txn.EndLine()
	}
	return s.db.Run(fn)
}

func (s *Shell) data(t *chimera.Txn, cmd lang.Command) error {
	switch c := cmd.(type) {
	case lang.CmdCreate:
		oid, err := t.Create(c.Class, c.Vals)
		if err != nil {
			return err
		}
		fmt.Fprintf(s.out, "created %s\n", oid)
		return nil
	case lang.CmdModify:
		return t.Modify(c.OID, c.Attr, c.Value)
	case lang.CmdDelete:
		return t.Delete(c.OID)
	case lang.CmdSpecialize:
		return t.Specialize(c.OID, c.To)
	case lang.CmdGeneralize:
		return t.Generalize(c.OID, c.To)
	case lang.CmdRaise:
		if err := t.Raise(c.Signal); err != nil {
			return err
		}
		fmt.Fprintf(s.out, "raised %s\n", c.Signal)
		return nil
	case lang.CmdSelect:
		oids, err := t.Select(c.Class)
		if err != nil {
			return err
		}
		ctx := &cond.Ctx{Store: s.db.Store(), Base: t.Base(), At: s.db.Clock().Now()}
		if oids, err = where(ctx, c, oids); err != nil {
			return err
		}
		for _, oid := range oids {
			if o, ok := t.Get(oid); ok {
				fmt.Fprintln(s.out, o)
			}
		}
		return nil
	}
	return fmt.Errorf("unhandled command %T", cmd)
}

// where keeps the objects of oids that the where atoms of a select hold
// for, in order: it seeds one condition row per object, binding the
// select's variable, and runs the atoms over the rows.
func where(ctx *cond.Ctx, c lang.CmdSelect, oids []chimera.OID) ([]chimera.OID, error) {
	if len(c.Where) == 0 {
		return oids, nil
	}
	rows := ctx.Seed(c.Var, oids)
	for _, a := range c.Where {
		var err error
		if rows, err = a.Eval(ctx, rows); err != nil {
			return nil, err
		}
	}
	kept := make([]chimera.OID, len(rows))
	for i, row := range rows {
		kept[i] = row[0].AsOID()
	}
	return kept, nil
}

// readCmd runs one parsed command inside the open read-only
// transaction: selects and object inspection serve from the pinned
// snapshot (epoch-stable no matter what writers commit meanwhile), data
// commands fail with the typed chimera.ErrReadOnly, and commit/rollback
// both just close the handle.
func (s *Shell) readCmd(cmd lang.Command) error {
	switch c := cmd.(type) {
	case lang.CmdBegin:
		return fmt.Errorf("transaction already open")
	case lang.CmdCommit, lang.CmdRollback:
		s.rtxn.Close()
		s.rtxn = nil
		fmt.Fprintln(s.out, "read transaction closed")
		return nil
	case lang.CmdSelect:
		oids, err := s.rtxn.Select(c.Class)
		if err != nil {
			return err
		}
		// Where atoms are pure comparisons (no event atoms), so the
		// snapshot alone — no Event Base — evaluates them.
		ctx := &cond.Ctx{Store: s.rtxn.Snapshot(), At: s.db.Clock().Now()}
		if oids, err = where(ctx, c, oids); err != nil {
			return err
		}
		for _, oid := range oids {
			if o, ok := s.rtxn.Get(oid); ok {
				fmt.Fprintln(s.out, o)
			}
		}
		return nil
	case lang.CmdShow:
		switch c.What {
		case "object":
			o, ok := s.rtxn.Get(c.OID)
			if !ok {
				return fmt.Errorf("no object %s at epoch %d", c.OID, s.rtxn.Epoch())
			}
			fmt.Fprintln(s.out, o)
			return nil
		case "objects":
			snap := s.rtxn.Snapshot()
			for _, class := range snap.Schema().Names() {
				oids, err := snap.Select(class)
				if err != nil {
					return err
				}
				for _, oid := range oids {
					if o, ok := snap.Get(oid); ok && o.Class().Name() == class {
						fmt.Fprintln(s.out, o)
					}
				}
			}
			return nil
		}
		return s.show(c)
	case lang.CmdCreate:
		_, err := s.rtxn.Create(c.Class, c.Vals)
		return err
	case lang.CmdModify:
		return s.rtxn.Modify(c.OID, c.Attr, c.Value)
	case lang.CmdDelete:
		return s.rtxn.Delete(c.OID)
	case lang.CmdSpecialize:
		return s.rtxn.Specialize(c.OID, c.To)
	case lang.CmdGeneralize:
		return s.rtxn.Generalize(c.OID, c.To)
	case lang.CmdRaise:
		return s.rtxn.Raise(c.Signal)
	}
	return fmt.Errorf("command unavailable in a read transaction (%T)", cmd)
}

func (s *Shell) show(c lang.CmdShow) error {
	switch c.What {
	case "object":
		o, ok := s.db.Store().Get(c.OID)
		if !ok {
			return fmt.Errorf("no object %s", c.OID)
		}
		fmt.Fprintln(s.out, o)
	case "objects":
		for _, class := range s.db.Schema().Names() {
			oids, err := s.db.Store().Select(class)
			if err != nil {
				return err
			}
			for _, oid := range oids {
				if o, ok := s.db.Store().Get(oid); ok && o.Class().Name() == class {
					fmt.Fprintln(s.out, o)
				}
			}
		}
	case "rules":
		// The triggered flags are the open transaction line's; with none
		// open, no rule is triggered.
		marks, _ := s.txn.Marks()
		triggered := make(map[string]bool, len(marks))
		for _, m := range marks {
			triggered[m.Rule] = m.Triggered
		}
		for _, name := range s.db.Support().Rules() {
			st, _ := s.db.Support().Rule(name)
			flag := ""
			if triggered[name] {
				flag = " TRIGGERED"
			}
			filter := st.Filter.Set().String()
			if st.Filter.MatchAll {
				filter = "match-all"
			}
			fmt.Fprintf(s.out, "%s [%s, %s, priority %d]%s\n  events %s\n  V(E) = %s\n",
				name, st.Def.Coupling, st.Def.Consumption, st.Def.Priority,
				flag, st.Def.Event, filter)
		}
	case "events":
		if s.txn == nil {
			return fmt.Errorf("event base is per-transaction; open one with begin")
		}
		fmt.Fprint(s.out, s.txn.Base().String())
	case "analysis":
		fmt.Fprint(s.out, chimera.Analyze(s.db))
	case "stats":
		st := s.db.Stats()
		ts := s.db.Support().Stats()
		fmt.Fprintf(s.out, "transactions %d, blocks %d, events %d, considerations %d, rule executions %d\n",
			st.Transactions, st.Blocks, st.Events, st.Considerations, st.RuleExecutions)
		fmt.Fprintf(s.out, "sessions: %d line(s) active, %d latch conflict(s)\n",
			s.db.ActiveLines(), st.Conflicts)
		fmt.Fprintf(s.out, "snapshots: published epoch %d, %d read txn(s) served\n",
			s.db.Store().PublishedEpoch(), st.ReadTxns)
		fmt.Fprintf(s.out, "trigger support: checks %d, examined %d, skipped %d, ts evaluations %d, triggerings %d\n",
			ts.Checks, ts.RulesExamined, ts.RulesSkipped, ts.TsEvaluations, ts.Triggerings)
		if ts.MemoHits+ts.MemoMisses > 0 {
			fmt.Fprintf(s.out, "shared plan: memo hits %d, misses %d (%.1f%% hit rate)\n",
				ts.MemoHits, ts.MemoMisses,
				100*float64(ts.MemoHits)/float64(ts.MemoHits+ts.MemoMisses))
		}
		if s.db.Metrics() != nil {
			fmt.Fprintln(s.out, "metrics:")
			s.db.Snapshot().WriteText(s.out)
		}
	case "sharing":
		fmt.Fprint(s.out, chimera.AnalyzeSharing(s.db))
	case "stream":
		if s.db.Metrics() == nil {
			return fmt.Errorf("no metrics registry attached to this database")
		}
		snap := s.db.Snapshot()
		if snap.Counters["chimera_stream_enqueued_total"] == 0 &&
			snap.Counters["chimera_stream_batches_total"] == 0 {
			fmt.Fprintln(s.out, "no stream session has reported yet (see chimera.OpenStream)")
			return nil
		}
		fmt.Fprintf(s.out, "ingestion: enqueued %d, dropped %d, ingested %d in %d batch(es), %d idle sweep(s)\n",
			snap.Counters["chimera_stream_enqueued_total"],
			snap.Counters["chimera_stream_dropped_total"],
			snap.Counters["chimera_stream_events_total"],
			snap.Counters["chimera_stream_batches_total"],
			snap.Counters["chimera_stream_idle_sweeps_total"])
		fmt.Fprintf(s.out, "failures: refused batches %d, budget kills %d\n",
			snap.Counters["chimera_stream_refused_total"],
			snap.Counters["chimera_stream_budget_kills_total"])
		fmt.Fprintf(s.out, "window: queue depth %d, live events %d, live segments %d\n",
			snap.Gauges["chimera_stream_queue_depth"],
			snap.Gauges["chimera_stream_live_events"],
			snap.Gauges["chimera_stream_live_segments"])
		if h, ok := snap.Histograms["chimera_stream_batch_events"]; ok && h.Count > 0 {
			fmt.Fprintf(s.out, "batch size: mean %.1f over %d batch(es)\n",
				float64(h.Sum)/float64(h.Count), h.Count)
			fmt.Fprint(s.out, "  ")
			writeHistLine(s.out, h)
		}
		if h, ok := snap.Histograms["chimera_stream_sweep_lag_ns"]; ok && h.Count > 0 {
			fmt.Fprintf(s.out, "sweep lag: mean %s\n",
				time.Duration(float64(h.Sum)/float64(h.Count)).Round(time.Microsecond))
		}
	case "limits":
		lim := s.db.Limits()
		fmtLimit := func(name string, v int64, unit string) {
			if v > 0 {
				fmt.Fprintf(s.out, "  %-18s %d %s\n", name, v, unit)
			} else {
				fmt.Fprintf(s.out, "  %-18s unlimited\n", name)
			}
		}
		fmt.Fprintln(s.out, "resource limits:")
		fmtLimit("gas", lim.GasLimit, "evaluation steps/txn")
		if lim.TimeBudget > 0 {
			fmt.Fprintf(s.out, "  %-18s %v/txn\n", "time budget", lim.TimeBudget)
		} else {
			fmt.Fprintf(s.out, "  %-18s unlimited\n", "time budget")
		}
		fmtLimit("max events", int64(lim.MaxEvents), "live occurrences/txn")
		fmtLimit("max rule execs", int64(lim.MaxRuleExecutions), "executions/txn")
		fmt.Fprintf(s.out, "hit counters: gas kills %d, deadline kills %d, event-limit hits %d, rule-limit hits %d\n",
			lim.GasKills, lim.DeadlineKills, lim.EventLimitHits, lim.RuleLimitHits)
	default:
		return fmt.Errorf("show what? (rules, objects, events, stats, stream, sharing, analysis, limits, o<N>)")
	}
	return nil
}

// writeHistLine renders one histogram as "≤bound:count" pairs, skipping
// empty buckets (the final +Inf bucket prints as ">last-bound").
func writeHistLine(w io.Writer, h metrics.HistogramSnapshot) {
	first := true
	sep := func() {
		if !first {
			fmt.Fprint(w, "  ")
		}
		first = false
	}
	for i, n := range h.Counts {
		if n == 0 {
			continue
		}
		sep()
		if i < len(h.Bounds) {
			fmt.Fprintf(w, "≤%d:%d", h.Bounds[i], n)
		} else {
			fmt.Fprintf(w, ">%d:%d", h.Bounds[len(h.Bounds)-1], n)
		}
	}
	fmt.Fprintln(w)
}

// explain renders the triggering verdict of one rule against the open
// transaction's Event Base, from the rule's horizon on that line: the
// R ≠ ∅ guard, the ∃t' probe, and the
// per-subexpression ts tree at the decisive instant, all read from a
// calculus.PlanEval, the evaluator that decides triggering.
func (s *Shell) explain(rule string) error {
	if s.txn == nil {
		return fmt.Errorf("explain needs an open transaction (the Event Base is per-transaction)")
	}
	st, ok := s.db.Support().Rule(rule)
	if !ok {
		return fmt.Errorf("no rule %q", rule)
	}
	marks, err := s.txn.Marks()
	if err != nil {
		return err
	}
	var since clock.Time
	for _, m := range marks {
		if m.Rule == rule {
			since = m.LastConsideration
		}
	}
	plan := calculus.NewPlan()
	root := plan.Intern(st.Def.Event)
	pe := calculus.NewPlanEval(plan)
	pe.Bind(s.txn.Base(), since)
	fmt.Fprintf(s.out, "rule %s\nevents %s\n", rule, st.Def.Event)
	fmt.Fprint(s.out, pe.ExplainTrigger(root, since, s.db.Clock().Now()))
	return nil
}

func classAttrs(c lang.ClassDef) []chimera.SchemaAttribute {
	out := make([]chimera.SchemaAttribute, len(c.Attrs))
	for i, a := range c.Attrs {
		out[i] = chimera.Attr(a.Name, a.Kind)
	}
	return out
}
