package rules

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"chimera/internal/calculus"
	"chimera/internal/clock"
	"chimera/internal/event"
	"chimera/internal/types"
)

// The oracle: the triggering determination as the paper defines it, one
// rule at a time over the recursive evaluator, the way the Trigger
// Support computed it before the shared plan was its only path. It has
// no V(E) filter (every non-triggered rule is examined at every check),
// no interned DAG, no memo and no columnar scan; the production support
// is held to it firing for firing, activation instant included.

// oracle is a Rule Table plus the per-rule determination: for a
// negation-free rule ts at the check instant, whose activation is
// monotone in the probe instant and so decides ∃t' in one evaluation
// (and a positive value implies R ≠ ∅); for any other rule
// Env.TriggeredAfter, which probes every arrival after the rule's last
// probe and then the check instant, and never fires on an empty R.
type oracle struct {
	base     *event.Base
	txnStart clock.Time
	ordered  []*State // by (priority, name)
	env      calculus.Env
}

func newOracle(base *event.Base, start clock.Time) *oracle {
	return &oracle{base: base, txnStart: start}
}

func (o *oracle) Define(d Def) error {
	if err := d.Validate(); err != nil {
		return err
	}
	if _, ok := o.find(d.Name); ok {
		return fmt.Errorf("oracle: rule %q already defined", d.Name)
	}
	o.ordered = append(o.ordered, &State{
		Def:               d,
		LastConsideration: o.txnStart,
		TriggeredAt:       clock.Never,
		lastProbe:         o.txnStart,
		monotone:          !calculus.ContainsNegation(d.Event),
	})
	slices.SortFunc(o.ordered, func(a, b *State) int {
		if a.Def.Priority != b.Def.Priority {
			return a.Def.Priority - b.Def.Priority
		}
		return cmp.Compare(a.Def.Name, b.Def.Name)
	})
	return nil
}

func (o *oracle) Drop(name string) error {
	i, ok := o.find(name)
	if !ok {
		return fmt.Errorf("oracle: no rule %q", name)
	}
	o.ordered = slices.Delete(o.ordered, i, i+1)
	return nil
}

func (o *oracle) find(name string) (int, bool) {
	for i, st := range o.ordered {
		if st.Def.Name == name {
			return i, true
		}
	}
	return -1, false
}

func (o *oracle) NotifyArrivals([]event.Occurrence) {}

func (o *oracle) CheckTriggered(now clock.Time) []string {
	var fired []string
	for _, st := range o.ordered {
		if st.Triggered {
			continue
		}
		o.env.Base, o.env.Since, o.env.RestrictDomain = o.base, st.LastConsideration, true
		var ok bool
		at := clock.Never
		if st.monotone {
			if v := o.env.TS(st.Def.Event, now); v.Active() {
				ok, at = true, v.Time()
			}
		} else {
			ok, at = o.env.TriggeredAfter(st.Def.Event, st.lastProbe, now)
		}
		st.lastProbe = now
		if ok {
			st.Triggered, st.TriggeredAt = true, at
			fired = append(fired, st.Def.Name)
		}
	}
	return fired
}

func (o *oracle) Pick(filter func(Def) bool) (string, bool) {
	for _, st := range o.ordered {
		if st.Triggered && (filter == nil || filter(st.Def)) {
			return st.Def.Name, true
		}
	}
	return "", false
}

func (o *oracle) Consider(name string, now clock.Time) (Consideration, error) {
	i, ok := o.find(name)
	if !ok {
		return Consideration{}, fmt.Errorf("oracle: no rule %q", name)
	}
	st := o.ordered[i]
	c := Consideration{Rule: st.Def, Since: st.LastConsideration, At: now}
	if st.Def.Consumption == Preserving {
		c.Since = o.txnStart
	}
	st.Triggered, st.TriggeredAt = false, clock.Never
	st.LastConsideration, st.lastProbe = now, now
	return c, nil
}

func (o *oracle) Rule(name string) (State, bool) {
	if i, ok := o.find(name); ok {
		return *o.ordered[i], true
	}
	return State{}, false
}

// subject is what a differential replay drives: the oracle, a Support's
// own line or a Session's.
type subject interface {
	NotifyArrivals(occs []event.Occurrence)
	CheckTriggered(now clock.Time) []string
	Pick(filter func(Def) bool) (string, bool)
	Consider(name string, now clock.Time) (Consideration, error)
	Rule(name string) (State, bool)
}

// definer is a subject whose rule set may change mid-transaction.
type definer interface {
	Define(d Def) error
	Drop(name string) error
}

// maker builds a subject over base, with defs defined and the
// transaction started at start.
type maker func(t *testing.T, base *event.Base, start clock.Time, defs []Def) subject

func defineAll(t *testing.T, d definer, defs []Def) {
	t.Helper()
	for _, def := range defs {
		if err := d.Define(def); err != nil {
			t.Fatal(err)
		}
	}
}

func reference(t *testing.T, base *event.Base, start clock.Time, defs []Def) subject {
	o := newOracle(base, start)
	defineAll(t, o, defs)
	return o
}

// production is the Support's own line.
func production(t *testing.T, base *event.Base, start clock.Time, defs []Def) subject {
	s := NewSupport(base, Options{})
	s.BeginTransaction(start)
	defineAll(t, s, defs)
	return s
}

// inSession is a Session's line over a Support whose own line serves
// nothing.
func inSession(t *testing.T, base *event.Base, start clock.Time, defs []Def) subject {
	s := NewSupport(event.NewBase(), Options{})
	defineAll(t, s, defs)
	sess := s.NewSession(base, start)
	t.Cleanup(sess.Release)
	return sess
}

// verifySubject holds a production line's block-boundary index to its
// definition (see checkIndex); the oracle has none.
func verifySubject(t *testing.T, sub subject) {
	t.Helper()
	switch s := sub.(type) {
	case *Support:
		verifyIndex(t, &s.line)
	case *Session:
		verifyIndex(t, &s.line)
	}
}

// firing is one rule's observed triggering: the differential tests
// compare both the fired set and the activation instants.
type firing struct {
	name string
	at   clock.Time
}

// replayOpts shapes a replay's workload.
type replayOpts struct {
	// segSize is the Event Base segment size (0: the default, one
	// segment larger than any replay's history).
	segSize int
	// considerAll considers every fired rule after each check; otherwise
	// up to two picks are considered, at random.
	considerAll bool
	// compact retires the base below the subject's watermark after every
	// block (production subjects only).
	compact bool
	// churn defines a fresh random rule and drops a random one between
	// blocks, now and then (definer subjects only).
	churn bool
	// spread considers every rule, each at an instant of its own and with
	// an arrival after every eighth, before every other block: the next
	// check's batch holds a horizon per rule.
	spread bool
	// kill cuts every third check of a production subject short with a
	// budget of a few units and then checks again without one. The round
	// of such a block, for every subject, is the rules that went from not
	// triggered to triggered across it, in the order of names.
	kill bool
	// seen, when set, records what the production checks exercised.
	seen *exercised
}

// exercised is what a replay's production checks covered.
type exercised struct {
	horizons     int // the most distinct horizons in one check's batch
	midWalkKills int // budget faults that left an arrival walk unfinished
}

// lineOf is a production subject's line, nil for the oracle.
func lineOf(sub subject) *line {
	switch s := sub.(type) {
	case *Support:
		return &s.line
	case *Session:
		return &s.line
	}
	return nil
}

// replay drives one subject through a deterministic workload (seeded by
// seed) and records every firing. Two subjects that agree consume the
// random stream identically, so their recordings compare block by block.
func replay(t *testing.T, mk maker, defs []Def, vocab []event.Type, seed int64, blocks int, w replayOpts) [][]firing {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	b := event.NewBaseSize(w.segSize)
	c := clock.New()
	s := mk(t, b, c.Now(), defs)
	names := make([]string, len(defs))
	for i, d := range defs {
		names[i] = d.Name
	}
	gen := calculus.GenOptions{Types: vocab, MaxDepth: 3,
		AllowNegation: true, AllowInstance: true, AllowPrecedence: true}
	var rounds [][]firing
	for block := 0; block < blocks; block++ {
		if w.churn {
			d := s.(definer)
			if r.Intn(3) == 0 {
				def := Def{Name: fmt.Sprintf("late%02d", block), Event: calculus.GenExpr(r, gen), Priority: r.Intn(5)}
				if err := d.Define(def); err != nil {
					t.Fatal(err)
				}
				names = append(names, def.Name)
			}
			if r.Intn(4) == 0 && len(names) > 0 {
				k := r.Intn(len(names))
				if err := d.Drop(names[k]); err != nil {
					t.Fatal(err)
				}
				names = slices.Delete(names, k, k+1)
			}
		}
		arrive := func(n int) {
			var occs []event.Occurrence
			for i := 0; i < n; i++ {
				occ, err := b.Append(vocab[r.Intn(len(vocab))], types.OID(1+r.Intn(3)), c.Tick())
				if err != nil {
					t.Fatal(err)
				}
				occs = append(occs, occ)
			}
			s.NotifyArrivals(occs)
		}
		if w.spread && block%2 == 0 {
			for i, name := range names {
				if _, err := s.Consider(name, c.Tick()); err != nil {
					t.Fatal(err)
				}
				if i%8 == 7 {
					arrive(1)
				}
			}
		}
		arrive(1 + r.Intn(4))
		verifySubject(t, s)
		var round []firing
		if w.kill && block%3 == 1 {
			round = killedCheck(t, s, names, c.Now(), int64(1+block%5), w.seen)
		} else {
			fired := s.CheckTriggered(c.Now())
			w.seen.batch(lineOf(s))
			for _, name := range fired {
				st, ok := s.Rule(name)
				if !ok {
					t.Fatalf("fired unknown rule %q", name)
				}
				round = append(round, firing{name: name, at: st.TriggeredAt})
			}
		}
		verifySubject(t, s)
		rounds = append(rounds, round)
		if w.considerAll {
			for _, f := range round {
				if _, err := s.Consider(f.name, c.Tick()); err != nil {
					t.Fatal(err)
				}
				verifySubject(t, s)
			}
		} else {
			// Consider a few triggered rules so windows restart mid-run.
			for k := 0; k < 2; k++ {
				if name, ok := s.Pick(nil); ok && r.Intn(2) == 0 {
					if _, err := s.Consider(name, c.Tick()); err != nil {
						t.Fatal(err)
					}
					verifySubject(t, s)
				}
			}
		}
		if w.compact {
			b.CompactBelow(s.(*Support).Watermark())
		}
	}
	return rounds
}

// killedCheck runs a block's check on a production subject under a
// budget of gas units, then again without one, and returns the rules
// triggered across the two, in the order of names; on the oracle it is
// one plain check.
func killedCheck(t *testing.T, s subject, names []string, now clock.Time, gas int64, seen *exercised) []firing {
	t.Helper()
	was := make(map[string]bool)
	for _, name := range names {
		st, _ := s.Rule(name)
		was[name] = st.Triggered
	}
	if b, ok := s.(interface{ SetBudget(*calculus.Budget) }); ok {
		b.SetBudget(calculus.NewBudget(gas, time.Time{}))
		err := calculus.CatchBudget(func() { s.CheckTriggered(now) })
		b.SetBudget(nil)
		seen.batch(lineOf(s))
		if l := lineOf(s); err != nil && l.probe.base == nil && l.probe.lo != nil && seen != nil {
			seen.midWalkKills++
		}
		verifySubject(t, s)
	}
	s.CheckTriggered(now)
	var round []firing
	for _, name := range names {
		if st, _ := s.Rule(name); st.Triggered && !was[name] {
			round = append(round, firing{name: name, at: st.TriggeredAt})
		}
	}
	return round
}

// batch records the distinct horizons of a production line's last batch.
func (e *exercised) batch(l *line) {
	if e == nil || l == nil {
		return
	}
	horizons := make(map[clock.Time]bool)
	for _, st := range l.checkBuf {
		horizons[st.LastConsideration] = true
	}
	e.horizons = max(e.horizons, len(horizons))
}

// sameFirings fails the test at the first block where got and want
// differ.
func sameFirings(t *testing.T, tag string, want, got [][]firing) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rounds, want %d", tag, len(got), len(want))
	}
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("%s round %d: oracle fired %v, production fired %v", tag, i, want[i], got[i])
		}
	}
}
