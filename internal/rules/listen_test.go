package rules

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"chimera/internal/calculus"
	"chimera/internal/clock"
	"chimera/internal/event"
	"chimera/internal/types"
)

// byTypeOracle is the listening index as the registry once kept it, by
// event.Type: for each type the rules whose V(E) filter an arrival of
// that type matches (its Δ+ and Δ± types), and the match-all rules,
// which every arrival reaches. It is the definition the arrival table,
// keyed by type id, is held to.
type byTypeOracle struct {
	byType   map[event.Type][]*State
	matchAll []*State
}

func newByTypeOracle(s *Support) byTypeOracle {
	o := byTypeOracle{byType: map[event.Type][]*State{}}
	for _, st := range s.ordered {
		if st.Filter.MatchAll {
			o.matchAll = append(o.matchAll, st)
			continue
		}
		for _, ty := range st.Filter.RelevantTypes() {
			o.byType[ty] = append(o.byType[ty], st)
		}
	}
	return o
}

// pendingAfter is the set of ranks pending on l once arrivals of tys are
// announced: those pending now, and every rule an arrival reaches that is
// not triggered.
func (o byTypeOracle) pendingAfter(l *Session, tys []event.Type) []int32 {
	set := pendingRanks(l)
	reach := func(st *State) {
		if !l.marks[st.rank].triggered && !slices.Contains(set, st.rank) {
			set = append(set, st.rank)
		}
	}
	if len(tys) > 0 {
		for _, st := range o.matchAll {
			reach(st)
		}
	}
	for _, ty := range tys {
		for _, st := range o.byType[ty] {
			reach(st)
		}
	}
	slices.Sort(set)
	return set
}

func pendingRanks(l *Session) []int32 {
	var out []int32
	for i, m := range l.marks {
		if m.pending {
			out = append(out, int32(i))
		}
	}
	return out
}

// listenVocab is what the differential appends: the rule vocabulary plus
// two signals no rule mentions, interned only when they first arrive.
var listenVocab = append(calculus.DefaultVocabulary(), event.External("x"), event.External("y"))

// listenDefs draws n random rules and adds the shapes the table must
// file right: a match-all rule (an instance negation), and a rule whose
// V(E) gives a type only a Δ− variation (a negation-only type), whose
// arrivals must not reach it.
func listenDefs(r *rand.Rand, n int) []Def {
	defs := scriptDefs(r, n, "r")
	return append(defs,
		Def{Name: "all", Event: calculus.NegI(calculus.P(event.Create("show")))},
		Def{Name: "neg", Event: calculus.Conj(
			calculus.P(event.Create("stock")), calculus.Neg(calculus.P(event.Modify("show", "quantity"))))},
	)
}

// listenBlock appends one to four random arrivals to b, announces them
// to the Session through announce, and holds its pending set to the
// oracle's; then it checks the block and considers some of what fired.
func listenBlock(t *testing.T, tag string, r *rand.Rand, l *Session, b *event.Base, c *clock.Clock, announce func(tids []int32, tys []event.Type), check func(clock.Time) []string, consider func(string, clock.Time)) {
	t.Helper()
	var tids []int32
	var tys []event.Type
	for i := 1 + r.Intn(4); i > 0; i-- {
		ty := listenVocab[r.Intn(len(listenVocab))]
		tid, err := b.AppendTID(ty, types.OID(1+r.Intn(3)), c.Tick())
		if err != nil {
			t.Fatal(err)
		}
		tids, tys = append(tids, tid), append(tys, ty)
	}
	want := newByTypeOracle(l.sup).pendingAfter(l, tys)
	announce(tids, tys)
	if got := pendingRanks(l); !slices.Equal(got, want) {
		t.Fatalf("%s: arrivals %v leave ranks %v pending, the by-type index says %v", tag, tys, got, want)
	}
	verifyIndex(t, l)
	for _, name := range check(c.Now()) {
		if r.Intn(2) == 0 {
			consider(name, c.Tick())
		}
	}
}

// The arrival table, keyed by type id, marks exactly the rules the
// by-type index marked, after every block: on a session over a fresh
// base of the Support's registry, on a session over a base RestoreBase
// rebuilt into that registry from a base of another registry, whose
// types arrived in another order and took other ids, and on the
// Sessions the kernel-only calls open, whose NotifyArrivals resolves
// occurrences' types, with the rule set changing between them. Every
// rule set holds match-all rules and negation-only types, and the
// arrivals include types no rule mentions, registered after the Session
// opened.
func TestArrivalTableMatchesByType(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		r := rand.New(rand.NewSource(seed))
		s := supportWith(t, listenDefs(r, 40))

		// A session over a fresh base, and one over a restored base.
		for _, restored := range []bool{false, true} {
			b, c := s.testBase(4), clock.New()
			if restored {
				src := event.NewBaseSize(4)
				for _, i := range r.Perm(len(listenVocab)) {
					if _, err := src.Append(listenVocab[i], 9, c.Tick()); err != nil {
						t.Fatal(err)
					}
				}
				st, err := src.ExportState()
				if err != nil {
					t.Fatal(err)
				}
				frames := slices.Clone(st.Sealed)
				if st.Tail != nil {
					frames = append(frames, *st.Tail)
				}
				if b, err = event.RestoreBase(s.reg, st.Meta, frames, 1); err != nil {
					t.Fatal(err)
				}
				remapped := false
				for id, ty := range st.Meta.Types {
					remapped = remapped || s.reg.Intern(ty) != int32(id)
				}
				if !remapped {
					t.Fatalf("seed %d: the restore kept the exported base's ids", seed)
				}
			}
			sess := s.NewSession(b, c.Now())
			for block := 0; block < 30; block++ {
				tag := fmt.Sprintf("seed %d restored %v block %d", seed, restored, block)
				listenBlock(t, tag, r, sess, b, c,
					func(tids []int32, _ []event.Type) { sess.NotifyArrivals(tids) },
					sess.CheckTriggered,
					func(name string, at clock.Time) {
						if _, err := sess.Consider(name, at); err != nil {
							t.Fatal(err)
						}
					})
			}
			sess.Release()
		}

		// The kernel-only calls, over a base that saw the signals first,
		// with a rule defined or dropped between two of their transactions
		// now and then.
		b, c := event.NewBaseSize(4), clock.New()
		for _, ty := range listenVocab[len(listenVocab)-2:] {
			if _, err := b.Append(ty, 9, c.Tick()); err != nil {
				t.Fatal(err)
			}
		}
		d := NewSupport(b, Options{})
		defineAll(t, d, listenDefs(r, 20))
		d.BeginTransaction(c.Now())
		extra := 0
		for block := 0; block < 40; block++ {
			switch r.Intn(5) {
			case 0:
				def := scriptDefs(r, 1, fmt.Sprintf("x%d-", extra))[0]
				extra++
				d.own.Release()
				if err := d.Define(def); err != nil {
					t.Fatal(err)
				}
				d.BeginTransaction(c.Now())
			case 1:
				if names := d.Rules(); len(names) > 0 {
					d.own.Release()
					if err := d.Drop(names[r.Intn(len(names))]); err != nil {
						t.Fatal(err)
					}
					d.BeginTransaction(c.Now())
				}
			}
			tag := fmt.Sprintf("seed %d kernel block %d", seed, block)
			listenBlock(t, tag, r, d.own, b, c,
				func(_ []int32, tys []event.Type) {
					occs := make([]event.Occurrence, len(tys))
					for i, ty := range tys {
						occs[i] = event.Occurrence{Type: ty}
					}
					d.NotifyArrivals(occs)
				},
				d.CheckTriggered,
				func(name string, at clock.Time) {
					if _, err := d.Consider(name, at); err != nil {
						t.Fatal(err)
					}
				})
		}
		d.own.Release()
	}
}

// A session builds no table: the Support's arrival table, derived once
// per rule set, is the one every line reads, whatever its base — a
// NewSession leaves a poisoned entry of it as it was. And a recycled
// session over a fresh base of the Support's registry opens, announces
// an arrival through the table and is released without allocating.
func TestNewSessionBuildsNoTable(t *testing.T) {
	s := supportWith(t, listenDefs(rand.New(rand.NewSource(3)), 200))
	s.NewSession(s.testBase(0), 0).Release() // derives the table
	kept := s.listen.ranks[0]
	s.listen.ranks[0] = -1
	s.NewSession(s.testBase(0), 0).Release()
	if s.listen.ranks[0] != -1 {
		t.Fatal("NewSession rebuilt the arrival table")
	}
	s.listen.ranks[0] = kept

	const runs = 50
	bases := make([]*event.Base, runs+1) // AllocsPerRun warms up with one run
	for i := range bases {
		bases[i] = s.testBase(0)
	}
	tids := []int32{s.reg.Intern(event.Create("stock"))}
	next, reached := 0, 0
	if a := testing.AllocsPerRun(runs, func() {
		sess := s.NewSession(bases[next], 0)
		next++
		sess.NotifyArrivals(tids)
		reached = 0
		for _, m := range sess.marks {
			if m.pending {
				reached++
			}
		}
		sess.Release()
	}); a != 0 {
		t.Errorf("a recycled session over a fresh base allocates %v times", a)
	}
	if reached == 0 {
		t.Fatal("the arrival reached no rule")
	}
}
