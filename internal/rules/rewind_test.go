package rules

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"chimera/internal/calculus"
	"chimera/internal/clock"
)

// plainMarks copies the session's marks without their savepoint
// generation, which only the session that took the savepoints has.
func plainMarks(sess *Session) []mark {
	ms := slices.Clone(sess.marks)
	for i := range ms {
		ms[i].saved = 0
	}
	return ms
}

// TestSessionRewindReturnsToSavepoint drives a session through blocks
// of arrivals, checks and considerations, refusing some of them (a few
// cut short by an exhausted budget mid-check): a refused block leaves
// every mark, probe cursor and pending bit as the savepoint found them,
// with an index that agrees with the full walk, and an accepted block
// decides what a session that never saw the refused ones decides.
func TestSessionRewindReturnsToSavepoint(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		r := rand.New(rand.NewSource(seed))
		s := supportWith(t, scriptDefs(r, 30, "r"))
		b, rb, c := s.testBase(4), s.testBase(4), clock.New()
		sess, ref := s.NewSession(b, c.Now()), s.NewSession(rb, c.Now())
		b.Savepoint()
		saved := plainMarks(sess)
		type consideration struct {
			rule string
			at   clock.Time
		}
		for block := 0; block < 40; block++ {
			where := fmt.Sprintf("seed %d block %d", seed, block)
			occs := scriptArrivals(t, r, b, c)
			refuse := r.Intn(3) == 0
			if refuse && r.Intn(2) == 0 {
				sess.SetBudget(calculus.NewBudget(int64(r.Intn(4)), time.Time{}))
			}
			now := c.Now()
			var fired []string
			var considered []consideration
			sess.NotifyArrivals(tidsOf(b, occs))
			if err := calculus.CatchBudget(func() { fired = slices.Clone(sess.CheckTriggered(now)) }); err == nil {
				for k := 0; k < 2; k++ {
					if name, ok := sess.Pick(nil); ok && r.Intn(2) == 0 {
						at := c.Tick()
						if _, err := sess.Consider(name, at); err != nil {
							t.Fatal(err)
						}
						considered = append(considered, consideration{name, at})
					}
				}
			}
			sess.SetBudget(nil)
			if refuse {
				sess.Rewind()
				b.Rewind()
				if got := plainMarks(sess); !slices.Equal(got, saved) {
					t.Fatalf("%s: rewound marks\n%v\nwant\n%v", where, got, saved)
				}
				verifyIndex(t, sess)
				continue
			}
			for _, o := range occs {
				if _, err := rb.Append(o.Type, o.OID, o.Timestamp); err != nil {
					t.Fatal(err)
				}
			}
			ref.NotifyArrivals(tidsOf(rb, occs))
			if want := ref.CheckTriggered(now); !slices.Equal(fired, want) {
				t.Fatalf("%s: fired %v, the session without refusals %v", where, fired, want)
			}
			for _, cn := range considered {
				if _, err := ref.Consider(cn.rule, cn.at); err != nil {
					t.Fatal(err)
				}
			}
			sess.Savepoint()
			b.Savepoint()
			saved = plainMarks(sess)
			if want := plainMarks(ref); !slices.Equal(saved, want) {
				t.Fatalf("%s: marks\n%v\nwant\n%v", where, saved, want)
			}
			verifyIndex(t, sess)
		}
		sess.Release()
		ref.Release()
	}
}
