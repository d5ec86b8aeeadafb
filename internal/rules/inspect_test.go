package rules

import (
	"chimera/internal/event"
)

// Inspection reads that only this package's tests make on a Session.

// tidsOf resolves each occurrence's type to its id in b's registry, the
// way Support.NotifyArrivals does, for the tests that announce
// occurrences to a Session.
func tidsOf(b *event.Base, occs []event.Occurrence) []int32 {
	tids := make([]int32, 0, len(occs))
	for _, occ := range occs {
		tids = append(tids, b.Registry().Intern(occ.Type))
	}
	return tids
}

// Triggered lists the session's currently triggered rules in priority
// order, optionally restricted to the rules filter accepts.
func (sess *Session) Triggered(filter func(Def) bool) []string {
	sess.sync()
	var out []string
	sess.trig.each(func(r int32) bool {
		if d := sess.sup.ordered[r].Def; filter == nil || filter(d) {
			out = append(out, d.Name)
		}
		return true
	})
	return out
}
