package calculus

import (
	"math/rand"

	"chimera/internal/clock"
	"chimera/internal/event"
	"chimera/internal/types"
)

// HistoryOptions controls random event-history generation.
type HistoryOptions struct {
	// Types is the primitive vocabulary occurrences are drawn from.
	Types []event.Type
	// Objects is the number of distinct OIDs in play.
	Objects int
	// Events is the number of occurrences to generate.
	Events int
}

// GenHistory appends a random history to a fresh Event Base, driving the
// supplied clock (one tick per occurrence), and returns the base together
// with the final time.
func GenHistory(r *rand.Rand, c *clock.Clock, o HistoryOptions) (*event.Base, clock.Time) {
	if len(o.Types) == 0 || o.Objects <= 0 {
		panic("calculus: GenHistory needs types and objects")
	}
	b := event.NewBase()
	var last clock.Time
	for i := 0; i < o.Events; i++ {
		t := o.Types[r.Intn(len(o.Types))]
		oid := types.OID(1 + r.Intn(o.Objects))
		last = c.Tick()
		if _, err := b.Append(t, oid, last); err != nil {
			panic(err) // the clock is strictly monotone; Append cannot fail
		}
	}
	// One extra tick so "now" lies strictly after the last arrival.
	return b, c.Tick()
}
