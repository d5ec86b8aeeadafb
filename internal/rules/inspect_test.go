package rules

import (
	"chimera/internal/clock"
	"chimera/internal/event"
)

// Inspection reads that only this package's tests make on a line.

// lineView is what the tests that hold a line to a full walk read: the
// direct line through the Support, or a Session.
type lineView interface {
	CheckTriggered(now clock.Time) []string
	Watermark() clock.Time
	Pick(filter func(Def) bool) (string, bool)
	Stats() Stats
	Triggered(filter func(Def) bool) []string
}

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

// occSession is a Session announced occurrences, for the differential
// replays whose subjects all take them.
type occSession struct{ *Session }

func (o occSession) NotifyArrivals(occs []event.Occurrence) {
	o.Session.NotifyArrivals(tidsOf(o.base, occs))
}

// ResetStats zeroes the work counters.
func (s *Support) ResetStats() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats = Stats{}
}

// Triggered returns the direct line's currently triggered rules in
// priority order, optionally restricted to one coupling mode.
func (s *Support) Triggered(filter func(Def) bool) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.line.triggeredNames(filter)
}

// Triggered lists the session's currently triggered rules.
func (sess *Session) Triggered(filter func(Def) bool) []string {
	return sess.line.triggeredNames(filter)
}

func (l *line) triggeredNames(filter func(Def) bool) []string {
	l.sync()
	var out []string
	l.trig.each(func(r int32) bool {
		if d := l.sup.ordered[r].Def; filter == nil || filter(d) {
			out = append(out, d.Name)
		}
		return true
	})
	return out
}

// Mark returns one rule's mark on the direct line.
func (s *Support) Mark(name string) (Mark, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.line.markOf(name)
}

// TxnStart returns the direct line's transaction start.
func (s *Support) TxnStart() clock.Time {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.txnStart
}
