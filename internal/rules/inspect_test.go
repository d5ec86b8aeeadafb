package rules

// Inspection reads that only this package's tests make on a line.

// lineView is a View that also lists its triggered rules.
type lineView interface {
	View
	Triggered(filter func(Def) bool) []string
}

// ResetStats zeroes the work counters.
func (s *Support) ResetStats() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats = Stats{}
}

// Triggered returns the currently triggered rules in priority order,
// optionally restricted to one coupling mode.
func (s *Support) Triggered(filter func(Def) bool) []string {
	s.rlockSynced()
	defer s.mu.RUnlock()
	return s.line.triggeredNames(filter)
}

// Triggered lists the session's currently triggered rules.
func (sess *Session) Triggered(filter func(Def) bool) []string {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.line.triggeredNames(filter)
}

func (l *line) triggeredNames(filter func(Def) bool) []string {
	l.sync()
	var out []string
	l.each(l.trig, func(st *State) bool {
		if filter == nil || filter(st.Def) {
			out = append(out, st.Def.Name)
		}
		return true
	})
	return out
}

// Rule returns a copy of the session's state for one rule.
func (sess *Session) Rule(name string) (State, bool) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.line.rule(name)
}
