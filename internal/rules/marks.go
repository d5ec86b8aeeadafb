package rules

import (
	"fmt"

	"chimera/internal/clock"
)

// Mark is the durable per-rule triggering state: the consideration
// horizon (the input to the consumption low-watermark) and the
// triggered flag with its activation instant. It is exactly the
// per-rule state a checkpoint must carry — everything else in State is
// either derivable (filters, plan nodes, mention bitsets are recompiled
// on Define) or probe scratch that recovery conservatively re-arms.
type Mark struct {
	Rule              string
	LastConsideration clock.Time
	Triggered         bool
	TriggeredAt       clock.Time
}

// Marks snapshots every defined rule's durable state, in priority
// order. The engine's checkpoint writer calls it at a block boundary
// (no check in flight), so the snapshot is consistent with the
// watermark the same checkpoint records.
func (s *Support) Marks() []Mark {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Mark, 0, len(s.ordered))
	for _, st := range s.ordered {
		out = append(out, st.mark())
	}
	return out
}

// RestoreMarks reinstates a checkpoint's marks after BeginTransaction
// has opened the recovered transaction. Every defined rule must be
// covered by exactly one mark (the checkpoint and the rule set are
// written together, and rules cannot be defined mid-transaction).
//
// Probe scratch is re-armed conservatively: lastProbe rewinds to the
// consideration horizon and pending is set, so the next check re-probes
// the rule's whole window. That is semantically inert — activation at
// an instant depends only on the window content, so re-probing instants
// that decided "not triggered" before the crash decides the same way
// again, and a triggered rule's flag arrives from the mark (checks skip
// triggered rules) — but it means recovery never has to serialize
// probe cursors or memo state.
func (s *Support) RestoreMarks(ms []Mark) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(ms) != len(s.rules) {
		return fmt.Errorf("rules: %d marks for %d defined rules", len(ms), len(s.rules))
	}
	seen := make(map[string]bool, len(ms))
	for _, m := range ms {
		st, ok := s.rules[m.Rule]
		if !ok {
			return fmt.Errorf("rules: mark for undefined rule %q", m.Rule)
		}
		if seen[m.Rule] {
			return fmt.Errorf("rules: duplicate mark for rule %q", m.Rule)
		}
		seen[m.Rule] = true
		st.LastConsideration = m.LastConsideration
		st.Triggered = m.Triggered
		st.TriggeredAt = m.TriggeredAt
		st.lastProbe = m.LastConsideration
		st.pending = true
	}
	s.stale = true
	return nil
}

// RestoreTriggered reinstates one rule's triggered flag during WAL
// replay. The engine logs each block's newly fired rules with their
// activation instants; replay sets them back verbatim instead of
// re-running the triggering determination, which keeps recovery
// bit-identical (TriggeredAt of an already-triggered rule is latched at
// the first activation and cannot be recomputed from a later probe).
func (s *Support) RestoreTriggered(name string, at clock.Time) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.line.restoreTriggered(name, at)
}

func (l *line) restoreTriggered(name string, at clock.Time) error {
	st, ok := l.rules[name]
	if !ok {
		return fmt.Errorf("rules: no rule %q", name)
	}
	l.sync()
	if !st.Triggered {
		st.Triggered = true
		l.trig.add(st.rank)
		l.ntrig++
	}
	st.TriggeredAt = at
	st.pending = false
	st.lastProbe = at
	return nil
}

// Mark returns one rule's durable state without copying its State: what
// the engine reads per fired rule at a block boundary (the activation
// instant for the WAL, the horizon for the tracer).
func (s *Support) Mark(name string) (Mark, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.line.mark(name)
}

func (l *line) mark(name string) (Mark, bool) {
	st, ok := l.rules[name]
	if !ok {
		return Mark{}, false
	}
	return st.mark(), true
}

func (st *State) mark() Mark {
	return Mark{
		Rule:              st.Def.Name,
		LastConsideration: st.LastConsideration,
		Triggered:         st.Triggered,
		TriggeredAt:       st.TriggeredAt,
	}
}
