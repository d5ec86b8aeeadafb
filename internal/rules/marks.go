package rules

import (
	"fmt"

	"chimera/internal/clock"
)

// Mark is the durable per-rule triggering state of one Session: the
// consideration horizon (the input to the consumption low-watermark) and
// the triggered flag with its activation instant. It is exactly the
// per-rule state a checkpoint must carry — the registry is recompiled on
// Define, and the probe scratch recovery conservatively re-arms.
type Mark struct {
	Rule              string
	LastConsideration clock.Time
	Triggered         bool
	TriggeredAt       clock.Time
}

// Marks snapshots every defined rule's durable state in the session, in
// priority order. The engine's checkpoint writer calls it at a block
// boundary (no check in flight), so the snapshot is consistent with the
// watermark the same checkpoint records.
func (sess *Session) Marks() []Mark {
	out := make([]Mark, len(sess.marks))
	for r, st := range sess.sup.ordered {
		out[r] = sess.export(st)
	}
	return out
}

// RestoreMarks reinstates a checkpoint's marks on a session just opened
// at the checkpoint's start. Every defined rule must be covered by
// exactly one mark (the checkpoint and the rule set are written
// together, and rules cannot be defined while a session is open).
//
// Probe scratch is re-armed conservatively: lastProbe rewinds to the
// consideration horizon and pending is set, so the next check re-probes
// the rule's whole window. That is semantically inert — activation at
// an instant depends only on the window content, so re-probing instants
// that decided "not triggered" before the crash decides the same way
// again, and a triggered rule's flag arrives from the mark (checks skip
// triggered rules) — but it means recovery never has to serialize
// probe cursors or memo state.
func (sess *Session) RestoreMarks(ms []Mark) error {
	if len(ms) != len(sess.marks) {
		return fmt.Errorf("rules: %d marks for %d defined rules", len(ms), len(sess.marks))
	}
	seen := make([]bool, len(sess.marks))
	for _, m := range ms {
		st, ok := sess.sup.rules[m.Rule]
		if !ok {
			return fmt.Errorf("rules: mark for undefined rule %q", m.Rule)
		}
		if seen[st.rank] {
			return fmt.Errorf("rules: duplicate mark for rule %q", m.Rule)
		}
		seen[st.rank] = true
		sess.marks[st.rank] = mark{
			lastConsideration: m.LastConsideration,
			triggered:         m.Triggered,
			triggeredAt:       m.TriggeredAt,
			lastProbe:         m.LastConsideration,
			pending:           true,
		}
	}
	sess.stale = true
	return nil
}

// RestoreTriggered reinstates one rule's triggered flag during WAL
// replay. The engine logs each block's newly fired rules with their
// activation instants; replay sets them back verbatim instead of
// re-running the triggering determination, which keeps recovery
// bit-identical (TriggeredAt of an already-triggered rule is latched at
// the first activation and cannot be recomputed from a later probe).
func (sess *Session) RestoreTriggered(name string, at clock.Time) error {
	st, ok := sess.sup.rules[name]
	if !ok {
		return fmt.Errorf("rules: no rule %q", name)
	}
	sess.sync()
	sess.save(st.rank)
	m := &sess.marks[st.rank]
	if !m.triggered {
		m.triggered = true
		sess.trig.add(st.rank)
		sess.ntrig++
	}
	m.triggeredAt = at
	m.pending = false
	m.lastProbe = at
	return nil
}

// Mark returns one rule's durable state in the session: what the engine reads per fired
// rule at a block boundary (the activation instant for the WAL, the
// horizon for the tracer).
func (sess *Session) Mark(name string) (Mark, bool) {
	st, ok := sess.sup.rules[name]
	if !ok {
		return Mark{}, false
	}
	return sess.export(st), true
}

func (sess *Session) export(st *State) Mark {
	m := &sess.marks[st.rank]
	return Mark{
		Rule:              st.Def.Name,
		LastConsideration: m.lastConsideration,
		Triggered:         m.triggered,
		TriggeredAt:       m.triggeredAt,
	}
}
