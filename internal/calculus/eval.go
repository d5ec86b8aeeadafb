package calculus

import (
	"chimera/internal/clock"
	"chimera/internal/event"
	"chimera/internal/types"
)

// TS is the integer value of the paper's ts/ots functions. A positive
// value is an activation time stamp; a non-positive value means the
// expression is not active (for a primitive with no relevant occurrence
// it is exactly -t).
type TS int64

// Active reports whether the value denotes an active expression,
// i.e. u(ts) = 1 in the paper's notation.
func (v TS) Active() bool { return v > 0 }

// Time converts a positive TS back into the activation time stamp.
func (v TS) Time() clock.Time { return clock.Time(v) }

// andTS and orTS combine two operand ts values with branch-free sign
// arithmetic — the u()-based selections of Section 4.2 compiled down to
// shifts and masks, so the probe loops pay no branch mispredictions on
// sign-alternating streams.
//
// Section 4.2's conjunction: both operands active → the later activation
// (max), otherwise the earlier value (min). min/max of (a, b) are formed
// branchlessly from d = a-b and its sign mask; the final select keys on
// the sign of min (min > 0 ⇔ both active).
//
// The subtraction cannot overflow: ts magnitudes are bounded by the
// transaction clock, far below the int64 midpoint.
func andTS(a, b TS) TS {
	d := a - b
	s := d & (d >> 63)  // d if a < b, else 0
	lo := b + s         // min(a, b)
	hi := a - s         // max(a, b)
	m := (lo - 1) >> 63 // all-ones when lo <= 0 (some operand inactive)
	return hi ^ ((hi ^ lo) & m)
}

// orTS is the disjunction: some operand active → the later activation
// (max), both inactive → the earlier value (min). The select keys on the
// sign of max (max > 0 ⇔ some operand active).
func orTS(a, b TS) TS {
	d := a - b
	s := d & (d >> 63)
	lo := b + s
	hi := a - s
	m := (hi - 1) >> 63 // all-ones when hi <= 0 (both inactive)
	return hi ^ ((hi ^ lo) & m)
}

// Env is the definition of the calculus: ts/ots of Section 4 evaluated
// recursively, straight from the paper, over the portion R of the Event
// Base with Since < timestamp ≤ t. It serves the paper's artefacts (the
// conformance corpus, the figures) and the tests, which hold the
// production evaluator, PlanEval, to it; nothing is cached and the lifts
// range over every object of R.
// Section 4.4 instantiates Since with the rule's last consideration for
// triggering; event formulas instantiate it with the rule's last
// consumption.
type Env struct {
	Base *event.Base
	// Since is the exclusive lower bound of R (clock.Never for "from the
	// beginning of the transaction").
	Since clock.Time
}

// TS evaluates the set-oriented ts(e, t) over R = (env.Since, t].
//
// The evaluation follows the algebraic semantics of Section 4.2 —
// expressed there with the step function u, implemented here with the
// equivalent min/max selections — and the ots→ts lift rules of
// Section 4.3 whenever a maximal instance-oriented subexpression is
// reached.
func (env *Env) TS(e Expr, t clock.Time) TS {
	if IsInstanceRooted(e) {
		return env.lift(e, t)
	}
	switch n := e.(type) {
	case Prim:
		if last := env.Base.LastOf(n.T, env.Since, t); last != clock.Never {
			return TS(last)
		}
		return -TS(t)
	case Not:
		return -env.TS(n.X, t)
	case And:
		return andTS(env.TS(n.L, t), env.TS(n.R, t))
	case Or:
		return orTS(env.TS(n.L, t), env.TS(n.R, t))
	case Seq:
		b := env.TS(n.R, t)
		if b.Active() {
			if a := env.TS(n.L, b.Time()); a.Active() {
				return b
			}
		}
		return -TS(t)
	}
	panic("calculus: unknown expression node in TS")
}

// OTS evaluates the instance-oriented ots(e, t, oid) over R.
// e must satisfy the instance-only constraint (primitives or
// instance-oriented operators).
func (env *Env) OTS(e Expr, t clock.Time, oid types.OID) TS {
	switch n := e.(type) {
	case Prim:
		if last := env.Base.LastOfObj(n.T, oid, env.Since, t); last != clock.Never {
			return TS(last)
		}
		return -TS(t)
	case Not:
		return -env.OTS(n.X, t, oid)
	case And:
		return andTS(env.OTS(n.L, t, oid), env.OTS(n.R, t, oid))
	case Or:
		return orTS(env.OTS(n.L, t, oid), env.OTS(n.R, t, oid))
	case Seq:
		b := env.OTS(n.R, t, oid)
		if b.Active() {
			if a := env.OTS(n.L, b.Time(), oid); a.Active() {
				return b
			}
		}
		return -TS(t)
	}
	panic("calculus: unknown expression node in OTS")
}

// lift evaluates a maximal instance-oriented subexpression in a
// set-oriented context (Section 4.3, "ots to ts") over the OIDs of R:
//
//   - instance negation -=E is active iff no object in R has E active
//     (universal lift: the minimum of ots(-E) over the OIDs of R, or the
//     current time when R mentions no object at all);
//   - every other instance-rooted expression is active iff at least one
//     object satisfies it (existential lift: the maximum of its ots over
//     the OIDs of R).
//
// See DESIGN.md §5.1 for why the prose of Section 3.2 forces this pairing.
func (env *Env) lift(e Expr, t clock.Time) TS {
	oids := env.Base.OIDs(env.Since, t)
	if n, ok := e.(Not); ok && n.Inst {
		best := TS(t)
		for i, oid := range oids {
			if v := env.OTS(e, t, oid); i == 0 || v < best {
				best = v
			}
		}
		return best
	}
	best := -TS(t)
	for i, oid := range oids {
		if v := env.OTS(e, t, oid); i == 0 || v > best {
			best = v
		}
	}
	return best
}

// Active reports whether e is active at time t over R.
func (env *Env) Active(e Expr, t clock.Time) bool { return env.TS(e, t).Active() }

// Triggered decides the ∃t' part of the triggering predicate of
// Section 4.4: it reports whether ts(e, t') > 0 for some
// t' ∈ (env.Since, now], together with the earliest such t'.
//
// Because ts(e, t') can change sign only when an event occurrence arrives
// (between arrivals the only t'-dependence of any subterm is a ±t' drift
// whose sign is fixed), it suffices to probe at every arrival time stamp
// in R and at now itself. An empty R never triggers (the system stays
// reactive, Section 4.4).
func (env *Env) Triggered(e Expr, now clock.Time) (bool, clock.Time) {
	return env.TriggeredAfter(e, env.Since, now)
}

// TriggeredAfter is Triggered restricted to probe instants in
// (afterProbe, now]. It supports incremental re-checking: ts(e, t')
// depends only on occurrences with time stamp ≤ t', so probe instants
// at or before a previously checked point can never yield a new outcome.
func (env *Env) TriggeredAfter(e Expr, afterProbe, now clock.Time) (bool, clock.Time) {
	if env.Base.Empty(env.Since, now) {
		return false, clock.Never
	}
	lo := max(afterProbe, env.Since)
	for _, t := range env.Base.Arrivals(lo, now) {
		if env.TS(e, t).Active() {
			return true, t
		}
	}
	if now > lo && env.TS(e, now).Active() {
		return true, now
	}
	return false, clock.Never
}

// AffectedObjects returns the objects for which the instance-oriented
// expression e is active at time t over R — the binding set produced by
// the occurred(e, X) event formula of Section 3.3 — in order of first
// appearance.
func (env *Env) AffectedObjects(e Expr, t clock.Time) []types.OID {
	var out []types.OID
	for _, oid := range env.Base.OIDs(env.Since, t) {
		if env.OTS(e, t, oid).Active() {
			out = append(out, oid)
		}
	}
	return out
}

// ActivationTimes returns every time stamp in (env.Since, t] at which an
// occurrence of the instance-oriented expression e arises for object oid:
// the instants T bound by the at(e, X, T) event formula of Section 3.3.
// An occurrence "arises at t'" exactly when ots(e, t', oid) equals t'
// (the expression is active for the object with the probe instant itself
// as activation time stamp).
func (env *Env) ActivationTimes(e Expr, t clock.Time, oid types.OID) []clock.Time {
	var out []clock.Time
	for _, at := range env.Base.Arrivals(env.Since, t) {
		if env.OTS(e, at, oid) == TS(at) {
			out = append(out, at)
		}
	}
	return out
}
