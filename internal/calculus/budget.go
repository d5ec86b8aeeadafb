package calculus

import (
	"errors"
	"math"
	"sync/atomic"
	"time"
)

// ErrGasExhausted is returned (wrapped) when a transaction spends more
// evaluation gas — node evaluations across ts/ots probes, lift folds
// and condition formulas — than its configured budget.
var ErrGasExhausted = errors.New("calculus: gas budget exhausted")

// ErrDeadlineExceeded is returned (wrapped) when a transaction's
// evaluation runs past its wall-clock deadline.
var ErrDeadlineExceeded = errors.New("calculus: evaluation deadline exceeded")

// deadlineStride is how many charges pass between wall-clock probes (and
// between cross-worker exhaustion checks): one time.Now() per 64 node
// evaluations keeps the deadline check off the per-node hot path while
// bounding the overshoot after the deadline to a few microseconds of
// evaluation work.
const deadlineStride = 64

// Budget is a per-transaction evaluation budget, shared by every
// evaluator the transaction drives (the PlanEval of the triggering
// determination and the one of its conditions' event formulas). The unit
// of gas is one node a PlanEval computes — a memo miss, a per-object ots
// or a lift fold, the same work TsEvaluations/MemoMisses count: memo
// hits are free, as they should be.
//
// Exhaustion aborts the evaluation in flight by panicking with a private
// fault value; the package boundary converts it back into the typed
// error with RecoverBudget. The deep recursive evaluators cannot
// plumb an error return through every node visit without giving up
// their branch-free hot paths — the contained panic is the standard Go
// idiom for aborting a deep recursive descent (encoding/json, gob).
//
// The hot path is one uncontended atomic decrement per charged node;
// the deadline is probed every deadlineStride charges. A nil *Budget is
// valid and charges nothing.
type Budget struct {
	// gas is the remaining budget. Unlimited-gas budgets start at
	// math.MaxInt64, which no transaction's lifetime can spend.
	gas atomic.Int64
	// state latches the first exhaustion cause: 0 live, 1 gas,
	// 2 deadline. Once set every subsequent charge panics again within
	// one stride, so sibling workers stop promptly.
	state       atomic.Int32
	hasDeadline bool
	deadline    time.Time
}

const (
	budgetLive     = 0
	budgetGas      = 1
	budgetDeadline = 2
)

// budgetFault is the panic payload carrying a budget exhaustion out of a
// recursive evaluation. Private: non-budget panics are never swallowed.
type budgetFault struct{ err error }

// NewBudget returns a budget with the given gas allowance (≤ 0 means
// unlimited) and wall-clock deadline (the zero Time means none).
func NewBudget(gas int64, deadline time.Time) *Budget {
	b := &Budget{deadline: deadline, hasDeadline: !deadline.IsZero()}
	if gas <= 0 {
		gas = math.MaxInt64
	}
	b.gas.Store(gas)
	return b
}

// Charge spends one unit of gas; exhaustion (or a previously latched
// exhaustion by a sibling worker) aborts by panicking with a budget
// fault. Safe for concurrent use; a nil receiver charges nothing.
func (b *Budget) Charge() {
	if b == nil {
		return
	}
	rem := b.gas.Add(-1)
	if rem < 0 {
		b.fail(budgetGas)
	}
	if rem&(deadlineStride-1) == 0 {
		if s := b.state.Load(); s != budgetLive {
			panic(budgetFault{b.stateErr(s)})
		}
		if b.hasDeadline && time.Now().After(b.deadline) {
			b.fail(budgetDeadline)
		}
	}
}

// fail latches the first exhaustion cause and aborts.
func (b *Budget) fail(cause int32) {
	b.state.CompareAndSwap(budgetLive, cause)
	panic(budgetFault{b.Err()})
}

func (b *Budget) stateErr(s int32) error {
	switch s {
	case budgetGas:
		return ErrGasExhausted
	case budgetDeadline:
		return ErrDeadlineExceeded
	}
	return nil
}

// Err reports the latched exhaustion cause: nil while the budget is
// live, ErrGasExhausted or ErrDeadlineExceeded once blown.
func (b *Budget) Err() error {
	if b == nil {
		return nil
	}
	return b.stateErr(b.state.Load())
}

// RecoverBudget is the deferred package-boundary handler: it converts a
// budget-fault panic into its typed error through errp, re-raising every
// other panic untouched. Use as `defer calculus.RecoverBudget(&err)`.
func RecoverBudget(errp *error) {
	if r := recover(); r != nil {
		f, ok := r.(budgetFault)
		if !ok {
			panic(r)
		}
		if errp != nil && *errp == nil {
			*errp = f.err
		}
	}
}

// CatchBudget runs fn, converting a budget-fault panic raised inside it
// into the typed error.
func CatchBudget(fn func()) (err error) {
	defer RecoverBudget(&err)
	fn()
	return nil
}
