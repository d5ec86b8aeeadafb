package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// fraud12 is the catalogue of stream_hot and stream_wide: the three
// examples/fraud rules plus nine more over card, alert and external
// signals. Together they use all four operators in both granularities
// (set: + , - < ; instance: += ,= -= <=), both couplings and both
// consumption modes. Instance operators sit in the conditions' event
// formulas (and in the example's deferred ringup, which latches once per
// session): an instance operator in an immediate rule's events clause is
// probed against every object of the window at every arrival and would
// bury every other layer.
//
// overlimit and probe open their condition with card(C), so each of their
// considerations walks the whole class extension: that walk is the cost
// stream_wide exists to expose. settle empties the alert extension at
// every settle or chargeback signal, which keeps the state of an unbounded
// run bounded.
const fraud12 = `
class card(holder: string, spent: integer, limit: integer)
class alert(kind: string, holder: string)

define immediate overlimit for card
events modify(spent)
condition card(C), occurred(modify(spent), C), C.spent > C.limit
action create(alert, kind = "over-limit", holder = C.holder)
end

define consuming probe priority 1
events external(declined) < modify(card.spent)
condition card(C), occurred(modify(card.spent), C)
action create once(alert, kind = "probe-then-spend", holder = C.holder)
end

define deferred ringup for card priority 2
events create += modify(spent)
condition card(C), occurred(create += modify(spent), C)
action create(alert, kind = "fresh-card-abuse", holder = C.holder)
end

define immediate raisespend for card priority 3
events modify(limit) + modify(spent)
condition occurred(modify(limit) <= modify(spent), C), C.spent > C.limit
action create(alert, kind = "raise-then-spend", holder = C.holder)
end

define immediate quiet priority 4
events external(heartbeat) + -modify(card.spent)
action create once(alert, kind = "quiet-switch", holder = "switch")
end

define immediate dormant for card priority 5
events create
condition occurred(create += -= modify(spent), C)
action create(alert, kind = "dormant-card", holder = C.holder)
end

define immediate reissue for card priority 6
events modify(limit) , create
condition occurred(modify(limit) ,= create, C), C.limit < 0
action create(alert, kind = "negative-limit", holder = C.holder)
end

define immediate merchant priority 7
events external(declined) + external(chargeback)
action create once(alert, kind = "merchant-risk", holder = "switch")
end

define immediate preserving watch for card priority 8
events modify(limit)
condition occurred(modify(limit), C), C.limit > 100000
action create(alert, kind = "huge-limit", holder = C.holder)
end

define deferred preserving audit priority 9
events create(alert) < external(settle)
condition alert(A), A.kind = "merchant-risk"
action delete(A)
end

define immediate burst for card priority 10
events modify(spent) < modify(limit)
condition occurred(modify(spent) += modify(limit), C), C.spent > C.limit
action create(alert, kind = "burst", holder = C.holder)
end

define immediate settle priority 99
events external(settle) , external(chargeback)
condition alert(A)
action delete(A)
end
`

// Vocabulary of stream_rules: ruleClasses classes of two integer
// attributes; a primitive is create(k), modify(k.v) or modify(k.w).
const (
	ruleClasses    = 32
	ruleCount      = 1000
	rulesPerObject = 8 // objects per class: 256 in all
)

func ruleClass(i int) string { return fmt.Sprintf("k%02d", i) }

// rulePrim renders primitive p of class c: 0 create, 1 modify v, 2 modify w.
func rulePrim(c, p int) string {
	switch p {
	case 0:
		return fmt.Sprintf("create(%s)", ruleClass(c))
	case 1:
		return fmt.Sprintf("modify(%s.v)", ruleClass(c))
	}
	return fmt.Sprintf("modify(%s.w)", ruleClass(c))
}

// rules1000 renders the stream_rules catalogue: ruleCount rules with empty
// bodies, an even mix of `A + -B`, `A < (B += C)` (B and C on one class,
// so the instance conjunction can hold) and `(A + B) , C`. The catalogue
// is part of the workload's definition, not of its input, so it is drawn
// from a fixed seed: two runs with different -seed values sweep the same
// rules over different events.
func rules1000() string {
	r := rand.New(rand.NewSource(19960325))
	var b strings.Builder
	for c := 0; c < ruleClasses; c++ {
		fmt.Fprintf(&b, "class %s(v: integer, w: integer)\n", ruleClass(c))
	}
	prim := func() string { return rulePrim(r.Intn(ruleClasses), r.Intn(3)) }
	for i := 0; i < ruleCount; i++ {
		var ev string
		switch i % 3 {
		case 0:
			ev = fmt.Sprintf("%s + -%s", prim(), prim())
		case 1:
			c, p := r.Intn(ruleClasses), r.Intn(3)
			ev = fmt.Sprintf("%s < (%s += %s)", prim(), rulePrim(c, p), rulePrim(c, (p+1+r.Intn(2))%3))
		default:
			ev = fmt.Sprintf("(%s + %s) , %s", prim(), prim(), prim())
		}
		fmt.Fprintf(&b, "define r%04d priority %d\nevents %s\nend\n", i, i%7, ev)
	}
	return b.String()
}

// oltpCatalogue is B12's capping rule over stock, plus the ledger class
// the durability check reads back: each client writes its transaction
// sequence number to its own ledger object inside the transaction.
const oltpCatalogue = `
class stock(quantity: integer, maxquantity: integer)
class ledger(client: integer, seq: integer)

define immediate cap for stock
events modify(quantity)
condition stock(S), occurred(modify(quantity), S), S.quantity > S.maxquantity
action modify(stock.quantity, S, S.maxquantity)
end
`

// readCatalogue is the account table of read_mostly and one immediate rule
// on the writer's path: a write below zero is raised back to zero. Binding
// through occurred keeps the consideration independent of the table's
// size; the rule is there so that the writer's commit carries a
// consideration, as every commit of an active database does.
const readCatalogue = `
class acct(balance: integer)

define immediate floor for acct
events modify(balance)
condition occurred(modify(balance), A), A.balance < 0
action modify(acct.balance, A, 0)
end
`
