package calculus

import (
	"math"
	"math/bits"
	"slices"
	"sort"

	"chimera/internal/clock"
	"chimera/internal/event"
	"chimera/internal/types"
)

// This file implements the shared trigger plan: expression trees of a
// whole rule set hash-consed into one interned DAG (structural keys over
// Prim/Not/And/Or/Seq × granularity), plus a generation-stamped memo
// evaluator so a subexpression shared by N rules is evaluated once per
// probe instant instead of N times. It is the one production evaluator of
// the calculus: the Trigger Support decides triggering with it, the
// condition's event formulas bind with it and the shell's explain reads
// it. The paper's Section 5.1 optimizes each rule in isolation, this is
// the cross-rule complement.

// NodeID identifies one interned DAG node within a Plan. IDs are stable
// for the lifetime of the node (until its refcount drops to zero) and
// dense, so per-node memo state lives in flat slices.
type NodeID int32

// NoNode is the null NodeID (note that 0 is a valid id).
const NoNode NodeID = -1

// planOp is the node kind tag of the structural key.
type planOp uint8

const (
	planPrim planOp = iota
	planNot
	planAnd
	planOr
	planSeq
)

// nodeKey is the structural identity of a node: operator, granularity,
// primitive type (planPrim only) and the interned children. Because the
// children are themselves NodeIDs, equal keys imply structurally equal
// subtrees — hash-consing falls out of one map lookup per node.
type nodeKey struct {
	op   planOp
	inst bool
	t    event.Type
	l, r NodeID
}

// planNode is one interned node plus the evaluation facts precomputed at
// intern time (so the hot path never re-derives them). The int32 fields
// pair up and set shares a word with the flags, so a node stays 88 bytes.
type planNode struct {
	key  nodeKey
	refs int32
	// size is the tree size of the subtree (nodes counted with
	// multiplicity), the sharing report's dedup numerator.
	size int32
	// expr is the canonical expression of the subtree (the first interned
	// instance); the sharing report renders it.
	expr Expr
	// set is the fold set of the node's distinct primitives: every fold
	// over the node reads those leaves, and nodes over the same leaves
	// share their folds.
	set int32
	// instRooted marks nodes whose top operator is instance-oriented: in a
	// set-oriented context they evaluate via the ots→ts lift. safe is
	// restrictionSafe of the lift; meaningful only when instRooted.
	instRooted bool
	safe       bool
}

// foldSet is one entry of the fold-set table: a sorted, distinct set of
// prim nodes, referenced by every live node whose leaves they are. A
// fold's columns are positions in leaves. The sets whose least leaf is
// prim p form a chain from p's own set {p} through next (-1 ends it),
// which is how Intern finds a set it has seen.
type foldSet struct {
	leaves []NodeID
	refs   int32
	next   int32
}

// Plan is the interned DAG for one rule set. It is not safe for
// concurrent mutation; the Trigger Support mutates it only under its
// exclusive lock (Define/Drop) and shares it read-only across the
// evaluators of its transaction lines.
type Plan struct {
	nodes  []planNode
	ids    map[nodeKey]NodeID
	free   []NodeID
	live   int
	shared int
	// prims lists the live primitive nodes, so evaluators can build their
	// interned-type-id dispatch tables without scanning the whole DAG.
	prims   []NodeID
	version uint64
	// sets is the fold-set table, freeSets lists its recycled ids.
	sets     []foldSet
	freeSets []int32
}

// NewPlan returns an empty plan.
func NewPlan() *Plan {
	return &Plan{ids: make(map[nodeKey]NodeID)}
}

// Cap returns the id-space size (live + free slots); memo tables size
// their flat per-node state to it.
func (p *Plan) Cap() int { return len(p.nodes) }

// Live returns the number of live interned nodes (the DAG size).
func (p *Plan) Live() int { return p.live }

// Shared returns the number of live nodes referenced more than once —
// the subexpressions the memo can actually deduplicate.
func (p *Plan) Shared() int { return p.shared }

// Intern hash-conses e into the DAG and returns its root id, taking one
// reference on it. Structurally equal subtrees — across rules and within
// one rule — map to the same NodeID.
func (p *Plan) Intern(e Expr) NodeID {
	var k nodeKey
	l, r := NoNode, NoNode
	switch n := e.(type) {
	case Prim:
		k = nodeKey{op: planPrim, t: n.T, l: NoNode, r: NoNode}
	case Not:
		l = p.Intern(n.X)
		k = nodeKey{op: planNot, inst: n.Inst, l: l, r: NoNode}
	case And:
		l, r = p.Intern(n.L), p.Intern(n.R)
		k = nodeKey{op: planAnd, inst: n.Inst, l: l, r: r}
	case Or:
		l, r = p.Intern(n.L), p.Intern(n.R)
		k = nodeKey{op: planOr, inst: n.Inst, l: l, r: r}
	case Seq:
		l, r = p.Intern(n.L), p.Intern(n.R)
		k = nodeKey{op: planSeq, inst: n.Inst, l: l, r: r}
	default:
		panic("calculus: unknown expression node in Plan.Intern")
	}
	if id, ok := p.ids[k]; ok {
		p.addRef(id)
		// The existing node already owns references to the children; give
		// back the ones this walk just took. The counts cannot reach zero
		// (the parent's references remain), so nothing is freed.
		p.Release(l)
		p.Release(r)
		return id
	}
	id := p.alloc()
	nd := &p.nodes[id]
	nd.key = k
	nd.refs = 1
	nd.expr = e
	nd.size = 1
	if l != NoNode {
		nd.size += p.nodes[l].size
	}
	if r != NoNode {
		nd.size += p.nodes[r].size
	}
	if IsInstanceRooted(e) {
		nd.instRooted = true
		nd.safe = restrictionSafe(e)
	}
	nd.set = p.internSet(id, l, r)
	p.ids[k] = id
	p.live++
	p.version++
	if k.op == planPrim {
		p.prims = append(p.prims, id)
	}
	return id
}

// restrictionSafe reports whether the lift of e may range over the
// objects e's own primitive types touched instead of every object of R.
// It may exactly when the objects left out contribute neutrally: a
// strictly negative ots to an existential lift, a strictly positive entry
// to the universal -= lift. An untouched object's ots is the vacuous
// value of the expression (−t, or +t under a negation), and every touched
// value is bounded by it, so the restriction never changes a lift's
// value. For the other shapes (e.g. -=(-=A), or A ,= -=B) the lift ranges
// over every object of R.
func restrictionSafe(e Expr) bool {
	if n, ok := e.(Not); ok && n.Inst {
		// Universal lift: untouched objects must contribute positive
		// entries (-ots of an inactive body), i.e. the body must be
		// vacuously inactive.
		return !VacuouslyActive(n.X)
	}
	// Existential lift: untouched objects must contribute negative
	// entries, i.e. the expression must be vacuously inactive.
	return !VacuouslyActive(e)
}

func (p *Plan) alloc() NodeID {
	if n := len(p.free); n > 0 {
		id := p.free[n-1]
		p.free = p.free[:n-1]
		return id
	}
	p.nodes = append(p.nodes, planNode{})
	return NodeID(len(p.nodes) - 1)
}

func (p *Plan) addRef(id NodeID) {
	p.nodes[id].refs++
	if p.nodes[id].refs == 2 {
		p.shared++
	}
}

// Release drops one reference on id; when the count reaches zero the
// node is removed from the DAG (its id recycled) and its children are
// released in turn. Releasing NoNode is a no-op.
func (p *Plan) Release(id NodeID) {
	if id == NoNode {
		return
	}
	n := &p.nodes[id]
	n.refs--
	if n.refs == 1 {
		p.shared--
	}
	if n.refs > 0 {
		return
	}
	delete(p.ids, n.key)
	p.releaseSet(n.set)
	p.version++
	if n.key.op == planPrim {
		for i, pid := range p.prims {
			if pid == id {
				p.prims[i] = p.prims[len(p.prims)-1]
				p.prims = p.prims[:len(p.prims)-1]
				break
			}
		}
	}
	l, r := n.key.l, n.key.r
	*n = planNode{}
	p.free = append(p.free, id)
	p.live--
	p.Release(l)
	p.Release(r)
}

// internSet takes a reference on the fold set of node id, whose children
// are l and r: {id} for a primitive, which heads the chain of the sets
// whose least leaf is id, and otherwise the sorted union of the
// children's leaves, found on the chain of its least leaf or added to it.
func (p *Plan) internSet(id, l, r NodeID) int32 {
	if l == NoNode {
		return p.newSet([]NodeID{id}, -1)
	}
	leaves := slices.Clone(p.sets[p.nodes[l].set].leaves)
	if r != NoNode {
		leaves = append(leaves, p.sets[p.nodes[r].set].leaves...)
		slices.Sort(leaves)
		leaves = slices.Compact(leaves)
	}
	head := p.nodes[leaves[0]].set
	for s := head; s >= 0; s = p.sets[s].next {
		if slices.Equal(p.sets[s].leaves, leaves) {
			p.sets[s].refs++
			return s
		}
	}
	s := p.newSet(leaves, p.sets[head].next)
	p.sets[head].next = s
	return s
}

// newSet adds a fold set of leaves with one reference, linked before next.
func (p *Plan) newSet(leaves []NodeID, next int32) int32 {
	fs := foldSet{leaves: leaves, refs: 1, next: next}
	if n := len(p.freeSets); n > 0 {
		s := p.freeSets[n-1]
		p.freeSets = p.freeSets[:n-1]
		p.sets[s] = fs
		return s
	}
	p.sets = append(p.sets, fs)
	return int32(len(p.sets) - 1)
}

// releaseSet drops one reference on fold set s; at zero it unlinks s from
// its least leaf's chain and recycles its id. A prim's own set goes last:
// every other set on its chain belongs to a node above the prim.
func (p *Plan) releaseSet(s int32) {
	fs := &p.sets[s]
	if fs.refs--; fs.refs > 0 {
		return
	}
	if head := p.nodes[fs.leaves[0]].set; head != s {
		prev := head
		for p.sets[prev].next != s {
			prev = p.sets[prev].next
		}
		p.sets[prev].next = fs.next
	}
	*fs = foldSet{}
	p.freeSets = append(p.freeSets, s)
}

// SharedNode is one row of the sharing report: a subexpression and how
// many parents (or rule roots) reference it.
type SharedNode struct {
	Expr string
	Refs int
	Size int
}

// SharedNodes lists the live nodes with at least minRefs references,
// most-referenced (then largest, then lexicographic) first.
func (p *Plan) SharedNodes(minRefs int) []SharedNode {
	var out []SharedNode
	for i := range p.nodes {
		n := &p.nodes[i]
		if n.refs >= int32(minRefs) && n.expr != nil {
			out = append(out, SharedNode{Expr: n.expr.String(), Refs: int(n.refs), Size: int(n.size)})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Refs != out[j].Refs {
			return out[i].Refs > out[j].Refs
		}
		if out[i].Size != out[j].Size {
			return out[i].Size > out[j].Size
		}
		return out[i].Expr < out[j].Expr
	})
	return out
}

// ---------------------------------------------------------------------
// Memoized evaluation over the DAG.

// PlanEval evaluates interned nodes with a generation-stamped memo that
// does not depend on the window's lower bound. Every probe names its own
// horizon — ts(E, t) over R = (since, t] — and a memoized value carries
// the range of horizons it holds for, so one generation per probe instant
// serves every rule probing that instant, whatever its last consideration.
// The per-object ots values below a lift are not memoized: the lift's own
// ts is, and that is the value rules share. A lift reads its objects and
// their stamps from a fold over its leaves' occurrences in the window
// (fold), and at the generation's instant every lift over the same leaves
// reads one kept fold, whatever its horizon (foldKept). Leaves are
// resolved to the bound base's interned ids at Bind, so an evaluation
// hashes no Type and no OID.
//
// Besides ts it answers the two event formulas of Section 3.3 over a node
// (AffectedObjects, ActivationTimes) and explains a triggering verdict
// (explain.go). Env is the definition it is held to.
//
// A PlanEval is stateful scratch: one per goroutine. The underlying Plan
// may be shared read-only across evaluators.
//
// Correctness hinges on two gates (DESIGN.md §10). A memo slot is read
// only at the generation's instant (Begin): precedence evaluates its left
// operand at the right operand's activation instant, a historical time,
// so every recursive call re-checks t and bypasses the memo off-instant.
// And a slot is read only for a horizon inside its range, which is the
// intersection of its children's ranges: an active primitive with stamp
// L holds for every horizon below L, an inactive one for every horizon at
// or above its last stamp, and a lift for its own horizon only.
type PlanEval struct {
	plan *Plan
	base *event.Base
	// floor is the least horizon any probe of the bound walk names; stamps
	// at or below it cannot make a leaf active.
	floor clock.Time
	// Budget, when non-nil, is charged one unit per computed node (the
	// same work evals counts; memo hits, kept folds read again included,
	// are free). Exhaustion
	// aborts with a budget fault (see Budget).
	Budget *Budget

	gen uint64
	cur clock.Time

	// memo[id] is node id's value at the instant of generation
	// memo[id].gen, for every horizon in memo[id].span.
	memo []memoSlot

	// Prim cursors (Track mode): each interned primitive node's newest
	// stamp at or before the current instant, above the floor, maintained
	// incrementally from NoteArrivalTID instead of re-queried with a
	// LastOf search per probe instant. One cursor per prim node serves
	// every rule sharing it, at every horizon. Entries are stamped with
	// bindGen so Bind invalidates them all.
	tracking  bool
	bindGen   uint64
	primLast  []clock.Time
	primEpoch []uint64

	// The leaves resolved against a type registry: primTID is each prim
	// node's type id, tid2prim the way back (arrivals come by id,
	// NoteArrivalTID). registry and planVer are what they were resolved
	// against; resolving registers every live prim type, so a tid past
	// tid2prim's end is no prim's.
	primTID  []int32
	tid2prim []NodeID
	registry *event.Registry
	planVer  uint64

	// oidScratch holds a window's objects, times a query's probe
	// instants.
	oidScratch []int32
	times      []clock.Time

	// The fold arena: objs holds, back to back, the objects of the folds
	// kept in the open generation and then those of the open fold, cells
	// their rows of stamps. The kept folds take the first keepObjs objects
	// and keepCells cells; endFold cuts a fold that is not kept off. kept
	// locates them, and keptAt[s] is the position of fold set s's in kept
	// if that entry names s (a set's earlier, replaced folds stay behind).
	// Begin and Bind empty the arena and kept.
	objs      []int32
	cells     []clock.Time
	keepObjs  int
	keepCells int
	kept      []keptFold
	keptAt    []int32

	// The open fold (see fold): the instant it is open at (clock.Never
	// when none is), the horizon it was folded at, its fold set's leaves
	// and the objects it touched, in first-touch order, with a row each
	// of its newest stamp of each leaf, in order: touched and stamps view
	// the arena from objs[o0] and cells[c0]. leafCol[p] is the column of
	// prim p in the open fold. While a fold is built, rows maps an
	// interned object id to its row: open addressing sized to the objects
	// folds touch, not to the base's, its entries live while their epoch
	// is foldGen, so a fold clears nothing.
	foldAt    clock.Time
	foldSince clock.Time
	foldGen   uint32
	leaves    []NodeID
	leafCol   []int32
	o0, c0    int
	touched   []int32
	stamps    []clock.Time
	rows      []foldRow
	rowShift  uint8

	evals int64
	hits  int64
}

// span is the half-open range [lo, hi) of horizons a value holds for.
type span struct{ lo, hi clock.Time }

// keptFold is the kept fold of fold set set: n objects from objs[o0] and
// their rows from cells[c0], folded over (since, Cur()].
type keptFold struct {
	since     clock.Time
	set       int32
	o0, c0, n int32
}

// memoSlot is one node's memoized value; the four words share a cache
// line.
type memoSlot struct {
	gen uint64
	v   TS
	span
}

func (s span) meet(o span) span { return span{max(s.lo, o.lo), min(s.hi, o.hi)} }

func (s span) holds(since clock.Time) bool { return s.lo <= since && since < s.hi }

// NewPlanEval returns an evaluator over p.
func NewPlanEval(p *Plan) *PlanEval { return &PlanEval{plan: p} }

// Plan returns the plan the evaluator answers.
func (pe *PlanEval) Plan() *Plan { return pe.plan }

// Bind points the evaluator at an Event Base for probes whose horizons
// all lie at or above floor, and invalidates every memoized value, prim
// cursors included. It also resolves the plan's leaves to the type ids
// of the base's registry if the registry or the plan changed since they
// were last resolved: once per plan version and registry, whatever the
// number of bases.
func (pe *PlanEval) Bind(base *event.Base, floor clock.Time) {
	pe.base = base
	pe.floor = floor
	pe.gen++
	pe.bindGen++
	pe.cur = clock.Never
	pe.clearArena()
	if pe.registry != base.Registry() || pe.planVer != pe.plan.version {
		pe.resolve(base.Registry())
	}
}

// Unbind drops the evaluator's references to its Event Base, so an idle
// evaluator keeps no transaction's log alive.
func (pe *PlanEval) Unbind() {
	pe.base = nil
}

// resolve resolves the plan's leaves against reg, registering the types
// it has not met yet.
func (pe *PlanEval) resolve(reg *event.Registry) {
	nodes := pe.plan.nodes
	if len(pe.primTID) < len(nodes) {
		pe.primTID = append(pe.primTID, make([]int32, len(nodes)-len(pe.primTID))...)
	}
	n := int32(0)
	for _, id := range pe.plan.prims {
		pe.primTID[id] = reg.Intern(nodes[id].key.t)
		n = max(n, pe.primTID[id]+1)
	}
	if cap(pe.tid2prim) < int(n) {
		pe.tid2prim = make([]NodeID, n)
	}
	pe.tid2prim = pe.tid2prim[:n]
	for i := range pe.tid2prim {
		pe.tid2prim[i] = NoNode
	}
	for _, id := range pe.plan.prims {
		pe.tid2prim[pe.primTID[id]] = id
	}
	if pe.tracking {
		pe.growPrim()
	}
	pe.registry = reg
	pe.planVer = pe.plan.version
}

// NoteArrivalTID reports one arrival, by interned type id, to the prim
// cursors: one array index per scanned arrival. Cursors not yet
// initialized in this Bind stay lazy: their first evaluation runs one
// LastOf catch-up query that includes this arrival. Valid only after a
// Bind to a base of the registry that numbered the tid.
func (pe *PlanEval) NoteArrivalTID(tid int32, at clock.Time) {
	if !pe.tracking || int(tid) >= len(pe.tid2prim) {
		return
	}
	if id := pe.tid2prim[tid]; id != NoNode && pe.primEpoch[id] == pe.bindGen {
		pe.primLast[id] = at
	}
}

// Track switches the prim cursors on. A tracking evaluator has a
// stricter driving contract in exchange for O(1) prim lookups at the
// memo instant: Begin instants within one Bind must be non-decreasing,
// and every arrival after the floor up to the current instant must be
// reported through NoteArrivalTID in timestamp order before that instant
// is probed (arrivals before a prim's first probe may be skipped: its
// catch-up query finds them). The CheckTriggered walk satisfies this by
// construction; ad-hoc callers should leave tracking off.
func (pe *PlanEval) Track(on bool) {
	pe.tracking = on
	if on {
		pe.growPrim()
	}
}

func (pe *PlanEval) growPrim() {
	if n := pe.plan.Cap(); len(pe.primLast) < n {
		pe.primLast = append(pe.primLast, make([]clock.Time, n-len(pe.primLast))...)
		pe.primEpoch = append(pe.primEpoch, make([]uint64, n-len(pe.primEpoch))...)
	}
}

// Begin opens the memo generation for probe instant t: values computed
// at t are memoized, each for its range of horizons, and folds are kept,
// each for every horizon at or above its own, until the next Begin or
// Bind.
func (pe *PlanEval) Begin(t clock.Time) {
	pe.gen++
	pe.cur = t
	pe.clearArena()
	if n := pe.plan.Cap(); len(pe.memo) < n {
		pe.memo = append(pe.memo, make([]memoSlot, n-len(pe.memo))...)
	}
	if n := len(pe.plan.sets); len(pe.keptAt) < n {
		pe.keptAt = append(pe.keptAt, make([]int32, n-len(pe.keptAt))...)
	}
	if pe.tracking {
		pe.growPrim()
	}
}

// clearArena drops the kept folds.
func (pe *PlanEval) clearArena() {
	pe.objs, pe.cells, pe.kept = pe.objs[:0], pe.cells[:0], pe.kept[:0]
	pe.keepObjs, pe.keepCells = 0, 0
}

// Cur returns the probe instant of the open generation (clock.Never
// after Bind, before the first Begin).
func (pe *PlanEval) Cur() clock.Time { return pe.cur }

// TakeCounters returns and resets the evaluation-work counters: evals is
// the number of node results actually computed (set-level ts, per-object
// ots, lift folds), hits the number served from the memo or from a kept
// fold — the recomputations sharing avoided.
func (pe *PlanEval) TakeCounters() (evals, hits int64) {
	evals, hits = pe.evals, pe.hits
	pe.evals, pe.hits = 0, 0
	return evals, hits
}

// TS evaluates the set-oriented ts of node id at probe instant t over
// R = (since, t], exactly as Env.TS does with Env.Since = since; since
// must not lie below the floor of the Bind. Values at the generation's
// instant (Begin) are memoized per node for the horizons they hold for.
func (pe *PlanEval) TS(id NodeID, t, since clock.Time) TS {
	v, _ := pe.ts(id, t, since)
	return v
}

// ts is TS with the span of horizons the value holds for.
func (pe *PlanEval) ts(id NodeID, t, since clock.Time) (TS, span) {
	memo := t == pe.cur
	if memo {
		if m := &pe.memo[id]; m.gen == pe.gen && m.holds(since) {
			pe.hits++
			return m.v, m.span
		}
	}
	pe.Budget.Charge()
	n := &pe.plan.nodes[id]
	var v TS
	var sp span
	if n.instRooted {
		v, sp = pe.lift(id, n, t, since), span{since, since + 1}
	} else {
		switch n.key.op {
		case planPrim:
			v, sp = pe.primTS(id, t, since)
		case planNot:
			v, sp = pe.ts(n.key.l, t, since)
			v = -v
		case planAnd:
			a, sa := pe.ts(n.key.l, t, since)
			b, sb := pe.ts(n.key.r, t, since)
			v, sp = andTS(a, b), sa.meet(sb)
		case planOr:
			a, sa := pe.ts(n.key.l, t, since)
			b, sb := pe.ts(n.key.r, t, since)
			v, sp = orTS(a, b), sa.meet(sb)
		case planSeq:
			// The left operand is probed at the right's activation instant —
			// a historical time, so the recursive call bypasses the memo.
			var b TS
			v = -TS(t)
			if b, sp = pe.ts(n.key.r, t, since); b.Active() {
				a, sa := pe.ts(n.key.l, b.Time(), since)
				if sp = sp.meet(sa); a.Active() {
					v = b
				}
			}
		}
	}
	pe.evals++
	if memo {
		pe.memo[id] = memoSlot{pe.gen, v, sp}
	}
	return v, sp
}

// primTS is the set-oriented ts of one primitive node: its newest stamp
// L at or before t is the value for every horizon below L, and −t for
// every other. At the memo instant a tracking evaluator reads L from the
// prim cursor — O(1) instead of a LastOf search — initializing the cursor
// with one catch-up query the first time the prim is touched in this
// Bind. Historical probes (precedence left operands) always search.
func (pe *PlanEval) primTS(id NodeID, t, since clock.Time) (TS, span) {
	var last clock.Time
	if pe.tracking && t == pe.cur {
		if pe.primEpoch[id] != pe.bindGen {
			pe.primLast[id] = pe.lastOf(id, t)
			pe.primEpoch[id] = pe.bindGen
		}
		last = pe.primLast[id]
	} else {
		last = pe.lastOf(id, t)
	}
	if last > since {
		return TS(last), span{clock.Never, last}
	}
	return -TS(t), span{last, math.MaxInt64}
}

// lastOf is prim node id's last occurrence in (floor, t].
func (pe *PlanEval) lastOf(id NodeID, t clock.Time) clock.Time {
	return pe.base.LastOfTID(pe.primTID[id], pe.floor, t)
}

// lift mirrors Env.lift on the DAG: universal lift for instance
// negation, existential lift otherwise, over the objects of (since, t].
// A fold over the node's leaves gives every object they touched, and the
// ots of each of those; an object they did not touch has the node's
// vacuous ots, which counts only when the node is not restrictionSafe
// and (since, t] holds such an object. At the generation's instant the
// fold may be a kept one from a lower horizon: its rows with no stamp
// above since are objects the leaves did not touch in (since, t].
func (pe *PlanEval) lift(id NodeID, n *planNode, t, since clock.Time) TS {
	defer pe.endFold() // a budget fault unwinds through here
	if t == pe.cur {
		pe.foldKept(n.set, t, since)
	} else {
		pe.fold(n.set, t, since)
	}
	univ := n.key.op == planNot
	best := -TS(t)
	if univ {
		best = TS(t)
	}
	k, live, below := len(pe.leaves), 0, since > pe.foldSince
	for r, oi := range pe.touched {
		if below && slices.Max(pe.stamps[r*k:(r+1)*k]) <= since {
			continue // no leaf touched oi in (since, t]
		}
		live++
		best = liftStep(univ, best, pe.ots(id, t, since, oi, r))
	}
	if !n.safe {
		pe.oidScratch = pe.base.AppendObjs(pe.oidScratch[:0], since, t)
		if len(pe.oidScratch) > live { // some object no leaf touched
			best = liftStep(univ, best, pe.ots(id, t, since, event.NoObj, -1))
		}
	}
	return best
}

// liftStep folds one object's ots v into a lift's running value best: the
// universal lift keeps the least, the existential the greatest. Every ots
// at t lies in [−t, t], so starting from the lift over no object is exact.
func liftStep(univ bool, best, v TS) TS {
	if univ {
		return min(best, v)
	}
	return max(best, v)
}

// foldKept opens the fold of fold set s at the generation's instant t
// for horizon since: the set's kept fold if it was folded at or below
// since — a prim's newest stamp in (since, t] is the kept one if that is
// above since, and there is none otherwise — or else a new fold at since,
// which replaces it. A kept fold read again is a memo hit: it charges
// nothing.
func (pe *PlanEval) foldKept(s int32, t, since clock.Time) {
	if i := int(pe.keptAt[s]); i < len(pe.kept) && pe.kept[i].set == s && pe.kept[i].since <= since {
		kf := &pe.kept[i]
		pe.hits++
		pe.openFold(s, t, kf.since)
		o0, c0, n := int(kf.o0), int(kf.c0), int(kf.n)
		pe.touched, pe.stamps = pe.objs[o0:o0+n], pe.cells[c0:c0+n*len(pe.leaves)]
		return
	}
	pe.fold(s, t, since)
	pe.keptAt[s] = int32(len(pe.kept))
	pe.kept = append(pe.kept, keptFold{since, s, int32(pe.o0), int32(pe.c0), int32(len(pe.touched))})
	pe.keepObjs, pe.keepCells = len(pe.objs), len(pe.cells)
}

// openFold makes the fold of fold set s over (since, t] the open one and
// maps its leaves to their columns.
func (pe *PlanEval) openFold(s int32, t, since clock.Time) {
	pe.foldAt, pe.foldSince = t, since
	pe.leaves = pe.plan.sets[s].leaves
	if n := len(pe.plan.nodes); len(pe.leafCol) < n {
		pe.leafCol = append(pe.leafCol, make([]int32, n-len(pe.leafCol))...)
	}
	for c, leaf := range pe.leaves {
		pe.leafCol[leaf] = int32(c)
	}
}

// fold walks the leaves of fold set s over (since, t] in one pass, onto
// the arena's end: every object those primitive types touched in the
// window lands in touched, with the newest stamp of each of those types
// on it. Until endFold, ots at instant t reads a prim's stamp from the
// fold instead of probing the base; an object the fold did not touch
// reads no stamp at all, which is its ots. The fold counts as one
// computed node.
func (pe *PlanEval) fold(s int32, t, since clock.Time) {
	pe.Budget.Charge()
	pe.evals++
	if pe.foldGen++; pe.foldGen == 0 { // the epochs wrapped: forget them all
		clear(pe.rows)
		pe.foldGen = 1
	}
	pe.openFold(s, t, since)
	k := len(pe.leaves)
	pe.o0, pe.c0 = len(pe.objs), len(pe.cells)
	if len(pe.rows) == 0 {
		pe.growRows(k)
	}
	for c, leaf := range pe.leaves {
		pe.base.ForLeaf(pe.primTID[leaf], since, t, func(oi int32, at clock.Time) {
			r := pe.rowFor(oi, k)      // may grow cells
			pe.cells[pe.c0+r*k+c] = at // the leaf is in time order: the newest stamp lands last
		})
	}
	pe.touched, pe.stamps = pe.objs[pe.o0:], pe.cells[pe.c0:]
}

// foldRow is an entry of the fold's object table: row r of touched and
// stamps, live while epoch is the open fold's.
type foldRow struct {
	epoch uint32
	r     int32
}

// find returns the slot of object oi in rows and its row in the open
// fold, or, if the fold did not touch oi, the free slot oi would take and
// -1 (Fibonacci hashing, linear probing).
func (pe *PlanEval) find(oi int32) (slot, row int) {
	mask := len(pe.rows) - 1
	for i := int(uint32(oi) * 0x9E3779B9 >> pe.rowShift); ; i = (i + 1) & mask {
		e := pe.rows[i]
		if e.epoch != pe.foldGen {
			return i, -1
		}
		if pe.objs[pe.o0+int(e.r)] == oi {
			return i, int(e.r)
		}
	}
}

// row returns the row of object oi in the open fold, or -1 if it did not
// touch oi. The fold must be one this evaluator just built: a kept fold
// read again has no entries in the table.
func (pe *PlanEval) row(oi int32) int {
	_, r := pe.find(oi)
	return r
}

// rowFor returns the row of object oi in the open fold, adding one of k
// empty stamps if the fold had not touched oi yet.
func (pe *PlanEval) rowFor(oi int32, k int) int {
	n := len(pe.objs) - pe.o0
	if 2*n >= len(pe.rows) { // keep the load at most one half
		pe.growRows(k)
	}
	i, r := pe.find(oi)
	if r < 0 {
		r = n
		pe.rows[i] = foldRow{pe.foldGen, int32(r)}
		pe.objs = append(pe.objs, oi)
		for range k {
			pe.cells = append(pe.cells, clock.Never)
		}
	}
	return r
}

// growRows doubles the object table (from 16 slots), gives the arena room
// for as many objects of the open fold as the table takes before it grows
// again (half its slots, k stamps each), and re-enters the open fold's
// objects. An evaluator keeps its table and its arena, so once they have
// held the most objects a fold, and a generation's kept folds, touch,
// folds no longer grow them.
func (pe *PlanEval) growRows(k int) {
	n := max(16, 2*len(pe.rows))
	pe.rows = make([]foldRow, n)
	pe.rowShift = uint8(32 - bits.TrailingZeros(uint(n)))
	open := pe.objs[pe.o0:]
	pe.objs = slices.Grow(pe.objs, n/2-len(open))
	pe.cells = slices.Grow(pe.cells, n/2*k-len(open)*k)
	for r, oi := range pe.objs[pe.o0:] {
		i, _ := pe.find(oi)
		pe.rows[i] = foldRow{pe.foldGen, int32(r)}
	}
}

// endFold ends the fold and cuts it off the arena unless it is kept.
func (pe *PlanEval) endFold() {
	pe.foldAt = clock.Never
	pe.objs, pe.cells = pe.objs[:pe.keepObjs], pe.cells[:pe.keepCells]
}

// AffectedObjects appends to dst the objects for which node id is active
// at t over R = (since, t] — the occurred(E, X) bindings of Section 3.3,
// Env.AffectedObjects' set — read from one fold over the node's leaves.
// Unless E is vacuously active, an object E's own types did not touch has
// ots −t: only the touched ones count, and they come out in ascending OID
// order; otherwise every object of R does, in order of first appearance.
func (pe *PlanEval) AffectedObjects(dst []types.OID, id NodeID, t, since clock.Time) []types.OID {
	return pe.affected(dst, nil, id, t, since)
}

// AffectedWindow is AffectedObjects that also appends to window, from the
// same fold, every object E's own types touched in R, ascending by OID:
// unless E is vacuously active, those at which E can have arisen in R,
// the objects at(E, X, T) accepts a bound X from.
func (pe *PlanEval) AffectedWindow(dst, window []types.OID, id NodeID, t, since clock.Time) (affected, touched []types.OID) {
	return pe.affected(dst, &window, id, t, since), window
}

// affected is AffectedWindow, or AffectedObjects if window is nil.
func (pe *PlanEval) affected(dst []types.OID, window *[]types.OID, id NodeID, t, since clock.Time) []types.OID {
	n := &pe.plan.nodes[id]
	defer pe.endFold() // a budget fault unwinds through here
	pe.fold(n.set, t, since)
	if window != nil {
		start := len(*window)
		for _, oi := range pe.touched {
			*window = append(*window, pe.base.OID(oi))
		}
		slices.Sort((*window)[start:])
	}
	if VacuouslyActive(n.expr) {
		pe.oidScratch = pe.base.AppendObjs(pe.oidScratch[:0], since, t)
		for _, oi := range pe.oidScratch {
			if pe.ots(id, t, since, oi, pe.row(oi)).Active() {
				dst = append(dst, pe.base.OID(oi))
			}
		}
		return dst
	}
	start := len(dst)
	for r, oi := range pe.touched {
		// A primitive is active for exactly the objects its type touched.
		if n.key.op == planPrim || pe.ots(id, t, since, oi, r).Active() {
			dst = append(dst, pe.base.OID(oi))
		}
	}
	slices.Sort(dst[start:])
	return dst
}

// ActivationTimes appends to dst every instant t' of (since, t] at which
// an occurrence of node id arises for object oid, ots(E, t', oid) = t' —
// the at(E, X, T) instants of Section 3.3, as Env.ActivationTimes.
func (pe *PlanEval) ActivationTimes(dst []clock.Time, id NodeID, t, since clock.Time, oid types.OID) []clock.Time {
	oi := pe.base.ObjID(oid)
	pe.times = pe.base.AppendArrivals(pe.times[:0], since, t)
	for _, at := range pe.times {
		if pe.ots(id, at, since, oi, -1) == TS(at) {
			dst = append(dst, at)
		}
	}
	return dst
}

// ots mirrors Env.OTS on the DAG, for the object with interned id oid
// (event.NoObj for one the base never logged). At the instant of an open
// fold a primitive — one of the fold's leaves, as every ots there is —
// reads its stamp from oid's row of the fold, row (-1 if the fold did not
// touch oid), and a stamp at or below since, which a kept fold from a
// lower horizon holds, is none; at any other instant (an instance
// precedence's left operand, which is probed at its right operand's
// activation instant, or an ActivationTimes probe) it probes the base,
// and row is not read.
func (pe *PlanEval) ots(id NodeID, t, since clock.Time, oid int32, row int) TS {
	pe.Budget.Charge()
	n := &pe.plan.nodes[id]
	var v TS
	switch n.key.op {
	case planPrim:
		last := clock.Never
		if t != pe.foldAt {
			last = pe.base.LastOfObjTID(pe.primTID[id], oid, since, t)
		} else if row >= 0 {
			last = pe.stamps[row*len(pe.leaves)+int(pe.leafCol[id])]
		}
		if last > since {
			v = TS(last)
		} else {
			v = -TS(t)
		}
	case planNot:
		v = -pe.ots(n.key.l, t, since, oid, row)
	case planAnd:
		v = andTS(pe.ots(n.key.l, t, since, oid, row), pe.ots(n.key.r, t, since, oid, row))
	case planOr:
		v = orTS(pe.ots(n.key.l, t, since, oid, row), pe.ots(n.key.r, t, since, oid, row))
	case planSeq:
		v = -TS(t)
		if b := pe.ots(n.key.r, t, since, oid, row); b.Active() {
			if a := pe.ots(n.key.l, b.Time(), since, oid, row); a.Active() {
				v = b
			}
		}
	}
	pe.evals++
	return v
}
