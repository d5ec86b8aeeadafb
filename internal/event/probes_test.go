package event

import (
	"slices"

	"chimera/internal/clock"
	"chimera/internal/types"
)

// Type-keyed probes and counters that only this package's tests read.

// DistinctOIDs returns the number of distinct objects ever logged
// (retired occurrences included).
func (b *Base) DistinctOIDs() int {
	return len(b.oidsByID)
}

// Appended returns the total number of occurrences ever appended,
// including retired ones.
func (b *Base) Appended() int {
	return b.live + b.retired
}

// Latest returns the time stamp of the most recent occurrence of type t,
// or clock.Never if t never occurred. This is the leaf's cached value the
// paper's implementation section calls out; it survives compaction (the
// most recent occurrence of a type is a fact about the whole
// transaction, not about the live window).
func (b *Base) Latest(t Type) clock.Time {
	if tid, ok := b.reg.lookup(t); ok {
		return b.latestOf(tid)
	}
	return clock.Never
}

// OccurrencesOf returns all occurrences of type t in the window
// (since, upTo], in time order.
func (b *Base) OccurrencesOf(t Type, since, upTo clock.Time) []Occurrence {
	return b.occurrences(t, anyObj, since, upTo)
}

// OIDsOfTypes returns the distinct objects affected by occurrences of any
// of the given types in (since, upTo], in ascending OID order.
func (b *Base) OIDsOfTypes(ts []Type, since, upTo clock.Time) []types.OID {
	var tids []int32
	for _, t := range ts {
		if tid, ok := b.reg.lookup(t); ok {
			tids = append(tids, tid)
		}
	}
	var oids []types.OID
	for _, oi := range b.AppendObjsOfTIDs(nil, tids, since, upTo) {
		oids = append(oids, b.OID(oi))
	}
	slices.Sort(oids)
	return oids
}

// AppendObjsOfTIDs is AppendObjs restricted to the objects touched by
// occurrences of the given types, ascending by interned id: the objects
// of the types' leaves.
func (b *Base) AppendObjsOfTIDs(dst []int32, tids []int32, since, upTo clock.Time) []int32 {
	start := len(dst)
	for _, tid := range tids {
		b.ForLeaf(tid, since, upTo, func(oi int32, _ clock.Time) { dst = append(dst, oi) })
	}
	return sortDedup(dst, start)
}
