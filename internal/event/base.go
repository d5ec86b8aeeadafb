package event

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"sync"

	"chimera/internal/clock"
	"chimera/internal/metrics"
	"chimera/internal/types"
)

// ErrLimit is the Event Base's typed capacity error: an append would
// grow the live window past a configured bound (SetLimits). The caller
// gets an explicit, recoverable error instead of unbounded memory
// growth; test with errors.Is.
var ErrLimit = errors.New("event: event base capacity limit exceeded")

// BaseMetrics is the Event Base's instrument set. The zero value (all
// nil instruments) is the disabled configuration: every report is a
// no-op nil check (see internal/metrics). The engine resolves one set
// per database and installs it on each transaction's Base, so the
// instruments accumulate across transactions while the gauges track the
// live transaction's window.
type BaseMetrics struct {
	// Appends counts occurrences ever appended.
	Appends *metrics.Counter
	// SegmentsAllocated / SegmentsRetired count segment churn;
	// OccurrencesRetired counts occurrences dropped by compaction.
	SegmentsAllocated  *metrics.Counter
	SegmentsRetired    *metrics.Counter
	OccurrencesRetired *metrics.Counter
	// Live / LiveSegments gauge the retained window — the pair the
	// bounded-memory claim of DESIGN.md §8 is about.
	Live         *metrics.Gauge
	LiveSegments *metrics.Gauge
	// DistinctOIDs / InternedTypes gauge the interner footprint (see the
	// retention contract in the Base comment): both grow with the
	// transaction's distinct objects and event types and are never shrunk
	// by compaction, so a monotonically climbing gauge on a long-lived
	// transaction is the expected signal — what the pair exposes is the
	// slope, the one component of the base's memory that compaction
	// cannot bound.
	DistinctOIDs  *metrics.Gauge
	InternedTypes *metrics.Gauge
}

// NewBaseMetrics resolves the Event Base instruments from a registry; a
// nil registry yields the zero (disabled) set.
func NewBaseMetrics(r *metrics.Registry) BaseMetrics {
	if r == nil {
		return BaseMetrics{}
	}
	return BaseMetrics{
		Appends:            r.Counter("chimera_eb_appends_total"),
		SegmentsAllocated:  r.Counter("chimera_eb_segments_allocated_total"),
		SegmentsRetired:    r.Counter("chimera_eb_segments_retired_total"),
		OccurrencesRetired: r.Counter("chimera_eb_occurrences_retired_total"),
		Live:               r.Gauge("chimera_eb_live_occurrences"),
		LiveSegments:       r.Gauge("chimera_eb_live_segments"),
		DistinctOIDs:       r.Gauge("chimera_eb_distinct_oids"),
		InternedTypes:      r.Gauge("chimera_eb_interned_types"),
	}
}

// DefaultSegmentSize is the number of occurrences one segment of the
// Event Base holds. 256 keeps a segment (with its segment-local indexes)
// comfortably inside a few cache lines' worth of slice headers while
// making appends amortized O(1) — a full segment is sealed and a fresh
// one opened, so no append ever reallocates or copies previously logged
// occurrences.
const DefaultSegmentSize = 256

// Base is the Event Base: the append-only log of all event occurrences
// since the beginning of the transaction, organized as the
// Occurred-Events tree of Section 5. The leaves of the tree are the
// per-type occurrence lists; each leaf keeps the time stamp of the most
// recent occurrence of its type, and a sparse per-object index supports
// the instance-oriented operators.
//
// Time stamps appended to a Base must be strictly increasing (the engine
// stamps every occurrence with its own clock tick), which is what makes
// every lookup a binary search.
//
// # Generational storage
//
// The log is a chain of fixed-size segments. A segment is append-only
// while it is the tail and immutable once sealed; the per-type leaf
// lists and per-object sparse indexes are segment-local, so an
// occurrence's entire footprint — its columns and every index entry
// pointing at it — lives inside one segment. Section 5 defines R, the
// portion of the base relevant for triggering, as the events more
// recent than a rule's last consideration (consuming mode) or the
// transaction start (preserving mode); once every defined rule's window
// has moved past a segment, CompactBelow retires the whole segment in
// O(1), and with it
// every index entry, keeping memory and index-scan cost proportional to
// the live window instead of the transaction lifetime. Retired
// occurrences are unreachable through the window API (their time stamps
// lie at or below Floor); lookups never consult them.
//
// # Layout
//
// Invariant: a segment is three parallel columns — time stamp, interned
// type id, interned object id — and its index is a pure function of
// them: segment.index applied to the rows in order, by Append and by
// the checkpoint restore alike, so a restored base answers every probe
// as the base it was exported from. The index is keyed by id only (see
// segment), in open-addressed tables whose memory follows the entries
// of the segment, never the vocabulary. A probe (LastOf, LastOfObj,
// AppendOIDsOfTypes, OccurrencesOf, ...) resolves its Type and OID to
// ids once, at the API edge, and below that compares and hashes int32s;
// a Type or OID that was never interned has no occurrences. The probe
// loops of the Trigger Support walk windows through ChunkCols, touching
// only the timestamp and type-id columns; Occurrence rows exist only as
// copies made at the API edge (Window, AppendWindow, All,
// OccurrencesOfObj).
//
// # Interners and retention
//
// Ids are per Base, dense int32s assigned in first-arrival order
// (InternType lets compiled consumers claim a type id before the type
// occurs), and never recycled: WAL records and segment frames carry
// them. Type appears only at the API edge, in the interner map and in
// typesByID. The interners and the per-type latest time stamp (a slice
// by type id) are transaction-lifetime state: they grow with the number
// of *distinct* types and objects, not with occurrences, and compaction
// never shrinks them, because retired history still determines id
// assignment (and OID first-arrival order, which OIDs/AppendOIDs
// expose). A transaction touching an unbounded stream of fresh objects
// therefore grows its interner without bound; the
// chimera_eb_distinct_oids and chimera_eb_interned_types gauges expose
// exactly this component so operators can see the slope.
//
// # Concurrency
//
// Base is explicitly safe for any number of concurrent readers: every
// read path takes the internal RWMutex in shared mode and either copies
// results or appends into a buffer the caller owns. A loop of probes
// takes it once, through a read section (Read, Reader). The one
// exception, ChunkCols, returns slices aliasing a segment's columns —
// safe because sealed segments are immutable and the tail segment is
// append-only: existing entries are never moved or overwritten, and
// compaction only unlinks whole segments from the chain, never
// relocating live data, so previously returned columns stay valid (the
// garbage collector keeps their segment alive) even across appends and
// compactions. Appends and CompactBelow take the mutex exclusively; the
// engine additionally serializes writers per transaction (one open
// transaction owns the Base), so readers racing a writer observe either
// the pre-append or the post-append log, never a torn state.
type Base struct {
	mu      sync.RWMutex
	segSize int
	segs    []*segment // live segments, ascending by time stamp
	// typeIDs/typesByID and oidIDs/oidsByID are the per-Base interners:
	// dense int32 ids in first-arrival order. The OID interner doubles as
	// the first-arrival rank that keeps OIDs/AppendOIDs order stable
	// across segment boundaries and compactions. latest, parallel to
	// typesByID, is each type's newest time stamp (clock.Never before its
	// first occurrence). See the retention contract in the type comment.
	typeIDs   map[Type]int32
	typesByID []Type
	latest    []clock.Time
	oidIDs    map[types.OID]int32
	oidsByID  []types.OID
	nextID    EID
	lastTS    clock.Time // newest time stamp ever appended
	live      int        // occurrences currently retained
	// Compaction bookkeeping: the retirement floor (highest retired time
	// stamp — every live occurrence is strictly above it) and counters.
	floor       clock.Time
	retired     int
	retiredSegs int
	// Capacity bounds on the *live* window (SetLimits; 0 = unlimited).
	// They bound what compaction cannot: a transaction whose rules'
	// consumption watermark keeps up stays far under the limits forever,
	// while one outrunning its watermark hits ErrLimit instead of OOM.
	maxEvents   int
	maxSegments int
	// retention is the streaming window bound (SetRetention; 0 = none):
	// compaction may retire occurrences more than retention ticks behind
	// the current instant regardless of the consumption watermark.
	retention clock.Time
	// m is the instrument set (zero value when metrics are off; every
	// report is then a nil-check no-op).
	m BaseMetrics
}

// segment is one generation of the log: up to segSize occurrences in
// time-stamp order plus the segment-local slice of every index — the
// per-type leaves, the per-(type, object) sparse lists and the set of
// objects present. Index entries are int32 offsets into the columns,
// keys are interned ids; a segment and all its indexes retire together.
//
// Every search is a binary probe over ts, and the index is derived from
// tids and oids.
type segment struct {
	firstEID EID // EID of entry 0; EIDs are dense, entry i is firstEID+i
	ts       []clock.Time
	tids     []int32
	oids     []int32
	// leafOf holds a leaf per type of the segment, pairOf per (type,
	// object) pair the ascending positions of its occurrences; objOf's
	// keys are the distinct objects of the segment.
	leafOf idTable[segLeaf]
	pairOf idTable[[]int32]
	objOf  idTable[struct{}]
}

// segLeaf is one segment's slice of a leaf of the Occurred-Events tree:
// the positions of one event type's occurrences within the segment,
// ascending, and the distinct objects (interned ids, first-touch order)
// they affect.
type segLeaf struct {
	all  []int32
	objs []int32
}

// idTable is a segment-local open-addressed index from an id key to a
// value. Entries are numbered in insertion order (keys[n], vals[n]), so
// keys lists the distinct keys. Linear probing at a load of at most one
// half; the three arrays grow together and follow the number of keys.
type idTable[V any] struct {
	slots []int32 // entry number + 1, 0 = free; len is a power of two
	keys  []uint64
	vals  []V
	shift uint8 // 64 - log2(len(slots))
}

// pairKey is pairOf's key for (type id, object id).
func pairKey(tid, oi int32) uint64 { return uint64(tid)<<32 | uint64(uint32(oi)) }

// probe returns the slot holding k's entry or, if k is absent, the free
// slot it would take.
func (t *idTable[V]) probe(k uint64) int {
	i := int(k * 0x9E3779B97F4A7C15 >> t.shift)
	for e := t.slots[i]; e != 0 && t.keys[e-1] != k; e = t.slots[i] {
		i = (i + 1) & (len(t.slots) - 1)
	}
	return i
}

// find returns k's entry number, or -1.
func (t *idTable[V]) find(k uint64) int {
	if len(t.slots) == 0 {
		return -1
	}
	return int(t.slots[t.probe(k)]) - 1
}

// findOrAdd returns k's entry number, adding an entry with the zero
// value (added) if k is new.
func (t *idTable[V]) findOrAdd(k uint64) (n int, added bool) {
	if 2*len(t.keys) >= len(t.slots) {
		t.resize(max(16, 2*len(t.slots)))
	}
	i := t.probe(k)
	if e := t.slots[i]; e != 0 {
		return int(e - 1), false
	}
	var zero V
	t.keys, t.vals = append(t.keys, k), append(t.vals, zero)
	t.slots[i] = int32(len(t.keys))
	return len(t.keys) - 1, true
}

// resize rehashes the table into size slots, a power of two, with room
// for size/2 entries.
func (t *idTable[V]) resize(size int) {
	t.slots = make([]int32, size)
	t.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	t.keys = append(make([]uint64, 0, size/2), t.keys...)
	t.vals = append(make([]V, 0, size/2), t.vals...)
	for e, key := range t.keys {
		t.slots[t.probe(key)] = int32(e + 1)
	}
}

// sizeLike gives an empty table the slot count prev ended with, so that a
// segment indexing the same stream as its predecessor never rehashes.
func (t *idTable[V]) sizeLike(prev *idTable[V]) {
	if n := len(prev.slots); n > 0 {
		t.resize(n)
	}
}

func (sg *segment) n() int            { return len(sg.ts) }
func (sg *segment) minTS() clock.Time { return sg.ts[0] }
func (sg *segment) maxTS() clock.Time { return sg.ts[len(sg.ts)-1] }

// index enters row i of the columns, an occurrence of type tid on object
// oi, into the segment-local index. It is the index's only writer: the
// index of a segment is index applied to its rows in order.
func (sg *segment) index(i, tid, oi int32) {
	l, _ := sg.leafOf.findOrAdd(uint64(tid))
	lf := &sg.leafOf.vals[l]
	lf.all = append(lf.all, i)
	p, added := sg.pairOf.findOrAdd(pairKey(tid, oi))
	if added {
		lf.objs = append(lf.objs, oi)
	}
	sg.pairOf.vals[p] = append(sg.pairOf.vals[p], i)
	sg.objOf.findOrAdd(uint64(oi))
}

// anyObj as the object id of list selects the type's whole leaf.
const anyObj int32 = -1

// list returns the ascending positions of type tid's occurrences on
// object oi (anyObj: on any object) in the segment, nil if there are
// none.
func (sg *segment) list(tid, oi int32) []int32 {
	if oi == anyObj {
		if l := sg.leafOf.find(uint64(tid)); l >= 0 {
			return sg.leafOf.vals[l].all
		}
		return nil
	}
	if p := sg.pairOf.find(pairKey(tid, oi)); p >= 0 {
		return sg.pairOf.vals[p]
	}
	return nil
}

// search returns the first position in idxs whose occurrence has a time
// stamp exceeding t (idxs ascend by time stamp).
func (sg *segment) search(idxs []int32, t clock.Time) int {
	lo, hi := 0, len(idxs)
	if hi > 0 && sg.ts[idxs[hi-1]] <= t {
		return hi // the usual probe: at or after the list's newest entry
	}
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); sg.ts[idxs[m]] > t {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}

// after returns the first position of the segment whose time stamp
// exceeds t.
func (sg *segment) after(t clock.Time) int {
	if sg.minTS() > t {
		return 0
	}
	if sg.maxTS() <= t {
		return sg.n() // also keeps t+1 from overflowing
	}
	i, _ := slices.BinarySearch(sg.ts, t+1)
	return i
}

// within returns the part of the ascending position list idxs that lies
// in [lo, hi).
func within(idxs []int32, lo, hi int) []int32 {
	a, _ := slices.BinarySearch(idxs, int32(lo))
	z, _ := slices.BinarySearch(idxs, int32(hi))
	return idxs[a:z]
}

// bounds returns the [lo, hi) range of the segment covering (since, upTo].
func (sg *segment) bounds(since, upTo clock.Time) (int, int) {
	return sg.after(since), sg.after(upTo)
}

// NewBase returns an empty Event Base with the default segment size.
func NewBase() *Base { return NewBaseSize(DefaultSegmentSize) }

// NewBaseSize returns an empty Event Base whose segments hold segSize
// occurrences (below 1: the default). Small sizes exercise segment
// boundaries in tests; a size larger than any workload degenerates to
// the flat single-array layout (useful as an uncompacted differential
// reference).
func NewBaseSize(segSize int) *Base {
	if segSize < 1 {
		segSize = DefaultSegmentSize
	}
	return &Base{
		segSize: segSize,
		typeIDs: make(map[Type]int32),
		oidIDs:  make(map[types.OID]int32),
	}
}

// SetMetrics installs the instrument set. Call before the Base is
// shared between goroutines (the engine installs it at Begin).
func (b *Base) SetMetrics(m BaseMetrics) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.m = m
}

// SetLimits bounds the live window: at most maxEvents retained
// occurrences and maxSegments live segments (0 = unlimited). An append
// that would exceed either bound fails with a wrapped ErrLimit before
// any state changes — the base stays fully usable, and compaction
// (CompactBelow) frees room for further appends. The limits govern
// live, not total, volume: what they bound is the memory component the
// watermark cannot, a transaction whose rules stop consuming.
func (b *Base) SetLimits(maxEvents, maxSegments int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.maxEvents = maxEvents
	b.maxSegments = maxSegments
}

// SetRetention declares a logical-time retention window for streaming
// consumption: occurrences older than window ticks behind the current
// instant are eligible for compaction even when some rule's consumption
// watermark still reaches below them (0 = unlimited, the default).
// Retention is the streaming mode's memory guarantee — a dormant rule
// (never considered because its events never arrive) pins the
// low-watermark forever, and on an unbounded stream that means unbounded
// memory. The trade is explicit and semantic: with retention set, an
// operator's window effectively starts at the retention bound, so
// occurrences older than the window can no longer contribute to
// triggering (DESIGN.md §15).
func (b *Base) SetRetention(window clock.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.retention = window
}

// RetentionBound lifts a consumption watermark to the retention floor:
// the compaction bound at instant now is the higher of the rule-set
// watermark and now minus the retention window. With no retention
// configured the watermark passes through unchanged.
func (b *Base) RetentionBound(wm, now clock.Time) clock.Time {
	b.mu.RLock()
	w := b.retention
	b.mu.RUnlock()
	if w <= 0 {
		return wm
	}
	if bound := now - w; bound > wm {
		return bound
	}
	return wm
}

// internTypeLocked interns t, assigning the next dense id on first
// sight. Callers hold the write lock.
func (b *Base) internTypeLocked(t Type) int32 {
	if id, ok := b.typeIDs[t]; ok {
		return id
	}
	id := int32(len(b.typesByID))
	b.typeIDs[t] = id
	b.typesByID = append(b.typesByID, t)
	b.latest = append(b.latest, clock.Never)
	b.m.InternedTypes.Set(int64(len(b.typesByID)))
	return id
}

// internOIDLocked interns oid; ids ascend in first-arrival order, which
// is exactly the global rank OIDs/AppendOIDs sort by. Callers hold the
// write lock.
func (b *Base) internOIDLocked(oid types.OID) int32 {
	if id, ok := b.oidIDs[oid]; ok {
		return id
	}
	id := int32(len(b.oidsByID))
	b.oidIDs[oid] = id
	b.oidsByID = append(b.oidsByID, oid)
	b.m.DistinctOIDs.Set(int64(len(b.oidsByID)))
	return id
}

// InternType interns an event type and returns its dense id, assigning
// one if the type has not occurred yet. Compiled consumers (the shared
// plan's prim cursors, the Trigger Support's inverted V(E) index) call
// it at bind time so arrivals can be matched by int32 id instead of by
// Type struct comparison or map hashing.
func (b *Base) InternType(t Type) int32 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.internTypeLocked(t)
}

// InternedTypes returns the number of distinct event types interned so
// far. Consumers caching id-indexed state use it as a cheap version
// stamp: it only ever grows.
func (b *Base) InternedTypes() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.typesByID)
}

// occAt materializes the occurrence at index i of sg. Callers hold the
// mutex (read suffices).
func (b *Base) occAt(sg *segment, i int) Occurrence {
	return Occurrence{
		EID:       sg.firstEID + EID(i),
		Type:      b.typesByID[sg.tids[i]],
		OID:       b.oidsByID[sg.oids[i]],
		Timestamp: sg.ts[i],
	}
}

// Append records a new event occurrence and returns it. The time stamp
// must exceed every time stamp already appended (including retired ones).
func (b *Base) Append(t Type, oid types.OID, at clock.Time) (Occurrence, error) {
	occ, _, err := b.AppendTID(t, oid, at)
	return occ, err
}

// AppendTID is Append, additionally returning the occurrence's interned
// type id: the engine's WAL encoder keys its per-transaction type
// dictionary by it. One append interns the type and the object once and
// takes the lock once.
func (b *Base) AppendTID(t Type, oid types.OID, at clock.Time) (Occurrence, int32, error) {
	if err := t.Valid(); err != nil {
		return Occurrence{}, 0, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.nextID > 0 && at <= b.lastTS {
		return Occurrence{}, 0, fmt.Errorf(
			"event: non-monotone time stamp t%d after t%d", at, b.lastTS)
	}
	if b.maxEvents > 0 && b.live >= b.maxEvents {
		return Occurrence{}, 0, fmt.Errorf(
			"%w: %d live occurrences (MaxEvents %d)", ErrLimit, b.live, b.maxEvents)
	}
	tailRoom := len(b.segs) > 0 && b.segs[len(b.segs)-1].n() < b.segSize
	if !tailRoom && b.maxSegments > 0 && len(b.segs) >= b.maxSegments {
		return Occurrence{}, 0, fmt.Errorf(
			"%w: %d live segments (MaxSegments %d)", ErrLimit, len(b.segs), b.maxSegments)
	}
	b.nextID++
	occ := Occurrence{EID: b.nextID, Type: t, OID: oid, Timestamp: at}

	var sg *segment
	if tailRoom {
		sg = b.segs[len(b.segs)-1]
	} else {
		sg = &segment{
			firstEID: b.nextID,
			ts:       make([]clock.Time, 0, b.segSize),
			tids:     make([]int32, 0, b.segSize),
			oids:     make([]int32, 0, b.segSize),
		}
		if n := len(b.segs); n > 0 {
			// Roll-over: the predecessor's table sizes, never more.
			prev := b.segs[n-1]
			sg.leafOf.sizeLike(&prev.leafOf)
			sg.pairOf.sizeLike(&prev.pairOf)
			sg.objOf.sizeLike(&prev.objOf)
		}
		b.segs = append(b.segs, sg)
		b.m.SegmentsAllocated.Inc()
		b.m.LiveSegments.Set(int64(len(b.segs)))
	}
	idx := int32(sg.n())
	tid := b.internTypeLocked(t)
	oi := b.internOIDLocked(oid)
	sg.ts = append(sg.ts, at)
	sg.tids = append(sg.tids, tid)
	sg.oids = append(sg.oids, oi)
	sg.index(idx, tid, oi)

	b.latest[tid] = at
	b.lastTS = at
	b.live++
	b.m.Appends.Inc()
	b.m.Live.Set(int64(b.live))
	return occ, tid, nil
}

// CompactBelow retires every segment whose newest occurrence is at or
// below the watermark — the minimum over all defined rules of their
// relevant-window start (rules.Support exports it). Retirement unlinks
// whole segments, dropping their occurrences and every segment-local
// index in O(segments retired); live data is never moved, so previously
// returned ChunkCols columns stay valid. It returns the number of
// occurrences retired.
//
// Callers must guarantee no window reaching at or below the watermark is
// still being evaluated: the engine compacts only at block boundaries,
// after every in-flight consideration window has been fully read (see
// DESIGN.md §8).
func (b *Base) CompactBelow(watermark clock.Time) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	cut := 0
	n := 0
	for cut < len(b.segs) && b.segs[cut].maxTS() <= watermark {
		n += b.segs[cut].n()
		b.floor = b.segs[cut].maxTS()
		cut++
	}
	if cut == 0 {
		return 0
	}
	// Shift the chain down and nil the tail so the GC can reclaim the
	// retired segments as soon as no view aliases them.
	m := copy(b.segs, b.segs[cut:])
	for k := m; k < len(b.segs); k++ {
		b.segs[k] = nil
	}
	b.segs = b.segs[:m]
	b.live -= n
	b.retired += n
	b.retiredSegs += cut
	b.m.SegmentsRetired.Add(int64(cut))
	b.m.OccurrencesRetired.Add(int64(n))
	b.m.Live.Set(int64(b.live))
	b.m.LiveSegments.Set(int64(len(b.segs)))
	return n
}

// Floor returns the retirement floor: the highest retired time stamp.
// Every retained occurrence is strictly above it; windows reaching at or
// below it observe only the live remainder. Floor is clock.Never while
// nothing has been retired.
func (b *Base) Floor() clock.Time {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.floor
}

// Len returns the number of occurrences currently retained (appended and
// not yet retired by compaction).
func (b *Base) Len() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.live
}

// Retired returns the number of occurrences retired by compaction.
func (b *Base) Retired() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.retired
}

// Segments returns the number of live segments; RetiredSegments the
// number retired so far. The pair bounds the base's storage footprint:
// live memory is Segments × segment size regardless of how many
// occurrences the transaction has logged.
func (b *Base) Segments() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.segs)
}

// RetiredSegments returns the number of segments retired by compaction.
func (b *Base) RetiredSegments() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.retiredSegs
}

// All returns a copy of the retained log in arrival order.
func (b *Base) All() []Occurrence {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make([]Occurrence, 0, b.live)
	for _, sg := range b.segs {
		for i := 0; i < sg.n(); i++ {
			out = append(out, b.occAt(sg, i))
		}
	}
	return out
}

// Reader is a read section over a Base: it holds the base's lock in
// shared mode from Read to Done, and its probes do not lock. The
// function that owns a loop of probes (a lift over an object domain, an
// occurred() window) opens one around the loop and pays for the lock
// once instead of once per leaf. While a section is open its goroutine
// must call no locking method of the same Base: a shared lock
// re-acquired behind a waiting writer deadlocks. Defer Done when
// anything inside may panic (budget faults do).
//
// The id-typed probes are the implementation; the Type-keyed methods of
// Reader and Base resolve ids once and call them.
type Reader struct{ b *Base }

// Read opens a read section.
func (b *Base) Read() Reader {
	b.mu.RLock()
	return Reader{b}
}

// Done closes the section.
func (r Reader) Done() { r.b.mu.RUnlock() }

// TypeID returns t's interned id, or false if t was never interned (and
// so has no occurrences).
func (r Reader) TypeID(t Type) (int32, bool) {
	tid, ok := r.b.typeIDs[t]
	return tid, ok
}

// NoType and NoObj stand for a type and an object the base never
// interned: every probe on them finds nothing.
const (
	NoType int32 = -1
	NoObj  int32 = -2
)

// ObjID returns oid's interned id, or NoObj if no occurrence on it was
// ever logged.
func (r Reader) ObjID(oid types.OID) int32 {
	if oi, ok := r.b.oidIDs[oid]; ok {
		return oi
	}
	return NoObj
}

// OID returns the object with interned id oi.
func (r Reader) OID(oi int32) types.OID { return r.b.oidsByID[oi] }

// TypeID is Reader.TypeID under its own lock.
func (b *Base) TypeID(t Type) (int32, bool) {
	r := b.Read()
	defer r.Done()
	return r.TypeID(t)
}

// LastOfObjTID returns the time stamp of the most recent occurrence in
// the window (since, upTo] of the type with id tid on the object with id
// oi, or clock.Never if there is none; it backs ots(E, t, oid). Segments
// are walked newest-first.
func (r Reader) LastOfObjTID(tid, oi int32, since, upTo clock.Time) clock.Time {
	b := r.b
	if since >= upTo || tid == NoType || b.latest[tid] <= since {
		return clock.Never
	}
	for i := len(b.segs) - 1; i >= 0; i-- {
		sg := b.segs[i]
		if sg.minTS() > upTo {
			continue
		}
		if sg.maxTS() <= since {
			break
		}
		if idxs := sg.list(tid, oi); len(idxs) > 0 {
			if k := sg.search(idxs, upTo); k > 0 {
				// The newest entry ≤ upTo decides: if it clears since it is
				// the answer; otherwise every older entry is smaller still.
				if ts := sg.ts[idxs[k-1]]; ts > since {
					return ts
				}
				return clock.Never
			}
		}
		if sg.minTS() <= since {
			break // older segments lie entirely at or below since
		}
	}
	return clock.Never
}

// LastOfTID is LastOfObjTID on any object: the primitive lookup behind
// ts(E, t) over R = (since, now].
func (r Reader) LastOfTID(tid int32, since, upTo clock.Time) clock.Time {
	return r.LastOfObjTID(tid, anyObj, since, upTo)
}

// LastOfObj is LastOfObjTID for a Type and an OID.
func (r Reader) LastOfObj(t Type, oid types.OID, since, upTo clock.Time) clock.Time {
	tid, ok := r.b.typeIDs[t]
	oi, seen := r.b.oidIDs[oid]
	if !ok || !seen {
		return clock.Never
	}
	return r.LastOfObjTID(tid, oi, since, upTo)
}

// LastOf is LastOfTID for a Type, under its own lock.
func (b *Base) LastOf(t Type, since, upTo clock.Time) clock.Time {
	r := b.Read()
	defer r.Done()
	if tid, ok := r.TypeID(t); ok {
		return r.LastOfTID(tid, since, upTo)
	}
	return clock.Never
}

// LastOfObj is Reader.LastOfObj under its own lock.
func (b *Base) LastOfObj(t Type, oid types.OID, since, upTo clock.Time) clock.Time {
	r := b.Read()
	defer r.Done()
	return r.LastOfObj(t, oid, since, upTo)
}

// occurrences returns the occurrences in (since, upTo] of type t on
// object oi (anyObj: on any object), in time order.
func (b *Base) occurrences(t Type, oi int32, since, upTo clock.Time) []Occurrence {
	tid, ok := b.typeIDs[t]
	if !ok {
		return nil
	}
	var out []Occurrence
	b.forRanges(since, upTo, func(sg *segment, lo, hi int) bool {
		for _, i := range within(sg.list(tid, oi), lo, hi) {
			out = append(out, b.occAt(sg, int(i)))
		}
		return true
	})
	return out
}

// OccurrencesOfObj returns the occurrences of type t on object oid in the
// window (since, upTo].
func (b *Base) OccurrencesOfObj(t Type, oid types.OID, since, upTo clock.Time) []Occurrence {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if oi, ok := b.oidIDs[oid]; ok {
		return b.occurrences(t, oi, since, upTo)
	}
	return nil
}

// forRanges calls fn for each live segment range [lo:hi] covering
// (since, upTo], in ascending time order. fn returning false stops the
// walk. Callers hold the mutex.
func (b *Base) forRanges(since, upTo clock.Time, fn func(sg *segment, lo, hi int) bool) {
	if since >= upTo {
		return
	}
	for _, sg := range b.segs {
		if sg.maxTS() <= since {
			continue
		}
		if sg.minTS() > upTo {
			break
		}
		lo, hi := sg.bounds(since, upTo)
		if lo < hi && !fn(sg, lo, hi) {
			return
		}
	}
}

// Window returns every occurrence (of any type) in (since, upTo], in time
// order: the set R of the triggering predicate.
func (b *Base) Window(since, upTo clock.Time) []Occurrence {
	return b.AppendWindow(nil, since, upTo)
}

// AppendWindow appends the occurrences of (since, upTo] to dst and
// returns the extended slice; a recycled dst[:0] makes the call
// allocation-free in steady state. Hot loops walk ChunkCols instead and
// skip the row materialization entirely.
func (b *Base) AppendWindow(dst []Occurrence, since, upTo clock.Time) []Occurrence {
	b.mu.RLock()
	defer b.mu.RUnlock()
	b.forRanges(since, upTo, func(sg *segment, lo, hi int) bool {
		for i := lo; i < hi; i++ {
			dst = append(dst, b.occAt(sg, i))
		}
		return true
	})
	return dst
}

// Cols is a columnar view of one contiguous run of occurrences inside a
// single segment: parallel timestamp / interned-type-id / interned-OID
// columns, plus the EID of the first entry (EIDs are dense — entry i has
// EID EID0+i). The slices alias segment storage: they stay valid across
// appends and compaction and are read-only for callers.
type Cols struct {
	TS   []clock.Time
	TIDs []int32
	OIDs []int32
	EID0 EID
}

// ChunkCols returns the earliest occurrences of (since, upTo] that are
// contiguous in one segment, as a columnar view (never a copy), or the
// zero Cols when the window holds none. The batched probe loops of the
// Trigger Support walk a window chunk by chunk — advancing since to the
// last returned timestamp — touching only the dense timestamp and id
// columns, with no Occurrence materialization at all.
func (b *Base) ChunkCols(since, upTo clock.Time) Cols {
	var c Cols
	b.mu.RLock()
	defer b.mu.RUnlock()
	b.forRanges(since, upTo, func(sg *segment, lo, hi int) bool {
		c = Cols{
			TS:   sg.ts[lo:hi],
			TIDs: sg.tids[lo:hi],
			OIDs: sg.oids[lo:hi],
			EID0: sg.firstEID + EID(lo),
		}
		return false
	})
	return c
}

// Arrivals returns the time stamps of every occurrence in (since, upTo],
// ascending. These are the probe points of the ∃t' triggering check.
func (b *Base) Arrivals(since, upTo clock.Time) []clock.Time {
	return b.AppendArrivals(nil, since, upTo)
}

// AppendArrivals appends the time stamps of (since, upTo] to dst and
// returns the extended slice (the buffer-reusing variant of Arrivals),
// straight from the timestamp column.
func (b *Base) AppendArrivals(dst []clock.Time, since, upTo clock.Time) []clock.Time {
	r := b.Read()
	defer r.Done()
	return r.AppendArrivals(dst, since, upTo)
}

// AppendArrivals is Base.AppendArrivals inside the read section.
func (r Reader) AppendArrivals(dst []clock.Time, since, upTo clock.Time) []clock.Time {
	r.b.forRanges(since, upTo, func(sg *segment, lo, hi int) bool {
		dst = append(dst, sg.ts[lo:hi]...)
		return true
	})
	return dst
}

// CountArrivals returns the number of occurrences in (since, upTo]
// without materializing them.
func (b *Base) CountArrivals(since, upTo clock.Time) int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	n := 0
	b.forRanges(since, upTo, func(sg *segment, lo, hi int) bool {
		n += hi - lo
		return true
	})
	return n
}

// Empty reports whether the window (since, upTo] holds no occurrence
// (the R = ∅ test of the triggering predicate).
func (b *Base) Empty(since, upTo clock.Time) bool { return b.Newest(upTo) <= since }

// Newest returns the time stamp of the newest retained occurrence at or
// before upTo, or clock.Never if there is none: every window (since,
// upTo] with since below it is non-empty, every other one empty.
func (b *Base) Newest(upTo clock.Time) clock.Time {
	b.mu.RLock()
	defer b.mu.RUnlock()
	for i := len(b.segs) - 1; i >= 0; i-- {
		if k := b.segs[i].after(upTo); k > 0 {
			return b.segs[i].ts[k-1]
		}
	}
	return clock.Never
}

// OIDs returns the distinct objects affected by any occurrence in
// (since, upTo], in order of first appearance in the transaction. This
// is the object domain of the instance-oriented lifts ("oid ∈ R").
func (b *Base) OIDs(since, upTo clock.Time) []types.OID {
	return b.AppendOIDs(nil, since, upTo)
}

// objID is what the domain gathers append: interned object ids, in an
// []int32 or, until they are translated, in the tail of the caller's
// []types.OID (the OID-typed probes have no other buffer).
type objID interface{ ~int32 | ~int64 }

// appendObjs appends the id of every object of (since, upTo], with
// duplicates: a segment inside the window contributes its distinct
// objects, a segment the window cuts the objects column of the cut.
func appendObjs[E objID](b *Base, dst []E, since, upTo clock.Time) []E {
	b.forRanges(since, upTo, func(sg *segment, lo, hi int) bool {
		if hi-lo == sg.n() {
			for _, oi := range sg.objOf.keys {
				dst = append(dst, E(oi))
			}
			return true
		}
		for _, oi := range sg.oids[lo:hi] {
			dst = append(dst, E(oi))
		}
		return true
	})
	return dst
}

// appendObjsOfTIDs is appendObjs restricted to occurrences of the given
// types, read off each type's segment leaves: O(objects touched) within
// the live window rather than a scan of every occurrence.
func appendObjsOfTIDs[E objID](b *Base, dst []E, tids []int32, since, upTo clock.Time) []E {
	b.forRanges(since, upTo, func(sg *segment, lo, hi int) bool {
		for _, tid := range tids {
			l := sg.leafOf.find(uint64(tid))
			if l < 0 {
				continue
			}
			lf := &sg.leafOf.vals[l]
			if hi-lo == sg.n() {
				for _, oi := range lf.objs {
					dst = append(dst, E(oi))
				}
				continue
			}
			for _, i := range within(lf.all, lo, hi) {
				dst = append(dst, E(sg.oids[i]))
			}
		}
		return true
	})
	return dst
}

// sortDedup sorts dst[start:] ascending and compacts duplicates in
// place. Deduplicating by sorting instead of with a set is what keeps
// the domain probes allocation-free on a recycled buffer.
func sortDedup[E objID](dst []E, start int) []E {
	slices.Sort(dst[start:])
	w := start
	for r := start; r < len(dst); r++ {
		if r == start || dst[r] != dst[r-1] {
			dst[w] = dst[r]
			w++
		}
	}
	return dst[:w]
}

// AppendObjs appends the interned ids of the distinct objects of
// (since, upTo] to dst, ascending — which for ids is the order of first
// appearance in the transaction — and returns the extended slice.
func (r Reader) AppendObjs(dst []int32, since, upTo clock.Time) []int32 {
	return sortDedup(appendObjs(r.b, dst, since, upTo), len(dst))
}

// ForLeaf calls fn with the interned object id and the time stamp of
// each occurrence of the type with id tid in (since, upTo], in time
// order: it reads each live segment's leaf of the type (cut to the window
// on a segment the window cuts) and the ts and oids columns it points
// into, hashing no object and allocating nothing.
func (r Reader) ForLeaf(tid int32, since, upTo clock.Time, fn func(oi int32, at clock.Time)) {
	b := r.b
	if tid == NoType || b.latest[tid] <= since {
		return
	}
	b.forRanges(since, upTo, func(sg *segment, lo, hi int) bool {
		l := sg.leafOf.find(uint64(tid))
		if l < 0 {
			return true
		}
		idxs := sg.leafOf.vals[l].all
		if hi-lo != sg.n() {
			idxs = within(idxs, lo, hi)
		}
		for _, i := range idxs {
			fn(sg.oids[i], sg.ts[i])
		}
		return true
	})
}

// AppendOIDs appends the distinct objects of (since, upTo] to dst, in
// order of first appearance, and returns the extended slice (the
// buffer-reusing variant of OIDs). The order is the OID interner's id
// order, so it is stable across segment boundaries and compactions.
func (r Reader) AppendOIDs(dst []types.OID, since, upTo clock.Time) []types.OID {
	start := len(dst)
	dst = sortDedup(appendObjs(r.b, dst, since, upTo), start)
	for i, oi := range dst[start:] {
		dst[start+i] = r.b.oidsByID[oi]
	}
	return dst
}

// AppendOIDsOfTypes appends the distinct objects touched by the given
// types in (since, upTo] to dst, ascending by OID, and returns the
// extended slice; a recycled dst[:0] makes the call allocation-free. It
// is the object domain of occurred() and of the restricted lifts.
func (r Reader) AppendOIDsOfTypes(dst []types.OID, ts []Type, since, upTo clock.Time) []types.OID {
	var buf [8]int32
	tids := buf[:0]
	for _, t := range ts {
		if tid, ok := r.TypeID(t); ok {
			tids = append(tids, tid)
		}
	}
	start := len(dst)
	dst = appendObjsOfTIDs(r.b, dst, tids, since, upTo)
	for i, oi := range dst[start:] {
		dst[start+i] = r.b.oidsByID[oi]
	}
	return sortDedup(dst, start)
}

// AppendOIDs is Reader.AppendOIDs under its own lock.
func (b *Base) AppendOIDs(dst []types.OID, since, upTo clock.Time) []types.OID {
	r := b.Read()
	defer r.Done()
	return r.AppendOIDs(dst, since, upTo)
}

// AppendOIDsOfTypes is Reader.AppendOIDsOfTypes under its own lock.
func (b *Base) AppendOIDsOfTypes(dst []types.OID, ts []Type, since, upTo clock.Time) []types.OID {
	r := b.Read()
	defer r.Done()
	return r.AppendOIDsOfTypes(dst, ts, since, upTo)
}

// String renders the retained base as the table of Figure 3.
func (b *Base) String() string {
	b.mu.RLock()
	defer b.mu.RUnlock()
	var sb strings.Builder
	sb.WriteString("EID | event-type | OID | timestamp\n")
	for _, sg := range b.segs {
		for i := 0; i < sg.n(); i++ {
			fmt.Fprintf(&sb, "%s\n", b.occAt(sg, i))
		}
	}
	if b.retired > 0 {
		fmt.Fprintf(&sb, "(%d earlier occurrences retired through t%d)\n", b.retired, b.floor)
	}
	return sb.String()
}
