package event

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"strings"

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
	// DistinctOIDs gauges the OID interner (see the retention contract in
	// the Base comment): compaction never shrinks it, so what it exposes
	// is the slope, the one component of a base's memory compaction
	// cannot bound. InternedTypes gauges the type Registry, as of the last
	// append that met a type new to its base.
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
// making appends amortized O(1) — a full segment is sealed and the next
// one opened, so only a base's first segment, which starts small, ever
// copies logged occurrences as it grows, and a reader keeps the columns
// it was handed.
const DefaultSegmentSize = 256

// firstRows is the column room a base's first segment starts with, what
// a short transaction logs; it doubles up to the segment size.
const firstRows = 16

// maxSpares is the number of retired segments whose index storage a base
// keeps for roll-overs to reuse.
const maxSpares = 2

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
// of the segment, never the vocabulary. The tables' values are spans of
// one int32 arena the segment owns: an append writes its two index
// entries into chunks already reserved and allocates only when the arena
// itself grows. A rolled-over segment sizes its tables and arena like
// its predecessor and each key's first chunk by the key's count there,
// and takes that storage from a segment compaction retired (a spare)
// when there is one, so a stream whose segments look alike and whose
// window moves allocates only each segment's columns: a time stamp
// column and one id array holding the type ids and then the object ids.
// Within a transaction columns are never reused, since ChunkCols and
// ExportState hand them out; only Reset, once the transaction ended,
// keeps the first segment's. A probe (LastOf, LastOfObj,
// OccurrencesOfObj, ...) resolves its Type and OID to ids once, at the
// API edge, and below that compares and hashes int32s; a Type never
// registered or an OID never interned has no occurrences. The probe
// loops of the Trigger Support walk windows through ChunkCols, touching
// only the timestamp and type-id columns; Occurrence rows exist only as
// copies made at the API edge (Window, AppendWindow, All,
// OccurrencesOfObj).
//
// # Ids and retention
//
// Type ids are those of the Registry the base was opened from, shared by
// every base of the database. Object ids are the base's own, dense int32s
// in first-arrival order, never recycled. The OID interner and the
// per-type latest time stamp are transaction-lifetime state: they grow
// with the distinct objects and types, not with occurrences, and
// compaction never shrinks them, because retired history still fixes
// OID first-arrival order, which OIDs exposes. A transaction touching an
// unbounded stream of fresh objects grows its interner without bound;
// the chimera_eb_distinct_oids gauge shows the slope.
//
// # Ownership
//
// A Base is not safe for concurrent use: one goroutine drives it, the
// one that owns its transaction line (the engine gives every line its
// own Base). Its probes are plain methods that lock nothing. ChunkCols
// returns slices aliasing a segment's columns, and they stay valid
// across later appends and compactions: sealed segments are immutable,
// the tail segment is append-only (existing entries are never moved or
// overwritten), and compaction only unlinks whole segments from the
// chain, never relocating live data (the garbage collector keeps the
// columns alive; a retired segment's index storage may be reused, its
// columns never are). Views are void once Reset starts the base over.
type Base struct {
	reg     *Registry
	segSize int
	segs    []*segment // live segments, ascending by time stamp
	// latest is each type's newest time stamp by type id (clock.Never
	// before its first occurrence and past its end). oidIDs/oidsByID is
	// the OID interner, whose ids are the first-arrival rank OIDs sorts by.
	latest   []clock.Time
	oidIDs   map[types.OID]int32
	oidsByID []types.OID
	// lastType is the type the newest append resolved and lastTID its
	// id: an append of the same type takes the id without hashing it.
	// Registry ids are never recycled, so the pair stays right across
	// Reset and Rewind; the zero Type, where a new base starts, is never
	// Valid, so it matches no append.
	lastType Type
	lastTID  int32
	nextID   EID
	lastTS   clock.Time // newest time stamp ever appended
	live     int        // occurrences currently retained
	// spares are retired segments, newest last, kept for their index
	// storage: their columns are dropped at retirement, and a roll-over
	// resets one to its predecessor's sizes instead of allocating.
	spares []*segment
	// first is the segment Reset kept, with its columns, for the base's
	// next first segment.
	first *segment
	// Compaction bookkeeping: the retirement floor (highest retired time
	// stamp — every live occurrence is strictly above it) and counters.
	floor       clock.Time
	retired     int
	retiredSegs int
	// maxEvents bounds the *live* window (SetLimits; 0 = unlimited). It
	// bounds what compaction cannot: a transaction whose rules'
	// consumption watermark keeps up stays far under it forever, while
	// one outrunning its watermark hits ErrLimit instead of OOM.
	maxEvents int
	// retention is the streaming window bound (SetRetention; 0 = none):
	// compaction may retire occurrences more than retention ticks behind
	// the current instant regardless of the consumption watermark.
	retention clock.Time
	// sp is the base as the last Savepoint found it, what Rewind returns
	// to: its newest EID and time stamp, its interned OIDs, and the value
	// there of every latest entry an append changed since, unless it was
	// Never.
	sp struct {
		eid    EID
		ts     clock.Time
		oids   int
		latest []latestWas
	}
	// m is the instrument set (zero value when metrics are off; every
	// report is then a nil-check no-op).
	m BaseMetrics
}

// latestWas is one latest entry as a savepoint found it.
type latestWas struct {
	tid int32
	ts  clock.Time
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
	// size is the number of occurrences the segment holds when full; no
	// position list is given room for more.
	size int32
	// leafOf holds per type of the segment (its slice of a leaf of the
	// Occurred-Events tree), and pairOf per (type, object) pair, the span
	// of arena holding the ascending positions of its occurrences; objOf's
	// keys are the distinct objects of the segment.
	leafOf idTable[span]
	pairOf idTable[span]
	objOf  idTable[struct{}]
	// arena backs every position list of the segment. A list that fills
	// grows in place when its chunk ends the arena, else moves to a fresh
	// chunk at the arena's end; nothing written is ever moved or
	// overwritten, so a list read earlier stays valid even when the arena
	// reallocates (the reader keeps the old backing array).
	arena []int32
	// prev is the predecessor segment while this one fills: its lists'
	// lengths size the first chunks of the keys the two share, and only
	// its tables are read. It is dropped when the segment fills or is
	// retired. A predecessor retired while its successor fills has lost
	// its columns; its index lives on as a hint until the successor fills.
	prev *segment
}

// span is one position list: arena[off:off+n], with room for cap entries
// before it must move.
type span struct{ off, n, cap int32 }

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

// sizeLike empties the table and gives it the slot count prev ended
// with, so that a segment indexing the same stream as its predecessor
// never rehashes.
func (t *idTable[V]) sizeLike(prev *idTable[V]) { t.reset(len(prev.slots)) }

// reset empties the table and gives it size slots (0: none until the
// first key), keeping its arrays when they are large enough. The keys
// are truncated first, so that a resize never rehashes a key of the
// table's earlier use.
func (t *idTable[V]) reset(size int) {
	t.keys, t.vals = t.keys[:0], t.vals[:0]
	if cap(t.slots) < size {
		t.resize(size)
		return
	}
	t.slots = t.slots[:size]
	clear(t.slots)
	t.shift = uint8(64 - bits.TrailingZeros(uint(size)))
}

func (sg *segment) n() int            { return len(sg.ts) }
func (sg *segment) minTS() clock.Time { return sg.ts[0] }
func (sg *segment) maxTS() clock.Time { return sg.ts[len(sg.ts)-1] }

// index enters row i of the columns, an occurrence of type tid on object
// oi, into the segment-local index. It is the index's only writer: the
// index of a segment is index applied to its rows in order.
func (sg *segment) index(i, tid, oi int32) {
	var leafHint, pairHint *idTable[span]
	if sg.prev != nil {
		leafHint, pairHint = &sg.prev.leafOf, &sg.prev.pairOf
	}
	sg.file(&sg.leafOf, leafHint, uint64(tid), i)
	sg.file(&sg.pairOf, pairHint, pairKey(tid, oi), i)
	sg.objOf.findOrAdd(uint64(oi))
}

// firstChunk is the room a key the predecessor segment did not have
// starts with.
const firstChunk = 2

// file appends row i to key k's list in t. A new key's first chunk is
// sized by hint, the predecessor's table: its count there plus an eighth.
// A full list grows by its size — in place when it ends the arena, else
// by moving to a fresh chunk. No list is given room for more entries
// than the segment has rows left.
func (sg *segment) file(t, hint *idTable[span], k uint64, i int32) {
	left := sg.size - i
	e, added := t.findOrAdd(k)
	sp := &t.vals[e]
	if added {
		size := int32(firstChunk)
		if hint != nil {
			if h := hint.find(k); h >= 0 {
				n := hint.vals[h].n
				size = n + n/8 + 1
			}
		}
		size = min(size, left)
		*sp = span{off: sg.reserve(size), cap: size}
	} else if sp.n == sp.cap {
		grow := min(sp.cap, left)
		if sp.off+sp.cap == int32(len(sg.arena)) {
			sg.reserve(grow)
		} else {
			off := sg.reserve(sp.cap + grow)
			copy(sg.arena[off:], sg.arena[sp.off:sp.off+sp.n])
			sp.off = off
		}
		sp.cap += grow
	}
	sg.arena[sp.off+sp.n] = i
	sp.n++
}

// reserve extends the arena by n entries and returns the offset of the
// first.
func (sg *segment) reserve(n int32) int32 {
	off := len(sg.arena)
	sg.arena = slices.Grow(sg.arena, int(n))[:off+int(n)]
	return int32(off)
}

// entries returns the positions sp lists.
func (sg *segment) entries(sp span) []int32 { return sg.arena[sp.off : sp.off+sp.n] }

// anyObj as the object id of list selects the type's whole leaf.
const anyObj int32 = -1

// list returns the ascending positions of type tid's occurrences on
// object oi (anyObj: on any object) in the segment, nil if there are
// none.
func (sg *segment) list(tid, oi int32) []int32 {
	if oi == anyObj {
		if l := sg.leafOf.find(uint64(tid)); l >= 0 {
			return sg.entries(sg.leafOf.vals[l])
		}
		return nil
	}
	if p := sg.pairOf.find(pairKey(tid, oi)); p >= 0 {
		return sg.entries(sg.pairOf.vals[p])
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

// NewBase returns an empty Event Base over a registry of its own, with
// the default segment size.
func NewBase() *Base { return NewBaseSize(DefaultSegmentSize) }

// NewBaseSize is NewBase with segments of segSize (see Registry.NewBase).
func NewBaseSize(segSize int) *Base { return new(Registry).NewBase(segSize) }

// NewBase returns an empty Event Base over the registry, whose segments
// hold segSize occurrences (below 1: the default). Small sizes exercise
// segment boundaries in tests; a size larger than any workload
// degenerates to the flat single-array layout (useful as an uncompacted
// differential reference).
func (r *Registry) NewBase(segSize int) *Base {
	if segSize < 1 {
		segSize = DefaultSegmentSize
	}
	return &Base{
		reg:     r,
		segSize: segSize,
		oidIDs:  make(map[types.OID]int32),
	}
}

// Registry returns the registry whose ids the base's type columns hold.
func (b *Base) Registry() *Registry { return b.reg }

// SetMetrics installs the instrument set (the engine installs it at
// Begin).
func (b *Base) SetMetrics(m BaseMetrics) { b.m = m }

// SetLimits bounds the live window to at most maxEvents retained
// occurrences (0 = unlimited). An append that would exceed it fails
// with a wrapped ErrLimit before any state changes — the base stays
// fully usable, and compaction (CompactBelow) frees room for further
// appends. The limit governs live, not total, volume: what it bounds is
// the memory component the watermark cannot, a transaction whose rules
// stop consuming.
func (b *Base) SetLimits(maxEvents int) { b.maxEvents = maxEvents }

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
func (b *Base) SetRetention(window clock.Time) { b.retention = window }

// Retention returns the window SetRetention declared (0 = none).
func (b *Base) Retention() clock.Time { return b.retention }

// RetentionBound lifts a consumption watermark to the retention floor:
// the compaction bound at instant now is the higher of the rule-set
// watermark and now minus the retention window. With no retention
// configured the watermark passes through unchanged.
func (b *Base) RetentionBound(wm, now clock.Time) clock.Time {
	if b.retention <= 0 {
		return wm
	}
	if bound := now - b.retention; bound > wm {
		return bound
	}
	return wm
}

// growLatest extends latest, which does not cover type id tid, with
// clock.Never up to tid.
func (b *Base) growLatest(tid int32) {
	b.latest = slices.Grow(b.latest, int(tid)+1-len(b.latest))
	for int(tid) >= len(b.latest) {
		b.latest = append(b.latest, clock.Never)
	}
	b.m.InternedTypes.Set(int64(len(b.reg.types())))
}

// latestOf is the newest time stamp of type tid, clock.Never if the base
// holds none.
func (b *Base) latestOf(tid int32) clock.Time {
	if uint(tid) < uint(len(b.latest)) {
		return b.latest[tid]
	}
	return clock.Never
}

// internOID interns oid; ids ascend in first-arrival order, which is
// exactly the global rank OIDs sorts by.
func (b *Base) internOID(oid types.OID) int32 {
	if id, ok := b.oidIDs[oid]; ok {
		return id
	}
	id := int32(len(b.oidsByID))
	b.oidIDs[oid] = id
	b.oidsByID = append(b.oidsByID, oid)
	b.m.DistinctOIDs.Set(int64(len(b.oidsByID)))
	return id
}

// occAt materializes the occurrence at index i of sg.
func (b *Base) occAt(sg *segment, i int) Occurrence {
	return Occurrence{
		EID:       sg.firstEID + EID(i),
		Type:      b.reg.types()[sg.tids[i]],
		OID:       b.oidsByID[sg.oids[i]],
		Timestamp: sg.ts[i],
	}
}

// Append records a new event occurrence and returns it. The time stamp
// must exceed every time stamp already appended (including retired ones).
func (b *Base) Append(t Type, oid types.OID, at clock.Time) (Occurrence, error) {
	eid, _, err := b.append(t, oid, at)
	if err != nil {
		return Occurrence{}, err
	}
	return Occurrence{EID: eid, Type: t, OID: oid, Timestamp: at}, nil
}

// AppendTID is Append returning the occurrence's type id instead of the
// occurrence: the engine's WAL encoder keys its per-transaction type
// declarations by it, and the Trigger Support is told of arrivals by it,
// so the type is resolved once per occurrence, here — and hashed only
// when it differs from the previous append's.
func (b *Base) AppendTID(t Type, oid types.OID, at clock.Time) (int32, error) {
	_, tid, err := b.append(t, oid, at)
	return tid, err
}

// append is Append and AppendTID: one append resolves the type and
// interns the object once. A run of one type, what a stream of updates
// to one attribute logs, resolves it by comparing it with the previous
// append's type; any other type is looked up (or registered) and takes
// its place.
func (b *Base) append(t Type, oid types.OID, at clock.Time) (EID, int32, error) {
	if err := t.Valid(); err != nil {
		return 0, 0, err
	}
	tid := b.lastTID
	if t != b.lastType {
		// The lookup inlines, Intern does not: a known type costs no call.
		var ok bool
		if tid, ok = b.reg.lookup(t); !ok {
			tid = b.reg.Intern(t)
		}
		b.lastType, b.lastTID = t, tid
	}
	if b.nextID > 0 && at <= b.lastTS {
		return 0, 0, fmt.Errorf(
			"event: non-monotone time stamp t%d after t%d", at, b.lastTS)
	}
	if b.maxEvents > 0 && b.live >= b.maxEvents {
		return 0, 0, fmt.Errorf(
			"%w: %d live occurrences (MaxEvents %d)", ErrLimit, b.live, b.maxEvents)
	}
	b.nextID++

	var sg *segment
	if n := len(b.segs); n > 0 && b.segs[n-1].n() < b.segSize {
		sg = b.segs[n-1]
		if sg.n() == cap(sg.ts) {
			sg.columns(min(2*sg.n(), b.segSize))
		}
	} else {
		sg = b.open()
	}
	idx := int32(sg.n())
	oi := b.internOID(oid)
	sg.ts = append(sg.ts, at)
	sg.tids = append(sg.tids, tid)
	sg.oids = append(sg.oids, oi)
	sg.index(idx, tid, oi)
	if sg.n() == b.segSize {
		sg.prev = nil
	}

	if int(tid) >= len(b.latest) {
		b.growLatest(tid)
	}
	if was := b.latest[tid]; was <= b.sp.ts && was != clock.Never {
		// The type's first occurrence since the savepoint. A type with
		// none before it needs no entry: Rewind resets it to Never.
		b.sp.latest = append(b.sp.latest, latestWas{tid, was})
	}
	b.latest[tid] = at
	b.lastTS = at
	b.live++
	b.m.Appends.Inc()
	b.m.Live.Set(int64(b.live))
	return b.nextID, tid, nil
}

// open appends an empty segment to the chain and returns it. A
// roll-over sizes its tables and arena like the predecessor's and hints
// each key's first chunk by the key's list there; it takes that storage
// from the newest spare when there is one, keeping the spare's arrays
// where they are large enough. With no live predecessor — a base's first
// segment, or the chain retired whole — a spare keeps its own sizes, and
// a new segment starts with empty tables and an arena with room for
// eight occurrences that each open two lists. Only a base's first
// segment starts with columns for fewer than the segment size:
// firstRows, what a short transaction logs. The first segment of a
// Reset base is the one Reset kept, columns included.
func (b *Base) open() *segment {
	var prev, sg *segment
	if n := len(b.segs); n > 0 {
		prev = b.segs[n-1]
	}
	if n := len(b.spares); n > 0 {
		sg = b.spares[n-1]
		b.spares[n-1] = nil
		b.spares = b.spares[:n-1]
	}
	rows := b.segSize
	switch {
	case prev != nil:
		if sg == nil {
			sg = new(segment)
		}
		sg.leafOf.sizeLike(&prev.leafOf)
		sg.pairOf.sizeLike(&prev.pairOf)
		sg.objOf.sizeLike(&prev.objOf)
		if cap(sg.arena) < len(prev.arena) {
			sg.arena = make([]int32, 0, len(prev.arena))
		}
		sg.arena = sg.arena[:0]
		sg.prev = prev
	case sg == nil && b.first != nil:
		sg, b.first = b.first, nil
		sg.empty()
		sg.ts, sg.tids, sg.oids = sg.ts[:0], sg.tids[:0], sg.oids[:0]
		rows = 0
	case sg != nil:
		sg.empty()
	default:
		sg = &segment{arena: make([]int32, 0, 2*firstChunk*min(b.segSize, 8))}
		if b.retiredSegs == 0 {
			rows = min(b.segSize, firstRows)
		}
	}
	sg.firstEID = b.nextID
	sg.size = int32(b.segSize)
	if rows > 0 { // 0: the first segment's kept columns serve
		sg.columns(rows)
	}
	b.segs = append(b.segs, sg)
	b.m.SegmentsAllocated.Inc()
	b.m.LiveSegments.Set(int64(len(b.segs)))
	return sg
}

// empty clears sg's index, keeping its tables' and arena's sizes.
func (sg *segment) empty() {
	sg.leafOf.reset(len(sg.leafOf.slots))
	sg.pairOf.reset(len(sg.pairOf.slots))
	sg.objOf.reset(len(sg.objOf.slots))
	sg.arena = sg.arena[:0]
}

// columns gives sg fresh columns with room for rows occurrences — a time
// stamp column and one id array whose first half holds the type ids and
// second half the object ids — and copies the rows logged so far. The
// old arrays are left as they are for the readers that hold them.
func (sg *segment) columns(rows int) {
	n := sg.n()
	ts := make([]clock.Time, n, rows)
	ids := make([]int32, 2*rows)
	copy(ts, sg.ts)
	copy(ids, sg.tids)
	copy(ids[rows:], sg.oids)
	sg.ts, sg.tids, sg.oids = ts, ids[:n:rows], ids[rows:rows+n]
}

// CompactBelow retires every segment whose newest occurrence is at or
// below the watermark — the minimum over all defined rules of their
// relevant-window start (rules.Support exports it). Retirement unlinks
// whole segments, dropping their occurrences and every segment-local
// index in O(segments retired), and keeps the index storage of the
// newest maxSpares for roll-overs to reuse; live data is never moved, so
// previously returned ChunkCols columns stay valid. It returns the
// number of occurrences retired.
//
// Callers must guarantee no window reaching at or below the watermark is
// still being evaluated: the engine compacts only at block boundaries,
// after every in-flight consideration window has been fully read (see
// DESIGN.md §8).
func (b *Base) CompactBelow(watermark clock.Time) int {
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
	// Drop the retired segments' columns, which a retired predecessor
	// would otherwise keep alive through the tail's prev, and keep the
	// newest as spares.
	for k, sg := range b.segs[:cut] {
		sg.ts, sg.tids, sg.oids, sg.prev = nil, nil, nil, nil
		if k >= cut-maxSpares {
			b.spares = append(b.spares, sg)
		}
	}
	if extra := len(b.spares) - maxSpares; extra > 0 {
		m := copy(b.spares, b.spares[extra:])
		clear(b.spares[m:])
		b.spares = b.spares[:m]
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

// Savepoint records the base as it stands, for Rewind. It costs O(1)
// and allocates nothing. The engine takes one at every clean block
// boundary, after compaction: nothing is retired between a savepoint
// and the Rewind that returns to it.
func (b *Base) Savepoint() {
	b.sp.eid, b.sp.ts, b.sp.oids = b.nextID, b.lastTS, len(b.oidsByID)
	b.sp.latest = b.sp.latest[:0]
}

// Rewind drops every occurrence appended since the last Savepoint: the
// base answers every probe, and exports, as it did there. EIDs stay
// dense: the next append takes the EID the first dropped occurrence
// had, as if the dropped ones never ran, while its time stamp, from the
// caller's clock, comes after theirs.
func (b *Base) Rewind() {
	for n := len(b.segs); n > 0; n-- {
		sg := b.segs[n-1]
		keep := int(b.sp.eid - sg.firstEID + 1)
		if keep >= sg.n() {
			break
		}
		b.live -= sg.n() - max(keep, 0)
		if keep <= 0 {
			b.segs[n-1] = nil
			b.segs = b.segs[:n-1]
			continue
		}
		// The tail's columns may be aliased (ChunkCols): the kept rows
		// move to fresh ones, and the index is rebuilt from them.
		cut := &segment{firstEID: sg.firstEID, size: sg.size,
			ts: sg.ts[:keep], tids: sg.tids[:keep], oids: sg.oids[:keep]}
		cut.columns(b.segSize)
		for i := range keep {
			cut.index(int32(i), cut.tids[i], cut.oids[i])
		}
		b.segs[n-1] = cut
		break
	}
	for _, oid := range b.oidsByID[b.sp.oids:] {
		delete(b.oidIDs, oid)
	}
	b.oidsByID = b.oidsByID[:b.sp.oids]
	for tid, ts := range b.latest {
		if ts > b.sp.ts {
			b.latest[tid] = clock.Never
		}
	}
	for i := len(b.sp.latest) - 1; i >= 0; i-- {
		b.latest[b.sp.latest[i].tid] = b.sp.latest[i].ts
	}
	b.sp.latest = b.sp.latest[:0]
	b.nextID, b.lastTS = b.sp.eid, b.sp.ts
	b.m.Live.Set(int64(b.live))
	b.m.LiveSegments.Set(int64(len(b.segs)))
	b.m.DistinctOIDs.Set(int64(len(b.oidsByID)))
}

// keptIDs bounds the OIDs whose interner storage Reset keeps, and the
// segment pointers and savepoint entries: what a short transaction uses.
const keptIDs = 64

// Reset makes b an empty base, as Registry.NewBase returns it: no
// occurrences, no OIDs, every latest time stamp Never, EIDs and segment
// ordinals from the start, no savepoint, and no limit, retention window
// or instruments (set them again). It keeps storage for the next
// transaction, trimmed to what a short one uses: the first segment, with
// its tables and columns, when it never grew past firstRows rows, and
// the OID interner's map and the latest table, cleared.
//
// Whatever still reads the base reads the next transaction's log:
// ChunkCols views and ExportState frames of the old one are void. The
// caller must be its last reader.
func (b *Base) Reset() {
	b.first = nil
	if len(b.segs) > 0 && cap(b.segs[0].ts) <= firstRows {
		b.first = b.segs[0]
		b.first.prev = nil
	}
	b.segs = kept(b.segs)
	b.spares = kept(b.spares)
	b.latest = b.latest[:0]
	if len(b.oidsByID) > keptIDs {
		b.oidIDs = make(map[types.OID]int32)
	} else {
		clear(b.oidIDs)
	}
	b.oidsByID = kept(b.oidsByID)
	b.sp.latest = kept(b.sp.latest)
	b.sp.eid, b.sp.ts, b.sp.oids = 0, 0, 0
	b.nextID, b.lastTS, b.live = 0, 0, 0
	b.floor, b.retired, b.retiredSegs = clock.Never, 0, 0
	b.maxEvents, b.retention = 0, 0
	b.m = BaseMetrics{}
}

// kept empties s, dropping what its entries refer to, and returns it
// for reuse, or nil when its storage is past keptIDs.
func kept[T any](s []T) []T {
	clear(s)
	if cap(s) > keptIDs {
		return nil
	}
	return s[:0]
}

// Floor returns the retirement floor: the highest retired time stamp.
// Every retained occurrence is strictly above it; windows reaching at or
// below it observe only the live remainder. Floor is clock.Never while
// nothing has been retired.
func (b *Base) Floor() clock.Time { return b.floor }

// Len returns the number of occurrences currently retained (appended and
// not yet retired by compaction).
func (b *Base) Len() int { return b.live }

// Retired returns the number of occurrences retired by compaction.
func (b *Base) Retired() int { return b.retired }

// Segments returns the number of live segments; RetiredSegments the
// number retired so far. The pair bounds the base's storage footprint:
// live memory is Segments × segment size regardless of how many
// occurrences the transaction has logged.
func (b *Base) Segments() int { return len(b.segs) }

// RetiredSegments returns the number of segments retired by compaction.
func (b *Base) RetiredSegments() int { return b.retiredSegs }

// All returns a copy of the retained log in arrival order.
func (b *Base) All() []Occurrence {
	out := make([]Occurrence, 0, b.live)
	for _, sg := range b.segs {
		for i := 0; i < sg.n(); i++ {
			out = append(out, b.occAt(sg, i))
		}
	}
	return out
}

// NoObj stands for an object the base never interned: every probe on it
// finds nothing.
const NoObj int32 = -2

// ObjID returns oid's interned id, or NoObj if no occurrence on it was
// ever logged.
func (b *Base) ObjID(oid types.OID) int32 {
	if oi, ok := b.oidIDs[oid]; ok {
		return oi
	}
	return NoObj
}

// OID returns the object with interned id oi.
func (b *Base) OID(oi int32) types.OID { return b.oidsByID[oi] }

// LastOfObjTID returns the time stamp of the most recent occurrence in
// the window (since, upTo] of the type with id tid on the object with id
// oi, or clock.Never if there is none; it backs ots(E, t, oid). Segments
// are walked newest-first. The id-typed probes are the implementation;
// the Type-keyed ones resolve ids once and call them.
func (b *Base) LastOfObjTID(tid, oi int32, since, upTo clock.Time) clock.Time {
	if since >= upTo || b.latestOf(tid) <= since {
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
func (b *Base) LastOfTID(tid int32, since, upTo clock.Time) clock.Time {
	return b.LastOfObjTID(tid, anyObj, since, upTo)
}

// LastOf is LastOfTID for a Type.
func (b *Base) LastOf(t Type, since, upTo clock.Time) clock.Time {
	if tid, ok := b.reg.lookup(t); ok {
		return b.LastOfTID(tid, since, upTo)
	}
	return clock.Never
}

// LastOfObj is LastOfObjTID for a Type and an OID.
func (b *Base) LastOfObj(t Type, oid types.OID, since, upTo clock.Time) clock.Time {
	tid, ok := b.reg.lookup(t)
	oi, seen := b.oidIDs[oid]
	if !ok || !seen {
		return clock.Never
	}
	return b.LastOfObjTID(tid, oi, since, upTo)
}

// occurrences returns the occurrences in (since, upTo] of type t on
// object oi (anyObj: on any object), in time order.
func (b *Base) occurrences(t Type, oi int32, since, upTo clock.Time) []Occurrence {
	tid, ok := b.reg.lookup(t)
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
	if oi, ok := b.oidIDs[oid]; ok {
		return b.occurrences(t, oi, since, upTo)
	}
	return nil
}

// forRanges calls fn for each live segment range [lo:hi] covering
// (since, upTo], in ascending time order. fn returning false stops the
// walk.
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
	b.forRanges(since, upTo, func(sg *segment, lo, hi int) bool {
		dst = append(dst, sg.ts[lo:hi]...)
		return true
	})
	return dst
}

// CountArrivals returns the number of occurrences in (since, upTo]
// without materializing them.
func (b *Base) CountArrivals(since, upTo clock.Time) int {
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
	var oids []types.OID
	for _, oi := range b.AppendObjs(nil, since, upTo) {
		oids = append(oids, b.oidsByID[oi])
	}
	return oids
}

// appendObjs appends the id of every object of (since, upTo], with
// duplicates: a segment inside the window contributes its distinct
// objects, a segment the window cuts the objects column of the cut.
func appendObjs(b *Base, dst []int32, since, upTo clock.Time) []int32 {
	b.forRanges(since, upTo, func(sg *segment, lo, hi int) bool {
		if hi-lo == sg.n() {
			for _, oi := range sg.objOf.keys {
				dst = append(dst, int32(oi))
			}
			return true
		}
		dst = append(dst, sg.oids[lo:hi]...)
		return true
	})
	return dst
}

// sortDedup sorts dst[start:] ascending and compacts duplicates in
// place. Deduplicating by sorting instead of with a set is what keeps
// the domain probes allocation-free on a recycled buffer.
func sortDedup(dst []int32, start int) []int32 {
	slices.Sort(dst[start:])
	return dst[:start+len(slices.Compact(dst[start:]))]
}

// AppendObjs appends the interned ids of the distinct objects of
// (since, upTo] to dst, ascending — which for ids is the order of first
// appearance in the transaction — and returns the extended slice.
func (b *Base) AppendObjs(dst []int32, since, upTo clock.Time) []int32 {
	return sortDedup(appendObjs(b, dst, since, upTo), len(dst))
}

// ForLeaf calls fn with the interned object id and the time stamp of
// each occurrence of the type with id tid in (since, upTo], in time
// order: it reads each live segment's leaf of the type (cut to the window
// on a segment the window cuts) and the ts and oids columns it points
// into, hashing no object and allocating nothing.
func (b *Base) ForLeaf(tid int32, since, upTo clock.Time, fn func(oi int32, at clock.Time)) {
	if b.latestOf(tid) <= since {
		return
	}
	b.forRanges(since, upTo, func(sg *segment, lo, hi int) bool {
		l := sg.leafOf.find(uint64(tid))
		if l < 0 {
			return true
		}
		idxs := sg.entries(sg.leafOf.vals[l])
		if hi-lo != sg.n() {
			idxs = within(idxs, lo, hi)
		}
		for _, i := range idxs {
			fn(sg.oids[i], sg.ts[i])
		}
		return true
	})
}

// String renders the retained base as the table of Figure 3.
func (b *Base) String() string {
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
