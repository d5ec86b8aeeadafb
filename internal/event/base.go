package event

import (
	"errors"
	"fmt"
	"slices"
	"sort"
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
// occurrence's entire footprint — the row and every index entry pointing
// at it — lives inside one segment. Section 5 defines R, the portion of
// the base relevant for triggering, as the events more recent than a
// rule's last consideration (consuming mode) or the transaction start
// (preserving mode); once every defined rule's window has moved past a
// segment, CompactBelow retires the whole segment in O(1), and with it
// every index entry, keeping memory and index-scan cost proportional to
// the live window instead of the transaction lifetime. Retired
// occurrences are unreachable through the window API (their time stamps
// lie at or below Floor); lookups never consult them.
//
// # Columnar layout
//
// The default layout stores each segment as parallel columns — the
// timestamp column, an interned-type-id column and an interned-OID
// column — instead of an array of Occurrence rows. The probe loops of
// the Trigger Support walk windows through ChunkCols, touching only the
// 8-byte timestamp and 4-byte type-id columns (cache-dense, no string
// fields), and compare interned int32 ids instead of Type structs;
// Occurrence rows are materialized only at API edges (Window, All,
// OccurrencesOf, the aliasing views). NewRowBase selects the historical
// row-store layout, kept as the measured ablation (experiment B13) and
// as a differential reference: both layouts serve the identical API with
// bit-identical results.
//
// # Interners and retention
//
// A Base interns every distinct event Type and OID it sees into dense
// int32 ids (first-arrival order). The interners — like the per-type
// latest-timestamp map — are transaction-lifetime state: they grow with
// the number of *distinct* types and objects, not with occurrences, and
// compaction never shrinks them, because retired history still
// determines id assignment (and OID first-arrival order, which
// OIDs/AppendOIDs expose). A transaction touching an unbounded stream of
// fresh objects therefore grows its interner without bound; the
// chimera_eb_distinct_oids and chimera_eb_interned_types gauges expose
// exactly this component so operators can see the slope. Bounding it
// would need epoch-based id recycling across compactions, which nothing
// requires yet.
//
// # Concurrency
//
// Base is explicitly safe for any number of concurrent readers: every
// read path takes the internal RWMutex in shared mode and either copies
// results or appends into a buffer the caller owns. The exceptions,
// WindowView, ChunkView and ChunkCols, return slices aliasing a
// segment's arrays — safe because sealed segments are immutable and the
// tail segment is append-only: existing entries are never moved or
// overwritten, and compaction only unlinks whole segments from the
// chain, never relocating live data, so a previously returned view stays
// valid (the garbage collector keeps its segment alive) even across
// appends and compactions. In the columnar layout the row views are
// served from a per-segment cache materialized lazily under its own
// mutex; the cache's backing array is sized to the segment once and
// never reallocates, so the same aliasing guarantee holds. Appends and
// CompactBelow take the mutex exclusively; the engine additionally
// serializes writers per transaction (one open transaction owns the
// Base), so readers racing a writer observe either the pre-append or the
// post-append log, never a torn state.
type Base struct {
	mu       sync.RWMutex
	segSize  int
	columnar bool
	segs     []*segment // live segments, ascending by time stamp
	latest   map[Type]clock.Time
	// typeIDs/typesByID and oidIDs/oidsByID are the per-Base interners:
	// dense int32 ids in first-arrival order. The OID interner doubles as
	// the first-arrival rank that keeps OIDs/AppendOIDs order stable
	// across segment boundaries and compactions. See the retention
	// contract in the type comment.
	typeIDs   map[Type]int32
	typesByID []Type
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
// per-type leaves (with their per-object sparse lists) and the
// per-object occurrence lists. Index entries are int32 offsets into the
// columns; a segment and all its indexes retire together.
//
// The timestamp column ts is filled in both layouts (every search is a
// binary probe over it). The columnar layout additionally fills the
// tids/oids id columns and leaves occs nil until a row view materializes
// it; the row layout fills occs eagerly and leaves tids/oids nil.
type segment struct {
	firstEID EID // EID of entry 0; EIDs are dense, entry i is firstEID+i
	ts       []clock.Time
	tids     []int32
	oids     []int32
	leaves   map[Type]*segLeaf
	byOID    map[types.OID][]int32
	// occs is the row store (row layout) or the lazily materialized row
	// cache (columnar layout). rowMu orders concurrent readers
	// materializing the cache; the backing array is allocated once with
	// the segment's full capacity, so previously returned views never
	// move.
	rowMu sync.Mutex
	occs  []Occurrence
}

// segLeaf is one segment's slice of a leaf of the Occurred-Events tree:
// the occurrences of one event type within the segment, plus the
// per-object sparse lists.
type segLeaf struct {
	all   []int32
	byOID map[types.OID][]int32
}

func (sg *segment) n() int            { return len(sg.ts) }
func (sg *segment) minTS() clock.Time { return sg.ts[0] }
func (sg *segment) maxTS() clock.Time { return sg.ts[len(sg.ts)-1] }

// search returns the first position in idxs whose occurrence has a time
// stamp exceeding t (idxs ascend by time stamp).
func (sg *segment) search(idxs []int32, t clock.Time) int {
	return sort.Search(len(idxs), func(k int) bool {
		return sg.ts[idxs[k]] > t
	})
}

// bounds returns the [lo, hi) range of the segment covering (since, upTo].
func (sg *segment) bounds(since, upTo clock.Time) (int, int) {
	lo := sort.Search(len(sg.ts), func(k int) bool { return sg.ts[k] > since })
	hi := sort.Search(len(sg.ts), func(k int) bool { return sg.ts[k] > upTo })
	return lo, hi
}

// NewBase returns an empty Event Base with the default segment size, in
// the columnar layout.
func NewBase() *Base { return NewBaseSize(DefaultSegmentSize) }

// NewBaseSize returns an empty columnar Event Base whose segments hold
// segSize occurrences. Small sizes exercise segment boundaries in tests;
// a size larger than any workload degenerates to the flat single-array
// layout (useful as an uncompacted differential reference).
func NewBaseSize(segSize int) *Base { return newBase(segSize, true) }

// NewRowBase returns an Event Base in the historical row-store layout:
// segments hold []Occurrence rows and the columnar probe APIs are
// disabled. It is the measured ablation of experiment B13 and the
// differential reference the columnar layout is pinned against; new code
// should use NewBase/NewBaseSize.
func NewRowBase(segSize int) *Base { return newBase(segSize, false) }

func newBase(segSize int, columnar bool) *Base {
	if segSize < 1 {
		segSize = DefaultSegmentSize
	}
	return &Base{
		segSize:  segSize,
		columnar: columnar,
		latest:   make(map[Type]clock.Time),
		typeIDs:  make(map[Type]int32),
		oidIDs:   make(map[types.OID]int32),
	}
}

// Columnar reports whether the base uses the columnar segment layout
// (ChunkCols and the interned-id columns are available).
func (b *Base) Columnar() bool { return b.columnar }

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

// Limits returns the configured live-window bounds (0 = unlimited).
func (b *Base) Limits() (maxEvents, maxSegments int) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.maxEvents, b.maxSegments
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

// Retention returns the configured retention window (0 = unlimited).
func (b *Base) Retention() clock.Time {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.retention
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
// plan's prim cursors, the sweep's type cursors, the mention bitsets of
// the Trigger Support) call it at bind time so arrivals can be matched
// by int32 id instead of by Type struct comparison or map hashing.
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

// DistinctOIDs returns the number of distinct objects ever logged
// (retired occurrences included).
func (b *Base) DistinctOIDs() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.oidsByID)
}

// occAt materializes the occurrence at index i of sg. Callers hold the
// mutex (read suffices).
func (b *Base) occAt(sg *segment, i int) Occurrence {
	if !b.columnar {
		return sg.occs[i]
	}
	return Occurrence{
		EID:       sg.firstEID + EID(i),
		Type:      b.typesByID[sg.tids[i]],
		OID:       b.oidsByID[sg.oids[i]],
		Timestamp: sg.ts[i],
	}
}

// rows returns sg's occurrence rows materialized through index hi
// (exclusive), for the aliasing views. In the row layout this is the
// primary store. In the columnar layout rows are materialized lazily, in
// place, into a per-segment cache whose backing array is allocated once
// with the segment's full capacity — it never reallocates, so slices
// handed out earlier stay valid (and bit-identical) across later
// appends, materializations and compactions, preserving the
// WindowView/ChunkView aliasing contract. Callers hold b.mu (read
// suffices); rowMu orders concurrent readers materializing the same
// segment, and the happens-before edge it provides covers every element
// a returned view exposes.
func (b *Base) rows(sg *segment, hi int) []Occurrence {
	if !b.columnar {
		return sg.occs[:hi]
	}
	sg.rowMu.Lock()
	if sg.occs == nil {
		sg.occs = make([]Occurrence, 0, b.segSize)
	}
	for i := len(sg.occs); i < hi; i++ {
		sg.occs = append(sg.occs, Occurrence{
			EID:       sg.firstEID + EID(i),
			Type:      b.typesByID[sg.tids[i]],
			OID:       b.oidsByID[sg.oids[i]],
			Timestamp: sg.ts[i],
		})
	}
	view := sg.occs[:hi]
	sg.rowMu.Unlock()
	return view
}

// Append records a new event occurrence and returns it. The time stamp
// must exceed every time stamp already appended (including retired ones).
func (b *Base) Append(t Type, oid types.OID, at clock.Time) (Occurrence, error) {
	if err := t.Valid(); err != nil {
		return Occurrence{}, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.nextID > 0 && at <= b.lastTS {
		return Occurrence{}, fmt.Errorf(
			"event: non-monotone time stamp t%d after t%d", at, b.lastTS)
	}
	if b.maxEvents > 0 && b.live >= b.maxEvents {
		return Occurrence{}, fmt.Errorf(
			"%w: %d live occurrences (MaxEvents %d)", ErrLimit, b.live, b.maxEvents)
	}
	tailRoom := len(b.segs) > 0 && b.segs[len(b.segs)-1].n() < b.segSize
	if !tailRoom && b.maxSegments > 0 && len(b.segs) >= b.maxSegments {
		return Occurrence{}, fmt.Errorf(
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
			leaves:   make(map[Type]*segLeaf),
			byOID:    make(map[types.OID][]int32),
		}
		if b.columnar {
			sg.tids = make([]int32, 0, b.segSize)
			sg.oids = make([]int32, 0, b.segSize)
		} else {
			sg.occs = make([]Occurrence, 0, b.segSize)
		}
		b.segs = append(b.segs, sg)
		b.m.SegmentsAllocated.Inc()
		b.m.LiveSegments.Set(int64(len(b.segs)))
	}
	idx := int32(sg.n())
	tid := b.internTypeLocked(t)
	oi := b.internOIDLocked(oid)
	sg.ts = append(sg.ts, at)
	if b.columnar {
		sg.tids = append(sg.tids, tid)
		sg.oids = append(sg.oids, oi)
	} else {
		sg.occs = append(sg.occs, occ)
	}

	lf := sg.leaves[t]
	if lf == nil {
		lf = &segLeaf{byOID: make(map[types.OID][]int32)}
		sg.leaves[t] = lf
	}
	lf.all = append(lf.all, idx)
	lf.byOID[oid] = append(lf.byOID[oid], idx)
	sg.byOID[oid] = append(sg.byOID[oid], idx)

	b.latest[t] = at
	b.lastTS = at
	b.live++
	b.m.Appends.Inc()
	b.m.Live.Set(int64(b.live))
	return occ, nil
}

// CompactBelow retires every segment whose newest occurrence is at or
// below the watermark — the minimum over all defined rules of their
// relevant-window start (rules.Support exports it). Retirement unlinks
// whole segments, dropping their occurrences and every segment-local
// index in O(segments retired); live data is never moved, so previously
// returned views stay valid. It returns the number of occurrences
// retired.
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

// Appended returns the total number of occurrences ever appended,
// including retired ones.
func (b *Base) Appended() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.live + b.retired
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

// Latest returns the time stamp of the most recent occurrence of type t,
// or clock.Never if t never occurred. This is the leaf's cached value the
// paper's implementation section calls out; it survives compaction (the
// most recent occurrence of a type is a fact about the whole
// transaction, not about the live window).
func (b *Base) Latest(t Type) clock.Time {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if ts, ok := b.latest[t]; ok {
		return ts
	}
	return clock.Never
}

// lastIn returns the greatest time stamp among the segment occurrences
// at idxs lying in (since, upTo], or clock.Never.
func lastIn(sg *segment, idxs []int32, since, upTo clock.Time) clock.Time {
	i := sg.search(idxs, upTo)
	if i == 0 {
		return clock.Never
	}
	ts := sg.ts[idxs[i-1]]
	if ts <= since {
		return clock.Never
	}
	return ts
}

// lastOf walks segments newest-first and returns the most recent
// occurrence time stamp of (since, upTo] among the index lists selected
// by pick, or clock.Never. pick returns nil when a segment holds no
// matching entries. Callers hold the mutex.
func (b *Base) lastOf(pick func(*segment) []int32, since, upTo clock.Time) clock.Time {
	if since >= upTo {
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
		if idxs := pick(sg); len(idxs) > 0 {
			k := sg.search(idxs, upTo)
			if k > 0 {
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

// LastOf returns the time stamp of the most recent occurrence of type t
// in the window (since, upTo], or clock.Never if there is none. This is
// the primitive lookup behind ts(E, t) over R = (since, now].
func (b *Base) LastOf(t Type, since, upTo clock.Time) clock.Time {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.lastOf(func(sg *segment) []int32 {
		if lf := sg.leaves[t]; lf != nil {
			return lf.all
		}
		return nil
	}, since, upTo)
}

// LastOfObj is LastOf restricted to occurrences affecting oid; it backs
// ots(E, t, oid).
func (b *Base) LastOfObj(t Type, oid types.OID, since, upTo clock.Time) clock.Time {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.lastOf(func(sg *segment) []int32 {
		if lf := sg.leaves[t]; lf != nil {
			return lf.byOID[oid]
		}
		return nil
	}, since, upTo)
}

// appendMatches appends to dst the occurrences of (since, upTo] among
// each segment's pick-selected index list, ascending. Callers hold the
// mutex.
func (b *Base) appendMatches(dst []Occurrence, pick func(*segment) []int32, since, upTo clock.Time) []Occurrence {
	if since >= upTo {
		return dst
	}
	for _, sg := range b.segs {
		if sg.maxTS() <= since {
			continue
		}
		if sg.minTS() > upTo {
			break
		}
		idxs := pick(sg)
		lo := sg.search(idxs, since)
		hi := sg.search(idxs, upTo)
		for _, i := range idxs[lo:hi] {
			dst = append(dst, b.occAt(sg, int(i)))
		}
	}
	return dst
}

// OccurrencesOf returns all occurrences of type t in the window
// (since, upTo], in time order. The at() event formula uses it to produce
// every activation time stamp of a composite expression.
func (b *Base) OccurrencesOf(t Type, since, upTo clock.Time) []Occurrence {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.appendMatches(nil, func(sg *segment) []int32 {
		if lf := sg.leaves[t]; lf != nil {
			return lf.all
		}
		return nil
	}, since, upTo)
}

// OccurrencesOfObj returns the occurrences of type t on object oid in the
// window (since, upTo].
func (b *Base) OccurrencesOfObj(t Type, oid types.OID, since, upTo clock.Time) []Occurrence {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.appendMatches(nil, func(sg *segment) []int32 {
		if lf := sg.leaves[t]; lf != nil {
			return lf.byOID[oid]
		}
		return nil
	}, since, upTo)
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
// returns the extended slice. Passing a recycled dst[:0] makes the hot
// probe loops of the Trigger Support allocation-free in steady state.
// Columnar hot paths walk ChunkCols instead and skip the row
// materialization entirely.
func (b *Base) AppendWindow(dst []Occurrence, since, upTo clock.Time) []Occurrence {
	b.mu.RLock()
	defer b.mu.RUnlock()
	b.forRanges(since, upTo, func(sg *segment, lo, hi int) bool {
		if !b.columnar {
			dst = append(dst, sg.occs[lo:hi]...)
			return true
		}
		for i := lo; i < hi; i++ {
			dst = append(dst, b.occAt(sg, i))
		}
		return true
	})
	return dst
}

// WindowView returns the occurrences of (since, upTo] as a read-only
// view. When the window lies inside one segment the view aliases that
// segment's row array — valid and immutable across later appends and
// compactions (segments are never mutated or moved, only unlinked);
// callers must not write through it. When the window spans a segment
// boundary (or reaches into the retired region, whose live remainder may
// start mid-chain) the method falls back to an allocated copy. Callers
// needing guaranteed-zero-allocation iteration walk the window with
// ChunkView (rows) or ChunkCols (columns) instead.
func (b *Base) WindowView(since, upTo clock.Time) []Occurrence {
	b.mu.RLock()
	defer b.mu.RUnlock()
	var view []Occurrence
	single := true
	b.forRanges(since, upTo, func(sg *segment, lo, hi int) bool {
		rows := b.rows(sg, hi)
		if view == nil {
			view = rows[lo:hi]
			return true
		}
		if single {
			// Second range: abandon aliasing, start a copy.
			view = append(append(make([]Occurrence, 0, len(view)+(hi-lo)), view...), rows[lo:hi]...)
			single = false
			return true
		}
		view = append(view, rows[lo:hi]...)
		return true
	})
	return view
}

// ChunkView returns the earliest occurrences of (since, upTo] that are
// contiguous in one segment, as a read-only alias of that segment's row
// array (never a copy of row data), or nil when the window holds none.
// Iterating a window chunk by chunk — advancing since to the last
// returned occurrence's time stamp — is the allocation-free walk the
// incremental sweep uses on row-store bases; each chunk stays valid
// across appends and compactions for the same reason WindowView's
// aliased case does. On a columnar base the rows are served from the
// per-segment materialization cache (filled at most once per entry);
// columnar hot paths should prefer ChunkCols, which touches no rows.
func (b *Base) ChunkView(since, upTo clock.Time) []Occurrence {
	b.mu.RLock()
	defer b.mu.RUnlock()
	var view []Occurrence
	b.forRanges(since, upTo, func(sg *segment, lo, hi int) bool {
		view = b.rows(sg, hi)[lo:hi]
		return false
	})
	return view
}

// Cols is a columnar view of one contiguous run of occurrences inside a
// single segment: parallel timestamp / interned-type-id / interned-OID
// columns, plus the EID of the first entry (EIDs are dense — entry i has
// EID EID0+i). Like ChunkView, the slices alias segment storage: they
// stay valid across appends and compaction and are read-only for
// callers. Only columnar bases produce a non-zero Cols (see Columnar).
type Cols struct {
	TS   []clock.Time
	TIDs []int32
	OIDs []int32
	EID0 EID
}

// ChunkCols returns the earliest occurrences of (since, upTo] that are
// contiguous in one segment, as a columnar view (never a copy), or the
// zero Cols when the window holds none. It is the column-store analogue
// of ChunkView: the batched probe loops of the Trigger Support walk a
// window chunk by chunk — advancing since to the last returned timestamp
// — touching only the dense timestamp and id columns, with no Occurrence
// materialization at all. A row-store base always returns the zero Cols;
// callers gate on Columnar().
func (b *Base) ChunkCols(since, upTo clock.Time) Cols {
	var c Cols
	if !b.columnar {
		return c
	}
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
// returns the extended slice (the buffer-reusing variant of Arrivals).
// Both layouts serve it straight from the timestamp column.
func (b *Base) AppendArrivals(dst []clock.Time, since, upTo clock.Time) []clock.Time {
	b.mu.RLock()
	defer b.mu.RUnlock()
	b.forRanges(since, upTo, func(sg *segment, lo, hi int) bool {
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
func (b *Base) Empty(since, upTo clock.Time) bool {
	b.mu.RLock()
	defer b.mu.RUnlock()
	empty := true
	b.forRanges(since, upTo, func(sg *segment, lo, hi int) bool {
		empty = false
		return false
	})
	return empty
}

// OIDs returns the distinct objects affected by any occurrence in
// (since, upTo], in order of first appearance in the transaction. This
// is the object domain of the instance-oriented lifts ("oid ∈ R").
func (b *Base) OIDs(since, upTo clock.Time) []types.OID {
	return b.AppendOIDs(nil, since, upTo)
}

// AppendOIDs appends the distinct objects of (since, upTo] to dst, in
// order of first appearance, and returns the extended slice (the
// buffer-reusing variant of OIDs). Candidates are gathered from each
// overlapping segment's per-object index and ordered by the global
// first-arrival rank (the OID interner's id order), so the order is
// stable across segment boundaries and compactions.
func (b *Base) AppendOIDs(dst []types.OID, since, upTo clock.Time) []types.OID {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if since >= upTo {
		return dst
	}
	start := len(dst)
	for _, sg := range b.segs {
		if sg.maxTS() <= since {
			continue
		}
		if sg.minTS() > upTo {
			break
		}
		for oid, idxs := range sg.byOID {
			lo := sg.search(idxs, since)
			if lo < len(idxs) && sg.ts[idxs[lo]] <= upTo {
				dst = append(dst, oid)
			}
		}
	}
	return b.rankDedup(dst, start)
}

// rankDedup sorts dst[start:] by global first-arrival rank and compacts
// duplicates (the same object surfacing from several segments) in place.
func (b *Base) rankDedup(dst []types.OID, start int) []types.OID {
	tail := dst[start:]
	sort.Slice(tail, func(i, j int) bool {
		return b.oidIDs[tail[i]] < b.oidIDs[tail[j]]
	})
	w := start
	for r := start; r < len(dst); r++ {
		if r == start || dst[r] != dst[r-1] {
			dst[w] = dst[r]
			w++
		}
	}
	return dst[:w]
}

// OIDsOfTypes returns the distinct objects affected by occurrences of any
// of the given types in (since, upTo], in ascending OID order. The
// occurred() event formula and the instance lifts use it to restrict the
// object domain to the types an expression mentions. It iterates the
// per-object lists of each type's segment leaves — O(objects touched ·
// log) within the live window rather than a scan of every occurrence.
func (b *Base) OIDsOfTypes(ts []Type, since, upTo clock.Time) []types.OID {
	return b.AppendOIDsOfTypes(nil, ts, since, upTo)
}

// AppendOIDsOfTypes appends the distinct objects touched by the given
// types in (since, upTo] to dst, ascending, and returns the extended
// slice. It dedupes by sorting the appended tail in place instead of
// with a set, so a recycled dst[:0] makes the call allocation-free.
func (b *Base) AppendOIDsOfTypes(dst []types.OID, ts []Type, since, upTo clock.Time) []types.OID {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if since >= upTo {
		return dst
	}
	start := len(dst)
	for _, sg := range b.segs {
		if sg.maxTS() <= since {
			continue
		}
		if sg.minTS() > upTo {
			break
		}
		for _, t := range ts {
			lf := sg.leaves[t]
			if lf == nil {
				continue
			}
			for oid, idxs := range lf.byOID {
				// Any occurrence of this type on this object in the window?
				lo := sg.search(idxs, since)
				if lo < len(idxs) && sg.ts[idxs[lo]] <= upTo {
					dst = append(dst, oid)
				}
			}
		}
	}
	tail := dst[start:]
	slices.Sort(tail)
	// Compact duplicates (the same object touched through several types
	// or surfacing from several segments).
	w := start
	for r := start; r < len(dst); r++ {
		if r == start || dst[r] != dst[r-1] {
			dst[w] = dst[r]
			w++
		}
	}
	return dst[:w]
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
