package event

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"chimera/internal/clock"
	"chimera/internal/types"
)

// oracle answers every index-backed probe by a naive scan over the
// retained log (Base.All) plus the two facts the retained log cannot
// give once compaction has run: each type's latest time stamp and each
// object's first-arrival rank, recorded as the history is appended. It
// is the definition the id-keyed segment index is pinned to.
type oracle struct {
	all    []Occurrence
	latest map[Type]clock.Time
	rank   map[types.OID]int
}

func (o *oracle) note(ty Type, oid types.OID, at clock.Time) {
	o.latest[ty] = at
	if _, ok := o.rank[oid]; !ok {
		o.rank[oid] = len(o.rank)
	}
}

func in(occ Occurrence, since, upTo clock.Time) bool {
	return occ.Timestamp > since && occ.Timestamp <= upTo
}

func (o *oracle) lastOf(ty Type, oid types.OID, anyObj bool, since, upTo clock.Time) clock.Time {
	last := clock.Never
	for _, occ := range o.all {
		if in(occ, since, upTo) && occ.Type == ty && (anyObj || occ.OID == oid) {
			last = occ.Timestamp
		}
	}
	return last
}

func (o *oracle) occurrences(ty Type, oid types.OID, anyObj bool, since, upTo clock.Time) []Occurrence {
	var out []Occurrence
	for _, occ := range o.all {
		if in(occ, since, upTo) && occ.Type == ty && (anyObj || occ.OID == oid) {
			out = append(out, occ)
		}
	}
	return out
}

// newest returns the newest retained stamp at or below t, clock.Never if
// there is none.
func (o *oracle) newest(t clock.Time) clock.Time {
	last := clock.Never
	for _, occ := range o.all {
		if occ.Timestamp <= t {
			last = occ.Timestamp
		}
	}
	return last
}

// oids returns the distinct objects touched in the window by the given
// types (nil: by any type), ascending by OID (byRank: by first arrival).
func (o *oracle) oids(tys []Type, byRank bool, since, upTo clock.Time) []types.OID {
	var out []types.OID
	for _, occ := range o.all {
		if in(occ, since, upTo) && (tys == nil || slices.Contains(tys, occ.Type)) && !slices.Contains(out, occ.OID) {
			out = append(out, occ.OID)
		}
	}
	if byRank {
		slices.SortFunc(out, func(a, b types.OID) int { return o.rank[a] - o.rank[b] })
	} else {
		slices.Sort(out)
	}
	return out
}

// checkAgainstOracle compares every Type-keyed probe of b, and its
// id-typed twin, with the naive scan, over random windows and over a
// vocabulary that includes a type never interned and an object never
// seen.
func checkAgainstOracle(t *testing.T, tag string, r *rand.Rand, b *Base, o *oracle, vocab []Type, objects int, now clock.Time) {
	t.Helper()
	o.all = b.All()
	for _, ty := range vocab {
		if got, want := b.Latest(ty), o.latest[ty]; got != want {
			t.Fatalf("%s: Latest(%v) = %d, want %d", tag, ty, got, want)
		}
	}
	for trial := 0; trial < 8; trial++ {
		since := clock.Time(r.Intn(int(now) + 2))
		upTo := clock.Time(r.Intn(int(now) + 3))
		switch trial {
		case 0:
			since, upTo = clock.Never, now
		case 1:
			since, upTo = b.Floor(), now+5
		}
		at := fmt.Sprintf("%s (%d, %d]", tag, since, upTo)
		// A random subset of the vocabulary, the uninterned type included.
		tys := []Type{}
		for _, ty := range vocab {
			if r.Intn(2) == 0 {
				tys = append(tys, ty)
			}
		}
		wantAll, wantOfTypes := o.oids(nil, true, since, upTo), o.oids(tys, false, since, upTo)

		for _, ty := range vocab {
			if got, want := b.LastOf(ty, since, upTo), o.lastOf(ty, 0, true, since, upTo); got != want {
				t.Fatalf("%s: LastOf(%v) = %d, want %d", at, ty, got, want)
			}
			if got, want := b.OccurrencesOf(ty, since, upTo), o.occurrences(ty, 0, true, since, upTo); !slices.Equal(got, want) {
				t.Fatalf("%s: OccurrencesOf(%v) = %v, want %v", at, ty, got, want)
			}
			for oid := types.OID(1); oid <= types.OID(objects)+1; oid++ {
				if got, want := b.LastOfObj(ty, oid, since, upTo), o.lastOf(ty, oid, false, since, upTo); got != want {
					t.Fatalf("%s: LastOfObj(%v, %v) = %d, want %d", at, ty, oid, got, want)
				}
				if got, want := b.OccurrencesOfObj(ty, oid, since, upTo), o.occurrences(ty, oid, false, since, upTo); !slices.Equal(got, want) {
					t.Fatalf("%s: OccurrencesOfObj(%v, %v) = %v, want %v", at, ty, oid, got, want)
				}
			}
		}
		if got := b.OIDs(since, upTo); !slices.Equal(got, wantAll) {
			t.Fatalf("%s: OIDs = %v, want %v", at, got, wantAll)
		}
		if want := o.newest(upTo); b.Newest(upTo) != want {
			t.Fatalf("%s: Newest = %d, want %d", at, b.Newest(upTo), want)
		}

		var tids []int32
		for _, ty := range vocab {
			tid, interned := b.reg.lookup(ty)
			want := o.lastOf(ty, 0, true, since, upTo)
			if !interned {
				if want != clock.Never {
					t.Fatalf("%s: %v has occurrences but no id", at, ty)
				}
				continue
			}
			if slices.Contains(tys, ty) {
				tids = append(tids, tid)
			}
			if got := b.LastOfTID(tid, since, upTo); got != want {
				t.Fatalf("%s: LastOfTID(%v) = %d, want %d", at, ty, got, want)
			}
			var gotLeaf, wantLeaf []Occurrence
			for _, occ := range o.occurrences(ty, 0, true, since, upTo) {
				wantLeaf = append(wantLeaf, Occurrence{Type: ty, OID: occ.OID, Timestamp: occ.Timestamp})
			}
			b.ForLeaf(tid, since, upTo, func(oi int32, ts clock.Time) {
				gotLeaf = append(gotLeaf, Occurrence{Type: ty, OID: b.OID(oi), Timestamp: ts})
			})
			if !slices.Equal(gotLeaf, wantLeaf) {
				t.Fatalf("%s: ForLeaf(%v) = %v, want %v", at, ty, gotLeaf, wantLeaf)
			}
			for oid := types.OID(1); oid <= types.OID(objects)+1; oid++ {
				want := o.lastOf(ty, oid, false, since, upTo)
				if got := b.LastOfObj(ty, oid, since, upTo); got != want {
					t.Fatalf("%s: LastOfObj(%v, %v) = %d, want %d", at, ty, oid, got, want)
				}
				if oi, seen := b.oidIDs[oid]; seen {
					if got := b.LastOfObjTID(tid, oi, since, upTo); got != want {
						t.Fatalf("%s: LastOfObjTID(%v, %v) = %d, want %d", at, ty, oid, got, want)
					}
				}
			}
		}
		if got := oidsOf(b, b.AppendObjs(nil, since, upTo)); !slices.Equal(got, wantAll) {
			t.Fatalf("%s: AppendObjs = %v, want %v", at, got, wantAll)
		}
		got := oidsOf(b, b.AppendObjsOfTIDs(nil, tids, since, upTo))
		slices.Sort(got)
		if !slices.Equal(got, wantOfTypes) {
			t.Fatalf("%s: AppendObjsOfTIDs(%v) = %v, want %v", at, tys, got, wantOfTypes)
		}
	}
}

func oidsOf(b *Base, ids []int32) []types.OID {
	var out []types.OID
	for _, oi := range ids {
		out = append(out, b.oidsByID[oi])
	}
	return out
}

// restoreThroughCodec takes b through the checkpoint path into a fresh
// registry (see restoreInto).
func restoreThroughCodec(t *testing.T, b *Base) *Base { return restoreInto(t, new(Registry), b) }

// restoreInto takes b through the checkpoint path: export, every frame
// and the meta through their wire encodings, parallel rebuild over reg.
func restoreInto(t *testing.T, reg *Registry, b *Base) *Base {
	t.Helper()
	st, err := b.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	frames := append([]SegmentFrame(nil), st.Sealed...)
	if st.Tail != nil {
		frames = append(frames, *st.Tail)
	}
	for i, f := range frames {
		if frames[i], err = DecodeSegment(EncodeSegment(nil, f)); err != nil {
			t.Fatal(err)
		}
	}
	meta, rest, err := DecodeBaseMeta(AppendBaseMeta(nil, st.Meta))
	if err != nil || len(rest) != 0 {
		t.Fatalf("meta round trip: %v (%d trailing bytes)", err, len(rest))
	}
	restored, err := RestoreBase(reg, meta, frames, 3)
	if err != nil {
		t.Fatal(err)
	}
	return restored
}

// TestIndexMatchesNaiveScan drives random appends and compactions at
// segment sizes from 1 to 256 and, at every step, pins every index-backed
// probe — Type-keyed and id-typed — to a naive scan of the retained log.
// The base is periodically replaced by its own image restored through the
// segment codec, so the restored index (and appends continuing into a
// restored tail) answer to the same oracle.
func TestIndexMatchesNaiveScan(t *testing.T) {
	vocab := []Type{
		Create("stock"), Delete("stock"), Modify("stock", "quantity"),
		Create("order"), Modify("order", "total"), External("tick"),
		Create("never"), // stays uninterned
	}
	const objects = 7 // OID objects+1 is never seen
	for _, segSize := range []int{1, 2, 3, 5, 8, 256} {
		r := rand.New(rand.NewSource(int64(1000*segSize) + 7))
		b := NewBaseSize(segSize)
		o := &oracle{latest: map[Type]clock.Time{}, rank: map[types.OID]int{}}
		steps := 100
		if segSize == 256 {
			steps = 700
		}
		now := clock.Never
		for step := 0; step < steps; step++ {
			tag := fmt.Sprintf("seg=%d step=%d", segSize, step)
			now += clock.Time(1 + r.Intn(3))
			ty := vocab[r.Intn(len(vocab)-1)]
			oid := types.OID(1 + r.Intn(objects))
			if _, err := b.Append(ty, oid, now); err != nil {
				t.Fatal(err)
			}
			o.note(ty, oid, now)
			if r.Intn(6) == 0 {
				b.CompactBelow(now - clock.Time(r.Intn(40)))
			}
			if r.Intn(10) == 0 {
				b = restoreThroughCodec(t, b)
				tag += " restored"
			}
			if segSize == 256 && step%20 != 0 {
				continue // long histories: probe every twentieth step
			}
			checkAgainstOracle(t, tag, r, b, o, vocab, objects, now)
		}
	}
}

// TestRestoreRemapsTypeIDs restores bases through the codec into a
// registry that numbers their types otherwise — unrelated types first,
// one more at each restore, then the vocabulary in reverse — and pins every probe of the restored
// base, and of appends continuing into it, to the naive scan, at segment
// sizes 1, 2 and 256.
func TestRestoreRemapsTypeIDs(t *testing.T) {
	vocab := []Type{
		Create("stock"), Delete("stock"), Modify("stock", "quantity"),
		Create("order"), Modify("order", "total"), External("tick"),
		Create("never"), // never registered
	}
	const objects = 7
	for _, segSize := range []int{1, 2, 256} {
		r := rand.New(rand.NewSource(int64(segSize) + 97))
		b := NewBaseSize(segSize)
		o := &oracle{latest: map[Type]clock.Time{}, rank: map[types.OID]int{}}
		now := clock.Never
		for step := 0; step < 300; step++ {
			now += clock.Time(1 + r.Intn(3))
			ty := vocab[r.Intn(len(vocab)-1)]
			oid := types.OID(1 + r.Intn(objects))
			if _, err := b.Append(ty, oid, now); err != nil {
				t.Fatal(err)
			}
			o.note(ty, oid, now)
			if r.Intn(6) == 0 {
				b.CompactBelow(now - clock.Time(r.Intn(40)))
			}
			if step%50 != 49 {
				continue
			}
			reg := new(Registry)
			for k := 0; k <= step/50; k++ {
				reg.Intern(External(fmt.Sprint("unrelated", k)))
			}
			for i := len(vocab) - 2; i >= 0; i-- {
				reg.Intern(vocab[i])
			}
			before := b.reg.types()
			if b = restoreInto(t, reg, b); slices.Equal(b.reg.types()[:len(before)], before) {
				t.Fatalf("seg=%d step=%d: the restore kept the numbering %v", segSize, step, before)
			}
			checkAgainstOracle(t, fmt.Sprintf("seg=%d step=%d remapped", segSize, step), r, b, o, vocab, objects, now)
		}
	}
}

// indexWords counts the machine words the live segments' indexes hold:
// table slots, keys and values (a leaf and a pair value is one span of
// three int32s), and the capacity of each segment's list arena.
func indexWords(b *Base) int {
	words := 0
	for _, sg := range b.segs {
		words += len(sg.leafOf.slots)/2 + cap(sg.leafOf.keys) + 3*cap(sg.leafOf.vals)/2
		words += len(sg.pairOf.slots)/2 + cap(sg.pairOf.keys) + 3*cap(sg.pairOf.vals)/2
		words += len(sg.objOf.slots)/2 + cap(sg.objOf.keys)
		words += cap(sg.arena) / 2
	}
	return words
}

// TestArenaListsMatchNaiveScan drives the shapes the arena's per-key
// chunk sizing has to survive, each for about one segment, and pins every
// probe to the naive scan after every append (every sixteenth at segment
// size 256): a steady mix; one (type, object) key taking seven in eight
// occurrences, so it outgrows the headroom its count in the predecessor
// gave it; the same key falling back to one in eight, so its hint is far
// too large; a type and objects the predecessor never held; and, half way
// through a segment, the predecessor retired by CompactBelow while its
// successor still sizes chunks from it. No full segment links its
// predecessor.
func TestArenaListsMatchNaiveScan(t *testing.T) {
	vocab := []Type{
		Modify("card", "spent"), Modify("card", "limit"), Create("card"),
		External("fresh"),
		Create("never"), // stays uninterned
	}
	const objects = 6 // OID objects+1 is never seen
	hot, mixed := func(k int) (Type, types.OID) { return vocab[0], 1 },
		func(k int) (Type, types.OID) { return vocab[k%3], types.OID(1 + k%4) }
	shapes := []struct {
		name string
		pick func(k int) (Type, types.OID)
	}{
		{"steady", mixed},
		{"grows", func(k int) (Type, types.OID) {
			if k%8 != 0 {
				return hot(k)
			}
			return mixed(k)
		}},
		{"shrinks", func(k int) (Type, types.OID) {
			if k%8 == 0 {
				return hot(k)
			}
			return mixed(k)
		}},
		{"absent", func(k int) (Type, types.OID) {
			if k%2 == 0 {
				return vocab[3], types.OID(5 + k%2)
			}
			return vocab[k%3], 6
		}},
		{"retired", mixed},
	}
	for _, segSize := range []int{1, 2, 3, 256} {
		r := rand.New(rand.NewSource(int64(segSize) + 41))
		b := NewBaseSize(segSize)
		o := &oracle{latest: map[Type]clock.Time{}, rank: map[types.OID]int{}}
		var stamps []clock.Time
		now := clock.Never
		// segStart returns the stamp before the first entry of the
		// segment holding entry i.
		segStart := func(i int) clock.Time {
			if j := i / segSize * segSize; j > 0 {
				return stamps[j-1]
			}
			return clock.Never
		}
		for round := 0; round < 2*len(shapes); round++ {
			sh := shapes[round%len(shapes)]
			// Keep the predecessor of the segment about to fill, retire
			// what lies before it.
			if n := len(stamps); n > segSize {
				b.CompactBelow(segStart(n - segSize))
			}
			for k := 0; k < segSize; k++ {
				now += clock.Time(1 + r.Intn(2))
				ty, oid := sh.pick(k)
				if _, err := b.Append(ty, oid, now); err != nil {
					t.Fatal(err)
				}
				stamps = append(stamps, now)
				o.note(ty, oid, now)
				// Only a filling segment links its predecessor: a sealed one
				// keeps no retired segment alive.
				for _, sg := range b.segs {
					if sg.prev != nil && sg.n() == segSize {
						t.Fatalf("seg=%d: a full segment still links its predecessor", segSize)
					}
				}
				if sh.name == "retired" && k == segSize/2 && segSize > 1 {
					b.CompactBelow(segStart(len(stamps) - 1))
					if b.Segments() != 1 {
						t.Fatalf("seg=%d: %d segments live after retiring the tail's predecessor", segSize, b.Segments())
					}
				}
				if segSize < 256 || k%16 == 15 {
					tag := fmt.Sprintf("seg=%d %s round %d entry %d", segSize, sh.name, round, k)
					checkAgainstOracle(t, tag, r, b, o, vocab, objects, now)
				}
			}
		}
	}
}

// TestRecycledSegmentsMatchNaiveScan runs roll-overs that reuse the
// index storage of retired segments and pins every probe to the naive
// scan. Three narrow segments (two types on one object) alternate with
// three wide ones (four types on six objects), so a spare is larger than
// its new predecessor's pair table or arena as well as smaller, which
// makes the reset grow a reused table. After each filled segment but two
// in six, compaction keeps a random number of the newest segments (none
// included, which retires the chain whole); the pauses use the spares up,
// so new segments are allocated and retired in turn. Half way through
// some segments it retires everything but the tail. Most segments opened
// must reuse a spare.
func TestRecycledSegmentsMatchNaiveScan(t *testing.T) {
	vocab := []Type{
		Modify("card", "spent"), Modify("card", "limit"), Create("card"),
		External("fresh"),
		Create("never"), // stays uninterned
	}
	const objects = 6 // OID objects+1 is never seen
	narrow := func(k int) (Type, types.OID) { return vocab[k%2], 1 }
	wide := func(k int) (Type, types.OID) { return vocab[k%4], types.OID(1 + k/4%objects) }
	larger, smaller := 0, 0 // reuses of a spare above the predecessor's sizes, and of one whose pair table must grow
	for _, segSize := range []int{1, 2, 3, 256} {
		r := rand.New(rand.NewSource(int64(segSize) + 83))
		b := NewBaseSize(segSize)
		o := &oracle{latest: map[Type]clock.Time{}, rank: map[types.OID]int{}}
		var stamps []clock.Time
		now := clock.Never
		opened, reused := 0, 0
		segments, every := 60, 1
		if segSize == 256 {
			segments, every = 24, 64
		}
		for seg := 0; seg < segments; seg++ {
			pick := narrow
			if seg%6 >= 3 {
				pick = wide
			}
			for k := 0; k < segSize; k++ {
				var tail *segment
				if n := len(b.segs); n > 0 && b.segs[n-1].n() < segSize {
					tail = b.segs[n-1]
				}
				spares := slices.Clone(b.spares)
				// The spare a roll-over takes, against its predecessor.
				var roomy, grow bool
				if n := len(b.segs); tail == nil && n > 0 && len(spares) > 0 {
					prev, spare := b.segs[n-1], spares[len(spares)-1]
					roomy = cap(spare.pairOf.slots) > len(prev.pairOf.slots) || cap(spare.arena) > len(prev.arena)
					grow = cap(spare.pairOf.slots) < len(prev.pairOf.slots)
				}
				now += clock.Time(1 + r.Intn(2))
				ty, oid := pick(k)
				if _, err := b.Append(ty, oid, now); err != nil {
					t.Fatal(err)
				}
				stamps = append(stamps, now)
				o.note(ty, oid, now)
				if tail == nil {
					opened++
					if slices.Contains(spares, b.segs[len(b.segs)-1]) {
						reused++
						if roomy {
							larger++
						}
						if grow {
							smaller++
						}
					}
				}
				if k == segSize/2 && seg > 0 && segSize > 1 && r.Intn(3) == 0 {
					// Retire the tail's predecessor before the tail fills.
					b.CompactBelow(stamps[len(stamps)-1-k-1])
				}
				if k%every == every-1 || k == segSize-1 {
					tag := fmt.Sprintf("seg=%d segment %d entry %d", segSize, seg, k)
					checkAgainstOracle(t, tag, r, b, o, vocab, objects, now)
				}
			}
			// Keep 0 to 3 of the newest full segments, or pause.
			if keep := r.Intn(4); keep <= seg && seg%6 >= 2 {
				b.CompactBelow(stamps[(seg+1-keep)*segSize-1])
			}
		}
		if 2*reused <= opened {
			t.Errorf("seg=%d: %d of %d segments opened reused a spare, want most", segSize, reused, opened)
		}
	}
	if larger == 0 || smaller == 0 {
		t.Errorf("spares reused above the predecessor's sizes %d times, with a pair table to grow %d times: want both", larger, smaller)
	}
}

// TestIndexMemoryFollowsEntries feeds a base ten thousand distinct types
// over small segments: the index must hold a bounded number of words per
// live entry, where any per-segment structure sized to the vocabulary
// would hold segments × types (12.5 million here). Compaction returns
// the index of what it retires.
func TestIndexMemoryFollowsEntries(t *testing.T) {
	const n, perEntry = 10000, 64
	b := NewBaseSize(8)
	for i := 0; i < n; i++ {
		if _, err := b.Append(Create(fmt.Sprintf("c%05d", i)), types.OID(1+i%50), clock.Time(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if len(b.reg.types()) != n {
		t.Fatalf("registered %d types, want %d", len(b.reg.types()), n)
	}
	if w := indexWords(b); w > perEntry*b.Len() {
		t.Fatalf("index holds %d words for %d live entries (%d per entry, want ≤ %d)", w, b.Len(), w/b.Len(), perEntry)
	}
	b.CompactBelow(clock.Time(n - 100))
	if b.Len() > 108 {
		t.Fatalf("compaction left %d entries", b.Len())
	}
	if w := indexWords(b); w > perEntry*b.Len() {
		t.Fatalf("after compaction the index holds %d words for %d live entries", w, b.Len())
	}
}

// TestRolledSegmentSizedLikePredecessor: a segment opened by roll-over
// starts with the table sizes its predecessor ended with, so a stream
// whose segments look alike rehashes in its first segment only; the first
// segment of a base starts as small as ever.
func TestRolledSegmentSizedLikePredecessor(t *testing.T) {
	b := NewBaseSize(64)
	for i := 0; i < 65; i++ {
		if _, err := b.Append(Create(fmt.Sprintf("c%02d", i%40)), types.OID(1+i), clock.Time(i+1)); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if sg := b.segs[0]; len(sg.leafOf.slots) != 16 || len(sg.pairOf.slots) != 16 || len(sg.objOf.slots) != 16 {
				t.Fatalf("first segment after one append: %d/%d/%d slots, want 16 each",
					len(sg.leafOf.slots), len(sg.pairOf.slots), len(sg.objOf.slots))
			}
		}
	}
	prev, next := b.segs[0], b.segs[1]
	for _, c := range []struct {
		name       string
		prev, next int
	}{
		{"leaf", len(prev.leafOf.slots), len(next.leafOf.slots)},
		{"pair", len(prev.pairOf.slots), len(next.pairOf.slots)},
		{"object", len(prev.objOf.slots), len(next.objOf.slots)},
	} {
		if c.prev <= 16 || c.next != c.prev {
			t.Errorf("%s table: the rolled-over segment has %d slots, its predecessor ended with %d", c.name, c.next, c.prev)
		}
	}
}

// TestProbesAllocateNothing pins the steady state of the three hot
// paths: an append into a segment that already knows the type and the
// object, a per-object probe, a domain gather into a recycled buffer, and a
// leaf walk.
func TestProbesAllocateNothing(t *testing.T) {
	tys := []Type{Modify("card", "spent"), Modify("card", "limit"), Create("card")}
	const objects = 16
	b := NewBaseSize(1 << 14)
	now := clock.Never
	appendOne := func() {
		now++
		if _, err := b.Append(tys[int(now)%len(tys)], types.OID(1+int(now)%objects), now); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4096; i++ {
		appendOne() // warm: every (type, object) list has grown past its doublings
	}
	if a := testing.AllocsPerRun(1000, appendOne); a != 0 {
		t.Errorf("Append into a warm segment: %v allocs/op, want 0", a)
	}
	if a := testing.AllocsPerRun(1000, func() {
		if b.LastOfObj(tys[0], 3, clock.Never, now) == clock.Never {
			t.Fatal("no occurrence found")
		}
	}); a != 0 {
		t.Errorf("LastOfObj: %v allocs/op, want 0", a)
	}
	// The same over default-size segments, where the window crosses many.
	small := NewBase()
	for ts := clock.Time(1); ts <= 4096; ts++ {
		if _, err := small.Append(tys[int(ts)%len(tys)], types.OID(1+int(ts)%objects), ts); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]int32, 0, 64)
	if a := testing.AllocsPerRun(1000, func() {
		buf = small.AppendObjs(buf[:0], 100, 4000)
		small.LastOfObj(tys[1], 5, 100, 4000)
	}); a != 0 {
		t.Errorf("probes across segments: %v allocs/op, want 0", a)
	}
	tid, _ := small.reg.lookup(tys[1])
	var newest clock.Time
	if a := testing.AllocsPerRun(1000, func() {
		small.ForLeaf(tid, 100, 4000, func(_ int32, at clock.Time) { newest = max(newest, at) })
	}); a != 0 {
		t.Errorf("ForLeaf across segments: %v allocs/op, want 0", a)
	}
	if newest == clock.Never {
		t.Fatal("ForLeaf walked no occurrence")
	}
}
