package event

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"chimera/internal/clock"
	"chimera/internal/types"
)

// fillPair appends an identical random history to a tiny-segment base
// and a flat reference base (one segment larger than the history), so
// every query is checked differentially across segment boundaries.
func fillPair(t *testing.T, r *rand.Rand, segSize, n int) (seg, ref *Base, vocab []Type) {
	t.Helper()
	vocab = []Type{
		Create("stock"), Delete("stock"), Modify("stock", "quantity"),
		Create("order"), Modify("order", "total"),
	}
	seg = NewBaseSize(segSize)
	ref = NewBaseSize(n + 1)
	ts := clock.Time(0)
	for i := 0; i < n; i++ {
		ts += clock.Time(1 + r.Intn(3)) // gaps exercise between-arrival windows
		ty := vocab[r.Intn(len(vocab))]
		oid := types.OID(1 + r.Intn(6))
		if _, err := seg.Append(ty, oid, ts); err != nil {
			t.Fatal(err)
		}
		if _, err := ref.Append(ty, oid, ts); err != nil {
			t.Fatal(err)
		}
	}
	return seg, ref, vocab
}

// TestSegmentedLookupsMatchFlat pins every window lookup of the
// segmented base to a flat single-segment reference over random windows,
// including windows aligned exactly on segment boundaries.
func TestSegmentedLookupsMatchFlat(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	seg, ref, vocab := fillPair(t, r, 4, 120)
	if seg.Segments() < 10 {
		t.Fatalf("want many segments, got %d", seg.Segments())
	}
	last := seg.All()[seg.Len()-1].Timestamp
	windows := [][2]clock.Time{
		{clock.Never, last}, {clock.Never, clock.Never}, {last, last + 5},
	}
	for i := 0; i < 300; i++ {
		a := clock.Time(r.Intn(int(last) + 3))
		b := clock.Time(r.Intn(int(last) + 3))
		windows = append(windows, [2]clock.Time{a, b})
	}
	for _, w := range windows {
		since, upTo := w[0], w[1]
		for _, ty := range vocab {
			if g, want := seg.LastOf(ty, since, upTo), ref.LastOf(ty, since, upTo); g != want {
				t.Fatalf("LastOf(%v, %d, %d) = %d, want %d", ty, since, upTo, g, want)
			}
			for oid := types.OID(1); oid <= 6; oid++ {
				if g, want := seg.LastOfObj(ty, oid, since, upTo), ref.LastOfObj(ty, oid, since, upTo); g != want {
					t.Fatalf("LastOfObj(%v, o%d, %d, %d) = %d, want %d", ty, oid, since, upTo, g, want)
				}
			}
			if g, want := seg.OccurrencesOf(ty, since, upTo), ref.OccurrencesOf(ty, since, upTo); !reflect.DeepEqual(g, want) {
				t.Fatalf("OccurrencesOf(%v, %d, %d) = %v, want %v", ty, since, upTo, g, want)
			}
		}
		if g, want := seg.Window(since, upTo), ref.Window(since, upTo); !reflect.DeepEqual(g, want) {
			t.Fatalf("Window(%d, %d) mismatch", since, upTo)
		}
		if g, want := seg.Arrivals(since, upTo), ref.Arrivals(since, upTo); !reflect.DeepEqual(g, want) {
			t.Fatalf("Arrivals(%d, %d) mismatch", since, upTo)
		}
		if g, want := seg.CountArrivals(since, upTo), ref.CountArrivals(since, upTo); g != want {
			t.Fatalf("CountArrivals(%d, %d) = %d, want %d", since, upTo, g, want)
		}
		if g, want := seg.Empty(since, upTo), ref.Empty(since, upTo); g != want {
			t.Fatalf("Empty(%d, %d) = %v, want %v", since, upTo, g, want)
		}
		if g, want := seg.OIDs(since, upTo), ref.OIDs(since, upTo); !reflect.DeepEqual(g, want) {
			t.Fatalf("OIDs(%d, %d) = %v, want %v", since, upTo, g, want)
		}
		if g, want := seg.OIDsOfTypes(vocab[:3], since, upTo), ref.OIDsOfTypes(vocab[:3], since, upTo); !reflect.DeepEqual(g, want) {
			t.Fatalf("OIDsOfTypes(%d, %d) = %v, want %v", since, upTo, g, want)
		}
		// The columnar chunk walk reconstructs the window from the raw
		// columns (EIDs dense from EID0, ids through the interners).
		var colOccs []Occurrence
		lo := since
		for {
			c := seg.ChunkCols(lo, upTo)
			if len(c.TS) != len(c.TIDs) || len(c.TS) != len(c.OIDs) {
				t.Fatalf("ChunkCols ragged columns at (%d, %d)", lo, upTo)
			}
			if len(c.TS) == 0 {
				break
			}
			for i := range c.TS {
				colOccs = append(colOccs, Occurrence{
					EID:       c.EID0 + EID(i),
					Type:      typeOfTID(t, seg, c.TIDs[i]),
					OID:       oidOfID(t, seg, c.OIDs[i]),
					Timestamp: c.TS[i],
				})
			}
			lo = c.TS[len(c.TS)-1]
		}
		if want := ref.Window(since, upTo); !occEqual(colOccs, want) {
			t.Fatalf("ChunkCols walk (%d, %d) mismatch", since, upTo)
		}
	}
}

// typeOfTID resolves a type id through the base's registry.
func typeOfTID(t *testing.T, b *Base, tid int32) Type {
	t.Helper()
	if tys := b.reg.types(); int(tid) < len(tys) {
		return tys[tid]
	}
	t.Fatalf("unknown type id %d", tid)
	return Type{}
}

// oidOfID resolves an interned OID id by scanning the first-arrival
// order exposed through OIDs over the whole log.
func oidOfID(t *testing.T, b *Base, id int32) types.OID {
	t.Helper()
	oids := b.OIDs(clock.Never, clock.Time(1<<40))
	if int(id) >= len(oids) {
		t.Fatalf("interned OID id %d out of range %d", id, len(oids))
	}
	return oids[id]
}

func occEqual(a, b []Occurrence) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestWindowBoundaryCases covers the degenerate windows: since == upTo,
// types with no occurrences (empty leaves), windows entirely before or
// after the log, and OID dedup across types and segments.
func TestWindowBoundaryCases(t *testing.T) {
	b := NewBaseSize(2) // every second append seals a segment
	cs, co := Create("stock"), Create("order")
	mq := Modify("stock", "quantity")
	// o1 touched by cs (t1) and mq (t4); o2 by cs (t2); o1 again by cs (t3):
	// the same object through two types, spread over segments.
	for _, row := range []struct {
		ty  Type
		oid types.OID
		at  clock.Time
	}{
		{cs, 1, 1}, {cs, 2, 2}, {cs, 1, 3}, {mq, 1, 4}, {co, 3, 5},
	} {
		if _, err := b.Append(row.ty, row.oid, row.at); err != nil {
			t.Fatal(err)
		}
	}

	// since == upTo: the half-open window (t, t] is empty by definition.
	for _, at := range []clock.Time{clock.Never, 1, 3, 5, 9} {
		if got := b.Window(at, at); got != nil {
			t.Errorf("Window(%d, %d] = %v, want empty", at, at, got)
		}
		if !b.Empty(at, at) {
			t.Errorf("Empty(%d, %d] = false", at, at)
		}
		if got := b.LastOf(cs, at, at); got != clock.Never {
			t.Errorf("LastOf over (%d, %d] = %d", at, at, got)
		}
		if got := b.OIDs(at, at); got != nil {
			t.Errorf("OIDs(%d, %d] = %v", at, at, got)
		}
		if got := b.CountArrivals(at, at); got != 0 {
			t.Errorf("CountArrivals(%d, %d] = %d", at, at, got)
		}
	}

	// Empty leaves: a type that never occurred, and a type present in the
	// base but absent from the probed object.
	if got := b.LastOf(Delete("stock"), clock.Never, 9); got != clock.Never {
		t.Errorf("LastOf of never-occurred type = %d", got)
	}
	if got := b.LastOfObj(co, 1, clock.Never, 9); got != clock.Never {
		t.Errorf("LastOfObj of foreign object = %d", got)
	}
	if got := b.OccurrencesOf(Delete("stock"), clock.Never, 9); got != nil {
		t.Errorf("OccurrencesOf of never-occurred type = %v", got)
	}
	if got := b.OIDsOfTypes([]Type{Delete("stock")}, clock.Never, 9); got != nil {
		t.Errorf("OIDsOfTypes of never-occurred type = %v", got)
	}

	// Windows entirely before the first / after the last occurrence.
	for _, w := range [][2]clock.Time{{clock.Never, 0}, {5, 9}, {7, 12}} {
		if got := b.Window(w[0], w[1]); w[0] >= 5 && got != nil {
			t.Errorf("Window(%d, %d] = %v, want empty", w[0], w[1], got)
		}
		if got := b.LastOf(cs, w[0], w[1]); got != clock.Never {
			t.Errorf("LastOf over (%d, %d] = %d", w[0], w[1], got)
		}
	}
	if !b.Empty(clock.Never, 0) || !b.Empty(5, 99) {
		t.Error("windows beyond the log should be empty")
	}

	// OID dedup: o1 is touched through cs and mq, in different segments;
	// it must appear exactly once, ascending.
	got := b.OIDsOfTypes([]Type{cs, mq, co}, clock.Never, 9)
	want := []types.OID{1, 2, 3}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("OIDsOfTypes dedup = %v, want %v", got, want)
	}
}

// TestCompactBelow checks segment retirement: counters, the floor, the
// live remainder, and that queries above the floor are unaffected.
func TestCompactBelow(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	seg, ref, vocab := fillPair(t, r, 4, 100)
	last := ref.All()[ref.Len()-1].Timestamp
	wm := last / 2

	n := seg.CompactBelow(wm)
	if n == 0 {
		t.Fatal("nothing retired")
	}
	if seg.Retired() != n || seg.Appended() != 100 || seg.Len() != 100-n {
		t.Fatalf("counters: retired=%d appended=%d len=%d (n=%d)",
			seg.Retired(), seg.Appended(), seg.Len(), n)
	}
	floor := seg.Floor()
	if floor == clock.Never || floor > wm {
		t.Fatalf("floor %d not in (0, %d]", floor, wm)
	}
	if seg.RetiredSegments() == 0 {
		t.Fatal("no segments retired")
	}
	// Every retained occurrence is strictly above the floor.
	for _, o := range seg.All() {
		if o.Timestamp <= floor {
			t.Fatalf("retained occurrence at t%d ≤ floor t%d", o.Timestamp, floor)
		}
	}
	// Windows above the floor are bit-identical to the uncompacted base.
	for i := 0; i < 200; i++ {
		since := floor + clock.Time(r.Intn(int(last-floor)+1))
		upTo := since + clock.Time(r.Intn(int(last-since)+2))
		if g, w := seg.Window(since, upTo), ref.Window(since, upTo); !reflect.DeepEqual(g, w) {
			t.Fatalf("post-compaction Window(%d, %d) mismatch", since, upTo)
		}
		for _, ty := range vocab {
			if g, w := seg.LastOf(ty, since, upTo), ref.LastOf(ty, since, upTo); g != w {
				t.Fatalf("post-compaction LastOf(%v, %d, %d) = %d, want %d", ty, since, upTo, g, w)
			}
		}
		if g, w := seg.OIDs(since, upTo), ref.OIDs(since, upTo); !reflect.DeepEqual(g, w) {
			t.Fatalf("post-compaction OIDs(%d, %d) mismatch: %v vs %v", since, upTo, g, w)
		}
	}
	// The leaf cache (Latest) survives compaction.
	for _, ty := range vocab {
		if g, w := seg.Latest(ty), ref.Latest(ty); g != w {
			t.Fatalf("Latest(%v) = %d, want %d", ty, g, w)
		}
	}
	// Idempotent at the same watermark.
	if again := seg.CompactBelow(wm); again != 0 {
		t.Fatalf("second CompactBelow retired %d more", again)
	}
	// Retiring everything still leaves appends monotone and EIDs dense.
	seg.CompactBelow(last)
	if seg.Len() != 0 {
		t.Fatalf("Len after full retirement = %d", seg.Len())
	}
	if _, err := seg.Append(vocab[0], 1, last); err == nil {
		t.Fatal("non-monotone append accepted after full retirement")
	}
	occ, err := seg.Append(vocab[0], 1, last+1)
	if err != nil {
		t.Fatal(err)
	}
	if occ.EID != EID(101) {
		t.Fatalf("EID after retirement = %d, want 101", occ.EID)
	}
}

// TestViewsSurviveCompaction pins the aliasing contract: columns taken
// before compaction keep their contents after the segments they alias
// are retired (compaction unlinks segments, never moves live data).
func TestViewsSurviveCompaction(t *testing.T) {
	b := NewBaseSize(3)
	for i := 1; i <= 12; i++ {
		if _, err := b.Append(Create("stock"), types.OID(i%4+1), clock.Time(i)); err != nil {
			t.Fatal(err)
		}
	}
	view := b.ChunkCols(clock.Never, 3) // one whole segment
	chunk := b.ChunkCols(3, 9)          // first chunk of a wider window
	clone := func(c Cols) Cols {
		return Cols{TS: slices.Clone(c.TS), TIDs: slices.Clone(c.TIDs), OIDs: slices.Clone(c.OIDs), EID0: c.EID0}
	}
	wantView, wantChunk := clone(view), clone(chunk)
	same := func(a, b Cols) bool {
		return slices.Equal(a.TS, b.TS) && slices.Equal(a.TIDs, b.TIDs) && slices.Equal(a.OIDs, b.OIDs) && a.EID0 == b.EID0
	}

	if n := b.CompactBelow(9); n != 9 {
		t.Fatalf("retired %d, want 9", n)
	}
	if !same(view, wantView) || !same(chunk, wantChunk) {
		t.Fatal("columns changed under compaction")
	}
	// And appends past the columns leave them intact too.
	for i := 13; i <= 24; i++ {
		if _, err := b.Append(Create("stock"), 1, clock.Time(i)); err != nil {
			t.Fatal(err)
		}
	}
	if !same(view, wantView) || !same(chunk, wantChunk) {
		t.Fatal("columns changed under later appends")
	}
}

// TestViewsStableAcrossSealsColumnar pins the aliasing contract:
// ChunkCols columns and ExportState frames taken at every stage — inside
// an unsealed tail segment, before later appends seal it, and before
// CompactBelow retires the segments they came from — keep their exact
// contents through all of it, and those contents are the window as a
// copy taken at capture time. The appends roll over onto recycled
// segments, whose index storage compaction handed back: at each stage
// the index probes must still agree with the columns.
func TestViewsStableAcrossSealsColumnar(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	col := NewBaseSize(4)
	vocab := []Type{Create("stock"), Modify("stock", "quantity"), Delete("stock")}

	type snap struct {
		since, upTo clock.Time
		cols        Cols
		copied      Cols         // the columns as they were at capture time
		want        []Occurrence // deep copy at capture time
	}
	var snaps []snap
	clone := func(c Cols) Cols {
		return Cols{TS: slices.Clone(c.TS), TIDs: slices.Clone(c.TIDs), OIDs: slices.Clone(c.OIDs), EID0: c.EID0}
	}
	// frames are ExportState's frames, copies the same frames copied when
	// they were exported.
	var frames, copies []SegmentFrame
	export := func() {
		st, err := col.ExportState()
		if err != nil {
			t.Fatal(err)
		}
		if st.Tail != nil {
			st.Sealed = append(st.Sealed, *st.Tail)
		}
		for _, f := range st.Sealed {
			frames = append(frames, f)
			copies = append(copies, SegmentFrame{
				FirstEID: f.FirstEID, TS: slices.Clone(f.TS), TIDs: slices.Clone(f.TIDs), OIDs: slices.Clone(f.OIDs),
			})
		}
	}

	ts := clock.Time(0)
	appendSome := func(n int) {
		for i := 0; i < n; i++ {
			ts += clock.Time(1 + r.Intn(2))
			ty := vocab[r.Intn(len(vocab))]
			oid := types.OID(1 + r.Intn(5))
			if _, err := col.Append(ty, oid, ts); err != nil {
				t.Fatal(err)
			}
			// Capture columns mid-stream — including from the unsealed tail
			// (i not a multiple of the segment size) — so later appends write
			// into the very arrays the columns alias.
			if i%7 == 3 {
				since := ts - clock.Time(r.Intn(6)+1)
				c := col.ChunkCols(since, ts)
				snaps = append(snaps, snap{
					since:  since,
					upTo:   ts,
					cols:   c,
					copied: clone(c),
					want:   col.Window(since, ts), // a copy, never an alias
				})
			}
			if i%11 == 5 {
				export()
			}
		}
	}

	check := func(stage string) {
		t.Helper()
		for _, s := range snaps {
			for i := range s.cols.TS {
				w := s.want[i]
				if s.cols.TS[i] != w.Timestamp || s.cols.EID0+EID(i) != w.EID {
					t.Fatalf("%s: ChunkCols(%d, %d) changed under the view", stage, s.since, s.upTo)
				}
			}
			if !slices.Equal(s.cols.TIDs, s.copied.TIDs) || !slices.Equal(s.cols.OIDs, s.copied.OIDs) {
				t.Fatalf("%s: ChunkCols(%d, %d)'s id columns changed under the view", stage, s.since, s.upTo)
			}
		}
		for i, f := range frames {
			c := copies[i]
			if f.FirstEID != c.FirstEID || !slices.Equal(f.TS, c.TS) || !slices.Equal(f.TIDs, c.TIDs) || !slices.Equal(f.OIDs, c.OIDs) {
				t.Fatalf("%s: exported frame %d (EID %d) changed", stage, i, f.FirstEID)
			}
		}
		for k := 0; k < 8; k++ {
			since := col.Floor() + clock.Time(r.Intn(40))
			upTo := since + clock.Time(r.Intn(60))
			for _, ty := range vocab {
				if err := indexMatchesColumns(col, ty, since, upTo); err != nil {
					t.Fatalf("%s: %v", stage, err)
				}
			}
		}
	}

	appendSome(120)
	check("after appends across seals")

	mid := ts / 2
	if col.CompactBelow(mid) == 0 {
		t.Fatal("compaction retired nothing")
	}
	check("after CompactBelow")

	for i := 0; i < 40; i++ {
		ts++
		if _, err := col.Append(vocab[0], 1, ts); err != nil {
			t.Fatal(err)
		}
	}
	check("after post-compaction appends")

	// A trailing window: every few roll-overs retire what the views and
	// frames came from, and the next roll-overs reuse the retired
	// segments' index storage.
	for round := 0; round < 12; round++ {
		appendSome(30)
		if col.CompactBelow(ts-20) == 0 {
			t.Fatalf("round %d: compaction retired nothing", round)
		}
		check(fmt.Sprintf("after trailing compaction %d", round))
	}

	// Retire the whole chain: the next segment has no live predecessor
	// and starts from a spare.
	col.CompactBelow(ts)
	if col.Segments() != 0 {
		t.Fatalf("%d segments live after retiring everything", col.Segments())
	}
	appendSome(40)
	check("after appends onto a retired chain")
}

// TestConcurrentReadersWithCompaction stress-tests the reader paths
// under -race the way the engine runs them: every transaction line owns
// its Base and drives it from its own goroutine, and all the Bases share
// one Registry. Each goroutine appends, retires a trailing window and,
// between appends, walks windows, column chunks and index lookups of its
// own Base, while the other goroutines append, compact and register new
// types in the shared Registry. A Base that kept state outside itself —
// a shared spare pool or scratch buffer — shows as a race or as probes
// that disagree with the columns.
func TestConcurrentReadersWithCompaction(t *testing.T) {
	reg := new(Registry)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			b := reg.NewBase(8)
			r := rand.New(rand.NewSource(int64(w)))
			// Create and Delete are shared by every line; the Modify type
			// is this line's own, registered while the others probe.
			ty := []Type{Create("c"), Modify("c", fmt.Sprintf("a%d", w)), Delete("c")}
			for i := 1; i <= 4000; i++ {
				if _, err := b.Append(ty[i%3], types.OID(i%7+1), clock.Time(i)); err != nil {
					t.Error(err)
					return
				}
				if i%64 == 0 {
					// Retire everything older than a trailing window.
					b.CompactBelow(clock.Time(i - 200))
				}
				if i%16 != 0 {
					continue
				}
				since := b.Floor() + clock.Time(r.Intn(100))
				upTo := since + clock.Time(r.Intn(150))
				// Chunk walks stay ascending and inside the window across
				// the segments compaction has left.
				prev := since
				lo := since
				for {
					c := b.ChunkCols(lo, upTo)
					if len(c.TS) == 0 {
						break
					}
					for _, ts := range c.TS {
						if ts <= prev || ts > upTo {
							t.Errorf("line %d: chunk walk over (%d, %d] out of window order at %d", w, since, upTo, ts)
							return
						}
						prev = ts
					}
					lo = c.TS[len(c.TS)-1]
				}
				b.LastOf(ty[r.Intn(3)], since, upTo)
				b.OIDs(since, upTo)
				b.OIDsOfTypes(ty[:2], since, upTo)
				b.Window(since, upTo)
				if err := indexMatchesColumns(b, ty[r.Intn(3)], since, upTo); err != nil {
					t.Errorf("line %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// indexMatchesColumns checks the index-backed probes of type ty over
// (since, upTo] — LastOfTID, ForLeaf and AppendObjs — against a scan of
// the window's columns. A roll-over that reset a spare's tables a live
// segment still used would break the equality.
func indexMatchesColumns(b *Base, ty Type, since, upTo clock.Time) error {
	tid, interned := b.reg.lookup(ty)
	if !interned {
		return nil
	}
	type row struct {
		oi int32
		at clock.Time
	}
	var leaf, gotLeaf []row
	var objs []int32
	b.forRanges(since, upTo, func(sg *segment, lo, hi int) bool {
		for i := lo; i < hi; i++ {
			objs = append(objs, sg.oids[i])
			if sg.tids[i] == tid {
				leaf = append(leaf, row{sg.oids[i], sg.ts[i]})
			}
		}
		return true
	})
	slices.Sort(objs)
	objs = slices.Compact(objs)
	last := clock.Never
	if len(leaf) > 0 {
		last = leaf[len(leaf)-1].at
	}
	if got := b.LastOfTID(tid, since, upTo); got != last {
		return fmt.Errorf("LastOfTID(%v) over (%d, %d] = %d, the columns say %d", ty, since, upTo, got, last)
	}
	b.ForLeaf(tid, since, upTo, func(oi int32, at clock.Time) { gotLeaf = append(gotLeaf, row{oi, at}) })
	if !slices.Equal(gotLeaf, leaf) {
		return fmt.Errorf("ForLeaf(%v) over (%d, %d] = %v, the columns say %v", ty, since, upTo, gotLeaf, leaf)
	}
	if got := b.AppendObjs(nil, since, upTo); !slices.Equal(got, objs) {
		return fmt.Errorf("AppendObjs over (%d, %d] = %v, the columns say %v", since, upTo, got, objs)
	}
	return nil
}

// TestRetiredColumnsCollected: a segment CompactBelow retires keeps no
// column alive, though its index stays behind as a spare and as the
// hints of the open tail it preceded. A finalizer on the first time
// stamp of a view of the retired segment observes the collection.
func TestRetiredColumnsCollected(t *testing.T) {
	b := NewBaseSize(4)
	collected := make(chan struct{})
	func() {
		for i := 1; i <= 5; i++ {
			if _, err := b.Append(Create("c"), types.OID(i), clock.Time(i)); err != nil {
				t.Fatal(err)
			}
		}
		c := b.ChunkCols(clock.Never, 4)
		if len(c.TS) != 4 {
			t.Fatalf("the first segment's view holds %d stamps, want 4", len(c.TS))
		}
		runtime.SetFinalizer(&c.TS[0], func(*clock.Time) { close(collected) })
	}()
	if n := b.CompactBelow(4); n != 4 {
		t.Fatalf("CompactBelow retired %d occurrences, want 4", n)
	}
	if b.Segments() != 1 || b.segs[0].n() != 1 {
		t.Fatal("the tail must still be filling")
	}
	defer runtime.KeepAlive(b)
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the base keeps a retired segment's columns alive")
}
