package event

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"chimera/internal/clock"
	"chimera/internal/types"
)

// TestResetMatchesNewBase: a base that logged a transaction — short or
// of thousands of occurrences, compacted, rewound, with a retention
// window and a limit — and was Reset is a base Registry.NewBase returns:
// it exports and answers as one, and goes on to do so through the next
// transaction's appends, savepoints, rewinds and compactions. What Reset
// keeps is a first segment's storage at most: columns for firstRows
// rows, and keptIDs entries of each id table.
func TestResetMatchesNewBase(t *testing.T) {
	tys := []Type{Create("a"), Modify("a", "x"), External("s"), Delete("b")}
	kept := 0
	for _, seg := range []int{1, 3, 16, 256} {
		for seed := int64(1); seed <= 12; seed++ {
			r := rand.New(rand.NewSource(seed))
			reg := new(Registry)
			b := reg.NewBase(seg)
			// run logs one transaction of n occurrences into each base,
			// in blocks, some rewound, compacting at savepoints.
			run := func(n int, bases ...*Base) clock.Time {
				ts := clock.Time(0)
				for _, x := range bases {
					x.Savepoint()
				}
				for n > 0 {
					for k := 1 + r.Intn(6); k > 0 && n > 0; k-- {
						ts++
						n--
						ty, oid := tys[r.Intn(len(tys))], types.OID(1+r.Intn(3000))
						for _, x := range bases {
							if _, err := x.Append(ty, oid, ts); err != nil {
								t.Fatal(err)
							}
						}
					}
					rewind, wm := r.Intn(4) == 0, ts-clock.Time(r.Intn(40))
					for _, x := range bases {
						if rewind {
							x.Rewind()
							continue
						}
						x.CompactBelow(wm)
						x.Savepoint()
					}
				}
				return ts
			}
			for txn := 0; txn < 4; txn++ {
				n := 1 + r.Intn(20)
				if r.Intn(3) == 0 {
					n = 2048
				}
				b.SetLimits(1 << 20)
				b.SetRetention(clock.Time(r.Intn(50)))
				run(n, b)
				b.Reset()
				where := fmt.Sprintf("segment %d seed %d transaction %d", seg, seed, txn)
				if b.first != nil {
					kept++
				}
				if b.first != nil && cap(b.first.ts) > firstRows {
					t.Fatalf("%s: Reset kept columns for %d rows", where, cap(b.first.ts))
				}
				if len(b.spares) != 0 || cap(b.segs) > keptIDs || cap(b.oidsByID) > keptIDs || cap(b.sp.latest) > keptIDs {
					t.Fatalf("%s: Reset kept %d spares, room for %d segments, %d OIDs, %d savepoint entries",
						where, len(b.spares), cap(b.segs), cap(b.oidsByID), cap(b.sp.latest))
				}
				fresh := reg.NewBase(seg)
				same := func(step string, ts clock.Time) {
					t.Helper()
					got, err := b.ExportState()
					if err != nil {
						t.Fatal(err)
					}
					want, err := fresh.ExportState()
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s %s: export\n%+v\nwant\n%+v", where, step, got, want)
					}
					if b.String() != fresh.String() || b.Len() != fresh.Len() || b.Segments() != fresh.Segments() ||
						b.Floor() != fresh.Floor() || b.Retention() != fresh.Retention() || b.maxEvents != fresh.maxEvents {
						t.Fatalf("%s %s: base\n%s\nwant\n%s", where, step, b, fresh)
					}
					for _, ty := range tys {
						if g, w := b.LastOf(ty, clock.Never, ts), fresh.LastOf(ty, clock.Never, ts); g != w {
							t.Fatalf("%s %s: LastOf(%v) = %d, want %d", where, step, ty, g, w)
						}
					}
					if g, w := b.OIDs(clock.Never, ts), fresh.OIDs(clock.Never, ts); !reflect.DeepEqual(g, w) {
						t.Fatalf("%s %s: OIDs = %v, want %v", where, step, g, w)
					}
				}
				same("after Reset", 1)
				// No savepoint: a rewind returns to the empty base.
				for i := 1; i <= 3; i++ {
					for _, x := range []*Base{b, fresh} {
						if _, err := x.Append(tys[i], types.OID(i), clock.Time(i)); err != nil {
							t.Fatal(err)
						}
					}
				}
				b.Rewind()
				fresh.Rewind()
				same("after a rewind to the start", 1)
				ts := run(1+r.Intn(40), b, fresh)
				same("after the next transaction", ts)
				b.Reset()
			}
		}
	}
	if kept == 0 {
		t.Fatal("no Reset kept a first segment")
	}
}
