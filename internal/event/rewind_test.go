package event

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"chimera/internal/clock"
	"chimera/internal/types"
)

// TestRewindMatchesNeverAppended: a base that appends blocks and rewinds
// some of them is, after every block, the base that only ever appended
// the accepted ones — the same export (EIDs, time stamps, ids, latest
// table, compaction state) and the same answers — across segment sizes
// that put a savepoint inside a segment, on its boundary and several
// segments back. Compaction runs at savepoints only, as the engine runs
// it.
func TestRewindMatchesNeverAppended(t *testing.T) {
	tys := []Type{Create("a"), Modify("a", "x"), External("s"), Delete("b")}
	for _, seg := range []int{1, 2, 3, 256} {
		for seed := int64(1); seed <= 20; seed++ {
			r := rand.New(rand.NewSource(seed))
			reg := new(Registry)
			b, ref := reg.NewBase(seg), reg.NewBase(seg)
			b.Savepoint()
			ts := clock.Time(0)
			type occ struct {
				ty  Type
				oid types.OID
				at  clock.Time
			}
			var block []occ
			for step := 0; step < 80; step++ {
				block = block[:0]
				for n := r.Intn(6); n > 0; n-- {
					ts++
					o := occ{tys[r.Intn(len(tys))], types.OID(1 + r.Intn(8)), ts}
					if _, err := b.Append(o.ty, o.oid, o.at); err != nil {
						t.Fatal(err)
					}
					block = append(block, o)
				}
				if r.Intn(3) == 0 {
					b.Rewind()
				} else {
					for _, o := range block {
						if _, err := ref.Append(o.ty, o.oid, o.at); err != nil {
							t.Fatal(err)
						}
					}
					if r.Intn(2) == 0 {
						wm := ts - clock.Time(r.Intn(10))
						b.CompactBelow(wm)
						ref.CompactBelow(wm)
					}
					b.Savepoint()
				}
				where := fmt.Sprintf("segment %d seed %d step %d", seg, seed, step)
				got, err := b.ExportState()
				if err != nil {
					t.Fatal(err)
				}
				want, err := ref.ExportState()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: export\n%+v\nwant\n%+v", where, got, want)
				}
				if b.String() != ref.String() || b.Len() != ref.Len() || b.Segments() != ref.Segments() {
					t.Fatalf("%s: base\n%s\nwant\n%s", where, b, ref)
				}
				since := clock.Time(r.Intn(int(ts) + 1))
				for _, ty := range tys {
					if g, w := b.LastOf(ty, since, ts), ref.LastOf(ty, since, ts); g != w {
						t.Fatalf("%s: LastOf(%v, %d, %d) = %d, want %d", where, ty, since, ts, g, w)
					}
				}
				if g, w := b.OIDs(since, ts), ref.OIDs(since, ts); !reflect.DeepEqual(g, w) {
					t.Fatalf("%s: OIDs = %v, want %v", where, g, w)
				}
			}
		}
	}
}
