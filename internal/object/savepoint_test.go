package object

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"

	"chimera/internal/types"
)

// dumpStore renders the store: the allocator (unless withNext is
// false), every object, and every class extension.
func dumpStore(st *Store, withNext bool) string {
	var b strings.Builder
	if withNext {
		fmt.Fprintf(&b, "next=%d\n", st.NextOID())
	}
	for _, o := range st.Objects() {
		b.WriteString(o.String())
		b.WriteByte('\n')
	}
	for _, c := range []string{"stock", "order", "notFilledOrder"} {
		oids, _ := st.Select(c)
		fmt.Fprintf(&b, "%s=%v\n", c, oids)
	}
	return b.String()
}

// randomOp applies one random mutation to ln, chosen from the store's
// live objects, if the store holds one to apply it to.
func randomOp(t *testing.T, r *rand.Rand, st *Store, ln *Line) {
	t.Helper()
	pick := func(class string) (types.OID, bool) {
		oids, _ := st.Select(class)
		if len(oids) == 0 {
			return types.NilOID, false
		}
		return oids[r.IntN(len(oids))], true
	}
	var err error
	switch r.IntN(7) {
	case 0:
		_, err = ln.Create("stock", map[string]types.Value{"quantity": types.Int(int64(r.IntN(9)))})
	case 1:
		_, err = ln.Create("order", map[string]types.Value{"item": types.String_("x")})
	case 2:
		oid, ok := pick("stock")
		if !ok {
			return
		}
		attr := []string{"quantity", "maxquantity", "name"}[r.IntN(3)]
		v := types.Int(int64(r.IntN(9)))
		if attr == "name" {
			v = types.String_(fmt.Sprint(r.IntN(9)))
		}
		err = ln.Modify(oid, attr, v)
	case 3:
		oid, ok := pick("order")
		if !ok {
			return
		}
		err = ln.Delete(oid)
	case 4:
		oid, ok := pick("stock")
		if !ok {
			return
		}
		err = ln.Delete(oid)
	case 5:
		oids, _ := st.Select("order")
		for _, oid := range oids {
			if o, _ := st.Get(oid); o.Class().Name() == "order" {
				err = ln.Specialize(oid, "notFilledOrder")
				if err == nil {
					err = ln.Modify(oid, "missing", types.Int(int64(r.IntN(9))))
				}
				break
			}
		}
	case 6:
		oid, ok := pick("notFilledOrder")
		if !ok {
			return
		}
		err = ln.Generalize(oid, "order")
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestSavepointRollbackTo drives solo and latched lines through random
// blocks, accepting or refusing each: a refusal leaves the store exactly
// as the last savepoint found it (a latched line's allocator excepted:
// it consumes the refused OIDs), the log holds one image per object
// touched plus the open block's entries, and the final rollback restores
// the store the line began on.
func TestSavepointRollbackTo(t *testing.T) {
	for sd := uint64(1); sd <= 40; sd++ {
		for _, isSolo := range []bool{true, false} {
			r := rand.New(rand.NewPCG(sd, 7))
			st := newStockStore(t)
			for i := 0; i < 3; i++ {
				seed(t, st, "stock", map[string]types.Value{"quantity": types.Int(int64(i))})
				seed(t, st, "order", map[string]types.Value{"item": types.String_("o")})
			}
			start := dumpStore(st, isSolo)
			ln := st.BeginLine(LineOptions{Solo: isSolo})
			sp, atSP := ln.Savepoint(), start
			touched := map[types.OID]bool{}
			for block := 0; block < 30; block++ {
				for n := 1 + r.IntN(6); n > 0; n-- {
					randomOp(t, r, st, ln)
				}
				for _, e := range ln.undo[ln.folded:] {
					touched[e.oid] = true
				}
				if r.IntN(3) == 0 {
					ln.RollbackTo(sp)
					if got := dumpStore(st, isSolo); got != atSP {
						t.Fatalf("seed %d solo %v block %d: refused block left\n%swant\n%s", sd, isSolo, block, got, atSP)
					}
					continue
				}
				sp, atSP = ln.Savepoint(), dumpStore(st, isSolo)
				if sp != ln.folded || sp != len(ln.undo) || len(ln.index) != sp {
					t.Fatalf("seed %d: savepoint %d, folded %d, log %d, index %d", sd, sp, ln.folded, len(ln.undo), len(ln.index))
				}
			}
			if len(ln.undo) > len(touched) {
				t.Fatalf("seed %d: %d images for %d objects touched", sd, len(ln.undo), len(touched))
			}
			ln.Rollback()
			if got := dumpStore(st, isSolo); got != start {
				t.Fatalf("seed %d solo %v: rollback left\n%swant\n%s", sd, isSolo, got, start)
			}
		}
	}
}

// TestSavepointCreateDeleteKeepsAllocatorExact: an object created and
// deleted in one accepted block leaves an image that still gives its OID
// back at rollback, so a solo line's allocator ends where it began.
func TestSavepointCreateDeleteKeepsAllocatorExact(t *testing.T) {
	st := newStockStore(t)
	seed(t, st, "stock", map[string]types.Value{"quantity": types.Int(1)})
	next := st.NextOID()
	ln := solo(st)
	gone, err := ln.Create("stock", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ln.Delete(gone); err != nil {
		t.Fatal(err)
	}
	ln.Savepoint()
	if _, err := ln.Create("order", nil); err != nil {
		t.Fatal(err)
	}
	ln.Savepoint()
	ln.Rollback()
	if got := st.NextOID(); got != next {
		t.Fatalf("allocator at %d after rollback, want %d", got, next)
	}
	if st.Len() != 1 {
		t.Fatalf("%d objects after rollback, want the seeded one", st.Len())
	}
}
