package engine

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"chimera/internal/calculus"
	"chimera/internal/clock"
	"chimera/internal/event"
	"chimera/internal/types"
)

// baseBytes encodes what a checkpoint would keep of b: its meta and
// every live segment frame.
func baseBytes(t *testing.T, b *event.Base) []byte {
	t.Helper()
	st, err := b.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	out := event.AppendBaseMeta(nil, st.Meta)
	for _, f := range st.Sealed {
		out = event.EncodeSegment(out, f)
	}
	if st.Tail != nil {
		out = event.EncodeSegment(out, *st.Tail)
	}
	return out
}

// sameBase fails unless got answers as want: the same occurrences with
// the same EIDs, objects, latest time stamps and export bytes.
func sameBase(t *testing.T, what string, got, want *event.Base, now clock.Time) {
	t.Helper()
	if got.Len() != want.Len() || got.Segments() != want.Segments() ||
		got.Retired() != want.Retired() || got.RetiredSegments() != want.RetiredSegments() ||
		got.Floor() != want.Floor() || got.Retention() != want.Retention() {
		t.Fatalf("%s: len %d segs %d retired %d/%d floor %d retention %d, a fresh base %d %d %d/%d %d %d", what,
			got.Len(), got.Segments(), got.Retired(), got.RetiredSegments(), got.Floor(), got.Retention(),
			want.Len(), want.Segments(), want.Retired(), want.RetiredSegments(), want.Floor(), want.Retention())
	}
	if g, w := got.All(), want.All(); !slices.Equal(g, w) {
		t.Fatalf("%s: occurrences %v, a fresh base %v", what, g, w)
	}
	if g, w := got.OIDs(clock.Never, now), want.OIDs(clock.Never, now); !slices.Equal(g, w) {
		t.Fatalf("%s: objects %v, a fresh base %v", what, g, w)
	}
	st, err := got.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	for _, ty := range st.Meta.Types {
		if g, w := got.LastOf(ty, clock.Never, now), want.LastOf(ty, clock.Never, now); g != w {
			t.Fatalf("%s: latest %v at t%d, a fresh base t%d", what, ty, g, w)
		}
	}
	if g, w := baseBytes(t, got), baseBytes(t, want); !bytes.Equal(g, w) {
		t.Fatalf("%s: the base exports %d bytes unlike a fresh base's %d", what, len(g), len(w))
	}
}

// idleTrimmed fails unless every idle line's work is empty and within
// its trimmed size.
func idleTrimmed(t *testing.T, db *DB) {
	t.Helper()
	db.mu.Lock()
	defer db.mu.Unlock()
	if len(db.idle) == 0 {
		t.Fatal("no line's work is idle")
	}
	for _, w := range db.idle {
		if w.base.Len() != 0 || w.base.Segments() != 0 {
			t.Fatalf("an idle base holds %d occurrences in %d segments", w.base.Len(), w.base.Segments())
		}
		if w.cctx.Base != nil || w.cctx.Store != nil {
			t.Fatal("an idle condition context still reads its line")
		}
		sizes := []struct {
			name      string
			len, cap  int
			max       int
			entrySize int
		}{
			{"pending", len(w.pending), cap(w.pending), keptScratch, 4},
			{"wrec", len(w.wrec), cap(w.wrec), keptScratch, 1},
			{"recBuf", len(w.recBuf), cap(w.recBuf), keptScratch, 1},
			{"markBuf", len(w.markBuf), cap(w.markBuf), keptScratch, 24},
			{"walTypes", len(w.walTypes), cap(w.walTypes), keptScratch, 1},
			{"runBuf", len(w.runBuf), cap(w.runBuf), keptScratch, 1},
			{"walDecl", len(w.walDecl), cap(w.walDecl), keptScratch, 4},
		}
		for _, s := range sizes {
			if s.len != 0 || s.cap*s.entrySize > s.max {
				t.Fatalf("idle %s has %d entries and room for %d, want none and at most %d bytes",
					s.name, s.len, s.cap, s.max)
			}
		}
		if got := w.line.TouchedOIDs(); got != nil {
			t.Fatalf("an idle object line still touches %v", got)
		}
	}
}

// A line writes into the work of the line before it. Whatever that line
// did — roll back a log of several segments, refuse a block, die of a
// gas kill, seed thousands of objects — the next one starts from a Base
// that answers, and exports, as a fresh one, and the work waiting in the
// pool is empty and trimmed.
func TestRecycledLineStartsFresh(t *testing.T) {
	stocks := func(tx *Txn, n int) error {
		for i := 0; i < n; i++ {
			if _, err := tx.Create("stock", map[string]types.Value{
				"quantity": types.Int(int64(i)), "maxquantity": types.Int(1 << 20)}); err != nil {
				return err
			}
		}
		return nil
	}
	cases := []struct {
		name string
		opts func(*Options)
		run  func(*testing.T, *DB)
	}{
		{"rollback over several segments", func(o *Options) { o.SegmentSize = 4 }, func(t *testing.T, db *DB) {
			tx, err := db.Begin()
			if err != nil {
				t.Fatal(err)
			}
			for b := 0; b < 5; b++ {
				if err := stocks(tx, 7); err != nil {
					t.Fatal(err)
				}
				if err := tx.EndLine(); err != nil {
					t.Fatal(err)
				}
			}
			if tx.Base().Segments()+tx.Base().RetiredSegments() < 4 {
				t.Fatalf("the line logged %d segments, want several", tx.Base().Segments())
			}
			if err := tx.Rollback(); err != nil {
				t.Fatal(err)
			}
		}},
		{"refused block", func(o *Options) { o.SegmentSize = 4; o.MaxEvents = 12 }, func(t *testing.T, db *DB) {
			tx, err := db.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if err := stocks(tx, 6); err != nil {
				t.Fatal(err)
			}
			if err := tx.EndLine(); err != nil {
				t.Fatal(err)
			}
			if err := stocks(tx, 20); !errors.Is(err, ErrEventLimit) {
				t.Fatalf("a block past MaxEvents: %v, want ErrEventLimit", err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}},
		{"gas kill", func(o *Options) { o.GasLimit = 1 }, func(t *testing.T, db *DB) {
			tx, err := db.Begin()
			if err != nil {
				t.Fatal(err)
			}
			err = stocks(tx, 64)
			if err == nil {
				err = tx.EndLine()
			}
			if !errors.Is(err, ErrGasExhausted) {
				t.Fatalf("a block past GasLimit: %v, want ErrGasExhausted", err)
			}
			if err := tx.Rollback(); err != nil {
				t.Fatal(err)
			}
		}},
		{"2048-create seeding", nil, func(t *testing.T, db *DB) {
			if err := db.Run(func(tx *Txn) error { return stocks(tx, 2048) }); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, c := range cases {
		for _, sessions := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/sessions=%d", c.name, sessions), func(t *testing.T) {
				db := stockDB(t)
				if c.opts != nil {
					c.opts(&db.opts)
				}
				db.opts.MaxSessions = sessions
				defineCheckStockQty(t, db)
				c.run(t, db)
				idleTrimmed(t, db)

				tx, err := db.Begin()
				if err != nil {
					t.Fatal(err)
				}
				fresh := db.types.NewBase(db.opts.SegmentSize)
				sameBase(t, "at Begin", tx.Base(), fresh, db.clock.Now())
				// The same appends, to the recycled base through the line and
				// to the fresh one directly, leave the two alike.
				for i := 0; i < 3; i++ {
					if err := tx.Raise("tick"); err != nil {
						t.Fatal(err)
					}
				}
				oids, err := db.Store().Select("stock")
				if err != nil {
					t.Fatal(err)
				}
				if len(oids) > 5 {
					oids = oids[:5]
				}
				for _, oid := range oids {
					if err := tx.Modify(oid, "quantity", types.Int(7)); err != nil {
						t.Fatal(err)
					}
				}
				for _, o := range tx.Base().All() {
					if _, err := fresh.Append(o.Type, o.OID, o.Timestamp); err != nil {
						t.Fatal(err)
					}
				}
				sameBase(t, "after appends", tx.Base(), fresh, db.clock.Now())
				if err := tx.Rollback(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// An ended Txn is a stale handle: every method returns ErrNoTransaction
// (Get finds nothing, Base is nil), also while a later line writes into
// the work it wrote into, which it never reaches.
func TestEndedTxnReachesNoLaterLine(t *testing.T) {
	for _, sessions := range []int{1, 2} {
		for _, end := range []string{"commit", "rollback"} {
			t.Run(fmt.Sprintf("%s/sessions=%d", end, sessions), func(t *testing.T) {
				db := stockDB(t)
				db.opts.MaxSessions = sessions
				var oid types.OID
				if err := db.Run(func(tx *Txn) error {
					var err error
					oid, err = tx.Create("stock", map[string]types.Value{"quantity": types.Int(1)})
					return err
				}); err != nil {
					t.Fatal(err)
				}
				stale, err := db.Begin()
				if err != nil {
					t.Fatal(err)
				}
				if err := stale.Modify(oid, "quantity", types.Int(2)); err != nil {
					t.Fatal(err)
				}
				if end == "commit" {
					err = stale.Commit()
				} else {
					err = stale.Rollback()
				}
				if err != nil {
					t.Fatal(err)
				}
				next, err := db.Begin()
				if err != nil {
					t.Fatal(err)
				}
				if err := next.Raise("mine"); err != nil {
					t.Fatal(err)
				}
				calls := map[string]func() error{
					"Create": func() error {
						_, err := stale.Create("stock", map[string]types.Value{"quantity": types.Int(3)})
						return err
					},
					"Modify":         func() error { return stale.Modify(oid, "quantity", types.Int(3)) },
					"Delete":         func() error { return stale.Delete(oid) },
					"Specialize":     func() error { return stale.Specialize(oid, "stock") },
					"Generalize":     func() error { return stale.Generalize(oid, "stock") },
					"Raise":          func() error { return stale.Raise("stale") },
					"Emit":           func() error { return stale.Emit(event.External("stale"), types.NilOID) },
					"SetRetention":   func() error { return stale.SetRetention(8) },
					"SetBudget":      func() error { return stale.SetBudget(calculus.NewBudget(1, time.Time{})) },
					"ResetRuleGuard": func() error { return stale.ResetRuleGuard() },
					"Select": func() error {
						_, err := stale.Select("stock")
						return err
					},
					"Marks": func() error {
						_, err := stale.Marks()
						return err
					},
					"EndLine":  stale.EndLine,
					"Commit":   stale.Commit,
					"Rollback": stale.Rollback,
				}
				for name, call := range calls {
					if err := call(); !errors.Is(err, ErrNoTransaction) {
						t.Errorf("%s on an ended Txn: %v, want ErrNoTransaction", name, err)
					}
				}
				if o, ok := stale.Get(oid); ok || o != nil {
					t.Error("Get on an ended Txn found an object")
				}
				if b := stale.Base(); b != nil {
					t.Error("an ended Txn still exposes an Event Base")
				}
				if n := next.Base().Len(); n != 1 {
					t.Errorf("the next line's base holds %d occurrences, want its own one", n)
				}
				if err := next.Commit(); err != nil {
					t.Fatal(err)
				}
				o, _ := db.Store().Get(oid)
				want := int64(1)
				if end == "commit" {
					want = 2
				}
				if q, err := o.Get("quantity"); err != nil || q != types.Int(want) {
					t.Errorf("quantity %v after the stale calls, want %d", q, want)
				}
			})
		}
	}
}
