package object

import (
	"errors"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chimera/internal/types"
)

// latchTableIdle fails unless no key holds a latch and every shard's idle
// list is within its cap and holds only latches with no holder, waiter
// or wake-up channel.
func latchTableIdle(t *testing.T, st *Store) {
	t.Helper()
	idle := 0
	for i := range st.latches.shards {
		sh := &st.latches.shards[i]
		sh.Lock()
		if n := len(sh.m); n > 0 {
			sh.Unlock()
			t.Fatalf("shard %d maps %d keys with no line open", i, n)
		}
		if len(sh.idle) > idleLatches {
			sh.Unlock()
			t.Fatalf("shard %d keeps %d idle latches, cap %d", i, len(sh.idle), idleLatches)
		}
		for _, la := range sh.idle {
			la.mu.Lock()
			dirty := la.writer != 0 || len(la.readers) != 0 || la.waiters != 0 || la.changed != nil
			la.mu.Unlock()
			if dirty {
				sh.Unlock()
				t.Fatalf("shard %d keeps an idle latch with a holder, waiter or channel", i)
			}
		}
		idle += len(sh.idle)
		sh.Unlock()
	}
	t.Logf("%d idle latches", idle)
}

// A latch released by every holder goes to its shard's idle list and
// serves the shard's next new key: the same latch, empty.
func TestLatchReusedAcrossKeys(t *testing.T) {
	st := newStockStore(t)
	a := st.BeginLine(tryOpts)
	oid, err := a.Create("stock", map[string]types.Value{"quantity": types.Int(1)})
	if err != nil {
		t.Fatal(err)
	}
	a.Commit()
	k1 := latchKey{oid: oid}
	b := st.BeginLine(tryOpts)
	if _, err := b.Fetch(oid); err != nil { // a shared hold
		t.Fatal(err)
	}
	sh := st.latches.shard(k1)
	sh.Lock()
	old := sh.m[k1]
	sh.Unlock()
	b.Commit()
	// Another key of the same shard.
	k2 := latchKey{oid: oid + 1}
	for st.latches.shard(k2) != sh {
		k2.oid++
	}
	c := st.BeginLine(tryOpts)
	la := st.latches.get(k2)
	if la != old {
		t.Fatal("the shard's next new key got a new latch, not the idle one")
	}
	if isNew, err := la.acquire(c.id, true, 0, &c.m); err != nil || !isNew {
		t.Fatalf("an idle latch refused a new key's first holder: %v", err)
	}
	st.latches.put(k2, la, true)
	la.release(c.id)
	st.latches.put(k2, la, false)
	c.Commit()
	latchTableIdle(t, st)
}

// A line parked on a latch wakes when the holder releases it, however
// many lines wait: every waiter blocks on the channel the first one made,
// and the release closes it.
func TestLatchWaitersWokenOnRelease(t *testing.T) {
	st := newStockStore(t)
	oid := seed(t, st, "stock", map[string]types.Value{"quantity": types.Int(1)})
	holder := st.BeginLine(blockingOpts)
	if err := holder.Modify(oid, "quantity", types.Int(2)); err != nil {
		t.Fatal(err)
	}
	const waiters = 3
	done := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			ln := st.BeginLine(LineOptions{Wait: -1})
			_, err := ln.Fetch(oid)
			ln.Commit()
			done <- err
		}()
	}
	k := latchKey{oid: oid}
	la := st.latches.get(k)
	for {
		la.mu.Lock()
		parked := la.waiters == 1+waiters && la.changed != nil
		la.mu.Unlock()
		if parked {
			break
		}
		time.Sleep(time.Millisecond)
	}
	st.latches.put(k, la, true)
	holder.Commit()
	for i := 0; i < waiters; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a waiter parked on a released latch was never woken")
		}
	}
	latchTableIdle(t, st)
}

// Four lines share, exclusively latch, upgrade and time out on
// overlapping keys — objects and the class extension — so latches go
// idle and come back under other keys while lines wait on them. Every
// value a committed line wrote last is in the store, and with every line
// ended the table maps no key and keeps at most its cap idle. A line
// that latches 2 048 objects leaves the same.
func TestLatchReuseUnderContention(t *testing.T) {
	st := newStockStore(t)
	const objects, lines, rounds = 12, 4, 200
	oids := make([]types.OID, objects)
	for i := range oids {
		oids[i] = seed(t, st, "stock", map[string]types.Value{"quantity": types.Int(0)})
	}
	var mu sync.Mutex
	committed := make(map[types.OID]int64)
	var commits, conflicts atomic.Int64
	var wg sync.WaitGroup
	for l := 0; l < lines; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			r := rand.New(rand.NewPCG(uint64(l), 7))
			for round := 0; round < rounds; round++ {
				ln := st.BeginLine(LineOptions{Wait: time.Duration(r.IntN(400)) * time.Microsecond})
				wrote := make(map[types.OID]int64)
				err := func() error {
					for op := 0; op < 3; op++ {
						// Hold what is latched a while, so lines overlap.
						time.Sleep(time.Duration(r.IntN(50)) * time.Microsecond)
						oid := oids[r.IntN(objects)]
						switch r.IntN(4) {
						case 0: // shared, then upgraded by the write
							o, err := ln.Fetch(oid)
							if err != nil {
								return err
							}
							q := o.MustGet("quantity").AsInt() + 1
							if err := ln.Modify(oid, "quantity", types.Int(q)); err != nil {
								return err
							}
							wrote[oid] = q
						case 1: // shared only
							if _, err := ln.Fetch(oid); err != nil {
								return err
							}
						case 2: // the extension, shared
							if _, err := ln.Select("stock"); err != nil {
								return err
							}
						default: // exclusive from the start
							q := int64(r.IntN(100))
							if err := ln.Modify(oid, "quantity", types.Int(q)); err != nil {
								return err
							}
							wrote[oid] = q
						}
					}
					return nil
				}()
				if err != nil {
					if !errors.Is(err, ErrConflict) {
						t.Error(err)
					}
					conflicts.Add(1)
					ln.Rollback()
					continue
				}
				// Record what this line wrote while it still holds its
				// latches: the record follows commit order.
				mu.Lock()
				for oid, q := range wrote {
					committed[oid] = q
				}
				ln.Commit()
				mu.Unlock()
				commits.Add(1)
			}
		}(l)
	}
	wg.Wait()
	t.Logf("%d lines committed, %d met a conflict", commits.Load(), conflicts.Load())
	if commits.Load() == 0 || conflicts.Load() == 0 {
		t.Fatal("the lines never overlapped: nothing shows a latch reused while contended")
	}
	for _, oid := range oids {
		o, _ := st.Get(oid)
		if got, want := o.MustGet("quantity").AsInt(), committed[oid]; got != want {
			t.Errorf("%v: quantity %d, the committed lines say %d", oid, got, want)
		}
	}
	latchTableIdle(t, st)

	big := st.BeginLine(blockingOpts)
	for i := 0; i < 2048; i++ {
		if _, err := big.Create("stock", map[string]types.Value{"quantity": types.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	big.Commit()
	latchTableIdle(t, st)
}
