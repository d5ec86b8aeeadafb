package object

import (
	"errors"
	"sync"
	"time"

	"chimera/internal/metrics"
	"chimera/internal/types"
)

// ErrConflict is returned by a Line mutation or read when another open
// transaction line holds a conflicting latch and the configured wait
// budget runs out before it is released — or, immediately, when a
// shared→exclusive upgrade finds other readers (the upgrade-deadlock
// shape; see acquire). The caller should roll its line back and retry;
// per-OID latching means the conflict names a real data overlap, not a
// false sharing artifact.
var ErrConflict = errors.New("object: conflicting latch held by another transaction line")

// latchKey names one latchable resource: an object (OID set, class
// empty) or a class extension (class set, OID nil). Attribute writes
// latch the OID; extension changes (create, delete, migrate) latch the
// object's class and every superclass up to the root, so a reader
// holding any ancestor's shared latch conflicts with them.
type latchKey struct {
	oid   types.OID
	class string
}

// latch is one reader/writer latch with transaction-line owners. Unlike
// sync.RWMutex it is reentrant for its holder (a line re-latching its
// own resource proceeds), supports shared→exclusive upgrade when the
// upgrader is the sole reader, and bounds waiting: a conflicting
// acquisition blocks until the holder releases or the wait budget runs
// out (ErrConflict). Strict two-phase latching — every latch is held to
// the end of the line — makes waits equivalent to commit-order
// serialization and deadlocks are broken by the timeout.
type latch struct {
	mu      sync.Mutex
	writer  uint64 // line id holding exclusive; 0 = none
	readers map[uint64]struct{}
	waiters int
	// changed is closed and replaced whenever a holder releases, waking
	// every waiter to re-check admission.
	changed chan struct{}
}

// latchShards stripes the latch table; the per-shard mutex only guards
// the key→latch map, never a wait.
const latchShards = 64

type latchTable struct {
	shards [latchShards]struct {
		sync.Mutex
		m map[latchKey]*latch
	}
}

func newLatchTable() *latchTable {
	t := &latchTable{}
	for i := range t.shards {
		t.shards[i].m = make(map[latchKey]*latch)
	}
	return t
}

func (t *latchTable) shard(k latchKey) *struct {
	sync.Mutex
	m map[latchKey]*latch
} {
	h := uint64(k.oid) * 0x9e3779b97f4a7c15
	for i := 0; i < len(k.class); i++ {
		h = (h ^ uint64(k.class[i])) * 0x100000001b3
	}
	return &t.shards[h%latchShards]
}

// get returns the latch for k, creating it on first use and pinning it
// against concurrent cleanup by bumping waiters while the caller
// negotiates admission.
func (t *latchTable) get(k latchKey) *latch {
	sh := t.shard(k)
	sh.Lock()
	la := sh.m[k]
	if la == nil {
		la = &latch{readers: make(map[uint64]struct{}), changed: make(chan struct{})}
		sh.m[k] = la
	}
	la.mu.Lock()
	la.waiters++
	la.mu.Unlock()
	sh.Unlock()
	return la
}

// put drops the pin taken by get and garbage-collects the latch when it
// has no holders and no other waiters (long-lived stores latch millions
// of distinct OIDs over time; idle latches must not accumulate).
func (t *latchTable) put(k latchKey, la *latch) {
	sh := t.shard(k)
	sh.Lock()
	la.mu.Lock()
	la.waiters--
	dead := la.waiters == 0 && la.writer == 0 && len(la.readers) == 0
	la.mu.Unlock()
	if dead && sh.m[k] == la {
		delete(sh.m, k)
	}
	sh.Unlock()
}

// free garbage-collects a latch after a holder released it, if nothing
// holds or waits on it anymore.
func (t *latchTable) free(k latchKey, la *latch) {
	sh := t.shard(k)
	sh.Lock()
	la.mu.Lock()
	dead := la.waiters == 0 && la.writer == 0 && len(la.readers) == 0
	la.mu.Unlock()
	if dead && sh.m[k] == la {
		delete(sh.m, k)
	}
	sh.Unlock()
}

// LatchMetrics instruments the latch manager: the time lines spend
// blocked on conflicting latches and the conflicts that timed out. The
// zero value disables reporting.
type LatchMetrics struct {
	WaitNs    *metrics.Histogram
	Conflicts *metrics.Counter
}

// NewLatchMetrics resolves the latch instruments from a registry; nil
// yields the disabled set.
func NewLatchMetrics(r *metrics.Registry) LatchMetrics {
	if r == nil {
		return LatchMetrics{}
	}
	return LatchMetrics{
		WaitNs:    r.Histogram("chimera_object_latch_wait_ns", 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9),
		Conflicts: r.Counter("chimera_object_latch_conflicts_total"),
	}
}

// acquire blocks until the latch admits line id in the requested mode or
// the wait budget runs out. Admission rules:
//
//   - exclusive: no writer (or id already writes) and no reader other
//     than id — the sole-reader case is the shared→exclusive upgrade;
//     an upgrade that finds other readers fails immediately with
//     ErrConflict regardless of the wait budget (two upgraders would
//     otherwise wait on each other until timeout, every time);
//   - shared: no writer other than id.
//
// wait < 0 blocks indefinitely; wait == 0 is a try-latch. Returns
// whether the caller is now a *new* holder in that mode (false when it
// already held it — the release bookkeeping stays one entry per latch).
func (la *latch) acquire(id uint64, exclusive bool, wait time.Duration, m *LatchMetrics) (bool, error) {
	var deadline time.Time
	if wait > 0 {
		deadline = time.Now().Add(wait)
	}
	var timer *time.Timer
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	var waited time.Duration
	for {
		la.mu.Lock()
		if exclusive {
			if la.writer == id {
				la.mu.Unlock()
				la.noteWait(waited, m)
				return false, nil
			}
			_, selfReads := la.readers[id]
			others := len(la.readers)
			if selfReads {
				others--
			}
			if la.writer == 0 && others == 0 {
				if selfReads {
					delete(la.readers, id) // upgrade consumes the shared hold
				}
				la.writer = id
				la.mu.Unlock()
				la.noteWait(waited, m)
				return !selfReads, nil
			}
			if selfReads {
				// Upgrade while others read is the deadlock shape: two
				// upgraders each hold shared and wait for the other to
				// drain, which strict two-phase latching makes impossible.
				// Waiting out the budget would only delay the inevitable
				// (and synchronized timeouts livelock lockstep retriers),
				// so fail the upgrade immediately; the caller rolls back —
				// releasing its shared hold — and retries.
				la.mu.Unlock()
				if m.Conflicts != nil {
					m.Conflicts.Inc()
				}
				la.noteWait(waited, m)
				return false, ErrConflict
			}
		} else {
			if la.writer == id {
				la.mu.Unlock()
				la.noteWait(waited, m)
				return false, nil
			}
			if la.writer == 0 {
				if _, dup := la.readers[id]; dup {
					la.mu.Unlock()
					la.noteWait(waited, m)
					return false, nil
				}
				la.readers[id] = struct{}{}
				la.mu.Unlock()
				la.noteWait(waited, m)
				return true, nil
			}
		}
		ch := la.changed
		la.mu.Unlock()
		if wait == 0 {
			if m.Conflicts != nil {
				m.Conflicts.Inc()
			}
			return false, ErrConflict
		}
		start := time.Now()
		if wait < 0 {
			<-ch
			waited += time.Since(start)
			continue
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			if m.Conflicts != nil {
				m.Conflicts.Inc()
			}
			la.noteWait(waited, m)
			return false, ErrConflict
		}
		if timer == nil {
			timer = time.NewTimer(remaining)
		} else {
			timer.Reset(remaining)
		}
		select {
		case <-ch:
			if !timer.Stop() {
				<-timer.C
			}
			waited += time.Since(start)
		case <-timer.C:
			if m.Conflicts != nil {
				m.Conflicts.Inc()
			}
			la.noteWait(waited+time.Since(start), m)
			return false, ErrConflict
		}
	}
}

func (la *latch) noteWait(d time.Duration, m *LatchMetrics) {
	if d > 0 && m.WaitNs != nil {
		m.WaitNs.Observe(d.Nanoseconds())
	}
}

// release drops line id's hold (exclusive or shared) and wakes waiters.
func (la *latch) release(id uint64) {
	la.mu.Lock()
	if la.writer == id {
		la.writer = 0
	} else {
		delete(la.readers, id)
	}
	close(la.changed)
	la.changed = make(chan struct{})
	la.mu.Unlock()
}
