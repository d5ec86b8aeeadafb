package engine

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"chimera/internal/clock"
)

// This file is the engine half of the durability design (DESIGN.md
// §13): the SegmentStore contract the storage backends implement, the
// durability options, and the group-commit WAL writer — a background
// committer that drains per-block record batches to the store so the
// hot ingest path never performs I/O.

// SegmentStore is the pluggable persistence backend of the durable
// Event Base. It stores three kinds of state, all opaque bytes to the
// backend:
//
//   - the write-ahead log, an append-only byte stream of CRC-framed
//     records covering everything since the last checkpoint;
//   - sealed segments, immutable frames keyed by a uint64 id
//     (transaction generation in the high 32 bits, segment ordinal in
//     the low 32 — ids from one generation never collide with another's);
//   - the checkpoint, a single record replacing its predecessor
//     atomically.
//
// The interface lives in the engine (storage imports engine for
// snapshot capture, so the dependency must point this way); the memory
// and file implementations live in internal/storage. Implementations
// must make PutCheckpoint atomic (a crash mid-put leaves the old
// checkpoint readable) and AppendWAL ordered (bytes are readable back
// in append order, possibly cut short by a crash).
type SegmentStore interface {
	// AppendWAL appends p to the log. Durability is only guaranteed
	// after a SyncWAL.
	AppendWAL(p []byte) error
	// SyncWAL makes every appended byte durable (fsync or equivalent).
	SyncWAL() error
	// WAL returns the full log contents (recovery reads it once).
	WAL() ([]byte, error)
	// ResetWAL truncates the log to empty.
	ResetWAL() error
	// PutSegment stores one sealed segment frame under id.
	PutSegment(id uint64, p []byte) error
	// Segment returns the frame stored under id.
	Segment(id uint64) ([]byte, error)
	// DropSegmentsBelow removes every segment with id < bound.
	DropSegmentsBelow(bound uint64) error
	// PutCheckpoint atomically replaces the checkpoint record.
	PutCheckpoint(p []byte) error
	// Checkpoint returns the current checkpoint record, or (nil, nil)
	// when none has ever been written.
	Checkpoint() ([]byte, error)
	// Close releases the backend's resources.
	Close() error
}

// FsyncPolicy selects when the group committer makes the WAL durable.
type FsyncPolicy int

const (
	// FsyncInterval (the default) syncs at most once per SyncInterval:
	// a crash can lose up to one interval of committed work, and the
	// steady-state ingest path pays only the in-memory record append.
	FsyncInterval FsyncPolicy = iota
	// FsyncPerCommit syncs before Commit returns: no committed
	// transaction is ever lost, at one fsync per commit.
	FsyncPerCommit
	// FsyncOff never syncs (the OS flushes when it pleases). Crash
	// durability degrades to whatever reached the disk; the WAL's CRC
	// framing still guarantees recovery stops at the last complete
	// record.
	FsyncOff
)

func (p FsyncPolicy) String() string {
	switch p {
	case FsyncInterval:
		return "interval"
	case FsyncPerCommit:
		return "per-commit"
	case FsyncOff:
		return "off"
	}
	return fmt.Sprintf("fsync(%d)", int(p))
}

// DurabilityOptions configures the durable Event Base. Durability is
// enabled by setting Store; the zero value is the classic in-memory
// engine.
type DurabilityOptions struct {
	// Store is the persistence backend (storage.NewMemStore or
	// storage.NewFileStore). nil disables durability.
	Store SegmentStore
	// Fsync selects the group committer's sync policy.
	Fsync FsyncPolicy
	// SyncInterval bounds how long FsyncInterval lets synced state lag;
	// 0 means 5ms.
	SyncInterval time.Duration
	// CheckpointEvery, when positive, writes a checkpoint automatically
	// after that many logged blocks, truncating the WAL (and, inside a
	// single-session transaction, persisting sealed segments). A
	// multi-session commit counts its run's blocks and checkpoints right
	// after the run joins the log, under the commit latch. 0 checkpoints
	// only on explicit DB.Checkpoint calls (and at Open and the end of
	// recovery).
	CheckpointEvery int
	// Clock is the wall-clock source pacing the group committer's drain
	// tick and interval syncs. nil means clock.Wall; tests inject a
	// clock.Manual to drive the fsync interval deterministically.
	Clock clock.Source
}

func (d DurabilityOptions) enabled() bool { return d.Store != nil }

func (d DurabilityOptions) syncInterval() time.Duration {
	if d.SyncInterval <= 0 {
		return 5 * time.Millisecond
	}
	return d.SyncInterval
}

func (d DurabilityOptions) clock() clock.Source {
	if d.Clock == nil {
		return clock.Wall
	}
	return d.Clock
}

// ErrNeedsRecovery is returned by Open when the configured store
// already holds a checkpoint or WAL records: opening it as a fresh
// database would silently discard durable state. Use Recover.
var ErrNeedsRecovery = errors.New("engine: store holds durable state; use Recover")

// ErrClosed is returned by operations on a closed database.
var ErrClosed = errors.New("engine: database closed")

// ErrWALFailed wraps the first I/O error the group committer hit. Once
// set, the writer is sticky-failed: every later append, sync, commit
// and checkpoint reports it (with the underlying cause attached for
// errors.Is), because a log with a hole in it must not accept records
// after the hole.
var ErrWALFailed = errors.New("engine: wal write failed")

// segKey builds a segment id from the transaction generation and the
// segment's global ordinal within that transaction.
func segKey(gen uint32, ord uint64) uint64 { return uint64(gen)<<32 | (ord & 0xffffffff) }

// walWriter is the group committer. Producers (the transaction's hot
// path, DDL outside transactions) append framed records to an
// in-memory batch under mu and return immediately; the committer
// goroutine drains the batch to the store — and decides syncing per
// the policy — off the hot path. Commit-ordering waiters block on cond
// until their record count is durable.
type walWriter struct {
	store  SegmentStore
	policy FsyncPolicy
	ival   time.Duration
	src    clock.Source
	m      *engineMetrics

	mu       sync.Mutex
	cond     sync.Cond // on mu; broadcast when synced, err, closed, writing or paused change
	buf      []byte    // pending framed records
	spare    []byte    // recycled drained buffer
	enqueued uint64    // records appended to buf, ever
	synced   uint64    // records covered by the last SyncWAL
	syncReq  uint64    // highest record count a waiter needs durable
	writing  bool      // committer is inside a store call (outside mu)
	paused   bool      // checkpoint barrier: committer must not start I/O
	err      error     // sticky failure
	closed   bool

	wake chan struct{} // committer doorbell (capacity 1)
	done chan struct{} // committer exited
}

func newWALWriter(store SegmentStore, policy FsyncPolicy, ival time.Duration, src clock.Source, m *engineMetrics) *walWriter {
	w := &walWriter{
		store:  store,
		policy: policy,
		ival:   ival,
		src:    src,
		m:      m,
		wake:   make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
	w.cond.L = &w.mu
	go w.run()
	return w
}

// ring rings the committer doorbell (non-blocking; one pending ring is
// enough).
func (w *walWriter) ring() {
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// walWakeBytes is the buffered-batch size past which appendRun rings
// the committer immediately. Below it, records wait for the drain tick
// (or a waitDurable/close/checkpoint, all of which ring): waking the
// committer goroutine per record costs more in scheduling than the
// write it performs, and on small hosts the wakeups preempt the ingest
// path itself.
const walWakeBytes = 64 << 10

// keptWALBytes bounds the capacity of a drained batch the committer
// keeps for reuse. Batches drain at about walWakeBytes, plus what
// arrives during one write and sync; a larger one, a bulk run, is left
// to the collector rather than held for the writer's life.
const keptWALBytes = 4 * walWakeBytes

// appendRun enqueues nrecs already-framed records as one contiguous
// append: a transaction's staged run (begin, blocks, commit), a
// single-session line's savepoint or rollback record, or one DDL
// record. It never blocks on I/O: the bytes are copied into the
// in-memory batch, and the committer is rung only when the batch has
// grown past walWakeBytes or a waiter already needs durability —
// everything else drains on the committer's tick. Multi-session commits
// call it under the engine's commit latch, so runs enter the log whole
// and in commit order; the committer then makes concurrently-arriving
// runs durable together (one fsync covers every run enqueued before it
// — group commit across sessions). The returned count is the run's last
// record's sequence number, usable with waitDurable.
func (w *walWriter) appendRun(framed []byte, nrecs int) (uint64, error) {
	w.mu.Lock()
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return 0, err
	}
	if w.closed {
		w.mu.Unlock()
		return 0, ErrClosed
	}
	w.buf = append(w.buf, framed...)
	w.enqueued += uint64(nrecs)
	n := w.enqueued
	wake := len(w.buf) >= walWakeBytes || w.syncReq > w.synced
	w.mu.Unlock()
	if wake {
		w.ring()
	}
	w.m.walRecords.Add(int64(nrecs))
	return n, nil
}

// syncAll blocks until every record enqueued so far is durable.
func (w *walWriter) syncAll() error {
	w.mu.Lock()
	n := w.enqueued
	w.mu.Unlock()
	return w.waitDurable(n)
}

// waitDurable blocks until record count n is synced (or the writer
// fails/closes). FsyncPerCommit commits call it; syncAll (DB.SyncWAL)
// uses it regardless of policy.
func (w *walWriter) waitDurable(n uint64) error {
	w.mu.Lock()
	if n > w.syncReq {
		w.syncReq = n
	}
	w.ring()
	for w.synced < n && w.err == nil && !w.closed {
		w.cond.Wait()
	}
	err := w.err
	if err == nil && w.synced < n {
		err = ErrClosed
	}
	w.mu.Unlock()
	return err
}

// Err returns the sticky failure, if any.
func (w *walWriter) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// run is the committer loop.
func (w *walWriter) run() {
	defer close(w.done)
	var tick <-chan time.Time
	if w.policy != FsyncPerCommit {
		// The drain tick: under FsyncInterval it also drives the
		// periodic sync; under FsyncOff it only moves small batches to
		// the store (append rings eagerly past walWakeBytes).
		// FsyncPerCommit needs neither — every commit rings via
		// waitDurable. The ticker comes from the injectable clock
		// source, so tests can advance it manually.
		ticker := w.src.NewTicker(w.ival)
		defer ticker.Stop()
		tick = ticker.C()
	}
	lastSync := w.src.Now()
	for {
		select {
		case <-w.wake:
		case <-tick:
		}
		w.mu.Lock()
		for w.paused && !w.closed {
			w.cond.Wait()
		}
		if w.closed && len(w.buf) == 0 && w.syncReq <= w.synced {
			w.mu.Unlock()
			return
		}
		count := w.enqueued
		needSync := w.syncReq > w.synced
		if w.policy == FsyncInterval && count > w.synced && w.src.Since(lastSync) >= w.ival {
			needSync = true
		}
		closing := w.closed
		if len(w.buf) == 0 && !needSync && !closing {
			// An empty wake-up leaves both buffers where they are: a
			// swap here would drop one to the collector.
			w.mu.Unlock()
			continue
		}
		batch := w.buf
		w.buf = w.spare[:0]
		w.spare = nil
		w.writing = true
		w.mu.Unlock()

		var err error
		if len(batch) > 0 {
			err = w.store.AppendWAL(batch)
			w.m.walFlushes.Inc()
			w.m.walBytes.Add(int64(len(batch)))
		}
		syncedTo := w.synced
		if err == nil && (needSync || closing) {
			if err = w.store.SyncWAL(); err == nil {
				syncedTo = count
				lastSync = w.src.Now()
				w.m.walFsyncs.Inc()
			}
		}

		w.mu.Lock()
		w.writing = false
		if err != nil {
			if w.err == nil {
				// Join keeps both the ErrWALFailed sentinel and the
				// backend's cause reachable through errors.Is.
				w.err = fmt.Errorf("engine: wal: %w", errors.Join(ErrWALFailed, err))
			}
		} else {
			if syncedTo > w.synced {
				w.synced = syncedTo
			}
			if cap(batch) <= keptWALBytes {
				w.spare = batch[:0]
			}
		}
		w.cond.Broadcast()
		if closing && len(w.buf) == 0 {
			w.mu.Unlock()
			return
		}
		w.mu.Unlock()
	}
}

// barrier quiesces the committer and runs fn with exclusive store
// access: the committer is parked and no record I/O is in flight. The
// pending batch is dropped — a checkpoint captures state newer than
// every buffered record, so the records are dead the moment the
// checkpoint is durable. fn runs the checkpoint's store operations
// directly.
func (w *walWriter) barrier(fn func() error) error {
	w.mu.Lock()
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return err
	}
	if w.closed {
		w.mu.Unlock()
		return ErrClosed
	}
	w.paused = true
	for w.writing {
		w.cond.Wait()
	}
	if w.err != nil {
		err := w.err
		w.paused = false
		w.cond.Broadcast()
		w.mu.Unlock()
		return err
	}
	w.buf = w.buf[:0]
	w.synced = w.enqueued
	if w.syncReq > w.synced {
		w.syncReq = w.synced
	}
	err := fn()
	if err != nil && w.err == nil {
		w.err = fmt.Errorf("engine: checkpoint: %w", errors.Join(ErrWALFailed, err))
	}
	w.paused = false
	w.cond.Broadcast()
	w.mu.Unlock()
	w.ring()
	return err
}

// close flushes and syncs whatever is buffered, stops the committer and
// closes the store.
func (w *walWriter) close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		<-w.done
		return w.err
	}
	w.closed = true
	w.syncReq = w.enqueued
	w.cond.Broadcast()
	w.mu.Unlock()
	w.ring()
	<-w.done
	err := w.Err()
	if cerr := w.store.Close(); err == nil && cerr != nil {
		err = cerr
	}
	return err
}
