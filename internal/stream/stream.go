// Package stream is Chimera's continuous-ingestion mode: a long-lived
// stream session over one engine transaction line, fed through a
// bounded multi-producer arrival ring and swept in micro-batches.
//
// The paper evaluates composite events only at transaction boundaries;
// driving one transaction per event makes every arrival pay the full
// transaction setup — Event Base allocation, rule-horizon reset, memo
// Begin, commit publication, and (durable) a WAL commit record. A
// stream session amortizes all of it: arrivals coalesce into
// micro-batches (flushed on size or clock tick, whichever comes first),
// and each batch costs one block — one NotifyArrivals walk, one trigger
// sweep over the shared-plan memo groups, one compaction pass and one
// WAL record — instead of hundreds.
//
// Backpressure is explicit: when the arrival ring fills, Block makes
// producers wait and Drop sheds the event (counted, never silent). An
// Emit that returned nil is swept before Close returns.
// Sweeps are paced by an injectable clock.Source, so time-based
// behavior (partial-batch flush latency, idle sweeps that advance the
// logical clock when no events arrive) is deterministic under test.
// Window-bounded consumption (Options.Window) feeds the engine's
// low-watermark compactor a retention floor, keeping steady-state
// memory flat on unbounded inputs even when a dormant rule would pin
// the watermark. See DESIGN.md §15.
package stream

import (
	"cmp"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"chimera/internal/calculus"
	"chimera/internal/clock"
	"chimera/internal/engine"
	"chimera/internal/event"
	"chimera/internal/types"
)

// Policy selects what a producer experiences when the arrival queue is
// full.
type Policy int

const (
	// Block (the default) makes Emit wait until the queue has room —
	// lossless ingestion, producers run at the sweep's pace.
	Block Policy = iota
	// Drop sheds the arrival when the queue is full: Emit returns nil
	// immediately and the drop is counted (Stats.Dropped,
	// chimera_stream_dropped_total). For workloads where freshness
	// beats completeness.
	Drop
)

func (p Policy) String() string {
	switch p {
	case Block:
		return "block"
	case Drop:
		return "drop"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ErrClosed is returned by operations on a closed stream.
var ErrClosed = errors.New("stream: closed")

// Event is one arrival: a primitive event type and the object it
// affects (types.NilOID for object-less signals).
type Event struct {
	Type event.Type
	OID  types.OID
}

// BatchError reports a micro-batch whose sweep was refused — typically
// a poisoned batch tripping the per-batch budget (errors.Is
// ErrGasExhausted / ErrDeadlineExceeded), any other §14 limit, or an
// arrival whose event type the engine rejects. The offending events are attached so the producer side can quarantine or
// replay them. The refused batch rolls back to the savepoint the
// previous batch left (Txn.EndLine): its occurrences and its rule
// actions are undone, every batch accepted before it stays, and
// ingestion continues on the same line.
type BatchError struct {
	// Events is the offending micro-batch (empty for an idle sweep).
	Events []Event
	// Err is the underlying typed error.
	Err error
}

func (e *BatchError) Error() string {
	return fmt.Sprintf("stream: batch of %d refused: %v", len(e.Events), e.Err)
}

func (e *BatchError) Unwrap() error { return e.Err }

// Options configures a stream session.
type Options struct {
	// MaxBatch is the micro-batch size bound: a batch flushes as soon
	// as it holds this many arrivals. 0 means 256.
	MaxBatch int
	// FlushInterval is the clock-tick flush: a partial batch older than
	// this sweeps anyway, and an idle session runs a sweep (advancing
	// the logical clock) each interval so time-driven behavior does not
	// wait for arrivals. 0 means 5ms.
	FlushInterval time.Duration
	// QueueSize is the arrival ring's capacity. 0 means 4096.
	QueueSize int
	// Backpressure selects the full-queue policy (Block or Drop).
	Backpressure Policy
	// Window, when positive, bounds consumption to the last Window
	// logical ticks: older occurrences become compactable regardless of
	// the rule-set watermark (and correspondingly invisible to
	// operators). The streaming memory guarantee — see Txn.SetRetention.
	Window clock.Time
	// GasPerBatch, when positive, caps the evaluation gas one
	// micro-batch sweep may spend; a poisoned batch trips
	// ErrGasExhausted (reported via a BatchError with the offending
	// events) instead of stalling the pipeline. 0 means the database's
	// GasLimit (unlimited when that is 0 too): the session's line
	// outlives any one budget, so the database's limit bounds each batch.
	// The commit at Close runs unbudgeted.
	GasPerBatch int64
	// TimePerBatch, when positive, is the wall-clock analogue of
	// GasPerBatch. 0 means the database's TimeBudget.
	TimePerBatch time.Duration
	// Clock paces flush ticks and measures sweep lag. nil means
	// clock.Wall; tests inject clock.Manual for determinism.
	Clock clock.Source
	// OnBatchError, when set, is invoked (on the sweep goroutine) for
	// every refused batch, after it rolled back. The callback must not
	// call back into the stream.
	OnBatchError func(*BatchError)
}

func (o Options) withDefaults() Options {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 256
	}
	if o.FlushInterval <= 0 {
		o.FlushInterval = 5 * time.Millisecond
	}
	if o.QueueSize <= 0 {
		o.QueueSize = 4096
	}
	if o.Clock == nil {
		o.Clock = clock.Wall
	}
	return o
}

// Stats is a point-in-time snapshot of a stream session.
type Stats struct {
	// Enqueued counts arrivals accepted into the ring; Dropped counts
	// arrivals shed by the Drop policy.
	Enqueued uint64
	Dropped  uint64
	// Events counts occurrences ingested into the engine; Batches the
	// micro-batch sweeps that carried them; IdleSweeps the clock-driven
	// sweeps that ran without arrivals.
	Events     uint64
	Batches    uint64
	IdleSweeps uint64
	// Refused counts the batches refused for any reason (a budget, a
	// limit, an error of the sweep or the cascade, an event type the
	// engine rejects); BudgetKills is the part the per-batch budget
	// refused. Restarts is always 0: a refused batch rolls back to its
	// savepoint and the session keeps its line. It stays for the callers
	// that read it.
	Refused     uint64
	BudgetKills uint64
	Restarts    uint64
	// QueueDepth is the arrival ring's current occupancy.
	QueueDepth int
	// LiveEvents / LiveSegments / Floor describe the session's Event
	// Base window: what retention plus the low-watermark compactor
	// retained at the end of the last sweep.
	LiveEvents   int
	LiveSegments int
	Floor        clock.Time
}

// extent is the Event Base window a sweep ended with, the part of Stats
// only the sweep goroutine can read: the line's Base is its alone.
type extent struct {
	live, segments int
	floor          clock.Time
}

// Stream is a live stream session. Emit/Raise are safe for concurrent
// use by any number of producers; Flush, Close and Stats may be called
// from any goroutine. Arrivals wait in a ring of QueueSize events under
// one mutex: a producer appends under it, the sweep goroutine takes a
// whole batch per acquisition. Every Emit that returned nil is swept
// before Close returns; every later one returns ErrClosed.
type Stream struct {
	db   *engine.DB
	opts Options
	src  clock.Source
	m    streamMetrics

	// The arrival ring: n events from head, wrapping at len(ring).
	// shut refuses further arrivals; Close and the worker's exit set it.
	// room wakes Block producers when the sweep takes or the ring shuts.
	qmu      sync.Mutex
	room     sync.Cond
	ring     []Event
	head, n  int
	shut     bool
	enqueued uint64
	dropped  uint64

	ready    chan struct{} // one slot: the ring holds events to take
	flushReq chan chan error
	quit     chan struct{} // closed by Close: drain, commit
	done     chan struct{} // closed by the worker on exit

	closed atomic.Bool

	events      atomic.Uint64
	batches     atomic.Uint64
	idleSweeps  atomic.Uint64
	refused     atomic.Uint64
	budgetKills atomic.Uint64

	// txn is the session's line, the sweep goroutine's alone.
	txn *engine.Txn

	mu        sync.Mutex
	window    extent // the line's window after its last sweep
	lastErr   error  // most recent batch error (observability)
	commitErr error  // the outcome of the commit at Close
}

// Open starts a stream session over db: it opens the session's
// long-lived transaction line (subject to the database's session
// admission — ErrTxnOpen when no line is free) and starts the sweep
// goroutine. The session owns the line until Close, which drains the
// queue, runs a final sweep and commits.
//
// Durability: on a durable single-session database each accepted batch
// joins the log at its savepoint. On a durable multi-session database
// (MaxSessions > 1) the line stages every batch's records privately and
// hands the whole run to the log only at Close: Flush and DB.SyncWAL
// make none of the session's batches durable, a crash before Close
// recovers none of them, and the staged records held in memory grow
// with the session's age.
//
// Metrics: when db was opened with a metrics registry, the session
// reports the chimera_stream_* instrument set into it.
func Open(db *engine.DB, opts Options) (*Stream, error) {
	opts = opts.withDefaults()
	lim := db.Limits()
	opts.GasPerBatch = cmp.Or(opts.GasPerBatch, lim.GasLimit)
	opts.TimePerBatch = cmp.Or(opts.TimePerBatch, lim.TimeBudget)
	s := &Stream{
		db:       db,
		opts:     opts,
		src:      opts.Clock,
		m:        newStreamMetrics(db.Metrics()),
		ring:     make([]Event, opts.QueueSize),
		ready:    make(chan struct{}, 1),
		flushReq: make(chan chan error),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	s.room.L = &s.qmu
	txn, err := db.Begin()
	if err != nil {
		return nil, err
	}
	if opts.Window > 0 {
		if err := txn.SetRetention(opts.Window); err != nil {
			txn.Rollback() //nolint:errcheck // refusing the session anyway
			return nil, err
		}
	}
	s.txn = txn
	go s.run()
	return s, nil
}

// Emit enqueues one arrival. Under Block it waits for ring room (or
// the stream closing); under Drop a full ring sheds the event, counts
// it and returns nil. An Emit that returns nil is swept before Close
// returns; once Close has begun, Emit returns ErrClosed.
func (s *Stream) Emit(ty event.Type, oid types.OID) error {
	s.qmu.Lock()
	for s.n == len(s.ring) && !s.shut && s.opts.Backpressure == Block {
		s.room.Wait()
	}
	if s.shut {
		s.qmu.Unlock()
		return ErrClosed
	}
	if s.n == len(s.ring) {
		s.dropped++
		s.qmu.Unlock()
		s.m.dropped.Inc()
		return nil
	}
	i := s.head + s.n
	if i >= len(s.ring) {
		i -= len(s.ring)
	}
	s.ring[i] = Event{Type: ty, OID: oid}
	s.n++
	s.enqueued++
	depth := s.n
	s.qmu.Unlock()
	s.m.enqueued.Inc()
	s.m.queueDepth.Set(int64(depth))
	if depth == 1 {
		s.signal()
	}
	return nil
}

// signal leaves a token in ready unless one is already waiting.
func (s *Stream) signal() {
	select {
	case s.ready <- struct{}{}:
	default:
	}
}

// shutRing refuses further arrivals and wakes every producer waiting
// for room.
func (s *Stream) shutRing() {
	s.qmu.Lock()
	s.shut = true
	s.qmu.Unlock()
	s.room.Broadcast()
}

// take moves up to MaxBatch−len(batch) arrivals from the ring into
// batch under one lock acquisition, zeroing the slots it empties so the
// ring keeps no event alive, and wakes the producers waiting for room.
// When it leaves arrivals behind it re-arms ready, so the sweep loop
// comes back for them.
func (s *Stream) take(batch []Event) []Event {
	s.qmu.Lock()
	k := min(s.n, s.opts.MaxBatch-len(batch))
	took := k > 0
	for k > 0 {
		seg := s.ring[s.head:min(s.head+k, len(s.ring))]
		batch = append(batch, seg...)
		clear(seg)
		k -= len(seg)
		s.n -= len(seg)
		if s.head += len(seg); s.head == len(s.ring) {
			s.head = 0
		}
	}
	left := s.n
	s.qmu.Unlock()
	if took {
		s.room.Broadcast()
	}
	s.m.queueDepth.Set(int64(left))
	if left > 0 {
		s.signal()
	}
	return batch
}

// Raise enqueues an external signal (an object-less arrival), the
// streaming form of Txn.Raise.
func (s *Stream) Raise(signal string) error {
	if signal == "" {
		return errors.New("stream: empty signal name")
	}
	return s.Emit(event.External(signal), types.NilOID)
}

// Flush synchronously drains everything enqueued before the call and
// sweeps it (in MaxBatch-sized batches), returning the first batch
// error hit (that batch rolled back, and the pipeline continues).
// Tests and differential harnesses use it as a barrier.
func (s *Stream) Flush() error {
	if s.closed.Load() {
		if err := s.closeErr(); err != nil {
			return err
		}
		return ErrClosed
	}
	req := make(chan error, 1)
	select {
	case s.flushReq <- req:
	case <-s.quit:
		return ErrClosed
	case <-s.done:
		return s.closeErr()
	}
	select {
	case err := <-req:
		return err
	case <-s.done:
		return s.closeErr()
	}
}

// Close stops the session: the ring stops accepting arrivals (waiting
// producers return ErrClosed), every arrival it accepted is swept, and
// the session's transaction commits (publishing every rule-action
// mutation). Close returns the commit error. Close is idempotent.
func (s *Stream) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		<-s.done
		return s.closeErr()
	}
	s.shutRing()
	close(s.quit)
	<-s.done
	return s.closeErr()
}

// Err returns the most recent batch error (nil when every batch so far
// swept cleanly). The pipeline keeps running after batch errors; Err is
// the observability hook for producers that do not install OnBatchError.
func (s *Stream) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastErr
}

func (s *Stream) closeErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.commitErr
}

// Stats snapshots the session counters and the live window state.
func (s *Stream) Stats() Stats {
	st := Stats{
		Events:      s.events.Load(),
		Batches:     s.batches.Load(),
		IdleSweeps:  s.idleSweeps.Load(),
		Refused:     s.refused.Load(),
		BudgetKills: s.budgetKills.Load(),
	}
	s.qmu.Lock()
	st.Enqueued, st.Dropped, st.QueueDepth = s.enqueued, s.dropped, s.n
	s.qmu.Unlock()
	s.mu.Lock()
	w := s.window
	s.mu.Unlock()
	st.LiveEvents, st.LiveSegments, st.Floor = w.live, w.segments, w.floor
	return st
}

// run is the sweep goroutine: it owns the session's transaction line
// and is the only goroutine touching it.
func (s *Stream) run() {
	defer func() {
		s.shutRing()
		close(s.done)
	}()
	ticker := s.src.NewTicker(s.opts.FlushInterval)
	defer ticker.Stop()
	batch := make([]Event, 0, s.opts.MaxBatch)
	var batchStart time.Time

	for {
		select {
		case <-s.ready:
			if len(batch) == 0 {
				batchStart = s.src.Now()
			}
			batch = s.take(batch)
			if len(batch) >= s.opts.MaxBatch {
				s.sweep(batch, batchStart, false) //nolint:errcheck // reported through Err and OnBatchError
				batch = batch[:0]
			}

		case <-ticker.C():
			// Clock-driven flush: a partial batch sweeps now (bounding
			// its latency at one interval); an idle session sweeps with
			// an advanced logical clock so time-based behavior runs
			// without arrivals.
			s.sweep(batch, batchStart, len(batch) == 0) //nolint:errcheck // reported through Err and OnBatchError
			batch = batch[:0]

		case req := <-s.flushReq:
			var err error
			batch, err = s.drainAndSweep(batch, batchStart)
			req <- err

		case <-s.quit:
			s.drainAndSweep(batch, batchStart) //nolint:errcheck // reported through Err and OnBatchError
			err := s.txn.Commit()
			s.txn = nil
			s.mu.Lock()
			s.window, s.commitErr = extent{}, err
			s.mu.Unlock()
			return
		}
	}
}

// drainAndSweep empties the arrival ring into MaxBatch-sized sweeps.
// It stops at the first batch the ring could not fill, so it terminates
// against racing producers as soon as the ring is momentarily empty. It
// returns the recycled batch buffer and the first batch error hit.
func (s *Stream) drainAndSweep(batch []Event, batchStart time.Time) ([]Event, error) {
	var firstErr error
	for {
		if len(batch) == 0 {
			batchStart = s.src.Now()
		}
		batch = s.take(batch)
		if len(batch) == 0 {
			return batch, firstErr
		}
		full := len(batch) >= s.opts.MaxBatch
		err := s.sweep(batch, batchStart, false)
		if firstErr == nil {
			firstErr = err
		}
		batch = batch[:0]
		if !full {
			return batch, firstErr
		}
	}
}

// sweep runs one micro-batch block: ingest the batch's occurrences,
// close the block (one trigger sweep, one compaction pass, one WAL
// record) and run immediate rules to quiescence. idle sweeps advance
// the logical clock first, standing in for "time passed" on a quiet
// stream. It returns the batch error, nil on a clean sweep.
func (s *Stream) sweep(batch []Event, batchStart time.Time, idle bool) error {
	if idle {
		s.db.Clock().Tick()
	}
	txn := s.txn

	// The cascade guard bounds each batch's sweep, not the session's
	// lifetime total — a long-lived line would otherwise trip
	// MaxRuleExecutions after enough healthy batches. The line is open
	// until Close, so neither call can fail.
	txn.ResetRuleGuard() //nolint:errcheck
	if s.opts.GasPerBatch > 0 || s.opts.TimePerBatch > 0 {
		var deadline time.Time
		if s.opts.TimePerBatch > 0 {
			deadline = time.Now().Add(s.opts.TimePerBatch)
		}
		txn.SetBudget(calculus.NewBudget(s.opts.GasPerBatch, deadline)) //nolint:errcheck
		// The batch's budget must not charge (or kill) later batches, nor
		// the commit at Close.
		defer txn.SetBudget(nil) //nolint:errcheck
	}

	// An error an Emit hits refuses the block as EndLine's does: either
	// way the line is back at the previous batch's savepoint.
	err := func() error {
		for _, ev := range batch {
			if err := txn.Emit(ev.Type, ev.OID); err != nil {
				return err
			}
		}
		return txn.EndLine()
	}()
	if err != nil {
		return s.batchFailed(batch, err)
	}

	if idle {
		s.idleSweeps.Add(1)
		s.m.idleSweeps.Inc()
	} else {
		n := uint64(len(batch))
		s.events.Add(n)
		s.batches.Add(1)
		s.m.events.Add(int64(n))
		s.m.batches.Inc()
		s.m.batchEvents.Observe(int64(n))
		s.m.sweepLag.Observe(s.src.Since(batchStart).Nanoseconds())
	}
	s.observe()
	return nil
}

// batchFailed records a refused batch, which the line has already rolled
// back to its savepoint, and reports it through OnBatchError.
func (s *Stream) batchFailed(batch []Event, err error) *BatchError {
	be := &BatchError{Events: append([]Event(nil), batch...), Err: err}
	s.refused.Add(1)
	s.m.refused.Inc()
	if errors.Is(err, calculus.ErrGasExhausted) || errors.Is(err, calculus.ErrDeadlineExceeded) {
		s.budgetKills.Add(1)
		s.m.budgetKills.Inc()
	}
	s.mu.Lock()
	s.lastErr = be
	s.mu.Unlock()
	s.observe()
	if s.opts.OnBatchError != nil {
		s.opts.OnBatchError(be)
	}
	return be
}

// observe publishes the line's Event Base window as the last sweep left
// it (Stats, the live gauges).
func (s *Stream) observe() {
	base := s.txn.Base()
	w := extent{base.Len(), base.Segments(), base.Floor()}
	s.mu.Lock()
	s.window = w
	s.mu.Unlock()
	s.m.liveEvents.Set(int64(w.live))
	s.m.liveSegments.Set(int64(w.segments))
}
