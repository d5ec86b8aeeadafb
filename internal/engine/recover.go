package engine

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"chimera/internal/event"
	"chimera/internal/wire"
)

// RecoveryReport describes what Recover rebuilt and from how much log.
type RecoveryReport struct {
	// CheckpointSeq is the sequence number of the checkpoint recovery
	// started from (0 if the store held none).
	CheckpointSeq uint64
	// Segments is how many sealed segment frames were fetched, decoded
	// and index-rebuilt (in parallel, one worker per GOMAXPROCS).
	Segments int
	// Records and Blocks count the WAL records replayed; Events the
	// occurrences re-appended by block replay.
	Records int
	Blocks  int
	Events  int
	// TxnOpen reports that the crash interrupted an open transaction,
	// returned live by Recover.
	TxnOpen bool
	// TruncatedWAL is set when the log ended in a torn or corrupt frame:
	// replay stopped at the last good record (the expected shape of a
	// crash mid-write).
	TruncatedWAL bool
	// StaleWAL is set when the log's marker record named a different
	// checkpoint epoch (a crash landed between checkpoint publication
	// and log reset); the log was ignored.
	StaleWAL bool
	// SegmentLoad and Replay are the wall-clock durations of the two
	// recovery phases: parallel segment decode/rebuild, and sequential
	// WAL replay.
	SegmentLoad time.Duration
	Replay      time.Duration
}

// Recover rebuilds a database from the durable state in
// opts.Durability.Store: the checkpoint is loaded, its referenced
// segments are fetched, decoded and index-rebuilt in parallel across
// cores, and the WAL records since the checkpoint are replayed through
// the engine's own code paths. The result is the crashed engine at its
// last durable block boundary: same objects, same occurrences and OID
// ids, same marks, same triggered flags and activation instants, same
// watermark. Type ids are the recovering database's registry's: the
// checkpoint and the log name the type of every id they use, and
// recovery maps each onto the registry.
//
// If a transaction was open at the crash, Recover returns it live — the
// caller continues it or rolls it back; until it commits, readers see
// the committed state. Recovery ends by writing a fresh checkpoint, so
// the store is immediately re-openable and the replayed log is not
// replayed twice.
func Recover(opts Options) (*DB, *Txn, *RecoveryReport, error) {
	if err := opts.Validate(); err != nil {
		return nil, nil, nil, err
	}
	if !opts.Durability.enabled() {
		return nil, nil, nil, errors.New("engine: Recover needs Durability.Store")
	}
	store := opts.Durability.Store
	rep := &RecoveryReport{}
	db := newDB(opts)

	ckptBytes, err := store.Checkpoint()
	if err != nil {
		return nil, nil, nil, fmt.Errorf("engine: recover: checkpoint: %w", err)
	}
	var t *Txn
	var typeTab replayTypes
	if ckptBytes != nil {
		ck, err := decodeCheckpoint(ckptBytes)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("engine: recover: checkpoint: %w", err)
		}
		rep.CheckpointSeq = ck.Seq
		db.ckptSeq = ck.Seq
		db.txnGen = ck.TxnGen
		if t, err = db.applyCheckpoint(ck, rep); err != nil {
			return nil, nil, nil, err
		}
		if t != nil {
			// The ids of the checkpoint's types need no declaration in the
			// records after it, as the live engine's walTypes reset there.
			for tid, ty := range ck.Meta.Types {
				if err := typeTab.declare(int32(tid), ty); err != nil {
					return nil, nil, nil, err
				}
			}
		}
	}

	walBytes, err := store.WAL()
	if err != nil {
		return nil, nil, nil, fmt.Errorf("engine: recover: wal: %w", err)
	}
	replay0 := time.Now()
	if t, err = db.replayWAL(walBytes, t, &typeTab, rep); err != nil {
		return nil, nil, nil, err
	}
	rep.Replay = time.Since(replay0)
	if t != nil && db.multiSession() {
		// A multi-session log only ever receives whole runs (staged
		// privately, appended at commit), so a transaction still open at
		// the end of replay is a torn tail: its commit record never became
		// durable and the transaction never committed. Roll it back — the
		// wal is not attached yet, so the rollback leaves no record.
		t.rollback()
		t = nil
	}
	rep.TxnOpen = t != nil
	if t != nil {
		// Replay ended at a clean block boundary: the records of a refused
		// block never reached the log.
		t.savepoint()
	}

	// Publish the recovered store's committed state for the lock-free
	// read path, before the closing checkpoint reads its image from it:
	// an open transaction returned live keeps its uncommitted solo writes
	// out of the snapshot until its commit publishes its write set.
	if t != nil {
		db.publishAll(t.line)
	} else {
		db.publishAll(nil)
	}

	// Re-arm durability: attach the committer and write a fresh
	// checkpoint so the replayed log retires and the next crash recovers
	// from here.
	db.attachWAL()
	db.mu.Lock()
	err = db.checkpointNow(t)
	db.mu.Unlock()
	if err != nil {
		db.wal.close()
		return nil, nil, nil, fmt.Errorf("engine: recover: %w", err)
	}
	if t != nil {
		db.segsPersisted = t.base.SealedSegments()
	}
	return db, t, rep, nil
}

// applyCheckpoint loads the checkpoint into the fresh database,
// reopening the interrupted transaction if one was captured.
func (db *DB) applyCheckpoint(ck *checkpoint, rep *RecoveryReport) (*Txn, error) {
	if err := db.restore(&ck.Image); err != nil {
		return nil, fmt.Errorf("engine: recover: %w", err)
	}
	db.clock.AdvanceTo(ck.Now)
	if !ck.InTxn {
		return nil, nil
	}

	// Fetch and decode the referenced segments in parallel, then rebuild
	// the base's per-segment indexes in parallel (RestoreBase).
	load0 := time.Now()
	n := int(ck.SealedSegs - ck.FirstSeg)
	total := n
	if ck.Tail != nil {
		total++
	}
	frames := make([]event.SegmentFrame, total)
	workers := runtime.GOMAXPROCS(0)
	if n > 0 {
		if workers > n {
			workers = n
		}
		var wg sync.WaitGroup
		errs := make([]error, workers)
		next := make(chan int, n)
		for i := 0; i < n; i++ {
			next <- i
		}
		close(next)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := range next {
					data, err := db.dur().Store.Segment(segKey(db.txnGen, ck.FirstSeg+uint64(i)))
					if err == nil {
						frames[i], err = event.DecodeSegment(data)
					}
					if err != nil && errs[w] == nil {
						errs[w] = fmt.Errorf("engine: recover: segment %d: %w", ck.FirstSeg+uint64(i), err)
					}
				}
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}
	if ck.Tail != nil {
		frames[total-1] = *ck.Tail
	}
	base, err := event.RestoreBase(&db.types, ck.Meta, frames, 0)
	if err != nil {
		return nil, fmt.Errorf("engine: recover: %w", err)
	}
	rep.Segments = total
	rep.SegmentLoad = time.Since(load0)

	t, err := db.reopenTxn(base, ck)
	if err != nil {
		return nil, err
	}
	return t, nil
}

// reopenTxn reinstates the interrupted transaction around a restored
// base: a single-session line opened at the recorded start instant,
// then the base's bounds (MaxEvents, the retention window) and the
// marks.
func (db *DB) reopenTxn(base *event.Base, ck *checkpoint) (*Txn, error) {
	t := &Txn{db: db, lineWork: &lineWork{base: base}}
	db.mu.Lock()
	db.openLine(t, ck.Start)
	db.mu.Unlock()
	base.SetRetention(ck.Window)
	if err := t.view.RestoreMarks(ck.Marks); err != nil {
		return nil, fmt.Errorf("engine: recover: %w", err)
	}
	// The checkpointed undo log: without it a replayed rollback could
	// only reverse mutations made after the checkpoint.
	if err := t.line.RestoreUndo(ck.Undo); err != nil {
		return nil, fmt.Errorf("engine: recover: %w", err)
	}
	return t, nil
}

// replayTypes maps the type ids a transaction's log declares, by id, to
// the declared types (the zero Type while undeclared); replay appends by
// type, so each id lands on the recovering registry's id for its type,
// whatever numbering wrote the log (the live registry's, or a base's own
// in stores older than it). An event may only name a declared id, and an
// id may be declared once.
type replayTypes []event.Type

func (tt *replayTypes) declare(tid int32, ty event.Type) error {
	if err := ty.Valid(); err != nil || tid < 0 {
		return fmt.Errorf("%w: type id %d declared as %v", wire.ErrCorrupt, tid, ty)
	}
	if int(tid) >= len(*tt) {
		*tt = append(*tt, make([]event.Type, int(tid)+1-len(*tt))...)
	}
	if (*tt)[tid] != (event.Type{}) {
		return fmt.Errorf("%w: type id %d declared twice", wire.ErrCorrupt, tid)
	}
	(*tt)[tid] = ty
	return nil
}

func (tt replayTypes) lookup(tid int32) (event.Type, error) {
	if tid < 0 || int(tid) >= len(tt) || tt[tid] == (event.Type{}) {
		return event.Type{}, fmt.Errorf("%w: undeclared type id %d", wire.ErrCorrupt, tid)
	}
	return tt[tid], nil
}

// replayWAL applies the log's records to the recovering database. t is
// the transaction reopened from the checkpoint (nil if none), and
// typeTab holds the ids its checkpoint declared; the return value is
// the transaction open after the last good record. A torn or corrupt
// tail ends replay at the last complete record; a marker mismatch
// discards the whole log as stale.
func (db *DB) replayWAL(data []byte, t *Txn, typeTab *replayTypes, rep *RecoveryReport) (*Txn, error) {
	first := true
	for len(data) > 0 {
		payload, rest, err := wire.NextFrame(data)
		if err != nil {
			rep.TruncatedWAL = true
			break
		}
		if payload == nil {
			break
		}
		rec, err := decRecord(payload)
		if err != nil {
			rep.TruncatedWAL = true
			break
		}
		if first {
			if rec.Kind != recCkptMarker || rec.Seq != db.ckptSeq {
				// The log belongs to a different checkpoint epoch — the
				// crash landed between checkpoint publication and log reset.
				// Everything it records is already inside the checkpoint.
				rep.StaleWAL = true
				return t, nil
			}
			first = false
			rep.Records++
			data = rest
			continue
		}
		if t, err = db.replayRecord(rec, t, typeTab, rep); err != nil {
			return nil, err
		}
		rep.Records++
		data = rest
	}
	return t, nil
}

func (db *DB) replayRecord(rec walRecord, t *Txn, typeTab *replayTypes, rep *RecoveryReport) (*Txn, error) {
	switch rec.Kind {
	case recCkptMarker:
		return nil, fmt.Errorf("%w: marker record inside the log", wire.ErrCorrupt)
	case recDefineClass:
		var err error
		if rec.Parent == "" {
			err = db.DefineClass(rec.Name, rec.Attrs...)
		} else {
			err = db.DefineSubclass(rec.Name, rec.Parent, rec.Attrs...)
		}
		if err != nil {
			return nil, fmt.Errorf("engine: recover: class %q: %w", rec.Name, err)
		}
	case recDefineRule:
		if err := db.defineRuleSource(rec.Src); err != nil {
			return nil, fmt.Errorf("engine: recover: %w", err)
		}
	case recDropRule:
		if err := db.DropRule(rec.Name); err != nil {
			return nil, fmt.Errorf("engine: recover: drop %q: %w", rec.Name, err)
		}
	case recBegin:
		if t != nil {
			return nil, fmt.Errorf("%w: begin inside an open transaction", wire.ErrCorrupt)
		}
		db.clock.AdvanceTo(rec.Start)
		// The live Begin path reproduces the recorded one exactly: same
		// start instant, same fresh base, same generation bump.
		nt, err := db.begin(rec.Start)
		if err != nil {
			return nil, fmt.Errorf("engine: recover: begin: %w", err)
		}
		*typeTab = (*typeTab)[:0]
		return nt, nil
	case recBlock:
		if t == nil {
			return nil, fmt.Errorf("%w: block record outside a transaction", wire.ErrCorrupt)
		}
		if err := t.replayBlock(rec, typeTab, rep); err != nil {
			return nil, err
		}
		rep.Blocks++
	case recCommit:
		if t == nil {
			return nil, fmt.Errorf("%w: commit outside a transaction", wire.ErrCorrupt)
		}
		// The mechanical commit tail only: rule processing already
		// happened live, and its every effect is in the preceding block
		// records. (Per-commit snapshot publication is skipped — Recover
		// publishes the whole store once at the end.)
		t.line.Commit()
		t.finish()
		return nil, nil
	case recRollback:
		if t == nil {
			return nil, fmt.Errorf("%w: rollback outside a transaction", wire.ErrCorrupt)
		}
		t.line.Rollback()
		t.finish()
		return nil, nil
	default:
		return nil, fmt.Errorf("%w: unknown record kind %d", wire.ErrCorrupt, rec.Kind)
	}
	return t, nil
}

// replayBlock applies one block record: the op stream in execution
// order, then the block-boundary protocol — arrivals announced,
// recorded firings restored verbatim, compaction below the watermark
// lifted to the retention bound at the block's instant — exactly as
// flushBlock ran it live, minus the triggering determination (its
// outcome is in the record).
func (t *Txn) replayBlock(rec walRecord, typeTab *replayTypes, rep *RecoveryReport) error {
	db := t.db
	for r := wire.NewReader(rec.Ops); r.Len() > 0; {
		op := readWalOp(&r)
		if err := r.Err(); err != nil {
			return fmt.Errorf("engine: recover: block op: %w", err)
		}
		switch op.Kind {
		case opTypeDef:
			if err := typeTab.declare(op.TID, op.Type); err != nil {
				return err
			}
		case opEvent:
			ty, err := typeTab.lookup(op.TID)
			if err != nil {
				return err
			}
			db.clock.AdvanceTo(op.TS)
			tid, err := t.base.AppendTID(ty, op.OID, op.TS)
			if err != nil {
				return fmt.Errorf("engine: recover: append: %w", err)
			}
			t.pending = append(t.pending, tid)
			rep.Events++
		case opCreate:
			if t.multi {
				// Commit-ordered replay interleaves with the OID allocator
				// differently than the live sessions did (a later allocation
				// can commit first), so creations land at their logged
				// identities instead of being re-derived and verified.
				if err := t.line.CreateWithOID(op.OID, op.Class, op.Vals); err != nil {
					return fmt.Errorf("engine: recover: create: %w", err)
				}
				break
			}
			oid, err := t.line.Create(op.Class, op.Vals)
			if err != nil {
				return fmt.Errorf("engine: recover: create: %w", err)
			}
			if oid != op.OID {
				return fmt.Errorf("%w: replay allocated %v, log says %v", wire.ErrCorrupt, oid, op.OID)
			}
		case opModify:
			if err := t.line.Modify(op.OID, op.Attr, op.Val); err != nil {
				return fmt.Errorf("engine: recover: modify: %w", err)
			}
		case opDelete:
			if err := t.line.Delete(op.OID); err != nil {
				return fmt.Errorf("engine: recover: delete: %w", err)
			}
		case opSpecialize:
			if err := t.line.Specialize(op.OID, op.Class); err != nil {
				return fmt.Errorf("engine: recover: specialize: %w", err)
			}
		case opGeneralize:
			if err := t.line.Generalize(op.OID, op.Class); err != nil {
				return fmt.Errorf("engine: recover: generalize: %w", err)
			}
		case opConsider:
			db.clock.AdvanceTo(op.At)
			if _, err := t.view.Consider(op.Rule, op.At); err != nil {
				return fmt.Errorf("engine: recover: consider %q: %w", op.Rule, err)
			}
		case opRetention:
			t.base.SetRetention(op.Window)
		}
	}
	t.view.NotifyArrivals(t.pending)
	t.pending = t.pending[:0]
	for _, f := range rec.Fired {
		// Fired marks are per-line state: they go back into the line's
		// session, exactly where the live run recorded them.
		if err := t.view.RestoreTriggered(f.Rule, f.At); err != nil {
			return fmt.Errorf("engine: recover: %w", err)
		}
	}
	db.clock.AdvanceTo(rec.Now)
	if !db.opts.DisableCompaction {
		t.base.CompactBelow(t.base.RetentionBound(t.view.Watermark(), rec.Now))
	}
	return nil
}
