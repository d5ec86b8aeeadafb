package engine

import (
	"errors"
	"fmt"

	"chimera/internal/clock"
	"chimera/internal/event"
	"chimera/internal/object"
	"chimera/internal/rules"
	"chimera/internal/schema"
	"chimera/internal/types"
	"chimera/internal/wire"
)

// A checkpoint is the engine's durable root: the committed
// schema/object/rule state, the clock, and — when a transaction is open
// — the live window's meta (interner tables, compaction counters), the
// per-rule marks (consideration horizons, triggered flags), the tail
// segment, and references to the sealed segments persisted alongside.
// Together with the WAL records that follow it, a checkpoint
// reconstructs the engine bit-identically.
//
// The generation protocol makes the checkpoint/WAL transition
// crash-safe at every instant: (1) persist the sealed segments the
// checkpoint will reference, (2) PutCheckpoint (atomic), (3) ResetWAL,
// (4) append the marker record carrying the checkpoint's sequence
// number, (5) drop obsolete segments. A crash between (2) and (3)
// leaves a WAL whose marker names the previous sequence — recovery sees
// the mismatch and ignores the stale log; a crash before (2) leaves the
// previous checkpoint's world fully intact (the freshly persisted
// segments are unreferenced garbage until the next checkpoint drops
// them).
const ckptVersion = 1

// checkpoint is the decoded form.
type checkpoint struct {
	Seq     uint64
	TxnGen  uint32
	Now     clock.Time
	NextOID types.OID
	InTxn   bool

	Classes []ckptClass
	Rules   []string
	Objects []ckptObject

	// Open-transaction section (InTxn only).
	Start      clock.Time
	Marks      []rules.Mark
	Undo       []object.UndoRec
	FirstSeg   uint64 // ordinal of the first live sealed segment
	SealedSegs uint64 // one past the last live sealed segment's ordinal
	Meta       event.BaseMeta
	Tail       *event.SegmentFrame
}

type ckptClass struct {
	Name   string
	Parent string
	Attrs  []schema.Attribute
}

type ckptObject struct {
	OID   types.OID
	Class string
	Vals  map[string]types.Value
}

// encodeCheckpoint captures the database into checkpoint bytes. t is
// the open transaction (nil when idle); st its exported base state
// (only read when t is non-nil). Called at a block boundary under the
// WAL barrier.
func (db *DB) encodeCheckpoint(seq uint64, t *Txn, st event.BaseState) ([]byte, error) {
	// Header frame.
	hdr := make([]byte, 0, 32)
	hdr = append(hdr, ckptVersion)
	hdr = wire.AppendUvarint(hdr, seq)
	hdr = wire.AppendUvarint(hdr, uint64(db.txnGen))
	hdr = wire.AppendVarint(hdr, int64(db.clock.Now()))
	hdr = wire.AppendVarint(hdr, int64(db.store.NextOID()))
	if t != nil {
		hdr = append(hdr, 1)
	} else {
		hdr = append(hdr, 0)
	}
	out := wire.AppendFrame(nil, hdr)

	// Catalog frame: classes parents-first, each with the attributes it
	// declares, then rule sources in priority order.
	classes := db.schema.Ordered()
	catp := wire.AppendUvarint(nil, uint64(len(classes)))
	for _, c := range classes {
		parent := ""
		if p := c.Parent(); p != nil {
			parent = p.Name()
		}
		catp = wire.AppendString(catp, c.Name())
		catp = wire.AppendString(catp, parent)
		catp = wire.AppendUvarint(catp, uint64(len(c.Own())))
		for _, a := range c.Own() {
			catp = wire.AppendString(catp, a.Name)
			catp = wire.AppendString(catp, a.Kind.String())
		}
	}
	ruleNames := db.support.Rules()
	catp = wire.AppendUvarint(catp, uint64(len(ruleNames)))
	for _, name := range ruleNames {
		rst, _ := db.support.Rule(name)
		catp = wire.AppendString(catp, RenderRule(rst.Def, db.bodies[name]))
	}
	out = wire.AppendFrame(out, catp)

	// Objects frame, ascending OID.
	objs := db.store.Objects()
	objp := wire.AppendUvarint(nil, uint64(len(objs)))
	for _, o := range objs {
		vals := o.Snapshot()
		objp = wire.AppendVarint(objp, int64(o.OID()))
		objp = wire.AppendString(objp, o.Class().Name())
		objp = wire.AppendUvarint(objp, uint64(len(vals)))
		var err error
		for k, v := range vals {
			objp = wire.AppendString(objp, k)
			if objp, err = wire.AppendValue(objp, v); err != nil {
				return nil, err
			}
		}
	}
	out = wire.AppendFrame(out, objp)

	if t == nil {
		return out, nil
	}

	// Open-transaction frame: start instant, marks, segment references.
	marks := t.view.Marks()
	txp := wire.AppendVarint(nil, int64(t.view.Start()))
	txp = wire.AppendUvarint(txp, uint64(len(marks)))
	for _, m := range marks {
		txp = wire.AppendString(txp, m.Rule)
		txp = wire.AppendVarint(txp, int64(m.LastConsideration))
		if m.Triggered {
			txp = append(txp, 1)
		} else {
			txp = append(txp, 0)
		}
		txp = wire.AppendVarint(txp, int64(m.TriggeredAt))
	}
	// The open transaction's undo log: a WAL-replayed rollback must be
	// able to reverse mutations older than this checkpoint, whose WAL
	// records are about to be truncated.
	undo := t.line.ExportUndo()
	txp = wire.AppendUvarint(txp, uint64(len(undo)))
	for _, u := range undo {
		txp = append(txp, u.Kind)
		txp = wire.AppendVarint(txp, int64(u.OID))
		txp = wire.AppendString(txp, u.Class)
		txp = wire.AppendString(txp, u.Attr)
		if u.Had {
			txp = append(txp, 1)
		} else {
			txp = append(txp, 0)
		}
		var err error
		if txp, err = wire.AppendValue(txp, u.Val); err != nil {
			return nil, err
		}
		if u.Vals == nil {
			txp = append(txp, 0)
		} else {
			txp = append(txp, 1)
			txp = wire.AppendUvarint(txp, uint64(len(u.Vals)))
			for k, v := range u.Vals {
				txp = wire.AppendString(txp, k)
				if txp, err = wire.AppendValue(txp, v); err != nil {
					return nil, err
				}
			}
		}
		if u.Reuse {
			txp = append(txp, 1)
		} else {
			txp = append(txp, 0)
		}
	}
	first := uint64(st.Meta.RetiredSegs)
	txp = wire.AppendUvarint(txp, first)
	txp = wire.AppendUvarint(txp, first+uint64(len(st.Sealed)))
	if st.Tail != nil {
		txp = append(txp, 1)
	} else {
		txp = append(txp, 0)
	}
	out = wire.AppendFrame(out, txp)
	out = event.AppendBaseMeta(out, st.Meta)
	if st.Tail != nil {
		out = event.EncodeSegment(out, *st.Tail)
	}
	return out, nil
}

// decodeCheckpoint parses checkpoint bytes.
func decodeCheckpoint(data []byte) (*checkpoint, error) {
	hdr, rest, err := wire.NextFrame(data)
	if err != nil || hdr == nil {
		if err == nil {
			err = fmt.Errorf("%w: missing checkpoint header", wire.ErrCorrupt)
		}
		return nil, err
	}
	if len(hdr) < 1 || hdr[0] != ckptVersion {
		return nil, fmt.Errorf("%w: unknown checkpoint version", wire.ErrCorrupt)
	}
	ck := &checkpoint{}
	p := hdr[1:]
	var v int64
	var n uint64
	if ck.Seq, p, err = wire.Uvarint(p); err != nil {
		return nil, err
	}
	if n, p, err = wire.Uvarint(p); err != nil {
		return nil, err
	}
	ck.TxnGen = uint32(n)
	if v, p, err = wire.Varint(p); err != nil {
		return nil, err
	}
	ck.Now = clock.Time(v)
	if v, p, err = wire.Varint(p); err != nil {
		return nil, err
	}
	ck.NextOID = types.OID(v)
	if len(p) != 1 {
		return nil, fmt.Errorf("%w: checkpoint header length", wire.ErrCorrupt)
	}
	ck.InTxn = p[0] != 0

	// Catalog frame.
	catp, rest, err := wire.NextFrame(rest)
	if err != nil || catp == nil {
		if err == nil {
			err = fmt.Errorf("%w: missing checkpoint catalog", wire.ErrCorrupt)
		}
		return nil, err
	}
	p = catp
	if n, p, err = wire.Uvarint(p); err != nil {
		return nil, err
	}
	ck.Classes = make([]ckptClass, n)
	for i := range ck.Classes {
		c := &ck.Classes[i]
		if c.Name, p, err = wire.String(p); err != nil {
			return nil, err
		}
		if c.Parent, p, err = wire.String(p); err != nil {
			return nil, err
		}
		var na uint64
		if na, p, err = wire.Uvarint(p); err != nil {
			return nil, err
		}
		c.Attrs = make([]schema.Attribute, na)
		for j := range c.Attrs {
			if c.Attrs[j].Name, p, err = wire.String(p); err != nil {
				return nil, err
			}
			var ks string
			if ks, p, err = wire.String(p); err != nil {
				return nil, err
			}
			if c.Attrs[j].Kind, err = types.ParseKind(ks); err != nil {
				return nil, fmt.Errorf("%w: %v", wire.ErrCorrupt, err)
			}
		}
	}
	if n, p, err = wire.Uvarint(p); err != nil {
		return nil, err
	}
	ck.Rules = make([]string, n)
	for i := range ck.Rules {
		if ck.Rules[i], p, err = wire.String(p); err != nil {
			return nil, err
		}
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("%w: trailing bytes in checkpoint catalog", wire.ErrCorrupt)
	}

	// Objects frame.
	objp, rest, err := wire.NextFrame(rest)
	if err != nil || objp == nil {
		if err == nil {
			err = fmt.Errorf("%w: missing checkpoint objects", wire.ErrCorrupt)
		}
		return nil, err
	}
	p = objp
	if n, p, err = wire.Uvarint(p); err != nil {
		return nil, err
	}
	ck.Objects = make([]ckptObject, n)
	for i := range ck.Objects {
		o := &ck.Objects[i]
		if v, p, err = wire.Varint(p); err != nil {
			return nil, err
		}
		o.OID = types.OID(v)
		if o.Class, p, err = wire.String(p); err != nil {
			return nil, err
		}
		var nv uint64
		if nv, p, err = wire.Uvarint(p); err != nil {
			return nil, err
		}
		o.Vals = make(map[string]types.Value, nv)
		for j := uint64(0); j < nv; j++ {
			var k string
			if k, p, err = wire.String(p); err != nil {
				return nil, err
			}
			if o.Vals[k], p, err = wire.Value(p); err != nil {
				return nil, err
			}
		}
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("%w: trailing bytes in checkpoint objects", wire.ErrCorrupt)
	}

	if !ck.InTxn {
		if len(rest) != 0 {
			return nil, fmt.Errorf("%w: trailing bytes after idle checkpoint", wire.ErrCorrupt)
		}
		return ck, nil
	}

	// Open-transaction frame.
	txp, rest, err := wire.NextFrame(rest)
	if err != nil || txp == nil {
		if err == nil {
			err = fmt.Errorf("%w: missing checkpoint txn section", wire.ErrCorrupt)
		}
		return nil, err
	}
	p = txp
	if v, p, err = wire.Varint(p); err != nil {
		return nil, err
	}
	ck.Start = clock.Time(v)
	if n, p, err = wire.Uvarint(p); err != nil {
		return nil, err
	}
	ck.Marks = make([]rules.Mark, n)
	for i := range ck.Marks {
		m := &ck.Marks[i]
		if m.Rule, p, err = wire.String(p); err != nil {
			return nil, err
		}
		if v, p, err = wire.Varint(p); err != nil {
			return nil, err
		}
		m.LastConsideration = clock.Time(v)
		if len(p) == 0 {
			return nil, wire.ErrCorrupt
		}
		m.Triggered = p[0] != 0
		p = p[1:]
		if v, p, err = wire.Varint(p); err != nil {
			return nil, err
		}
		m.TriggeredAt = clock.Time(v)
	}
	if n, p, err = wire.Uvarint(p); err != nil {
		return nil, err
	}
	ck.Undo = make([]object.UndoRec, n)
	for i := range ck.Undo {
		u := &ck.Undo[i]
		if len(p) == 0 {
			return nil, wire.ErrCorrupt
		}
		u.Kind = p[0]
		p = p[1:]
		if v, p, err = wire.Varint(p); err != nil {
			return nil, err
		}
		u.OID = types.OID(v)
		if u.Class, p, err = wire.String(p); err != nil {
			return nil, err
		}
		if u.Attr, p, err = wire.String(p); err != nil {
			return nil, err
		}
		if len(p) == 0 {
			return nil, wire.ErrCorrupt
		}
		u.Had = p[0] != 0
		p = p[1:]
		if u.Val, p, err = wire.Value(p); err != nil {
			return nil, err
		}
		if len(p) == 0 {
			return nil, wire.ErrCorrupt
		}
		hasVals := p[0] != 0
		p = p[1:]
		if hasVals {
			var nv uint64
			if nv, p, err = wire.Uvarint(p); err != nil {
				return nil, err
			}
			u.Vals = make(map[string]types.Value, nv)
			for j := uint64(0); j < nv; j++ {
				var k string
				if k, p, err = wire.String(p); err != nil {
					return nil, err
				}
				if u.Vals[k], p, err = wire.Value(p); err != nil {
					return nil, err
				}
			}
		}
		if len(p) == 0 {
			return nil, wire.ErrCorrupt
		}
		u.Reuse = p[0] != 0
		p = p[1:]
	}
	if ck.FirstSeg, p, err = wire.Uvarint(p); err != nil {
		return nil, err
	}
	if ck.SealedSegs, p, err = wire.Uvarint(p); err != nil {
		return nil, err
	}
	if len(p) != 1 {
		return nil, fmt.Errorf("%w: checkpoint txn section length", wire.ErrCorrupt)
	}
	hasTail := p[0] != 0

	var metaRest []byte
	if ck.Meta, metaRest, err = event.DecodeBaseMeta(rest); err != nil {
		return nil, err
	}
	rest = metaRest
	if hasTail {
		// The tail travels as the final frame; DecodeSegment wants exactly
		// one frame, which is what remains.
		tail, err := event.DecodeSegment(rest)
		if err != nil {
			return nil, err
		}
		ck.Tail = &tail
		rest = nil
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: trailing bytes after checkpoint", wire.ErrCorrupt)
	}
	return ck, nil
}

// attachWAL starts the group committer over the configured store.
func (db *DB) attachWAL() {
	db.wal = newWALWriter(db.dur().Store, db.dur().Fsync, db.dur().syncInterval(), db.dur().clock(), &db.m)
}

// checkpointNow writes a checkpoint under the WAL barrier. t is the
// open transaction (nil when idle); the caller guarantees a block
// boundary (no pending occurrences, no buffered ops).
func (db *DB) checkpointNow(t *Txn) error {
	store := db.dur().Store
	return db.wal.barrier(true, func() error {
		newSeq := db.ckptSeq + 1
		var st event.BaseState
		if t != nil {
			var err error
			if st, err = t.base.ExportState(); err != nil {
				return err
			}
			// Persist sealed segments not yet stored in this generation.
			// Compaction may have retired never-persisted segments; skip
			// below the live floor.
			from := db.segsPersisted
			first := uint64(st.Meta.RetiredSegs)
			if from < first {
				from = first
			}
			for i := range st.Sealed {
				ord := first + uint64(i)
				if ord < from {
					continue
				}
				if err := store.PutSegment(segKey(db.txnGen, ord), event.EncodeSegment(nil, st.Sealed[i])); err != nil {
					return err
				}
				db.m.segmentsPersisted.Inc()
			}
			db.segsPersisted = first + uint64(len(st.Sealed))
		}
		buf, err := db.encodeCheckpoint(newSeq, t, st)
		if err != nil {
			return err
		}
		if err := store.PutCheckpoint(buf); err != nil {
			return err
		}
		if err := store.ResetWAL(); err != nil {
			return err
		}
		if err := store.AppendWAL(wire.AppendFrame(nil, encCkptMarker(nil, newSeq))); err != nil {
			return err
		}
		// Obsolete segments: everything of earlier generations, plus this
		// generation's frames below the compaction floor.
		if t != nil {
			err = store.DropSegmentsBelow(segKey(db.txnGen, uint64(st.Meta.RetiredSegs)))
		} else {
			err = store.DropSegmentsBelow(segKey(db.txnGen+1, 0))
		}
		if err != nil {
			return err
		}
		db.ckptSeq = newSeq
		db.blocksSinceCkpt = 0
		db.m.checkpoints.Inc()
		if t != nil {
			// Every type interned so far travels in the checkpoint's meta;
			// records after the reset need not re-declare them.
			t.walTypes = t.walTypes[:0]
			for range st.Meta.Types {
				t.walTypes = append(t.walTypes, true)
			}
		}
		return nil
	})
}

// Checkpoint writes a checkpoint: the committed state, and — when a
// transaction is open — the live window at its current block boundary.
// The WAL is truncated; sealed segments the checkpoint references are
// persisted first. It must be called at a block boundary (not from
// inside a rule action; with pending occurrences, call EndLine first).
func (db *DB) Checkpoint() error {
	if db.wal == nil {
		return errors.New("engine: not a durable database")
	}
	if db.multiSession() {
		// A multi-session checkpoint must capture only committed state,
		// but encodeCheckpoint reads the live store — which would include
		// other lines' uncommitted latched writes. Checkpoints are
		// therefore idle-only: db.mu is held across the whole write so no
		// Begin can slip a new line in mid-capture (commits in flight are
		// impossible at active == 0 — a line counts as active until its
		// post-publication finish).
		db.mu.Lock()
		defer db.mu.Unlock()
		if db.closed {
			return ErrClosed
		}
		if db.active > 0 {
			return fmt.Errorf("engine: checkpoint with %d transaction line(s) open; multi-session checkpoints require an idle engine", db.active)
		}
		return db.checkpointNow(nil)
	}
	db.mu.Lock()
	t := db.txn
	closed := db.closed
	db.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if t != nil && (len(t.pending) > 0 || len(t.wrec) > 0) {
		return errors.New("engine: checkpoint mid-block; call EndLine first")
	}
	return db.checkpointNow(t)
}

// SyncWAL blocks until every WAL record appended so far is durable,
// regardless of the fsync policy. Crash tests use it to pin the log at
// a known boundary; applications can use it as an explicit durability
// point under FsyncInterval.
func (db *DB) SyncWAL() error {
	if db.wal == nil {
		return nil
	}
	db.wal.lock()
	n := db.wal.enqueued
	db.wal.unlock()
	return db.wal.waitDurable(n)
}

// Close flushes and syncs the WAL, stops the group committer and closes
// the store. The in-memory database remains readable; Begin and
// Checkpoint fail with ErrClosed. Closing a non-durable database is a
// no-op.
func (db *DB) Close() error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return nil
	}
	db.closed = true
	db.mu.Unlock()
	if db.wal == nil {
		return nil
	}
	return db.wal.close()
}
