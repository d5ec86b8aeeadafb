package engine

import (
	"errors"
	"fmt"
	"slices"

	"chimera/internal/clock"
	"chimera/internal/event"
	"chimera/internal/object"
	"chimera/internal/rules"
	"chimera/internal/schema"
	"chimera/internal/types"
	"chimera/internal/wire"
)

// A checkpoint is the engine's durable root: the committed state as one
// Image (schema, rules, objects, NextOID), the clock, and — when a
// single-session transaction is open — the live window's meta (the
// tables naming its ids, compaction counters), its retention window,
// the per-rule marks (consideration horizons, triggered flags), the
// undo log, the tail segment, and references to the sealed segments
// persisted alongside. Together with the WAL records that follow it, a checkpoint
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
//
// Version history: 1 — the layout below without the retention window;
// 2 — the open-transaction frame carries the window after the start
// instant (a version-1 checkpoint decodes as "no window").
const ckptVersion = 2

// checkpoint is the decoded form.
type checkpoint struct {
	Seq    uint64
	TxnGen uint32
	Now    clock.Time
	InTxn  bool
	Image

	// Open-transaction section (InTxn only).
	Start      clock.Time
	Window     clock.Time // retention window (Txn.SetRetention)
	Marks      []rules.Mark
	Undo       []object.UndoRec
	FirstSeg   uint64 // ordinal of the first live sealed segment
	SealedSegs uint64 // one past the last live sealed segment's ordinal
	Meta       event.BaseMeta
	Tail       *event.SegmentFrame
}

// encodeCheckpoint captures the database into checkpoint bytes. t is
// the open single-session transaction (nil otherwise); st its exported
// base state (only read when t is non-nil). Called at a block boundary
// under db.mu and the WAL barrier.
func (db *DB) encodeCheckpoint(seq uint64, t *Txn, st event.BaseState) ([]byte, error) {
	var img *Image
	if t == nil {
		img = db.image(db.store.Published().Objects())
	} else {
		// Inside a single-session transaction the objects frame is the
		// line's live view: the undo log below is what lets a replayed
		// rollback reverse the writes made before the checkpoint.
		img = db.image(db.store.Objects())
	}

	// Header frame.
	hdr := make([]byte, 0, 32)
	hdr = append(hdr, ckptVersion)
	hdr = wire.AppendUvarint(hdr, seq)
	hdr = wire.AppendUvarint(hdr, uint64(db.txnGen))
	hdr = wire.AppendVarint(hdr, int64(db.clock.Now()))
	hdr = wire.AppendVarint(hdr, int64(img.NextOID))
	hdr = wire.AppendBool(hdr, t != nil)
	out := wire.AppendFrame(nil, hdr)

	// Catalog frame: the image's classes, each with the attributes it
	// declares, then its rule sources.
	catp := wire.AppendUvarint(nil, uint64(len(img.Classes)))
	for _, c := range img.Classes {
		catp = wire.AppendString(catp, c.Name)
		catp = wire.AppendString(catp, c.Parent)
		catp = wire.AppendUvarint(catp, uint64(len(c.Attrs)))
		for _, a := range c.Attrs {
			catp = wire.AppendString(catp, a.Name)
			catp = wire.AppendString(catp, a.Kind.String())
		}
	}
	catp = wire.AppendUvarint(catp, uint64(len(img.Rules)))
	for _, src := range img.Rules {
		catp = wire.AppendString(catp, src)
	}
	out = wire.AppendFrame(out, catp)

	// Objects frame: the image's objects, so the bytes of a state are
	// always the same.
	objp := wire.AppendUvarint(nil, uint64(len(img.Objects)))
	for _, o := range img.Objects {
		objp = wire.AppendVarint(objp, int64(o.OID))
		objp = wire.AppendString(objp, o.Class)
		objp = wire.AppendUvarint(objp, uint64(len(o.Attrs)))
		var err error
		for _, a := range o.Attrs {
			objp = wire.AppendString(objp, a.Name)
			if objp, err = wire.AppendValue(objp, a.Val); err != nil {
				return nil, err
			}
		}
	}
	out = wire.AppendFrame(out, objp)

	if t == nil {
		return out, nil
	}

	// Open-transaction frame: start instant, retention window, marks,
	// undo log, segment references.
	marks := t.view.Marks()
	txp := wire.AppendVarint(nil, int64(t.view.Start()))
	txp = wire.AppendVarint(txp, int64(t.base.Retention()))
	txp = wire.AppendUvarint(txp, uint64(len(marks)))
	for _, m := range marks {
		txp = wire.AppendString(txp, m.Rule)
		txp = wire.AppendVarint(txp, int64(m.LastConsideration))
		txp = wire.AppendBool(txp, m.Triggered)
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
		txp = wire.AppendBool(txp, u.Had)
		var err error
		if txp, err = wire.AppendValue(txp, u.Val); err != nil {
			return nil, err
		}
		if txp = wire.AppendBool(txp, u.Vals != nil); u.Vals != nil {
			// In name order, so equal states checkpoint to equal bytes; the
			// decoder reads them back into a map.
			names := make([]string, 0, len(u.Vals))
			for k := range u.Vals {
				names = append(names, k)
			}
			slices.Sort(names)
			txp = wire.AppendUvarint(txp, uint64(len(u.Vals)))
			for _, k := range names {
				txp = wire.AppendString(txp, k)
				if txp, err = wire.AppendValue(txp, u.Vals[k]); err != nil {
					return nil, err
				}
			}
		}
		txp = wire.AppendBool(txp, u.Reuse)
	}
	first := uint64(st.Meta.RetiredSegs)
	txp = wire.AppendUvarint(txp, first)
	txp = wire.AppendUvarint(txp, first+uint64(len(st.Sealed)))
	txp = wire.AppendBool(txp, st.Tail != nil)
	out = wire.AppendFrame(out, txp)
	out = event.AppendBaseMeta(out, st.Meta)
	if st.Tail != nil {
		out = event.EncodeSegment(out, *st.Tail)
	}
	return out, nil
}

// decodeCheckpoint parses checkpoint bytes.
func decodeCheckpoint(data []byte) (*checkpoint, error) {
	hdr, rest, err := nextFrame(data, "checkpoint header")
	if err != nil {
		return nil, err
	}
	r := wire.NewReader(hdr)
	version := r.Byte()
	if r.Err() == nil && (version < 1 || version > ckptVersion) {
		return nil, fmt.Errorf("%w: unknown checkpoint version %d", wire.ErrCorrupt, version)
	}
	ck := &checkpoint{Seq: r.Uvarint(), TxnGen: uint32(r.Uvarint()), Now: clock.Time(r.Varint())}
	ck.NextOID = types.OID(r.Varint())
	ck.InTxn = r.Bool()
	if err := r.Done("checkpoint header"); err != nil {
		return nil, err
	}

	// Catalog frame.
	catp, rest, err := nextFrame(rest, "checkpoint catalog")
	if err != nil {
		return nil, err
	}
	r = wire.NewReader(catp)
	ck.Classes = make([]ImageClass, r.Count())
	for i := range ck.Classes {
		c := &ck.Classes[i]
		c.Name, c.Parent = r.Str(), r.Str()
		c.Attrs = make([]schema.Attribute, r.Count())
		for j := range c.Attrs {
			c.Attrs[j] = schema.Attribute{Name: r.Str(), Kind: r.Kind()}
		}
	}
	ck.Rules = make([]string, r.Count())
	for i := range ck.Rules {
		ck.Rules[i] = r.Str()
	}
	if err := r.Done("checkpoint catalog"); err != nil {
		return nil, err
	}

	// Objects frame.
	objp, rest, err := nextFrame(rest, "checkpoint objects")
	if err != nil {
		return nil, err
	}
	r = wire.NewReader(objp)
	ck.Objects = make([]ImageObject, r.Count())
	for i := range ck.Objects {
		o := &ck.Objects[i]
		o.OID, o.Class = types.OID(r.Varint()), r.Str()
		o.Attrs = make([]ImageAttr, r.Count())
		for j := range o.Attrs {
			o.Attrs[j] = ImageAttr{Name: r.Str(), Val: r.Value()}
		}
	}
	if err := r.Done("checkpoint objects"); err != nil {
		return nil, err
	}

	if !ck.InTxn {
		if len(rest) != 0 {
			return nil, fmt.Errorf("%w: trailing bytes after idle checkpoint", wire.ErrCorrupt)
		}
		return ck, nil
	}

	// Open-transaction frame.
	txp, rest, err := nextFrame(rest, "checkpoint txn section")
	if err != nil {
		return nil, err
	}
	r = wire.NewReader(txp)
	ck.Start = clock.Time(r.Varint())
	if version >= 2 {
		ck.Window = clock.Time(r.Varint())
	}
	ck.Marks = make([]rules.Mark, r.Count())
	for i := range ck.Marks {
		ck.Marks[i] = rules.Mark{Rule: r.Str(), LastConsideration: clock.Time(r.Varint()),
			Triggered: r.Bool(), TriggeredAt: clock.Time(r.Varint())}
	}
	ck.Undo = make([]object.UndoRec, r.Count())
	for i := range ck.Undo {
		u := &ck.Undo[i]
		u.Kind, u.OID, u.Class, u.Attr = r.Byte(), types.OID(r.Varint()), r.Str(), r.Str()
		u.Had, u.Val = r.Bool(), r.Value()
		if r.Bool() {
			n := r.Count()
			u.Vals = make(map[string]types.Value, n)
			for j := 0; j < n; j++ {
				k := r.Str()
				u.Vals[k] = r.Value()
			}
		}
		u.Reuse = r.Bool()
	}
	ck.FirstSeg, ck.SealedSegs = r.Uvarint(), r.Uvarint()
	hasTail := r.Bool()
	if err := r.Done("checkpoint txn section"); err != nil {
		return nil, err
	}
	if ck.SealedSegs < ck.FirstSeg || ck.SealedSegs-ck.FirstSeg > 1<<32 {
		// Segment ordinals are 32 bits wide (segKey).
		return nil, fmt.Errorf("%w: checkpoint segment range", wire.ErrCorrupt)
	}

	if ck.Meta, rest, err = event.DecodeBaseMeta(rest); err != nil {
		return nil, err
	}
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

// nextFrame splits the next frame off data; a missing one is corrupt.
func nextFrame(data []byte, what string) (payload, rest []byte, err error) {
	payload, rest, err = wire.NextFrame(data)
	if err == nil && payload == nil {
		err = fmt.Errorf("%w: missing %s", wire.ErrCorrupt, what)
	}
	return payload, rest, err
}

// attachWAL starts the group committer over the configured store.
func (db *DB) attachWAL() {
	db.wal = newWALWriter(db.dur().Store, db.dur().Fsync, db.dur().syncInterval(), db.dur().clock(), &db.m)
}

// checkpointNow writes a checkpoint under the WAL barrier. t is the
// open single-session transaction (nil otherwise); the caller holds
// db.mu, which keeps DDL out, and guarantees a block boundary (no
// pending occurrences, no buffered ops).
func (db *DB) checkpointNow(t *Txn) error {
	store := db.dur().Store
	return db.wal.barrier(func() error {
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
			// Every type registered so far travels in the checkpoint's meta;
			// records after the reset need not re-declare them.
			t.walTypes = t.walTypes[:0]
			for range st.Meta.Types {
				t.walTypes = append(t.walTypes, true)
			}
		}
		return nil
	})
}

// Checkpoint writes a checkpoint and truncates the WAL. Its image is
// the committed state, read from the published snapshot. In
// single-session mode with a transaction open it also carries the live
// window at the current block boundary (sealed segments are persisted
// first); it must then be called from the transaction's goroutine at a
// block boundary (not from inside a rule action; with pending
// occurrences, call EndLine first). In multi-session mode it may be
// called at any time, lines open or not: holding the commit latch, it
// sees every run either committed (in the image) or still staged
// privately (its begin, blocks and commit reach the log after the new
// marker and replay on top of the image).
func (db *DB) Checkpoint() error {
	if db.wal == nil {
		return errors.New("engine: not a durable database")
	}
	if db.multiSession() {
		db.commitMu.Lock()
		defer db.commitMu.Unlock()
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	t := db.txn // nil in multi-session mode
	if t != nil && (len(t.pending) > 0 || len(t.wrec) > 0 || t.runRecs > 0) {
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
	return db.wal.syncAll()
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
