package engine

import (
	"fmt"

	"chimera/internal/clock"
	"chimera/internal/event"
	"chimera/internal/schema"
	"chimera/internal/types"
	"chimera/internal/wire"
)

// WAL record layout. Every record travels as one wire frame; the
// payload's first byte is the record kind. The log is logical, not
// physical: it records the operations of the transaction (DDL, block
// op streams, commit/rollback), and recovery replays them through the
// same engine code paths that ran them live — determinism of the
// engine (logical clock, deterministic OID allocation) makes the
// replayed state bit-identical, and type ids, which are not durable,
// travel with the types they name (opTypeDef).
//
// Granularity is the block: a block's operations accumulate in an
// in-memory buffer and become one record at the block boundary
// (flushBlock), so a crash loses whole blocks, never half of one, and
// recovery always lands on a block boundary — the only instants at
// which the paper's semantics let state be observed anyway.
const (
	// recCkptMarker is always the first record after a WAL reset; it
	// carries the sequence number of the checkpoint that reset the log.
	// Recovery cross-checks it against the checkpoint it loaded: a
	// mismatch means the WAL belongs to a different checkpoint epoch
	// (a crash landed between PutCheckpoint and ResetWAL) and must be
	// ignored.
	recCkptMarker byte = iota + 1
	// recDefineClass / recDefineRule / recDropRule log DDL (outside
	// transactions).
	recDefineClass
	recDefineRule
	recDropRule
	// recBegin opens a transaction at a clock instant.
	recBegin
	// recBlock is one non-interruptible block: the op stream (events,
	// mutations, rule considerations in execution order), the clock at
	// the boundary, and the rules that newly fired there with their
	// activation instants (restored verbatim — see rules.Session.RestoreTriggered).
	recBlock
	// recCommit / recRollback close the transaction.
	recCommit
	recRollback
)

// The payloads of the one-byte records. wire.AppendFrame leaks its
// payload (the checksum is called through a function variable), so a
// []byte{recCommit} literal at the call site would escape to the heap on
// every commit.
var (
	commitRec   = []byte{recCommit}
	rollbackRec = []byte{recRollback}
)

// Block op stream entries; first byte of each op.
const (
	// opTypeDef declares an event-type id before its first use in this
	// log. Ids are the database registry's, which lives in memory only:
	// the declaration is what replay maps an id through, onto the
	// recovering registry's id for the declared type.
	opTypeDef byte = iota + 1
	// opEvent is one occurrence: time stamp, type id, OID.
	opEvent
	// opCreate..opGeneralize mirror the object-store mutations. opCreate
	// logs the allocated OID so replay can verify the deterministic
	// allocator reproduced it.
	opCreate
	opModify
	opDelete
	opSpecialize
	opGeneralize
	// opConsider is one rule consideration (Consider advances the
	// rule's horizon and detriggers it; the condition/action that follow
	// are ordinary ops of the same stream).
	opConsider
	// opRetention sets the Event Base's retention window
	// (Txn.SetRetention); replay compacts at the same bound. Logs
	// written before it existed carry none and replay with no window.
	opRetention
)

// firedMark is one newly triggered rule at a block boundary.
type firedMark struct {
	Rule string
	At   clock.Time
}

// --- record encoders ---

func encCkptMarker(dst []byte, seq uint64) []byte {
	dst = append(dst, recCkptMarker)
	return wire.AppendUvarint(dst, seq)
}

func encDefineClass(dst []byte, name, parent string, attrs []schema.Attribute) []byte {
	dst = append(dst, recDefineClass)
	dst = wire.AppendString(dst, name)
	dst = wire.AppendString(dst, parent)
	dst = wire.AppendUvarint(dst, uint64(len(attrs)))
	for _, a := range attrs {
		dst = wire.AppendString(dst, a.Name)
		dst = wire.AppendString(dst, a.Kind.String())
	}
	return dst
}

func encDefineRule(dst []byte, src string) []byte {
	return wire.AppendString(append(dst, recDefineRule), src)
}

func encDropRule(dst []byte, name string) []byte {
	return wire.AppendString(append(dst, recDropRule), name)
}

func encBegin(dst []byte, start clock.Time) []byte {
	return wire.AppendVarint(append(dst, recBegin), int64(start))
}

func encBlock(dst []byte, now clock.Time, fired []firedMark, ops []byte) []byte {
	dst = append(dst, recBlock)
	dst = wire.AppendVarint(dst, int64(now))
	dst = wire.AppendUvarint(dst, uint64(len(fired)))
	for _, f := range fired {
		dst = wire.AppendString(dst, f.Rule)
		dst = wire.AppendVarint(dst, int64(f.At))
	}
	return append(dst, ops...)
}

// --- block op encoders (append to the transaction's op buffer) ---

func encOpTypeDef(dst []byte, tid int32, ty event.Type) []byte {
	dst = append(dst, opTypeDef)
	dst = wire.AppendUvarint(dst, uint64(tid))
	dst = append(dst, byte(ty.Op))
	dst = wire.AppendString(dst, ty.Class)
	return wire.AppendString(dst, ty.Attr)
}

func encOpEvent(dst []byte, ts clock.Time, tid int32, oid types.OID) []byte {
	dst = append(dst, opEvent)
	dst = wire.AppendVarint(dst, int64(ts))
	dst = wire.AppendUvarint(dst, uint64(tid))
	return wire.AppendVarint(dst, int64(oid))
}

func encOpCreate(dst []byte, oid types.OID, class string, vals map[string]types.Value) ([]byte, error) {
	dst = append(dst, opCreate)
	dst = wire.AppendVarint(dst, int64(oid))
	dst = wire.AppendString(dst, class)
	dst = wire.AppendUvarint(dst, uint64(len(vals)))
	var err error
	for k, v := range vals {
		dst = wire.AppendString(dst, k)
		if dst, err = wire.AppendValue(dst, v); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

func encOpModify(dst []byte, oid types.OID, attr string, v types.Value) ([]byte, error) {
	dst = append(dst, opModify)
	dst = wire.AppendVarint(dst, int64(oid))
	dst = wire.AppendString(dst, attr)
	return wire.AppendValue(dst, v)
}

func encOpDelete(dst []byte, oid types.OID) []byte {
	return wire.AppendVarint(append(dst, opDelete), int64(oid))
}

func encOpMigrate(dst []byte, kind byte, oid types.OID, class string) []byte {
	dst = append(dst, kind)
	dst = wire.AppendVarint(dst, int64(oid))
	return wire.AppendString(dst, class)
}

func encOpConsider(dst []byte, rule string, at clock.Time) []byte {
	dst = append(dst, opConsider)
	dst = wire.AppendString(dst, rule)
	return wire.AppendVarint(dst, int64(at))
}

func encOpRetention(dst []byte, window clock.Time) []byte {
	return wire.AppendVarint(append(dst, opRetention), int64(window))
}

// --- decoders ---

// walRecord is one decoded WAL record (fields populated per Kind).
type walRecord struct {
	Kind   byte
	Seq    uint64 // recCkptMarker
	Name   string // class, rule
	Parent string
	Attrs  []schema.Attribute
	Src    string     // rule source
	Start  clock.Time // recBegin
	Now    clock.Time // recBlock
	Fired  []firedMark
	Ops    []byte
}

func decRecord(payload []byte) (walRecord, error) {
	r := wire.NewReader(payload)
	rec := walRecord{Kind: r.Byte()}
	switch rec.Kind {
	case recCkptMarker:
		rec.Seq = r.Uvarint()
	case recDefineClass:
		rec.Name, rec.Parent = r.Str(), r.Str()
		rec.Attrs = make([]schema.Attribute, r.Count())
		for i := range rec.Attrs {
			rec.Attrs[i] = schema.Attribute{Name: r.Str(), Kind: r.Kind()}
		}
	case recDefineRule:
		rec.Src = r.Str()
	case recDropRule:
		rec.Name = r.Str()
	case recBegin:
		rec.Start = clock.Time(r.Varint())
	case recBlock:
		rec.Now = clock.Time(r.Varint())
		rec.Fired = make([]firedMark, r.Count())
		for i := range rec.Fired {
			rec.Fired[i] = firedMark{Rule: r.Str(), At: clock.Time(r.Varint())}
		}
		rec.Ops = r.Rest()
	case recCommit, recRollback:
		// no body
	default:
		r.Fail(fmt.Errorf("%w: unknown wal record kind %d", wire.ErrCorrupt, rec.Kind))
	}
	if err := r.Done("wal record"); err != nil {
		return walRecord{}, err
	}
	return rec, nil
}

// walOp is one decoded block op (fields populated per Kind).
type walOp struct {
	Kind   byte
	TID    int32
	Type   event.Type
	TS     clock.Time
	OID    types.OID
	Class  string
	Attr   string
	Rule   string
	At     clock.Time
	Window clock.Time
	Vals   map[string]types.Value
	Val    types.Value
}

// readWalOp decodes one op off the front of the stream; the caller
// checks r.Err.
func readWalOp(r *wire.Reader) walOp {
	op := walOp{Kind: r.Byte()}
	switch op.Kind {
	case opTypeDef:
		op.TID = int32(r.Uvarint())
		op.Type = event.Type{Op: event.Op(r.Byte()), Class: r.Str(), Attr: r.Str()}
	case opEvent:
		op.TS, op.TID, op.OID = clock.Time(r.Varint()), int32(r.Uvarint()), types.OID(r.Varint())
	case opCreate:
		op.OID, op.Class = types.OID(r.Varint()), r.Str()
		n := r.Count()
		op.Vals = make(map[string]types.Value, n)
		for i := 0; i < n; i++ {
			k := r.Str()
			op.Vals[k] = r.Value()
		}
	case opModify:
		op.OID, op.Attr, op.Val = types.OID(r.Varint()), r.Str(), r.Value()
	case opDelete:
		op.OID = types.OID(r.Varint())
	case opSpecialize, opGeneralize:
		op.OID, op.Class = types.OID(r.Varint()), r.Str()
	case opConsider:
		op.Rule, op.At = r.Str(), clock.Time(r.Varint())
	case opRetention:
		op.Window = clock.Time(r.Varint())
	default:
		r.Fail(fmt.Errorf("%w: unknown wal op kind %d", wire.ErrCorrupt, op.Kind))
	}
	return op
}
