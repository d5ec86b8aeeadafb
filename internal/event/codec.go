package event

import (
	"fmt"
	"runtime"
	"sync"

	"chimera/internal/clock"
	"chimera/internal/types"
	"chimera/internal/wire"
)

// This file is the durability face of the Event Base: a compact binary
// codec for segments (the spill/persist unit DESIGN.md §8 anticipated)
// and the export/restore hooks the engine's checkpoint and crash
// recovery build on.
//
// A segment travels as one wire frame whose payload is the three
// parallel columns — timestamps (delta-encoded; they are strictly
// increasing), type ids and interned OID ids — plus the EID of the first
// entry. The tables naming the ids live in BaseMeta, written once per
// checkpoint, so segment frames stay pure integer columns: a 256-entry
// segment encodes in roughly a kilobyte. Frames are self-checking (CRC)
// and independent of each other, which is what lets recovery decode and
// index-rebuild them in parallel across cores (RestoreBase).

// segmentCodecVersion pins the frame payload layout.
const segmentCodecVersion = 1

// SegmentFrame is one segment's contents in transit: the three parallel
// columns plus the dense-EID origin. Frames
// returned by ExportState alias live segment storage (sealed segments
// are immutable; the tail is copied) and must be treated as read-only.
type SegmentFrame struct {
	FirstEID EID
	TS       []clock.Time
	TIDs     []int32
	OIDs     []int32
}

// Len returns the number of occurrences in the frame.
func (f SegmentFrame) Len() int { return len(f.TS) }

// BaseMeta is the transaction-lifetime state of a Base that segments do
// not carry: the segment size, the tables naming the frames' ids (dense
// id → type/OID), the per-type latest-occurrence cache, and the
// compaction counters. Together with the live segment frames it
// reconstructs a Base that answers every probe as the exported one.
type BaseMeta struct {
	SegSize int
	// Types and OIDs name the frames' ids; index is the id. Types is the
	// exporting base's registry as of the export, so it may include
	// entries with no occurrence in the base, whose Latest is clock.Never.
	Types []Type
	OIDs  []types.OID
	// Latest is indexed by type id: the newest occurrence time stamp of
	// the type, clock.Never if it never occurred.
	Latest []clock.Time
	// Compaction state: the retirement floor and the retired counters.
	Floor       clock.Time
	Retired     int
	RetiredSegs int
	// NextEID is the EID of the last occurrence ever appended; LastTS its
	// time stamp.
	NextEID EID
	LastTS  clock.Time
}

// BaseState is a point-in-time export of a Base: its meta, the live
// sealed (full, immutable) segments and the partially filled tail, if
// any. The global ordinal of Sealed[i] is Meta.RetiredSegs + i — the
// engine keys persisted segments by that ordinal so a checkpoint can
// reference frames already written by earlier checkpoints.
type BaseState struct {
	Meta   BaseMeta
	Sealed []SegmentFrame
	Tail   *SegmentFrame
}

// ExportState captures the base for a checkpoint. Sealed frames alias
// the immutable segment columns (no copy); the tail frame is copied, so
// the export stays consistent even if appends continue afterwards.
func (b *Base) ExportState() (BaseState, error) {
	st := BaseState{
		Meta: BaseMeta{
			SegSize:     b.segSize,
			Types:       append([]Type(nil), b.reg.types()...),
			OIDs:        append([]types.OID(nil), b.oidsByID...),
			Floor:       b.floor,
			Retired:     b.retired,
			RetiredSegs: b.retiredSegs,
			NextEID:     b.nextID,
			LastTS:      b.lastTS,
		},
	}
	st.Meta.Latest = make([]clock.Time, len(st.Meta.Types))
	for tid := range st.Meta.Latest {
		st.Meta.Latest[tid] = b.latestOf(int32(tid))
	}
	for i, sg := range b.segs {
		if sg.n() == b.segSize {
			st.Sealed = append(st.Sealed, SegmentFrame{
				FirstEID: sg.firstEID, TS: sg.ts, TIDs: sg.tids, OIDs: sg.oids,
			})
			continue
		}
		if i != len(b.segs)-1 {
			return BaseState{}, fmt.Errorf("event: partial segment %d is not the tail", i)
		}
		st.Tail = &SegmentFrame{
			FirstEID: sg.firstEID,
			TS:       append([]clock.Time(nil), sg.ts...),
			TIDs:     append([]int32(nil), sg.tids...),
			OIDs:     append([]int32(nil), sg.oids...),
		}
	}
	return st, nil
}

// SealedSegments returns the global count of segments ever sealed:
// retired segments plus live full ones. Ordinals [RetiredSegments(),
// SealedSegments()) are the live sealed frames.
func (b *Base) SealedSegments() uint64 {
	n := b.retiredSegs
	for _, sg := range b.segs {
		if sg.n() == b.segSize {
			n++
		}
	}
	return uint64(n)
}

// EncodeSegment appends one CRC-framed segment frame to dst. Timestamps
// are delta-encoded (they increase strictly); ids are varints.
func EncodeSegment(dst []byte, f SegmentFrame) []byte {
	payload := make([]byte, 0, 16+10*len(f.TS))
	payload = append(payload, segmentCodecVersion)
	payload = wire.AppendVarint(payload, int64(f.FirstEID))
	payload = wire.AppendUvarint(payload, uint64(len(f.TS)))
	prev := int64(0)
	for _, ts := range f.TS {
		payload = wire.AppendUvarint(payload, uint64(int64(ts)-prev))
		prev = int64(ts)
	}
	for _, tid := range f.TIDs {
		payload = wire.AppendUvarint(payload, uint64(tid))
	}
	for _, oid := range f.OIDs {
		payload = wire.AppendUvarint(payload, uint64(oid))
	}
	return wire.AppendFrame(dst, payload)
}

// DecodeSegment decodes one framed segment. data must hold exactly one
// frame (what EncodeSegment appended); trailing bytes are an error.
func DecodeSegment(data []byte) (SegmentFrame, error) {
	payload, rest, err := wire.NextFrame(data)
	if err != nil {
		return SegmentFrame{}, fmt.Errorf("event: segment frame: %w", err)
	}
	if payload == nil || len(rest) != 0 {
		return SegmentFrame{}, fmt.Errorf("%w: segment frame boundary", wire.ErrCorrupt)
	}
	r := wire.NewReader(payload)
	if r.Byte() != segmentCodecVersion {
		return SegmentFrame{}, fmt.Errorf("%w: unknown segment codec version", wire.ErrCorrupt)
	}
	first := r.Varint()
	n := r.Count()
	f := SegmentFrame{
		FirstEID: EID(first),
		TS:       make([]clock.Time, n),
		TIDs:     make([]int32, n),
		OIDs:     make([]int32, n),
	}
	prev := int64(0)
	for i := range f.TS {
		prev += int64(r.Uvarint())
		f.TS[i] = clock.Time(prev)
	}
	for i := range f.TIDs {
		f.TIDs[i] = int32(r.Uvarint())
	}
	for i := range f.OIDs {
		f.OIDs[i] = int32(r.Uvarint())
	}
	if err := r.Done("segment payload"); err != nil {
		return SegmentFrame{}, err
	}
	return f, nil
}

// RestoreBase reconstructs a Base over reg from a checkpoint export: the
// meta plus the live frames in ascending order (sealed frames first,
// then the tail, exactly as ExportState produced them). Each type of
// meta.Types is registered in reg, and the frames' type ids, which
// meta.Types names, are mapped onto reg's as the columns are copied, so
// a frame restores under any numbering of reg. The per-segment indexes —
// leaves and per-object lists — are rebuilt concurrently across workers
// (≤0 means GOMAXPROCS), which is the parallel-recovery half of the
// durability design: segments are independent, so index rebuild scales
// with cores.
func RestoreBase(reg *Registry, meta BaseMeta, frames []SegmentFrame, workers int) (*Base, error) {
	if meta.SegSize < 1 {
		return nil, fmt.Errorf("event: restore: invalid segment size %d", meta.SegSize)
	}
	if len(meta.Latest) != len(meta.Types) {
		return nil, fmt.Errorf("event: restore: latest table has %d entries for %d types",
			len(meta.Latest), len(meta.Types))
	}
	b := reg.NewBase(meta.SegSize)
	tids := make([]int32, len(meta.Types))
	seen := make(map[int32]bool, len(meta.Types))
	for id, t := range meta.Types {
		if err := t.Valid(); err != nil {
			return nil, fmt.Errorf("event: restore: type %d: %w", id, err)
		}
		tids[id] = reg.Intern(t)
		if seen[tids[id]] {
			return nil, fmt.Errorf("event: restore: duplicate entries in type table")
		}
		seen[tids[id]] = true
		if int(tids[id]) >= len(b.latest) {
			b.growLatest(tids[id])
		}
		b.latest[tids[id]] = meta.Latest[id]
	}
	for id, oid := range meta.OIDs {
		b.oidIDs[oid] = int32(id)
		b.oidsByID = append(b.oidsByID, oid)
	}
	if len(b.oidIDs) != len(meta.OIDs) {
		return nil, fmt.Errorf("event: restore: duplicate entries in OID table")
	}
	b.floor = meta.Floor
	b.retired = meta.Retired
	b.retiredSegs = meta.RetiredSegs
	b.nextID = meta.NextEID
	b.lastTS = meta.LastTS

	// Validate frame chaining before spending any rebuild work.
	prevTS := meta.Floor
	wantEID := EID(0)
	for i, f := range frames {
		if len(f.TIDs) != f.Len() || len(f.OIDs) != f.Len() {
			return nil, fmt.Errorf("event: restore: frame %d has ragged columns", i)
		}
		if f.Len() == 0 || f.Len() > meta.SegSize {
			return nil, fmt.Errorf("event: restore: frame %d holds %d occurrences (segment size %d)",
				i, f.Len(), meta.SegSize)
		}
		if i > 0 && f.Len() != meta.SegSize && i != len(frames)-1 {
			return nil, fmt.Errorf("event: restore: partial frame %d is not the tail", i)
		}
		if wantEID != 0 && f.FirstEID != wantEID {
			return nil, fmt.Errorf("event: restore: frame %d starts at %v, want %v", i, f.FirstEID, wantEID)
		}
		wantEID = f.FirstEID + EID(f.Len())
		for k, ts := range f.TS {
			if ts <= prevTS {
				return nil, fmt.Errorf("event: restore: non-monotone time stamp t%d in frame %d", int64(ts), i)
			}
			prevTS = ts
			if int(f.TIDs[k]) >= len(meta.Types) || f.TIDs[k] < 0 {
				return nil, fmt.Errorf("event: restore: frame %d references unknown type id %d", i, f.TIDs[k])
			}
			if int(f.OIDs[k]) >= len(meta.OIDs) || f.OIDs[k] < 0 {
				return nil, fmt.Errorf("event: restore: frame %d references unknown OID id %d", i, f.OIDs[k])
			}
		}
		b.live += f.Len()
	}
	if len(frames) > 0 && wantEID != meta.NextEID+1 {
		return nil, fmt.Errorf("event: restore: frames end at EID %v, meta says %v", wantEID-1, meta.NextEID)
	}

	// Rebuild the per-segment indexes in parallel: each frame becomes one
	// segment, and a segment's entire index footprint is segment-local.
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(frames) && len(frames) > 0 {
		workers = len(frames)
	}
	b.segs = make([]*segment, len(frames))
	var wg sync.WaitGroup
	next := make(chan int, len(frames))
	for i := range frames {
		next <- i
	}
	close(next)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				b.segs[i] = b.buildSegment(frames[i], tids)
			}
		}()
	}
	wg.Wait()
	return b, nil
}

// buildSegment reconstructs one segment from a frame: the columns copied
// to full segment capacity, the frame's type ids mapped through tids,
// and the index Append would have built, by the same function over the
// same rows. It reads only the segment size of b, so concurrent calls
// are safe.
func (b *Base) buildSegment(f SegmentFrame, tids []int32) *segment {
	sg := &segment{
		firstEID: f.FirstEID,
		ts:       append(make([]clock.Time, 0, b.segSize), f.TS...),
		tids:     make([]int32, len(f.TIDs), b.segSize),
		oids:     append(make([]int32, 0, b.segSize), f.OIDs...),
		size:     int32(b.segSize),
	}
	for i, tid := range f.TIDs {
		sg.tids[i] = tids[tid]
		sg.index(int32(i), sg.tids[i], sg.oids[i])
	}
	return sg
}

// metaLayoutColumnar is the layout byte AppendBaseMeta writes after the
// segment size. It dates from when a base had two layouts; only the
// columnar one was ever exported, so the byte is always this value and
// any other is refused as corrupt.
const metaLayoutColumnar = 1

// AppendBaseMeta appends the meta encoded as one wire frame.
func AppendBaseMeta(dst []byte, m BaseMeta) []byte {
	payload := make([]byte, 0, 64+16*len(m.Types)+8*len(m.OIDs))
	payload = append(payload, segmentCodecVersion)
	payload = wire.AppendUvarint(payload, uint64(m.SegSize))
	payload = append(payload, metaLayoutColumnar)
	payload = wire.AppendUvarint(payload, uint64(len(m.Types)))
	for id, t := range m.Types {
		payload = append(payload, byte(t.Op))
		payload = wire.AppendString(payload, t.Class)
		payload = wire.AppendString(payload, t.Attr)
		payload = wire.AppendVarint(payload, int64(m.Latest[id]))
	}
	payload = wire.AppendUvarint(payload, uint64(len(m.OIDs)))
	for _, oid := range m.OIDs {
		payload = wire.AppendVarint(payload, int64(oid))
	}
	payload = wire.AppendVarint(payload, int64(m.Floor))
	payload = wire.AppendUvarint(payload, uint64(m.Retired))
	payload = wire.AppendUvarint(payload, uint64(m.RetiredSegs))
	payload = wire.AppendVarint(payload, int64(m.NextEID))
	payload = wire.AppendVarint(payload, int64(m.LastTS))
	return wire.AppendFrame(dst, payload)
}

// DecodeBaseMeta decodes a meta frame off the front of data, returning
// the remainder.
func DecodeBaseMeta(data []byte) (BaseMeta, []byte, error) {
	payload, rest, err := wire.NextFrame(data)
	if err != nil || payload == nil {
		if err == nil {
			err = fmt.Errorf("%w: missing base meta frame", wire.ErrCorrupt)
		}
		return BaseMeta{}, nil, err
	}
	r := wire.NewReader(payload)
	if r.Byte() != segmentCodecVersion {
		return BaseMeta{}, nil, fmt.Errorf("%w: unknown base meta version", wire.ErrCorrupt)
	}
	m := BaseMeta{SegSize: int(r.Uvarint())}
	if r.Byte() != metaLayoutColumnar {
		return BaseMeta{}, nil, fmt.Errorf("%w: base meta layout", wire.ErrCorrupt)
	}
	nTypes := r.Count()
	m.Types = make([]Type, nTypes)
	m.Latest = make([]clock.Time, nTypes)
	for i := range m.Types {
		m.Types[i] = Type{Op: Op(r.Byte()), Class: r.Str(), Attr: r.Str()}
		m.Latest[i] = clock.Time(r.Varint())
	}
	m.OIDs = make([]types.OID, r.Count())
	for i := range m.OIDs {
		m.OIDs[i] = types.OID(r.Varint())
	}
	m.Floor = clock.Time(r.Varint())
	m.Retired = int(r.Uvarint())
	m.RetiredSegs = int(r.Uvarint())
	m.NextEID = EID(r.Varint())
	m.LastTS = clock.Time(r.Varint())
	if err := r.Done("base meta"); err != nil {
		return BaseMeta{}, nil, err
	}
	return m, rest, nil
}
