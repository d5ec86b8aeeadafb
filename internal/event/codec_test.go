package event

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"chimera/internal/clock"
	"chimera/internal/types"
	"chimera/internal/wire"
)

// buildBase appends n occurrences across a few types and objects into a
// base with the given segment size.
func buildBase(t *testing.T, segSize, n int) *Base {
	t.Helper()
	b := NewBaseSize(segSize)
	tys := []Type{Create("stock"), Modify("stock", "quantity"), Delete("stock"), Create("order")}
	for i := 0; i < n; i++ {
		if _, err := b.Append(tys[i%len(tys)], types.OID(1+i%5), clock.Time(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

func TestSegmentCodecRoundTrip(t *testing.T) {
	b := buildBase(t, 8, 30) // several sealed segments + a partial tail
	st, err := b.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range st.Sealed {
		enc := EncodeSegment(nil, f)
		dec, err := DecodeSegment(enc)
		if err != nil {
			t.Fatalf("segment %d: %v", i, err)
		}
		if dec.FirstEID != f.FirstEID || len(dec.TS) != len(f.TS) {
			t.Fatalf("segment %d: header mismatch", i)
		}
		for j := range f.TS {
			if dec.TS[j] != f.TS[j] || dec.TIDs[j] != f.TIDs[j] || dec.OIDs[j] != f.OIDs[j] {
				t.Fatalf("segment %d row %d: %v/%v/%v want %v/%v/%v", i, j,
					dec.TS[j], dec.TIDs[j], dec.OIDs[j], f.TS[j], f.TIDs[j], f.OIDs[j])
			}
		}
	}
}

func TestSegmentCodecErrors(t *testing.T) {
	b := buildBase(t, 4, 4)
	f, err := b.SealedFrame(0)
	if err != nil {
		t.Fatal(err)
	}
	enc := EncodeSegment(nil, f)

	// Truncation at every prefix must be a typed error, never a panic.
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeSegment(enc[:cut]); err == nil {
			t.Fatalf("cut at %d accepted", cut)
		} else if !errors.Is(err, wire.ErrTruncated) && !errors.Is(err, wire.ErrCorrupt) {
			t.Fatalf("cut at %d: untyped error %v", cut, err)
		}
	}
	// A flipped byte must fail the CRC.
	bad := append([]byte(nil), enc...)
	bad[len(bad)-1] ^= 0x10
	if _, err := DecodeSegment(bad); !errors.Is(err, wire.ErrCorrupt) {
		t.Fatalf("flip: got %v, want ErrCorrupt", err)
	}
	// Trailing garbage after the single frame is rejected.
	if _, err := DecodeSegment(append(append([]byte(nil), enc...), 0xAB)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestBaseMetaRoundTrip(t *testing.T) {
	b := buildBase(t, 8, 30)
	// Compact away a prefix so the meta carries non-trivial floor state.
	b.CompactBelow(clock.Time(10))
	st, err := b.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	enc := AppendBaseMeta(nil, st.Meta)
	meta, rest, err := DecodeBaseMeta(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("trailing bytes: %d", len(rest))
	}
	if meta.SegSize != st.Meta.SegSize || meta.Floor != st.Meta.Floor ||
		meta.Retired != st.Meta.Retired || meta.RetiredSegs != st.Meta.RetiredSegs ||
		meta.NextEID != st.Meta.NextEID || meta.LastTS != st.Meta.LastTS ||
		len(meta.Types) != len(st.Meta.Types) || len(meta.OIDs) != len(st.Meta.OIDs) {
		t.Fatalf("meta mismatch:\n got %+v\nwant %+v", meta, st.Meta)
	}
	for i := range meta.Types {
		if meta.Types[i] != st.Meta.Types[i] {
			t.Fatalf("type %d: %v != %v", i, meta.Types[i], st.Meta.Types[i])
		}
	}
}

// TestRestoreBaseRoundTrip is the recovery path in miniature: export,
// encode, decode, rebuild in parallel, and require the restored base to
// answer queries identically.
func TestRestoreBaseRoundTrip(t *testing.T) {
	for _, workers := range []int{1, 4} {
		b := buildBase(t, 8, 100)
		b.CompactBelow(clock.Time(25))
		st, err := b.ExportState()
		if err != nil {
			t.Fatal(err)
		}
		// Encode/decode every sealed frame, as recovery would from the
		// segment store.
		frames := make([]SegmentFrame, len(st.Sealed))
		for i, f := range st.Sealed {
			dec, err := DecodeSegment(EncodeSegment(nil, f))
			if err != nil {
				t.Fatal(err)
			}
			frames[i] = dec
		}
		if st.Tail != nil {
			dec, err := DecodeSegment(EncodeSegment(nil, *st.Tail))
			if err != nil {
				t.Fatal(err)
			}
			frames = append(frames, dec)
		}
		r, err := RestoreBase(new(Registry), st.Meta, frames, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if r.String() != b.String() {
			t.Fatalf("workers=%d: restored base differs:\n--- original\n%s--- restored\n%s",
				workers, b.String(), r.String())
		}
		if r.Len() != b.Len() || r.Floor() != b.Floor() || r.Retired() != b.Retired() {
			t.Fatalf("workers=%d: counters differ", workers)
		}
		// Queries must agree, including interner-sensitive ones.
		for _, ty := range []Type{Create("stock"), Modify("stock", "quantity"), Create("never")} {
			if r.Latest(ty) != b.Latest(ty) {
				t.Fatalf("Latest(%v) differs", ty)
			}
		}
		// And appends must continue seamlessly.
		occ1, err1 := b.Append(Create("stock"), 99, clock.Time(1000))
		occ2, err2 := r.Append(Create("stock"), 99, clock.Time(1000))
		if err1 != nil || err2 != nil || occ1 != occ2 {
			t.Fatalf("post-restore append diverged: %v/%v vs %v/%v", occ1, err1, occ2, err2)
		}
	}
}

// parentMeta is AppendBaseMeta's encoding of buildBase(t, 8, 30), plus an
// eagerly interned Create("never"), compacted below t10 — written by the
// codec as it stood when BaseMeta still carried the layout flag. Byte 10
// is that layout byte (the payload's third: version, segment size,
// layout).
var parentMeta = []byte{
	0x44, 0x00, 0x00, 0x00, 0x3b, 0xb8, 0x6f, 0x7c, 0x01, 0x08, 0x01, 0x05,
	0x00, 0x05, 0x73, 0x74, 0x6f, 0x63, 0x6b, 0x00, 0x3a, 0x02, 0x05, 0x73,
	0x74, 0x6f, 0x63, 0x6b, 0x08, 0x71, 0x75, 0x61, 0x6e, 0x74, 0x69, 0x74,
	0x79, 0x3c, 0x01, 0x05, 0x73, 0x74, 0x6f, 0x63, 0x6b, 0x00, 0x36, 0x00,
	0x05, 0x6f, 0x72, 0x64, 0x65, 0x72, 0x00, 0x38, 0x00, 0x05, 0x6e, 0x65,
	0x76, 0x65, 0x72, 0x00, 0x00, 0x05, 0x02, 0x04, 0x06, 0x08, 0x0a, 0x10,
	0x08, 0x01, 0x3c, 0x3c,
}

// TestDecodeParentMeta pins the checkpoint format across the removal of
// the row-store layout: meta bytes encoded before it decode, restore a
// base that answers as the original, and re-encode to the same bytes; a
// layout byte of 0, which no checkpoint ever carried, is corrupt.
func TestDecodeParentMeta(t *testing.T) {
	b := buildBase(t, 8, 30)
	b.reg.Intern(Create("never"))
	b.CompactBelow(clock.Time(10))
	st, err := b.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	meta, rest, err := DecodeBaseMeta(parentMeta)
	if err != nil || len(rest) != 0 {
		t.Fatalf("decode: %v (%d trailing bytes)", err, len(rest))
	}
	if enc := AppendBaseMeta(nil, meta); !bytes.Equal(enc, parentMeta) {
		t.Fatalf("re-encoding changed the bytes:\n got % x\nwant % x", enc, parentMeta)
	}
	frames := append([]SegmentFrame(nil), st.Sealed...)
	if st.Tail != nil {
		frames = append(frames, *st.Tail)
	}
	r, err := RestoreBase(new(Registry), meta, frames, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.String() != b.String() {
		t.Fatalf("restored base differs:\n--- original\n%s--- restored\n%s", b, r)
	}
	for _, ty := range []Type{Create("stock"), Create("order"), Create("never")} {
		if r.Latest(ty) != b.Latest(ty) || r.LastOf(ty, 10, 30) != b.LastOf(ty, 10, 30) {
			t.Fatalf("probes of %v differ after restore", ty)
		}
	}

	payload, _, err := wire.NextFrame(parentMeta)
	if err != nil {
		t.Fatal(err)
	}
	payload = append([]byte(nil), payload...)
	payload[2] = 0
	if _, _, err := DecodeBaseMeta(wire.AppendFrame(nil, payload)); !errors.Is(err, wire.ErrCorrupt) {
		t.Fatalf("layout byte 0: got %v, want ErrCorrupt", err)
	}
}

func TestRestoreBaseValidation(t *testing.T) {
	b := buildBase(t, 8, 20)
	st, err := b.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	frames := append([]SegmentFrame(nil), st.Sealed...)
	if st.Tail != nil {
		frames = append(frames, *st.Tail)
	}
	// A frame whose first EID does not chain is rejected.
	broken := append([]SegmentFrame(nil), frames...)
	broken[1].FirstEID += 3
	if _, err := RestoreBase(new(Registry), st.Meta, broken, 2); err == nil {
		t.Fatal("discontinuous EID chain accepted")
	}
	// A TID out of the interner's range is rejected.
	broken = append([]SegmentFrame(nil), frames...)
	broken[0] = frames[0]
	broken[0].TIDs = append([]int32(nil), frames[0].TIDs...)
	broken[0].TIDs[0] = int32(len(st.Meta.Types)) + 5
	if _, err := RestoreBase(new(Registry), st.Meta, broken, 2); err == nil {
		t.Fatal("out-of-range TID accepted")
	}
}

// SealedFrame returns the live sealed segment with global ordinal ord
// (Meta.RetiredSegs ≤ ord < RetiredSegs + sealed count), aliasing its
// immutable columns.
func (b *Base) SealedFrame(ord uint64) (SegmentFrame, error) {
	i := int(ord) - b.retiredSegs
	if i < 0 || i >= len(b.segs) || b.segs[i].n() != b.segSize {
		return SegmentFrame{}, fmt.Errorf("event: no sealed segment with ordinal %d", ord)
	}
	sg := b.segs[i]
	return SegmentFrame{FirstEID: sg.firstEID, TS: sg.ts, TIDs: sg.tids, OIDs: sg.oids}, nil
}
