package wire

import (
	"errors"
	"testing"

	"chimera/internal/clock"
	"chimera/internal/types"
)

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{
		[]byte("hello"),
		{},
		[]byte{0, 1, 2, 255},
	}
	var buf []byte
	for _, p := range payloads {
		buf = AppendFrame(buf, p)
	}
	rest := buf
	for i, want := range payloads {
		var got []byte
		var err error
		got, rest, err = NextFrame(rest)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got == nil {
			t.Fatalf("frame %d: premature end", i)
		}
		if string(got) != string(want) {
			t.Fatalf("frame %d: got %q, want %q", i, got, want)
		}
	}
	got, rest, err := NextFrame(rest)
	if err != nil || got != nil || rest != nil {
		t.Fatalf("expected clean end, got payload=%v rest=%v err=%v", got, rest, err)
	}
}

func TestFrameTruncated(t *testing.T) {
	full := AppendFrame(nil, []byte("payload"))
	for cut := 1; cut < len(full); cut++ {
		if _, _, err := NextFrame(full[:cut]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut at %d: got %v, want ErrTruncated", cut, err)
		}
	}
}

func TestFrameCorrupt(t *testing.T) {
	full := AppendFrame(nil, []byte("payload"))
	// Flip a payload byte: CRC must catch it.
	bad := append([]byte(nil), full...)
	bad[len(bad)-1] ^= 0x40
	if _, _, err := NextFrame(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("payload flip: got %v, want ErrCorrupt", err)
	}
	// Flip a CRC byte.
	bad = append([]byte(nil), full...)
	bad[5] ^= 0x01
	if _, _, err := NextFrame(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("crc flip: got %v, want ErrCorrupt", err)
	}
}

func TestVarintRoundTrip(t *testing.T) {
	uvals := []uint64{0, 1, 127, 128, 1 << 20, 1<<63 - 1}
	var buf []byte
	for _, v := range uvals {
		buf = AppendUvarint(buf, v)
	}
	r := NewReader(buf)
	for _, want := range uvals {
		if got := r.Uvarint(); r.Err() != nil || got != want {
			t.Fatalf("uvarint: got %d err %v, want %d", got, r.Err(), want)
		}
	}

	ivals := []int64{0, -1, 1, -64, 63, 1 << 40, -(1 << 40)}
	buf = buf[:0]
	for _, v := range ivals {
		buf = AppendVarint(buf, v)
	}
	r = NewReader(buf)
	for _, want := range ivals {
		if got := r.Varint(); r.Err() != nil || got != want {
			t.Fatalf("varint: got %d err %v, want %d", got, r.Err(), want)
		}
	}

	// Payload-level decode errors are ErrCorrupt: the frame CRC already
	// vouched for the bytes, so a short varint means bad data, not a
	// torn write. The failure sticks: later reads return zero values.
	r = NewReader(nil)
	if r.Uvarint(); !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("empty uvarint: got %v, want ErrCorrupt", r.Err())
	}
	if r.Varint() != 0 || !errors.Is(r.Done("test"), ErrCorrupt) {
		t.Fatal("a failed reader went on decoding")
	}
	// A count larger than the bytes left is corrupt, and so are bytes
	// left over at the end.
	r = NewReader(AppendUvarint(nil, 3))
	if n := r.Count(); n != 0 || !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("oversized count: got %d, %v", n, r.Err())
	}
	r = NewReader([]byte{1, 2})
	if r.Byte(); !errors.Is(r.Done("test"), ErrCorrupt) {
		t.Fatal("trailing byte accepted")
	}
}

func TestStringRoundTrip(t *testing.T) {
	vals := []string{"", "a", "héllo wörld", string(make([]byte, 300))}
	var buf []byte
	for _, v := range vals {
		buf = AppendString(buf, v)
	}
	r := NewReader(buf)
	for _, want := range vals {
		if got := r.Str(); r.Err() != nil || got != want {
			t.Fatalf("string: got %q err %v, want %q", got, r.Err(), want)
		}
	}
	// Declared length beyond the buffer is corrupt payload data.
	bad := AppendUvarint(nil, 10)
	bad = append(bad, 'x')
	r = NewReader(bad)
	if r.Str(); !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("short string: got %v, want ErrCorrupt", r.Err())
	}
}

func TestValueRoundTrip(t *testing.T) {
	vals := []types.Value{
		types.Null,
		types.Int(-42),
		types.Float(3.5),
		types.String_("s"),
		types.Bool(true),
		types.Bool(false),
		types.TimeVal(clock.Time(99)),
		types.Ref(types.OID(7)),
	}
	var buf []byte
	var err error
	for _, v := range vals {
		if buf, err = AppendValue(buf, v); err != nil {
			t.Fatal(err)
		}
	}
	r := NewReader(buf)
	for _, want := range vals {
		got := r.Value()
		if r.Err() != nil {
			t.Fatal(r.Err())
		}
		if got.Kind() != want.Kind() || got.String() != want.String() {
			t.Fatalf("value: got %v, want %v", got, want)
		}
	}
	if err := r.Done("values"); err != nil {
		t.Fatal(err)
	}
	// Unknown tag.
	r = NewReader([]byte{0xEE})
	if r.Value(); r.Err() == nil {
		t.Fatal("unknown value tag accepted")
	}
}
