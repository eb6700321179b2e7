package nsds

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"strconv"
	"testing"
	"unsafe"
)

func TestWireFrameRoundTrip(t *testing.T) {
	in := []Sample{
		{Channel: "uiuc.disp", Seq: 1, T: 0.01, Value: 1.5e-3},
		{Channel: "uiuc.force", Seq: 2, T: 0.01, Value: -7.7e3},
		{Channel: "", Seq: 3, T: math.Inf(1), Value: math.SmallestNonzeroFloat64},
		{Channel: "uiuc.disp", Seq: 4, T: -0.5, Value: 0},
	}
	frame := appendFrame(nil, in)
	if len(frame) != frameSize(in) {
		t.Fatalf("frame size = %d, frameSize() = %d", len(frame), frameSize(in))
	}
	dec := newFrameDecoder(bytes.NewReader(frame))
	out, err := dec.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", in, out)
	}
}

func TestWireDecoderInternsChannelNames(t *testing.T) {
	in := []Sample{{Channel: "a.disp", Seq: 1}, {Channel: "a.disp", Seq: 2}}
	var buf bytes.Buffer
	buf.Write(appendFrame(nil, in))
	buf.Write(appendFrame(nil, in))
	dec := newFrameDecoder(&buf)
	first, err := dec.Next()
	if err != nil {
		t.Fatal(err)
	}
	second, err := dec.Next()
	if err != nil {
		t.Fatal(err)
	}
	// Interning means the decoder hands out one canonical string across
	// frames instead of allocating per sample.
	if unsafe.StringData(first[0].Channel) != unsafe.StringData(second[1].Channel) {
		t.Fatal("channel names not interned across frames")
	}
}

// An upstream that streams unique channel names must not grow the
// decoder's intern table without bound, and resetting the table must not
// corrupt any decoded name.
func TestWireDecoderBoundsInternTable(t *testing.T) {
	const n = 2*maxInternedNames + 7
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		buf.Write(appendFrame(nil, []Sample{{Channel: "ch." + strconv.Itoa(i), Seq: uint64(i)}}))
	}
	dec := newFrameDecoder(&buf)
	for i := 0; i < n; i++ {
		got, err := dec.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if want := "ch." + strconv.Itoa(i); len(got) != 1 || got[0].Channel != want || got[0].Seq != uint64(i) {
			t.Fatalf("frame %d decoded %+v, want channel %q", i, got, want)
		}
		if len(dec.names) > maxInternedNames {
			t.Fatalf("intern table holds %d names after frame %d, cap %d", len(dec.names), i, maxInternedNames)
		}
	}
}

// FuzzFrameDecoder feeds arbitrary bytes to the decoder: Next must never
// panic, and every frame it accepts must re-encode byte for byte.
func FuzzFrameDecoder(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := newFrameDecoder(bytes.NewReader(data))
		for off := 0; ; {
			samples, err := dec.Next()
			if err != nil {
				return
			}
			end := off + 4 + int(binary.LittleEndian.Uint32(data[off:]))
			if got := appendFrame(nil, samples); !bytes.Equal(got, data[off:end]) {
				t.Fatalf("frame at %d re-encodes as %x, want %x", off, got, data[off:end])
			}
			off = end
		}
	})
}

func TestWireDecoderRejectsCorruptFrames(t *testing.T) {
	good := appendFrame(nil, []Sample{{Channel: "a", Seq: 1}})
	cases := map[string][]byte{
		"bad version":    append(append([]byte{}, good[:4]...), append([]byte{99}, good[5:]...)...),
		"oversize len":   {0xff, 0xff, 0xff, 0xff, wireVersion},
		"truncated body": good[:len(good)-3],
	}
	for name, frame := range cases {
		dec := newFrameDecoder(bytes.NewReader(frame))
		if _, err := dec.Next(); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

func TestBatchFrameEncodedOnceAndShared(t *testing.T) {
	b := newBatch([]Sample{{Channel: "a", Seq: 1}, {Channel: "b", Seq: 2}})
	f1 := b.Frame()
	f2 := b.Frame()
	if &f1[0] != &f2[0] {
		t.Fatal("Frame() re-encoded instead of returning the shared buffer")
	}
	dec := newFrameDecoder(bytes.NewReader(f1))
	out, err := dec.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, b.Samples) {
		t.Fatalf("decoded %+v, want %+v", out, b.Samples)
	}
}

func TestBatchFilterTo(t *testing.T) {
	b := newBatch([]Sample{{Channel: "a", Seq: 1}, {Channel: "b", Seq: 2}, {Channel: "a", Seq: 3}})
	sub := b.filterTo(map[string]bool{"a": true})
	if len(sub.Samples) != 2 || sub.Samples[0].Seq != 1 || sub.Samples[1].Seq != 3 {
		t.Fatalf("filtered batch = %+v", sub.Samples)
	}
	if b.filterTo(map[string]bool{"zzz": true}) != nil {
		t.Fatal("empty filter result should be nil")
	}
	if all := b.filterTo(map[string]bool{"a": true, "b": true}); all != b {
		t.Fatal("full-coverage filter should reuse the original batch (shared frame)")
	}
}
