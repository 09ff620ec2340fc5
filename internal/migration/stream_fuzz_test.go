package migration

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"javmm/internal/mem"
	"javmm/internal/netsim"
)

// validStream encodes a small well-formed page stream: two pages, an
// iteration boundary, one more page, end-of-stream.
func validStream(tb testing.TB) []byte {
	tb.Helper()
	src := mem.NewByteStore(8)
	for p := mem.PFN(0); p < 3; p++ {
		src.Write(p)
	}
	var buf bytes.Buffer
	w := netsim.NewPageWriter(&buf)
	for _, p := range []mem.PFN{0, 1} {
		if err := w.WritePage(p, src.AppendExport(nil, p)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.EndIteration(); err != nil {
		tb.Fatal(err)
	}
	if err := w.WritePage(2, src.AppendExport(nil, 2)); err != nil {
		tb.Fatal(err)
	}
	if err := w.EndStream(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReceiveIntoStore feeds arbitrary byte streams — seeded with valid
// encodings plus truncated, duplicated and bit-flipped mutations — into the
// real destination receive loop. The contract under attack: a malformed
// stream must produce an error, never a panic, and never an allocation
// beyond the protocol's frame-payload bound.
func FuzzReceiveIntoStore(f *testing.F) {
	valid := validStream(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])                         // truncated mid-stream
	f.Add(append(append([]byte{}, valid...), valid...)) // duplicated (trailing junk)
	flipped := append([]byte{}, valid...)
	flipped[0] ^= 0xff // corrupt the first frame kind
	f.Add(flipped)
	flipped2 := append([]byte{}, valid...)
	flipped2[9] ^= 0x80 // corrupt a length byte: huge declared payload
	f.Add(flipped2)
	// A header declaring a payload beyond the 1 MiB protocol bound.
	huge := make([]byte, 13)
	huge[0] = netsim.FramePage
	binary.BigEndian.PutUint32(huge[9:13], 1<<30)
	f.Add(huge)
	f.Add([]byte{})
	f.Add([]byte{netsim.FrameEndStream})

	f.Fuzz(func(t *testing.T, data []byte) {
		store := mem.NewByteStore(8)
		pages, err := ReceiveIntoStore(bytes.NewReader(data), store)
		// Every applied page consumed at least a 13-byte header plus the
		// 8+PageSize payload ByteStore.Import insists on; anything more
		// means the receive loop invented frames.
		frameCost := uint64(13 + 8 + mem.PageSize)
		if max := uint64(len(data))/frameCost + 1; pages > max {
			t.Fatalf("%d pages applied from %d input bytes", pages, len(data))
		}
		if err == nil {
			// Clean termination requires an end-of-stream frame on the wire.
			if !bytes.Contains(data, []byte{netsim.FrameEndStream}) {
				t.Fatalf("nil error from a stream with no end-of-stream marker")
			}
		}
	})
}

func TestReceiveIntoStoreOversizedPayloadHeader(t *testing.T) {
	// A corrupt header declaring a 1 GiB payload must be refused before
	// allocation, not swallowed into a huge make([]byte, n).
	frame := make([]byte, 13)
	frame[0] = netsim.FramePage
	binary.BigEndian.PutUint32(frame[9:13], 1<<30)
	_, err := ReceiveIntoStore(bytes.NewReader(frame), mem.NewByteStore(1))
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversized payload header not refused: %v", err)
	}
}

func TestReceiveIntoStoreDuplicatedFramesAreTrailingJunk(t *testing.T) {
	// A duplicated stream ends at the first end-of-stream frame; the copy
	// behind it is unread, and the pages applied match the first stream.
	valid := validStream(t)
	doubled := append(append([]byte{}, valid...), valid...)
	store := mem.NewByteStore(8)
	pages, err := ReceiveIntoStore(bytes.NewReader(doubled), store)
	if err != nil {
		t.Fatal(err)
	}
	if pages != 3 {
		t.Fatalf("applied %d pages, want 3 (duplicate is past end-of-stream)", pages)
	}
}
