package mem

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"
)

func TestVersionStoreWriteBumps(t *testing.T) {
	s := NewVersionStore(4)
	if s.Version(2) != 0 {
		t.Fatal("fresh page has nonzero version")
	}
	if v := s.Write(2); v != 1 {
		t.Fatalf("first Write = %d, want 1", v)
	}
	if v := s.Write(2); v != 2 {
		t.Fatalf("second Write = %d, want 2", v)
	}
	if s.Version(3) != 0 {
		t.Fatal("Write leaked to another page")
	}
}

func TestVersionStoreExportImportRoundTrip(t *testing.T) {
	src := NewVersionStore(4)
	dst := NewVersionStore(4)
	src.Write(1)
	src.Write(1)
	src.Write(3)
	var buf []byte
	for p := PFN(0); p < 4; p++ {
		buf = src.AppendExport(buf[:0], p)
		if err := dst.Import(p, buf); err != nil {
			t.Fatal(err)
		}
	}
	for p := PFN(0); p < 4; p++ {
		if dst.Version(p) != src.Version(p) {
			t.Fatalf("page %d: dst %d src %d", p, dst.Version(p), src.Version(p))
		}
	}
}

func TestVersionStoreImportBadPayload(t *testing.T) {
	s := NewVersionStore(1)
	if err := s.Import(0, []byte{1, 2, 3}); err == nil {
		t.Fatal("short payload accepted")
	}
}

func TestVersionStoreWireSizeIsPage(t *testing.T) {
	if got := NewVersionStore(1).WireSize(); got != PageSize {
		t.Fatalf("WireSize = %d, want %d", got, PageSize)
	}
}

func TestByteStoreStampDeterministic(t *testing.T) {
	a, b := NewByteStore(2), NewByteStore(2)
	a.Write(1)
	b.Write(1)
	if !bytes.Equal(a.Page(1), b.Page(1)) {
		t.Fatal("same (pfn,version) produced different contents")
	}
	a.Write(1)
	if bytes.Equal(a.Page(1), b.Page(1)) {
		t.Fatal("different versions produced identical contents")
	}
}

func TestByteStoreContentsDifferAcrossPages(t *testing.T) {
	s := NewByteStore(2)
	s.Write(0)
	s.Write(1)
	if bytes.Equal(s.Page(0), s.Page(1)) {
		t.Fatal("distinct pages at same version have identical contents")
	}
}

func TestByteStoreExportImportRoundTrip(t *testing.T) {
	src := NewByteStore(3)
	dst := NewByteStore(3)
	src.Write(0)
	src.Write(2)
	src.Write(2)
	var buf []byte
	for p := PFN(0); p < 3; p++ {
		buf = src.AppendExport(buf[:0], p)
		if err := dst.Import(p, buf); err != nil {
			t.Fatal(err)
		}
	}
	for p := PFN(0); p < 3; p++ {
		if dst.Version(p) != src.Version(p) {
			t.Fatalf("page %d version mismatch", p)
		}
		if !bytes.Equal(dst.Page(p), src.Page(p)) {
			t.Fatalf("page %d content mismatch", p)
		}
	}
}

func TestByteStoreImportBadPayload(t *testing.T) {
	s := NewByteStore(1)
	if err := s.Import(0, make([]byte, PageSize)); err == nil {
		t.Fatal("payload without version header accepted")
	}
}

// AppendExport appends after whatever dst already holds: the engine packs a
// whole chunk of payloads into one buffer and slices them back out.
func TestAppendExportAppends(t *testing.T) {
	for _, store := range []PageStore{NewVersionStore(2), NewByteStore(2)} {
		store.Write(1)
		one := store.AppendExport(nil, 1)
		packed := store.AppendExport(store.AppendExport([]byte("hdr"), 0), 1)
		if string(packed[:3]) != "hdr" {
			t.Fatalf("%T: prefix overwritten", store)
		}
		if !bytes.Equal(packed[len(packed)-len(one):], one) {
			t.Fatalf("%T: appended payload differs from a lone export", store)
		}
		if want := 3 + 2*len(one); len(packed) != want {
			t.Fatalf("%T: packed length %d, want %d", store, len(packed), want)
		}
	}
}

// WritePages equals one Write per page, repeated pages included, in both
// stores (ByteStore's page contents too).
func TestWritePagesMatchesWrite(t *testing.T) {
	run := []PFN{3, 0, 3, 5, 1}
	for _, mk := range []func() PageStore{
		func() PageStore { return NewVersionStore(6) },
		func() PageStore { return NewByteStore(6) },
	} {
		batch, single := mk(), mk()
		batch.WritePages(run)
		for _, p := range run {
			single.Write(p)
		}
		for p := PFN(0); p < 6; p++ {
			if batch.Version(p) != single.Version(p) {
				t.Fatalf("%T page %d: version %d, per-page %d", batch, p, batch.Version(p), single.Version(p))
			}
			if !bytes.Equal(batch.AppendExport(nil, p), single.AppendExport(nil, p)) {
				t.Fatalf("%T page %d: contents differ from per-page writes", batch, p)
			}
		}
	}
}

// Exporting into a buffer with room allocates nothing: the per-page send
// path depends on it.
func TestVersionStoreAppendExportAllocs(t *testing.T) {
	s := NewVersionStore(16)
	s.Write(3)
	buf := make([]byte, 0, 8)
	allocs := testing.AllocsPerRun(100, func() {
		buf = s.AppendExport(buf[:0], 3)
	})
	if allocs != 0 {
		t.Fatalf("AppendExport into a sized buffer: %v allocs, want 0", allocs)
	}
}

// ImportPages equals Import per page for a run packed at the store's export
// size, and a run at the wrong stride is refused at its first page with
// nothing imported.
func TestImportPagesMatchesImport(t *testing.T) {
	run := []PFN{4, 0, 2, 5}
	for _, mk := range []func() PageStore{
		func() PageStore { return NewVersionStore(6) },
		func() PageStore { return NewByteStore(6) },
	} {
		src := mk()
		for p := PFN(0); p < 6; p++ {
			for w := PFN(0); w <= p; w++ {
				src.Write(p)
			}
		}
		var packed []byte
		for _, p := range run {
			packed = src.AppendExport(packed, p)
		}
		stride := len(packed) / len(run)
		batch, single := mk(), mk()
		if n, err := batch.ImportPages(run, packed); n != len(run) || err != nil {
			t.Fatalf("%T ImportPages = %d, %v", batch, n, err)
		}
		for i, p := range run {
			if err := single.Import(p, packed[i*stride:(i+1)*stride]); err != nil {
				t.Fatal(err)
			}
		}
		for p := PFN(0); p < 6; p++ {
			if !bytes.Equal(batch.AppendExport(nil, p), single.AppendExport(nil, p)) {
				t.Fatalf("%T page %d differs from per-page import", batch, p)
			}
		}
		fresh := mk()
		if n, err := fresh.ImportPages(run, packed[:len(packed)-len(run)]); n != 0 || err == nil {
			t.Fatalf("%T accepted a short stride: %d, %v", fresh, n, err)
		}
		for p := PFN(0); p < 6; p++ {
			if fresh.Version(p) != 0 {
				t.Fatalf("%T refused run still imported page %d", fresh, p)
			}
		}
	}
}

func TestPageStoreInterfaceCompliance(t *testing.T) {
	var _ PageStore = NewVersionStore(1)
	var _ PageStore = NewByteStore(1)
}

// A VersionStore costs one byte per page until some version passes 255;
// the first carry then allocates the high parts, once. The guard reads the
// exact heap bytes runtime.MemStats books, so an eagerly allocated high
// part, or a wider low part, fails it. The slack, an eighth of the low
// bytes, covers what the runtime and the test harness may allocate
// meanwhile (5 KiB was seen under `go test`).
func TestVersionStoreFootprint(t *testing.T) {
	const n, slack = 1 << 19, 64 << 10
	runtime.GC()
	var s *VersionStore
	if got := allocBytes(func() { s = NewVersionStore(n) }); got > n+slack {
		t.Fatalf("NewVersionStore(%d) allocated %d bytes, want at most %d", n, got, n+slack)
	}
	run := make([]PFN, 0, n/2)
	for p := PFN(0); p < n; p += 2 {
		run = append(run, p)
	}
	if got := allocBytes(func() {
		for i := 0; i < 255; i++ {
			s.WritePages(run)
			s.Write(1)
		}
	}); got > slack {
		t.Fatalf("writes below version 256 allocated %d bytes", got)
	}
	if got := allocBytes(func() { s.Write(0) }); got < 8*n || got > 8*n+slack {
		t.Fatalf("first carry allocated %d bytes, want the %d-byte high part", got, 8*n)
	}
	if got := allocBytes(func() { s.WritePages(run); s.Write(1) }); got > slack {
		t.Fatalf("carries after the first allocated %d more bytes", got)
	}
	if s.Version(0) != 257 || s.Version(2) != 256 || s.Version(1) != 256 || s.Version(3) != 0 {
		t.Fatalf("versions %d %d %d %d, want 257 256 256 0", s.Version(0), s.Version(2), s.Version(1), s.Version(3))
	}
}

// allocBytes returns the heap bytes f allocates.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// fuzzOps feeds FuzzVersionStoreMatchesModel's decoder; it reads 0 once
// exhausted.
type fuzzOps []byte

func (b *fuzzOps) next() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

// versionBases are the edges of the store's layout: the low byte's wrap,
// the high part's top byte and the uint64 wrap.
var versionBases = [...]uint64{0, 255, 256, 1 << 56, math.MaxUint64}

// version draws a version within ±128 of one of versionBases.
func (b *fuzzOps) version() uint64 {
	base := versionBases[int(b.next())%len(versionBases)]
	return base + uint64(int64(int8(b.next())))
}

// pages draws a run of n pages.
func (b *fuzzOps) pages(n int) []PFN {
	ps := make([]PFN, n)
	for i := range ps {
		ps[i] = PFN(b.next() % fuzzStorePages)
	}
	return ps
}

const fuzzStorePages = 6

// encodeWrites encodes `times` Writes of page p as fuzz ops.
func encodeWrites(p PFN, times int) []byte {
	var b []byte
	for ; times > 0; times -= 256 {
		b = append(b, 0, byte(p), byte(min(times, 256)-1))
	}
	return b
}

// FuzzVersionStoreMatchesModel drives a VersionStore and a plain []uint64
// model with the same writes and imports, with versions drawn near the
// layout's edges, and compares every page's Version and AppendExport after
// every op. An op is an opcode byte and its arguments:
//
//	0 p k                   Write page p, k+1 times
//	1 n p×n                 WritePages on a run of n pages
//	2 p (base δ) bad        Import page p; bad%4 == 0 sends a wrong length
//	3 n p×n (base δ)×n cut  ImportPages; cut%4 picks the stride: 0 shorter,
//	                        1 longer, 2 right with a tail, 3 right
func FuzzVersionStoreMatchesModel(f *testing.F) {
	// Cross 255 by WritePages with a repeated page, then by Write.
	f.Add(append(append([]byte{1, 255}, bytes.Repeat([]byte{1}, 255)...), 1, 3, 1, 2, 1))
	f.Add(encodeWrites(2, 600))
	// Cross 255 by Import, then import small versions over the high part.
	f.Add([]byte{2, 3, 1, 1, 1, 2, 3, 0, 5, 1, 2, 4, 0, 9, 1})
	f.Add([]byte{
		3, 3, 4, 5, 4, 3, 0, 0, 7, 4, 0, 3,
		3, 2, 4, 5, 0, 1, 0, 2, 3,
		3, 2, 5, 4, 2, 0, 0, 0, 0,
	})
	// Wrap at 2^64, by writes and by import.
	f.Add(append([]byte{2, 0, 4, 0xFF, 1}, encodeWrites(0, 3)...))
	f.Add([]byte{2, 1, 4, 0, 1, 3, 1, 1, 0, 0, 3, 0, 1, 2})
	// Runs at a wrong stride, then a small import after a wrong-length one.
	f.Add([]byte{3, 2, 0, 1, 2, 0, 3, 0, 0, 3, 2, 0, 1, 1, 0, 2, 0, 1, 2, 1, 1, 0, 4, 2, 1, 1, 0, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewVersionStore(fuzzStorePages)
		model := make([]uint64, fuzzStorePages)
		ops := fuzzOps(data)
		for step := 0; len(ops) > 0; step++ {
			switch op := ops.next() % 4; op {
			case 0:
				p, k := PFN(ops.next()%fuzzStorePages), int(ops.next())+1
				for ; k > 0; k-- {
					model[p]++
					if got := s.Write(p); got != model[p] {
						t.Fatalf("op %d: Write(%d) = %d, want %d", step, p, got, model[p])
					}
				}
			case 1:
				run := ops.pages(int(ops.next()))
				for _, p := range run {
					model[p]++
				}
				s.WritePages(run)
			case 2:
				p, v := PFN(ops.next()%fuzzStorePages), ops.version()
				payload := binary.BigEndian.AppendUint64(nil, v)
				if bad := ops.next(); bad%4 == 0 {
					payload = make([]byte, (int(bad/4)%16+9)%17) // 0–7 or 9–16 bytes
				}
				err := s.Import(p, payload)
				if len(payload) == 8 {
					model[p] = v
				}
				if (err == nil) != (len(payload) == 8) {
					t.Fatalf("op %d: Import of %d bytes: err %v", step, len(payload), err)
				}
			case 3:
				run := ops.pages(int(ops.next()) % 33)
				var packed []byte
				vs := make([]uint64, len(run))
				for i := range run {
					vs[i] = ops.version()
					packed = binary.BigEndian.AppendUint64(packed, vs[i])
				}
				cut := ops.next()
				right := len(run) == 0
				switch extra := int(cut/4)%8 + 1; cut % 4 {
				case 0:
					packed = packed[:len(packed)-min(extra, len(packed))]
				case 1:
					packed = append(packed, make([]byte, extra*len(run))...)
				case 2:
					if len(run) > 1 {
						packed = append(packed, make([]byte, extra%len(run))...)
					}
					right = true
				default:
					right = true
				}
				n, err := s.ImportPages(run, packed)
				if right {
					if n != len(run) || err != nil {
						t.Fatalf("op %d: ImportPages at stride 8 = %d, %v", step, n, err)
					}
					for i, p := range run {
						model[p] = vs[i]
					}
				} else if n != 0 || err == nil {
					t.Fatalf("op %d: ImportPages at a wrong stride = %d, %v", step, n, err)
				}
			}
			for p := PFN(0); p < fuzzStorePages; p++ {
				if got := s.Version(p); got != model[p] {
					t.Fatalf("op %d: page %d at version %d, want %d", step, p, got, model[p])
				}
				if got, want := s.AppendExport(nil, p), binary.BigEndian.AppendUint64(nil, model[p]); !bytes.Equal(got, want) {
					t.Fatalf("op %d: page %d exports %x, want %x", step, p, got, want)
				}
			}
		}
	})
}
