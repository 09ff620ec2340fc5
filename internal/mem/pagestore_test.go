package mem

import (
	"bytes"
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
