package mem

import (
	"encoding/binary"
	"fmt"
)

// PageStore holds the contents of a VM's pseudo-physical memory and is the
// interface between the guest (which writes pages) and the migration engine
// (which copies pages between hosts).
//
// Two implementations are provided. VersionStore models each page's content
// as a monotonically increasing version stamp; a "transfer" copies the stamp.
// This is cheap enough to simulate multi-GiB VMs and still lets tests verify
// migration correctness exactly (destination version == source version for
// every page that had to be migrated). ByteStore holds real 4 KiB buffers and
// backs the real-TCP integration tests and the compression extension.
type PageStore interface {
	// NumPages returns the number of pages in the store.
	NumPages() uint64
	// Write records a guest write to page p. It returns the page's new
	// version.
	Write(p PFN) uint64
	// WritePages records one guest write to each page of ps, in order. The
	// result equals one Write per page; it exists so a run of pages pays
	// one interface call and the increments overlap their cache misses.
	WritePages(ps []PFN)
	// Version returns the page's current version (0 = never written).
	Version(p PFN) uint64
	// AppendExport appends page p's serialized form to dst and returns the
	// extended slice, so hot paths can reuse one buffer for every page.
	AppendExport(dst []byte, p PFN) []byte
	// Import overwrites page p with data produced by AppendExport.
	Import(p PFN, data []byte) error
	// WireSize returns the number of bytes a page transfer occupies on the
	// network. For both stores this is PageSize: the version encoding is a
	// modelling shortcut, not a claim of compression.
	WireSize() uint64
}

// VersionStore is the versioned PageStore used by the deterministic
// simulations. The zero value is not usable; use NewVersionStore.
type VersionStore struct {
	versions []uint64
}

// NewVersionStore returns a store of n pages, all at version 0.
func NewVersionStore(n uint64) *VersionStore {
	return &VersionStore{versions: make([]uint64, n)}
}

// NumPages implements PageStore.
func (s *VersionStore) NumPages() uint64 { return uint64(len(s.versions)) }

// Write implements PageStore.
func (s *VersionStore) Write(p PFN) uint64 {
	s.versions[p]++
	return s.versions[p]
}

// WritePages implements PageStore.
func (s *VersionStore) WritePages(ps []PFN) {
	v := s.versions
	for _, p := range ps {
		v[p]++
	}
}

// Version implements PageStore.
func (s *VersionStore) Version(p PFN) uint64 { return s.versions[p] }

// AppendExport implements PageStore. The wire format is the 8-byte
// big-endian version.
func (s *VersionStore) AppendExport(dst []byte, p PFN) []byte {
	return binary.BigEndian.AppendUint64(dst, s.versions[p])
}

// Import implements PageStore.
func (s *VersionStore) Import(p PFN, data []byte) error {
	if len(data) != 8 {
		return fmt.Errorf("mem: version page payload is %d bytes, want 8", len(data))
	}
	s.versions[p] = binary.BigEndian.Uint64(data)
	return nil
}

// WireSize implements PageStore.
func (s *VersionStore) WireSize() uint64 { return PageSize }

// ByteStore is a PageStore with real page contents. Guest writes stamp a
// deterministic pattern derived from the page's version so that two stores
// agree byte-for-byte iff their versions agree.
type ByteStore struct {
	versions []uint64
	data     []byte
}

// NewByteStore returns a byte-backed store of n pages.
func NewByteStore(n uint64) *ByteStore {
	return &ByteStore{
		versions: make([]uint64, n),
		data:     make([]byte, n*PageSize),
	}
}

// NumPages implements PageStore.
func (s *ByteStore) NumPages() uint64 { return uint64(len(s.versions)) }

// Write implements PageStore.
func (s *ByteStore) Write(p PFN) uint64 {
	s.versions[p]++
	s.stamp(p)
	return s.versions[p]
}

// WritePages implements PageStore.
func (s *ByteStore) WritePages(ps []PFN) {
	for _, p := range ps {
		s.Write(p)
	}
}

// stamp fills the page with a pattern derived from (pfn, version).
func (s *ByteStore) stamp(p PFN) {
	page := s.Page(p)
	v := s.versions[p]
	binary.BigEndian.PutUint64(page[:8], uint64(p))
	binary.BigEndian.PutUint64(page[8:16], v)
	// A simple xorshift fill makes the page content version-dependent
	// throughout, so a partial copy cannot masquerade as a full one.
	x := uint64(p)*0x9e3779b97f4a7c15 + v
	for off := 16; off < PageSize; off += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.BigEndian.PutUint64(page[off:off+8], x)
	}
}

// Page returns the live 4 KiB slice backing page p.
func (s *ByteStore) Page(p PFN) []byte {
	off := uint64(p) * PageSize
	return s.data[off : off+PageSize]
}

// Version implements PageStore.
func (s *ByteStore) Version(p PFN) uint64 { return s.versions[p] }

// AppendExport implements PageStore. The wire format is version followed by
// the raw page bytes.
func (s *ByteStore) AppendExport(dst []byte, p PFN) []byte {
	dst = binary.BigEndian.AppendUint64(dst, s.versions[p])
	return append(dst, s.Page(p)...)
}

// Import implements PageStore.
func (s *ByteStore) Import(p PFN, data []byte) error {
	if len(data) != 8+PageSize {
		return fmt.Errorf("mem: byte page payload is %d bytes, want %d", len(data), 8+PageSize)
	}
	s.versions[p] = binary.BigEndian.Uint64(data[:8])
	copy(s.Page(p), data[8:])
	return nil
}

// WireSize implements PageStore.
func (s *ByteStore) WireSize() uint64 { return PageSize }
