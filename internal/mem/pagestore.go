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
	// one interface call and its increments run in one tight loop. The
	// guest frame allocator spreads a run's pages over the whole store, so
	// VersionStore keeps a byte per page to hold those increments in cache.
	WritePages(ps []PFN)
	// Version returns the page's current version (0 = never written).
	Version(p PFN) uint64
	// AppendExport appends page p's serialized form to dst and returns the
	// extended slice, so hot paths can reuse one buffer for every page.
	AppendExport(dst []byte, p PFN) []byte
	// Import overwrites page p with data produced by AppendExport.
	Import(p PFN, data []byte) error
	// ImportPages imports a run of pages whose exports are packed back to
	// back at a fixed stride: page ps[i] takes data[i*s:(i+1)*s], where
	// s = len(data)/len(ps). It stops at the first page Import would
	// refuse and returns how many pages it imported; the refused page and
	// those after it are untouched.
	ImportPages(ps []PFN, data []byte) (int, error)
	// WireSize returns the number of bytes a page transfer occupies on the
	// network. For both stores this is PageSize: the version encoding is a
	// modelling shortcut, not a claim of compression.
	WireSize() uint64
}

// VersionStore is the versioned PageStore used by the deterministic
// simulations. The zero value is not usable; use NewVersionStore.
//
// A page's version is lo[p] | hi[p]<<8: one byte per page, plus a high
// part that is allocated only when some page first needs it (a write that
// wraps its low byte, or an import of a version of 256 or more). Simulated
// pages rarely pass 255, so a 2 GiB VM's versions fit in 512 KiB instead
// of 4 MiB, and the guest's writes, which the frame allocator spreads over
// the whole store, stay in the L2 cache instead of missing it. The
// arithmetic is exact modulo 2^64, as a plain uint64 counter's is.
type VersionStore struct {
	lo []uint8  // each page's version mod 256
	hi []uint64 // each page's version>>8; nil while every version is < 256
}

// NewVersionStore returns a store of n pages, all at version 0.
func NewVersionStore(n uint64) *VersionStore {
	return &VersionStore{lo: make([]uint8, n)}
}

// NumPages implements PageStore.
func (s *VersionStore) NumPages() uint64 { return uint64(len(s.lo)) }

// Write implements PageStore.
func (s *VersionStore) Write(p PFN) uint64 {
	if s.lo[p]++; s.lo[p] == 0 {
		s.highs()[p]++
	}
	return s.Version(p)
}

// WritePages implements PageStore. The increments touch only the low
// bytes; a page whose low byte wraps carries into the high part.
func (s *VersionStore) WritePages(ps []PFN) {
	lo := s.lo
	for _, p := range ps {
		if lo[p]++; lo[p] == 0 {
			s.highs()[p]++
		}
	}
}

// highs returns the high parts, allocating them at first use.
func (s *VersionStore) highs() []uint64 {
	if s.hi == nil {
		s.hi = make([]uint64, len(s.lo))
	}
	return s.hi
}

// Version implements PageStore.
func (s *VersionStore) Version(p PFN) uint64 {
	v := uint64(s.lo[p])
	if s.hi != nil {
		v |= s.hi[p] << 8
	}
	return v
}

// AppendExport implements PageStore. The wire format is the 8-byte
// big-endian version.
func (s *VersionStore) AppendExport(dst []byte, p PFN) []byte {
	return binary.BigEndian.AppendUint64(dst, s.Version(p))
}

// Import implements PageStore.
func (s *VersionStore) Import(p PFN, data []byte) error {
	if len(data) != 8 {
		return fmt.Errorf("mem: version page payload is %d bytes, want 8", len(data))
	}
	v := binary.BigEndian.Uint64(data)
	s.lo[p] = uint8(v)
	if s.hi != nil || v>>8 != 0 {
		s.highs()[p] = v >> 8
	}
	return nil
}

// ImportPages implements PageStore. The versions are decoded in one tight
// loop once the run's stride is known to be 8; while the store has no high
// parts, the loop stores low bytes only, until a version needs more.
func (s *VersionStore) ImportPages(ps []PFN, data []byte) (int, error) {
	if len(ps) == 0 {
		return 0, nil
	}
	if stride := len(data) / len(ps); stride != 8 {
		return 0, s.Import(ps[0], data[:stride])
	}
	lo, i := s.lo, 0
	if s.hi == nil {
		for ; i < len(ps); i++ {
			v := binary.BigEndian.Uint64(data[8*i:])
			if v>>8 != 0 {
				break
			}
			lo[ps[i]] = uint8(v)
		}
		if i == len(ps) {
			return len(ps), nil
		}
	}
	hi := s.highs()
	for ; i < len(ps); i++ {
		v := binary.BigEndian.Uint64(data[8*i:])
		lo[ps[i]] = uint8(v)
		hi[ps[i]] = v >> 8
	}
	return len(ps), nil
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

// ImportPages implements PageStore.
func (s *ByteStore) ImportPages(ps []PFN, data []byte) (int, error) {
	if len(ps) == 0 {
		return 0, nil
	}
	stride := len(data) / len(ps)
	for i, p := range ps {
		if err := s.Import(p, data[i*stride:(i+1)*stride]); err != nil {
			return i, err
		}
	}
	return len(ps), nil
}

// WireSize implements PageStore.
func (s *ByteStore) WireSize() uint64 { return PageSize }
