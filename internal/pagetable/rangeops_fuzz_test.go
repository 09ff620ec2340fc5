package pagetable

import (
	"encoding/binary"
	"reflect"
	"slices"
	"testing"

	"javmm/internal/mem"
)

// The fuzzed address spaces span fuzzPages pages from fuzzBase, which is not
// leaf-aligned, so ranges cross leaf tables at uneven offsets.
const (
	fuzzBase  = mem.VA(0x7f0000000000 + 300*mem.PageSize)
	fuzzPages = 3 * leafSlots
)

// Each fuzzed operation is fuzzOpLen bytes: the operation, a start page and
// a length in pages (both little-endian uint16) and a byte offset / 16.
const (
	fuzzOpLen = 6
	fuzzMaxOp = 48
)

const (
	opMapRange = iota
	opUnmapRange
	opWalk
	opFrameRun
	opMap
	opUnmap
	numOps
)

// space is an address space with a frame allocator of its own. Its methods
// are the reference the range operations must match: each does the same
// work one page at a time through Map, Unmap and Translate.
type space struct {
	as *AddressSpace
	f  *FrameAllocator
}

func newSpace(frames uint64) space {
	f := NewFrameAllocator(frames)
	return space{as: NewAddressSpace(f), f: f}
}

func (m space) mapRange(r mem.VARange) error {
	r = r.PageAlignInward()
	for va := r.Start; va < r.End; va += mem.PageSize {
		p, err := m.f.Alloc()
		if err != nil {
			for d := r.Start; d < va; d += mem.PageSize {
				m.f.Release(m.as.Unmap(d))
			}
			return err
		}
		m.as.Map(va, p)
	}
	return nil
}

func (m space) unmapRange(r mem.VARange) uint64 {
	r = r.PageAlignInward()
	var n uint64
	for va := r.Start; va < r.End; va += mem.PageSize {
		if _, ok := m.as.Translate(va); ok {
			m.f.Release(m.as.Unmap(va))
			n++
		}
	}
	return n
}

func (m space) walk(r mem.VARange, fn func(mem.VA, mem.PFN)) {
	r = r.PageAlignInward()
	for va := r.Start; va < r.End; va += mem.PageSize {
		if p, ok := m.as.Translate(va); ok {
			fn(va, p)
		}
	}
}

func (m space) frameRun(va, end mem.VA) []mem.PFN {
	if end <= va {
		return nil
	}
	var run []mem.PFN
	for v := va.PageBase(); v < end && v.PageOf()>>dirShift == va.PageOf()>>dirShift; v += mem.PageSize {
		p, ok := m.as.Translate(v)
		if !ok {
			break
		}
		run = append(run, p)
	}
	return run
}

// walked is the sequence a walk visits, as VA and frame pairs.
type walked []uint64

func (w *walked) visit(va mem.VA, p mem.PFN) { *w = append(*w, uint64(va), uint64(p)) }

// leafNames names each leaf table of a by the order it was first seen in,
// scanning the directory in index order and then the spare list, and
// returns the directory's index and name pairs, -1, and the spare names.
// Two address spaces that create, reuse and retire leaves in the same order
// name them alike.
func leafNames(a *AddressSpace, names map[*ptTable]int) []int {
	name := func(t *ptTable) int {
		id, ok := names[t]
		if !ok {
			id = len(names)
			names[t] = id
		}
		return id
	}
	keys := make([]uint64, 0, len(a.dir))
	for k := range a.dir {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	var out []int
	for _, k := range keys {
		out = append(out, int(k), name(a.dir[k]))
	}
	out = append(out, -1)
	for _, t := range a.spare {
		out = append(out, name(t))
	}
	return out
}

// fuzzOp encodes one operation for the seed corpus.
func fuzzOp(op byte, start, pages uint16, off byte) []byte {
	b := []byte{op, 0, 0, 0, 0, off}
	binary.LittleEndian.PutUint16(b[1:], start)
	binary.LittleEndian.PutUint16(b[3:], pages)
	return b
}

func fuzzInput(frames byte, ops ...[]byte) []byte {
	return append([]byte{frames}, slices.Concat(ops...)...)
}

// FuzzRangeOpsMatchPerPage decodes a sequence of MapRange, UnmapRange, Walk,
// FrameRun, Map and Unmap calls over a few leaf tables, with an allocator
// small enough to run out, and checks each against a twin address space
// that does the same one page at a time with Map, Unmap and Translate on its
// own allocator of the same size. After every operation the two agree on the
// result, the walk sequence, every page-table entry, Mapped, the allocator's
// whole state (so frames come and are reused in the same order), and the
// order leaf tables are created, reused and retired in. Inputs that would
// map a page twice are skipped.
func FuzzRangeOpsMatchPerPage(f *testing.F) {
	// The first leaf boundary above fuzzBase is 212 pages in.
	f.Add(fuzzInput(255,
		fuzzOp(opMapRange, 100, 700, 0),  // crosses two leaf boundaries
		fuzzOp(opFrameRun, 150, 600, 0),  // stops at the boundary at 212
		fuzzOp(opFrameRun, 212, 600, 0),  // a full leaf
		fuzzOp(opFrameRun, 300, 100, 0),  // ends inside the full leaf
		fuzzOp(opUnmap, 400, 0, 0),       // a hole in the full leaf
		fuzzOp(opFrameRun, 212, 600, 0),  // stops before the hole
		fuzzOp(opWalk, 0, 1536, 0),       // skips the hole and absent leaves
		fuzzOp(opUnmapRange, 90, 300, 7), // unaligned: empties the first leaf
		fuzzOp(opMap, 400, 0, 0),         // refills the hole
		fuzzOp(opUnmapRange, 0, 1536, 0), // retires every leaf
		fuzzOp(opMapRange, 700, 500, 0),  // reuses the retired leaves
		fuzzOp(opWalk, 600, 700, 33),
	))
	f.Add(fuzzInput(40, // 321 frames
		fuzzOp(opMapRange, 0, 200, 0),
		fuzzOp(opMapRange, 180, 400, 0), // would double-map: skipped
		fuzzOp(opMapRange, 200, 400, 0), // runs out across a boundary and unwinds
		fuzzOp(opUnmapRange, 50, 20, 0),
		fuzzOp(opMapRange, 300, 100, 0), // reuses the released frames LIFO
		fuzzOp(opFrameRun, 40, 100, 5),
		fuzzOp(opMapRange, 1000, 500, 0), // runs out inside a fresh leaf
		fuzzOp(opWalk, 0, 1536, 0),
	))
	f.Add(fuzzInput(0, fuzzOp(opMapRange, 211, 2, 0), fuzzOp(opMap, 5, 0, 0), fuzzOp(opUnmap, 5, 0, 0)))
	f.Add(fuzzInput(8, fuzzOp(opFrameRun, 212, 0, 9), fuzzOp(opWalk, 212, 1, 1)))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		frames := 1 + 8*uint64(data[0])
		ranges, pages := newSpace(frames), newSpace(frames)
		rangeNames, pageNames := map[*ptTable]int{}, map[*ptTable]int{}
		data = data[1:]
		for n := 0; len(data) >= fuzzOpLen && n < fuzzMaxOp; n++ {
			b := data[:fuzzOpLen]
			data = data[fuzzOpLen:]
			op := b[0] % numOps
			start := fuzzBase + mem.VA(binary.LittleEndian.Uint16(b[1:])%fuzzPages)*mem.PageSize +
				mem.VA(b[5])*16
			r := mem.VARange{Start: start,
				End: start + mem.VA(binary.LittleEndian.Uint16(b[3:])%(fuzzPages+1))*mem.PageSize}
			_, mapped := pages.as.Translate(start)

			switch op {
			case opMapRange:
				var seen walked
				pages.walk(r, seen.visit)
				if len(seen) > 0 {
					continue
				}
				got, want := ranges.as.MapRange(r), pages.mapRange(r)
				if (got == nil) != (want == nil) {
					t.Fatalf("MapRange(%v) = %v, per page %v", r, got, want)
				}
			case opUnmapRange:
				if got, want := ranges.as.UnmapRange(r), pages.unmapRange(r); got != want {
					t.Fatalf("UnmapRange(%v) = %d, per page %d", r, got, want)
				}
			case opWalk:
				var got, want walked
				ranges.as.Walk(r, got.visit)
				pages.walk(r, want.visit)
				if !slices.Equal(got, want) {
					t.Fatalf("Walk(%v) visited %v, per page %v", r, got, want)
				}
			case opFrameRun:
				if got, want := ranges.as.FrameRun(r.Start, r.End), pages.frameRun(r.Start, r.End); !slices.Equal(got, want) {
					t.Fatalf("FrameRun(%#x, %#x) = %v, per page %v", uint64(r.Start), uint64(r.End), got, want)
				}
			case opMap:
				if mapped {
					continue
				}
				got, gotErr := ranges.f.Alloc()
				want, wantErr := pages.f.Alloc()
				if got != want || (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("Alloc = %d, %v; per page %d, %v", got, gotErr, want, wantErr)
				}
				if gotErr == nil {
					ranges.as.Map(start, got)
					pages.as.Map(start, want)
				}
			case opUnmap:
				if !mapped {
					continue
				}
				got, want := ranges.as.Unmap(start), pages.as.Unmap(start)
				if got != want {
					t.Fatalf("Unmap(%#x) = %d, per page %d", uint64(start), got, want)
				}
				ranges.f.Release(got)
				pages.f.Release(want)
			}

			if !reflect.DeepEqual(ranges.as, pages.as) {
				t.Fatalf("op %d on %v: page tables or allocators diverge (mapped %d, per page %d; free %d, per page %d)",
					op, r, ranges.as.Mapped(), pages.as.Mapped(), ranges.f.Free(), pages.f.Free())
			}
			if got, want := leafNames(ranges.as, rangeNames), leafNames(pages.as, pageNames); !slices.Equal(got, want) {
				t.Fatalf("op %d on %v: leaf tables %v, per page %v", op, r, got, want)
			}
		}
	})
}
