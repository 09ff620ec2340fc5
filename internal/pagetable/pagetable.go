// Package pagetable implements the guest-side memory management the LKM
// depends on: a physical frame allocator for the VM's pseudo-physical memory
// and per-process address spaces with walkable page tables.
//
// The paper's framework bridges the semantic gap between applications (which
// speak virtual addresses) and the migration daemon (which speaks PFNs) by
// having the guest kernel perform page-table walks (§3.3.2). This package is
// that machinery. Translation fidelity matters: when a skip-over area shrinks
// because memory was deallocated, the PFNs leaving the area are no longer in
// the page tables (§3.3.4) — tests rely on that behaviour being real.
package pagetable

import (
	"fmt"

	"javmm/internal/mem"
)

// FrameAllocator hands out page frames of a VM's pseudo-physical memory.
//
// Fresh frames are issued in a deterministic golden-ratio permutation of the
// frame space rather than lowest-first: on real hardware the machine frames
// backing consecutively-allocated virtual pages are effectively uncorrelated
// with the migration daemon's ascending-PFN scan order, and that
// decorrelation is what gives pre-copy its "skip pages already re-dirtied
// this round" savings (paper Figure 9). Released frames are recycled LIFO,
// like a per-CPU free list.
type FrameAllocator struct {
	free    *mem.Bitmap // set bit = frame free
	numFree uint64
	total   uint64

	stride   uint64 // coprime with total: generates the permutation
	cursor   uint64 // next frame in the permutation walk
	recycled []mem.PFN
}

// NewFrameAllocator returns an allocator over frames [0, total). Reserved
// frames (e.g. guest kernel text) can be carved out with Reserve.
func NewFrameAllocator(total uint64) *FrameAllocator {
	f := &FrameAllocator{free: mem.NewBitmap(total), numFree: total, total: total}
	f.free.SetAll()
	// Golden-ratio stride, adjusted to be coprime with total so the walk
	// visits every frame exactly once per lap, and reduced mod total (only
	// a one-frame space has stride == total) so that Alloc steps the cursor
	// with one conditional subtraction.
	f.stride = uint64(float64(total)*0.6180339887) | 1
	for gcd(f.stride, total) != 1 {
		f.stride += 2
	}
	if total > 0 {
		f.stride %= total
	}
	return f
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Total returns the number of frames the allocator manages.
func (f *FrameAllocator) Total() uint64 { return f.total }

// Free returns the number of unallocated frames.
func (f *FrameAllocator) Free() uint64 { return f.numFree }

// Reserve marks the frame range [start, start+n) as allocated forever.
// It panics if any frame is already in use: reservations happen at boot.
func (f *FrameAllocator) Reserve(start mem.PFN, n uint64) {
	for p := start; p < start+mem.PFN(n); p++ {
		if !f.free.Test(p) {
			panic(fmt.Sprintf("pagetable: Reserve(%d,%d): frame %d already allocated", start, n, p))
		}
		f.free.Clear(p)
		f.numFree--
	}
}

// Alloc returns a free frame, or an error if memory is exhausted. Recycled
// frames are reused LIFO; otherwise the next free frame in the permutation
// sequence is issued.
func (f *FrameAllocator) Alloc() (mem.PFN, error) {
	if f.numFree == 0 {
		return mem.NoPFN, fmt.Errorf("pagetable: out of guest frames (%d total)", f.total)
	}
	for n := len(f.recycled); n > 0; n = len(f.recycled) {
		p := f.recycled[n-1]
		f.recycled = f.recycled[:n-1]
		if f.free.Test(p) { // may have been Reserved meanwhile
			f.free.Clear(p)
			f.numFree--
			return p, nil
		}
	}
	// Walk the permutation until a free frame turns up. Since numFree > 0
	// and the stride is coprime with total, at most `total` steps suffice.
	for i := uint64(0); i < f.total; i++ {
		p := mem.PFN(f.cursor)
		if f.cursor += f.stride; f.cursor >= f.total {
			f.cursor -= f.total
		}
		if f.free.Test(p) {
			f.free.Clear(p)
			f.numFree--
			return p, nil
		}
	}
	return mem.NoPFN, fmt.Errorf("pagetable: allocator inconsistency: numFree=%d but no free frame found", f.numFree)
}

// Release returns frame p to the free pool. Double-free panics: it is a
// kernel bug, not a recoverable condition.
func (f *FrameAllocator) Release(p mem.PFN) {
	if f.free.Test(p) {
		panic(fmt.Sprintf("pagetable: double free of frame %d", p))
	}
	f.free.Set(p)
	f.numFree++
	f.recycled = append(f.recycled, p)
}

// Allocated reports whether frame p is currently allocated.
func (f *FrameAllocator) Allocated(p mem.PFN) bool { return !f.free.Test(p) }

// AddressSpace is one process's virtual address space: a two-level page table
// mapping virtual page numbers to PFNs. Walks are real table traversals, so a
// range that left the page tables is invisible to them (§3.3.4).
//
// The range operations (MapRange, UnmapRange, Walk and FrameRun) work one
// 512-entry leaf table at a time: one directory lookup per leaf, then a loop
// over its entries. They allocate and release frames, and create, reuse and
// retire leaves, in the order a loop of the per-page operations would.
type AddressSpace struct {
	frames *FrameAllocator
	// Two-level table: directory index = vpn >> dirShift.
	dir map[uint64]*ptTable
	// spare holds the leaf tables Unmap and UnmapRange emptied, for Map and
	// MapRange to reuse, last retired first. An emptied leaf is all
	// leafEmpty with used == 0, just as newPTTable builds one, so reuse
	// cannot show. The JVM's young generation shrinks and grows again, so
	// without them each regrowth allocates its leaves anew.
	spare  []*ptTable
	mapped uint64
}

const (
	dirShift  = 9 // 512 entries per leaf table, like x86-64 PTE pages
	leafMask  = (1 << dirShift) - 1
	leafSlots = 1 << dirShift
	leafEmpty = mem.NoPFN
)

type ptTable struct {
	entries [leafSlots]mem.PFN
	used    int
}

func newPTTable() *ptTable {
	t := &ptTable{}
	for i := range t.entries {
		t.entries[i] = leafEmpty
	}
	return t
}

// leafEnd returns the end of the part of the page range [vpn, end) that lies
// in vpn's leaf table.
func leafEnd(vpn, end uint64) uint64 { return min(end, (vpn|leafMask)+1) }

// NewAddressSpace returns an empty address space drawing frames from frames.
func NewAddressSpace(frames *FrameAllocator) *AddressSpace {
	return &AddressSpace{frames: frames, dir: make(map[uint64]*ptTable)}
}

// Mapped returns the number of virtual pages currently mapped.
func (a *AddressSpace) Mapped() uint64 { return a.mapped }

// Map installs vpn→pfn for the page containing va. Mapping an already-mapped
// page panics; remapping must go through Remap so callers are explicit about
// the §3.3.4 case-(2) events they are simulating.
func (a *AddressSpace) Map(va mem.VA, p mem.PFN) {
	vpn := va.PageOf()
	t := a.dir[vpn>>dirShift]
	if t == nil {
		if n := len(a.spare); n > 0 {
			t = a.spare[n-1]
			a.spare = a.spare[:n-1]
		} else {
			t = newPTTable()
		}
		a.dir[vpn>>dirShift] = t
	}
	if t.entries[vpn&leafMask] != leafEmpty {
		panic(fmt.Sprintf("pagetable: Map(%#x): page already mapped", uint64(va)))
	}
	t.entries[vpn&leafMask] = p
	t.used++
	a.mapped++
}

// Remap changes the frame backing va's page and returns the old frame.
// It panics if the page is unmapped.
func (a *AddressSpace) Remap(va mem.VA, p mem.PFN) mem.PFN {
	vpn := va.PageOf()
	t := a.dir[vpn>>dirShift]
	if t == nil || t.entries[vpn&leafMask] == leafEmpty {
		panic(fmt.Sprintf("pagetable: Remap(%#x): page not mapped", uint64(va)))
	}
	old := t.entries[vpn&leafMask]
	t.entries[vpn&leafMask] = p
	return old
}

// Unmap removes the mapping for va's page and returns the frame it used.
// It panics if the page is unmapped.
func (a *AddressSpace) Unmap(va mem.VA) mem.PFN {
	vpn := va.PageOf()
	di := vpn >> dirShift
	t := a.dir[di]
	if t == nil || t.entries[vpn&leafMask] == leafEmpty {
		panic(fmt.Sprintf("pagetable: Unmap(%#x): page not mapped", uint64(va)))
	}
	p := t.entries[vpn&leafMask]
	t.entries[vpn&leafMask] = leafEmpty
	t.used--
	if t.used == 0 {
		delete(a.dir, di)
		a.spare = append(a.spare, t)
	}
	a.mapped--
	return p
}

// Translate returns the frame backing va, or (NoPFN, false) if unmapped.
func (a *AddressSpace) Translate(va mem.VA) (mem.PFN, bool) {
	vpn := va.PageOf()
	t := a.dir[vpn>>dirShift]
	if t == nil {
		return mem.NoPFN, false
	}
	p := t.entries[vpn&leafMask]
	if p == leafEmpty {
		return mem.NoPFN, false
	}
	return p, true
}

// FrameRun returns the frames backing the pages of [va, end), starting at
// va's page and stopping before the first unmapped page or at the end of
// va's leaf table (512 pages), whichever comes first. A run therefore costs
// one directory lookup instead of one per page, and a full leaf table has
// no hole to look for. It allocates nothing: the slice aliases the leaf
// table and is valid only until the next Map, Remap or Unmap. An unmapped va
// yields an empty run.
func (a *AddressSpace) FrameRun(va, end mem.VA) []mem.PFN {
	if end <= va {
		return nil
	}
	vpn := va.PageOf()
	t := a.dir[vpn>>dirShift]
	if t == nil {
		return nil
	}
	i := vpn & leafMask
	stop := i + leafEnd(vpn, (end-1).PageOf()+1) - vpn
	if t.used == leafSlots {
		return t.entries[i:stop]
	}
	j := i
	for j < stop && t.entries[j] != leafEmpty {
		j++
	}
	return t.entries[i:j]
}

// Walk visits every mapped page in the page-aligned range r in ascending VA
// order, calling fn with the page's base VA and frame. This is the LKM's
// page-table walk (§3.3.2): unmapped pages in the range are silently skipped,
// exactly as a real walk finds no PTE, and so is each absent leaf table as a
// whole. fn may not map or unmap pages of a: the walk holds on to the leaf
// table it is in.
func (a *AddressSpace) Walk(r mem.VARange, fn func(va mem.VA, p mem.PFN)) {
	r = r.PageAlignInward()
	end := r.End.PageOf()
	for vpn := r.Start.PageOf(); vpn < end; {
		stop := leafEnd(vpn, end)
		if t := a.dir[vpn>>dirShift]; t != nil {
			for ; vpn < stop; vpn++ {
				if p := t.entries[vpn&leafMask]; p != leafEmpty {
					fn(mem.VA(vpn<<mem.PageShift), p)
				}
			}
		}
		vpn = stop
	}
}

// MapRange allocates fresh frames for every page of the page-aligned range r.
// On allocation failure it unwinds its own mappings and returns the error.
// An already-mapped page panics as Map does, so every page below the failing
// one was mapped by this call and the unwind unmaps [r.Start, va) as
// UnmapRange would.
func (a *AddressSpace) MapRange(r mem.VARange) error {
	r = r.PageAlignInward()
	first, end := r.Start.PageOf(), r.End.PageOf()
	for vpn := first; vpn < end; {
		di, stop := vpn>>dirShift, leafEnd(vpn, end)
		t := a.dir[di]
		for ; vpn < stop; vpn++ {
			p, err := a.frames.Alloc()
			if err != nil {
				a.unmapPages(first, vpn)
				return fmt.Errorf("pagetable: MapRange(%v): %w", r, err)
			}
			if t == nil { // installed at the leaf's first mapping, as Map does
				if n := len(a.spare); n > 0 {
					t = a.spare[n-1]
					a.spare = a.spare[:n-1]
				} else {
					t = newPTTable()
				}
				a.dir[di] = t
			}
			if t.entries[vpn&leafMask] != leafEmpty {
				panic(fmt.Sprintf("pagetable: Map(%#x): page already mapped", vpn<<mem.PageShift))
			}
			t.entries[vpn&leafMask] = p
			t.used++
			a.mapped++
		}
	}
	return nil
}

// UnmapRange unmaps every mapped page in the page-aligned range r and
// releases the frames. It returns the number of pages freed. This is the
// §3.3.4 deallocation path: after UnmapRange, the PFNs that backed the range
// can no longer be found by page-table walks.
func (a *AddressSpace) UnmapRange(r mem.VARange) uint64 {
	r = r.PageAlignInward()
	return a.unmapPages(r.Start.PageOf(), r.End.PageOf())
}

// unmapPages unmaps the mapped pages among page numbers [first, end) and
// releases their frames in ascending order, retiring each leaf table it
// empties, and returns how many it unmapped.
func (a *AddressSpace) unmapPages(first, end uint64) uint64 {
	var n uint64
	for vpn := first; vpn < end; {
		di, stop := vpn>>dirShift, leafEnd(vpn, end)
		if t := a.dir[di]; t != nil {
			for ; vpn < stop; vpn++ {
				if p := t.entries[vpn&leafMask]; p != leafEmpty {
					t.entries[vpn&leafMask] = leafEmpty
					t.used--
					a.mapped--
					n++
					a.frames.Release(p)
				}
			}
			if t.used == 0 {
				delete(a.dir, di)
				a.spare = append(a.spare, t)
			}
		}
		vpn = stop
	}
	return n
}
