package pagetable

import (
	"math/rand"
	"reflect"
	"testing"

	"javmm/internal/mem"
)

func TestFrameAllocatorExhaustion(t *testing.T) {
	f := NewFrameAllocator(3)
	seen := map[mem.PFN]bool{}
	for i := 0; i < 3; i++ {
		p, err := f.Alloc()
		if err != nil {
			t.Fatalf("Alloc %d: %v", i, err)
		}
		if seen[p] {
			t.Fatalf("frame %d allocated twice", p)
		}
		seen[p] = true
	}
	if _, err := f.Alloc(); err == nil {
		t.Fatal("Alloc succeeded with no free frames")
	}
	if f.Free() != 0 {
		t.Fatalf("Free() = %d, want 0", f.Free())
	}
}

// Fresh frames come in the golden-ratio permutation cursor_{k+1} =
// (cursor_k + stride) mod total, whatever arithmetic steps the cursor.
func TestFrameAllocatorPermutation(t *testing.T) {
	for _, total := range []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 16, 100, 511, 512, 1000, 4097, 1 << 16} {
		stride := uint64(float64(total)*0.6180339887) | 1
		for gcd(stride, total) != 1 {
			stride += 2
		}
		f := NewFrameAllocator(total)
		var cursor uint64
		for i := uint64(0); i < total; i++ {
			p, err := f.Alloc()
			if err != nil {
				t.Fatalf("total %d: Alloc %d: %v", total, i, err)
			}
			if p != mem.PFN(cursor) {
				t.Fatalf("total %d: Alloc %d = frame %d, want %d", total, i, p, cursor)
			}
			// The cursor stays in [0, total) and ends the lap back at 0.
			if cursor = (cursor + stride) % total; f.cursor != cursor {
				t.Fatalf("total %d: cursor %d after Alloc %d, want %d", total, f.cursor, i, cursor)
			}
		}
	}
}

func TestFrameAllocatorReleaseRecycles(t *testing.T) {
	f := NewFrameAllocator(2)
	p1, _ := f.Alloc()
	p2, _ := f.Alloc()
	f.Release(p1)
	p3, err := f.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if p3 != p1 {
		t.Fatalf("recycled frame %d, want %d", p3, p1)
	}
	_ = p2
}

func TestFrameAllocatorDoubleFreePanics(t *testing.T) {
	f := NewFrameAllocator(2)
	p, _ := f.Alloc()
	f.Release(p)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	f.Release(p)
}

func TestFrameAllocatorReserve(t *testing.T) {
	f := NewFrameAllocator(10)
	f.Reserve(0, 4)
	if f.Free() != 6 {
		t.Fatalf("Free() = %d after Reserve, want 6", f.Free())
	}
	for i := 0; i < 6; i++ {
		p, err := f.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if p < 4 {
			t.Fatalf("Alloc returned reserved frame %d", p)
		}
	}
}

func TestFrameAllocatorReserveConflictPanics(t *testing.T) {
	f := NewFrameAllocator(4)
	p, _ := f.Alloc()
	defer func() {
		if recover() == nil {
			t.Fatal("Reserve over allocated frame did not panic")
		}
	}()
	f.Reserve(p, 1)
}

func TestFrameAllocatorAllocated(t *testing.T) {
	f := NewFrameAllocator(4)
	p, _ := f.Alloc()
	if !f.Allocated(p) {
		t.Fatal("Allocated = false for live frame")
	}
	f.Release(p)
	if f.Allocated(p) {
		t.Fatal("Allocated = true for freed frame")
	}
}

func TestAddressSpaceMapTranslateUnmap(t *testing.T) {
	f := NewFrameAllocator(16)
	a := NewAddressSpace(f)
	va := mem.VA(0x4000)
	p, _ := f.Alloc()
	a.Map(va, p)
	got, ok := a.Translate(va)
	if !ok || got != p {
		t.Fatalf("Translate = %d,%v, want %d,true", got, ok, p)
	}
	// Offsets within the page translate to the same frame.
	got, ok = a.Translate(va + 0xabc)
	if !ok || got != p {
		t.Fatalf("Translate mid-page = %d,%v", got, ok)
	}
	if a.Mapped() != 1 {
		t.Fatalf("Mapped = %d, want 1", a.Mapped())
	}
	if back := a.Unmap(va); back != p {
		t.Fatalf("Unmap returned %d, want %d", back, p)
	}
	if _, ok := a.Translate(va); ok {
		t.Fatal("Translate succeeded after Unmap")
	}
}

func TestAddressSpaceDoubleMapPanics(t *testing.T) {
	f := NewFrameAllocator(4)
	a := NewAddressSpace(f)
	a.Map(0x1000, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("double Map did not panic")
		}
	}()
	a.Map(0x1000, 1)
}

func TestAddressSpaceUnmapUnmappedPanics(t *testing.T) {
	a := NewAddressSpace(NewFrameAllocator(4))
	defer func() {
		if recover() == nil {
			t.Fatal("Unmap of unmapped page did not panic")
		}
	}()
	a.Unmap(0x1000)
}

func TestAddressSpaceRemap(t *testing.T) {
	f := NewFrameAllocator(4)
	a := NewAddressSpace(f)
	a.Map(0x1000, 2)
	old := a.Remap(0x1000, 3)
	if old != 2 {
		t.Fatalf("Remap returned %d, want 2", old)
	}
	got, _ := a.Translate(0x1000)
	if got != 3 {
		t.Fatalf("Translate after Remap = %d, want 3", got)
	}
}

func TestMapRangeUnmapRange(t *testing.T) {
	f := NewFrameAllocator(64)
	a := NewAddressSpace(f)
	r := mem.VARange{Start: 0x10000, End: 0x10000 + 8*mem.PageSize}
	if err := a.MapRange(r); err != nil {
		t.Fatal(err)
	}
	if a.Mapped() != 8 {
		t.Fatalf("Mapped = %d, want 8", a.Mapped())
	}
	if f.Free() != 56 {
		t.Fatalf("Free = %d, want 56", f.Free())
	}
	if n := a.UnmapRange(r); n != 8 {
		t.Fatalf("UnmapRange freed %d, want 8", n)
	}
	if f.Free() != 64 {
		t.Fatalf("Free = %d after UnmapRange, want 64", f.Free())
	}
}

func TestMapRangeUnwindsOnExhaustion(t *testing.T) {
	f := NewFrameAllocator(4)
	a := NewAddressSpace(f)
	r := mem.VARange{Start: 0x10000, End: 0x10000 + 8*mem.PageSize}
	if err := a.MapRange(r); err == nil {
		t.Fatal("MapRange succeeded beyond available frames")
	}
	if f.Free() != 4 {
		t.Fatalf("Free = %d after failed MapRange, want 4 (unwound)", f.Free())
	}
	if a.Mapped() != 0 {
		t.Fatalf("Mapped = %d after failed MapRange, want 0", a.Mapped())
	}
}

func TestWalkVisitsMappedOnlyInOrder(t *testing.T) {
	f := NewFrameAllocator(64)
	a := NewAddressSpace(f)
	a.Map(0x2000, 10)
	a.Map(0x4000, 11)
	a.Map(0x9000, 12)
	var vas []mem.VA
	var pfns []mem.PFN
	a.Walk(mem.VARange{Start: 0x1000, End: 0xa000}, func(va mem.VA, p mem.PFN) {
		vas = append(vas, va)
		pfns = append(pfns, p)
	})
	wantVAs := []mem.VA{0x2000, 0x4000, 0x9000}
	if len(vas) != 3 {
		t.Fatalf("Walk visited %v", vas)
	}
	for i := range vas {
		if vas[i] != wantVAs[i] {
			t.Fatalf("Walk order %v, want %v", vas, wantVAs)
		}
	}
	if pfns[0] != 10 || pfns[1] != 11 || pfns[2] != 12 {
		t.Fatalf("Walk frames %v", pfns)
	}
}

func TestWalkAlignsRangeInward(t *testing.T) {
	f := NewFrameAllocator(8)
	a := NewAddressSpace(f)
	a.Map(0x1000, 1)
	a.Map(0x2000, 2)
	var visited []mem.VA
	// [0x1800,0x3000) aligns inward to [0x2000,0x3000): only page 0x2000.
	a.Walk(mem.VARange{Start: 0x1800, End: 0x3000}, func(va mem.VA, p mem.PFN) {
		visited = append(visited, va)
	})
	if len(visited) != 1 || visited[0] != 0x2000 {
		t.Fatalf("Walk visited %v, want [0x2000]", visited)
	}
	// [0x1800,0x2fff) aligns inward to empty: page 0x2000 is not wholly inside.
	visited = nil
	a.Walk(mem.VARange{Start: 0x1800, End: 0x2fff}, func(va mem.VA, p mem.PFN) {
		visited = append(visited, va)
	})
	if len(visited) != 0 {
		t.Fatalf("Walk over sub-page tail visited %v, want none", visited)
	}
}

// Property: after any interleaving of MapRange/UnmapRange, frames held by
// mappings plus free frames equals the total, and Translate agrees with a
// shadow map.
func TestAddressSpaceRandomOpsConservation(t *testing.T) {
	const frames = 256
	rng := rand.New(rand.NewSource(7))
	f := NewFrameAllocator(frames)
	a := NewAddressSpace(f)
	shadow := map[mem.VA]mem.PFN{}
	for i := 0; i < 2000; i++ {
		va := mem.VA(rng.Intn(512)) * mem.PageSize
		if _, mapped := shadow[va]; mapped {
			if rng.Intn(2) == 0 {
				p := a.Unmap(va)
				if shadow[va] != p {
					t.Fatalf("Unmap(%#x) = %d, shadow %d", uint64(va), p, shadow[va])
				}
				f.Release(p)
				delete(shadow, va)
			} else {
				got, ok := a.Translate(va)
				if !ok || got != shadow[va] {
					t.Fatalf("Translate(%#x) = %d,%v, shadow %d", uint64(va), got, ok, shadow[va])
				}
			}
		} else if f.Free() > 0 {
			p, err := f.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			a.Map(va, p)
			shadow[va] = p
		}
		if a.Mapped() != uint64(len(shadow)) {
			t.Fatalf("Mapped = %d, shadow %d", a.Mapped(), len(shadow))
		}
		if f.Free()+a.Mapped() != frames {
			t.Fatalf("conservation violated: free %d + mapped %d != %d", f.Free(), a.Mapped(), frames)
		}
	}
}

// TestFrameRunMatchesTranslate consumes random ranges run by run and checks
// each run against per-page Translate on a twin address space: the frames
// agree, and a run never crosses a 512-page leaf table or a hole.
func TestFrameRunMatchesTranslate(t *testing.T) {
	const frames = 4096
	rng := rand.New(rand.NewSource(16))
	f := NewFrameAllocator(frames)
	runs, single := NewAddressSpace(f), NewAddressSpace(f)
	// Map 3000 of the first 3072 pages, leaving holes, identically in both.
	for vpn := uint64(0); vpn < 3072; vpn++ {
		if rng.Intn(40) == 0 {
			continue
		}
		p, err := f.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		runs.Map(mem.VA(vpn*mem.PageSize), p)
		single.Map(mem.VA(vpn*mem.PageSize), p)
	}
	for i := 0; i < 500; i++ {
		start := mem.VA(rng.Intn(3200)) * mem.PageSize
		end := start + mem.VA(1+rng.Intn(1500))*mem.PageSize
		var got []mem.PFN
		va := start
		for va < end {
			run := runs.FrameRun(va, end)
			if len(run) == 0 {
				break // a hole: per-page writes would segfault here
			}
			if first, last := va.PageOf(), va.PageOf()+uint64(len(run))-1; first>>dirShift != last>>dirShift {
				t.Fatalf("run at %#x (%d pages) crosses a leaf table", uint64(va), len(run))
			}
			got = append(got, run...)
			va += mem.VA(len(run)) * mem.PageSize
		}
		var want []mem.PFN
		for pv := start; pv < end; pv += mem.PageSize {
			p, ok := single.Translate(pv)
			if !ok {
				break
			}
			want = append(want, p)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("[%#x,%#x): runs gave %d frames, Translate %d", uint64(start), uint64(end), len(got), len(want))
		}
	}
}

func TestFrameRunBoundaries(t *testing.T) {
	a := NewAddressSpace(NewFrameAllocator(2048))
	if err := a.MapRange(mem.VARange{Start: 0, End: 1024 * mem.PageSize}); err != nil {
		t.Fatal(err)
	}
	a.frames.Release(a.Unmap(700 * mem.PageSize))
	for _, tc := range []struct {
		va, end mem.VA
		want    int
	}{
		{0, 1024 * mem.PageSize, 512},                  // stops at the leaf boundary
		{510 * mem.PageSize, 600 * mem.PageSize, 2},    // the rest of the first leaf
		{512 * mem.PageSize, 1024 * mem.PageSize, 188}, // stops before the hole at 700
		{700 * mem.PageSize, 1024 * mem.PageSize, 0},   // starts on the hole
		{701 * mem.PageSize, 705 * mem.PageSize, 4},    // stops at end
		{5 * mem.PageSize, 5 * mem.PageSize, 0},        // empty range
		{2048 * mem.PageSize, 2050 * mem.PageSize, 0},  // no leaf table at all
	} {
		if got := len(a.FrameRun(tc.va, tc.end)); got != tc.want {
			t.Errorf("FrameRun(%#x, %#x) = %d pages, want %d", uint64(tc.va), uint64(tc.end), got, tc.want)
		}
	}
}

// TestLeafRecyclingMatchesModel drives Map, Unmap, Translate and FrameRun
// with random operations over a few leaf tables, emptying whole leaves and
// refilling them so recycled leaves are reused, and checks every answer
// against a plain map of the mappings.
func TestLeafRecyclingMatchesModel(t *testing.T) {
	const leaves = 4
	const pages = leaves * leafSlots
	rng := rand.New(rand.NewSource(21))
	f := NewFrameAllocator(pages)
	a := NewAddressSpace(f)
	model := map[uint64]mem.PFN{} // vpn -> frame
	unmapLeaf := func(l uint64) {
		for vpn := l * leafSlots; vpn < (l+1)*leafSlots; vpn++ {
			if p, ok := model[vpn]; ok {
				if got := a.Unmap(mem.VA(vpn * mem.PageSize)); got != p {
					t.Fatalf("Unmap(vpn %d) = %d, model %d", vpn, got, p)
				}
				f.Release(p)
				delete(model, vpn)
			}
		}
	}
	recycled := 0
	for i := 0; i < 20000; i++ {
		vpn := uint64(rng.Intn(pages))
		va := mem.VA(vpn * mem.PageSize)
		switch op := rng.Intn(10); {
		case op < 4: // map
			if _, ok := model[vpn]; ok {
				continue
			}
			if a.dir[vpn>>dirShift] == nil && len(a.spare) > 0 {
				recycled++
			}
			p, err := f.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			a.Map(va, p)
			model[vpn] = p
		case op < 6: // unmap
			p, ok := model[vpn]
			if !ok {
				continue
			}
			if got := a.Unmap(va); got != p {
				t.Fatalf("Unmap(vpn %d) = %d, model %d", vpn, got, p)
			}
			f.Release(p)
			delete(model, vpn)
		case op < 7: // empty a whole leaf
			unmapLeaf(vpn >> dirShift)
		case op < 9: // translate
			got, ok := a.Translate(va)
			if want, mapped := model[vpn]; ok != mapped || got != want && mapped {
				t.Fatalf("Translate(vpn %d) = %d,%v, model %d,%v", vpn, got, ok, want, mapped)
			}
		default: // a frame run to a random end
			end := va + mem.VA(1+rng.Intn(2*leafSlots))*mem.PageSize
			run := a.FrameRun(va, end)
			var want []mem.PFN
			for v := vpn; mem.VA(v*mem.PageSize) < end && v>>dirShift == vpn>>dirShift; v++ {
				p, ok := model[v]
				if !ok {
					break
				}
				want = append(want, p)
			}
			if len(run) != len(want) || len(want) > 0 && !reflect.DeepEqual(run, want) {
				t.Fatalf("FrameRun(vpn %d) = %v, model %v", vpn, run, want)
			}
		}
		if a.Mapped() != uint64(len(model)) {
			t.Fatalf("Mapped = %d, model %d", a.Mapped(), len(model))
		}
		if len(a.dir)+len(a.spare) > leaves {
			t.Fatalf("%d live and %d spare leaves for %d leaf slots", len(a.dir), len(a.spare), leaves)
		}
	}
	if recycled == 0 {
		t.Fatal("no emptied leaf was reused")
	}
}

// Unmapping a whole leaf and mapping it again allocates nothing once the
// first cycle has put the emptied leaf on the spare list.
func TestRemapEmptiedLeafAllocatesNothing(t *testing.T) {
	f := NewFrameAllocator(2 * leafSlots)
	a := NewAddressSpace(f)
	leaf := mem.VARange{Start: leafSlots * mem.PageSize, End: 2 * leafSlots * mem.PageSize}
	frames := make([]mem.PFN, leafSlots)
	for i := range frames {
		frames[i] = mem.PFN(i)
	}
	cycle := func() {
		for i, p := range frames {
			a.Map(leaf.Start+mem.VA(i)*mem.PageSize, p)
		}
		for i := range frames {
			a.Unmap(leaf.Start + mem.VA(i)*mem.PageSize)
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Fatalf("unmap and remap of a whole leaf: %v allocs per cycle, want 0", allocs)
	}
	if len(a.dir) != 0 || len(a.spare) != 1 || a.Mapped() != 0 {
		t.Fatalf("after the cycles: %d live leaves, %d spare, %d mapped", len(a.dir), len(a.spare), a.Mapped())
	}
}
