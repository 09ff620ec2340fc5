package pagetable

import (
	"testing"

	"javmm/internal/mem"
)

func BenchmarkFrameAllocReleaseCycle(b *testing.B) {
	f := NewFrameAllocator(1 << 19)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, err := f.Alloc()
		if err != nil {
			b.Fatal(err)
		}
		f.Release(p)
	}
}

func BenchmarkAddressSpaceTranslate(b *testing.B) {
	f := NewFrameAllocator(1 << 18)
	a := NewAddressSpace(f)
	r := mem.VARange{Start: 0x10000000, End: 0x10000000 + (1<<17)*mem.PageSize}
	if err := a.MapRange(r); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		va := r.Start + mem.VA((uint64(i)&(1<<17-1))*mem.PageSize)
		if _, ok := a.Translate(va); !ok {
			b.Fatal("unmapped")
		}
	}
}

// BenchmarkAddressSpaceWalk measures the LKM's first-bitmap-update walk over
// a 1 GiB skip-over area.
func BenchmarkAddressSpaceWalk(b *testing.B) {
	f := NewFrameAllocator(1 << 19)
	a := NewAddressSpace(f)
	r := mem.VARange{Start: 0x10000000, End: 0x10000000 + (1<<18)*mem.PageSize}
	if err := a.MapRange(r); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var n int
		a.Walk(r, func(mem.VA, mem.PFN) { n++ })
		if n != 1<<18 {
			b.Fatal("walk incomplete")
		}
	}
}

// BenchmarkAddressSpaceMapUnmapRange measures one shrink and regrowth of a
// 256 MiB young generation: UnmapRange and MapRange over 65,536 pages, the
// page-table work of every JVM heap resize. After a first, untimed cycle
// every leaf table comes from the spare list and every frame from the
// recycled list.
func BenchmarkAddressSpaceMapUnmapRange(b *testing.B) {
	f := NewFrameAllocator(1 << 18)
	a := NewAddressSpace(f)
	r := mem.VARange{Start: 0x10000000, End: 0x10000000 + (1<<16)*mem.PageSize}
	if err := a.MapRange(r); err != nil {
		b.Fatal(err)
	}
	cycle := func() {
		if n := a.UnmapRange(r); n != 1<<16 {
			b.Fatalf("UnmapRange freed %d pages", n)
		}
		if err := a.MapRange(r); err != nil {
			b.Fatal(err)
		}
	}
	cycle() // grows the spare and recycled lists
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}
