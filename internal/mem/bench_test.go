package mem

import "testing"

// Benchmarks for the primitives on the migration hot path: the engine tests
// and iterates bitmap bits for every page of every round.

func BenchmarkBitmapSetClear(b *testing.B) {
	bm := NewBitmap(1 << 19) // 2 GiB of pages
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := PFN(i) & (1<<19 - 1)
		bm.Set(p)
		bm.Clear(p)
	}
}

func BenchmarkBitmapTest(b *testing.B) {
	bm := NewBitmap(1 << 19)
	for p := PFN(0); p < 1<<19; p += 3 {
		bm.Set(p)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = bm.Test(PFN(i) & (1<<19 - 1))
	}
}

func BenchmarkBitmapCount(b *testing.B) {
	bm := NewBitmap(1 << 19)
	bm.SetAll()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = bm.Count()
	}
}

func BenchmarkBitmapRangeSparse(b *testing.B) {
	bm := NewBitmap(1 << 19)
	for p := PFN(0); p < 1<<19; p += 64 {
		bm.Set(p)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var n int
		bm.Range(func(PFN) bool { n++; return true })
	}
}

func BenchmarkBitmapAndNot(b *testing.B) {
	x, y := NewBitmap(1<<19), NewBitmap(1<<19)
	x.SetAll()
	for p := PFN(0); p < 1<<19; p += 2 {
		y.Set(p)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.AndNot(y)
		x.Or(y)
	}
}

// BenchmarkVersionStoreWrite writes 50-page runs, the mean length of a
// guest write run, over a 2 GiB store in the order the guest frame
// allocator issues frames: a golden-ratio stride over the frame space, so
// consecutive pages of a run land far apart in the store, as they do in a
// booted VM. One op is one run; once the passes over the store outnumber
// 255, the ops include a VersionStore's carries into its high parts.
func BenchmarkVersionStoreWrite(b *testing.B) {
	const runLen = 50
	total := 1 << 19
	// pagetable.NewFrameAllocator's stride; any odd stride is coprime with
	// a power-of-two total.
	stride := uint64(float64(total)*0.6180339887) | 1
	order := make([]PFN, total+runLen)
	for i, cursor := 0, uint64(0); i < len(order); i++ {
		order[i] = PFN(cursor)
		cursor = (cursor + stride) % uint64(total)
	}
	s := NewVersionStore(uint64(total))
	b.ReportAllocs()
	b.ResetTimer()
	for i, off := 0, 0; i < b.N; i++ {
		s.WritePages(order[off : off+runLen])
		if off += runLen; off >= total {
			off -= total
		}
	}
}

func BenchmarkVersionStoreExportImport(b *testing.B) {
	src := NewVersionStore(1 << 10)
	dst := NewVersionStore(1 << 10)
	for p := PFN(0); p < 1<<10; p++ {
		src.Write(p)
	}
	buf := make([]byte, 0, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := PFN(i) & (1<<10 - 1)
		buf = src.AppendExport(buf[:0], p)
		if err := dst.Import(p, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkByteStoreWrite(b *testing.B) {
	s := NewByteStore(1 << 12)
	b.SetBytes(PageSize)
	for i := 0; i < b.N; i++ {
		s.Write(PFN(i) & (1<<12 - 1))
	}
}

func BenchmarkBitmapRangeDense(b *testing.B) {
	bm := NewBitmap(1 << 19)
	for p := PFN(0); p < 1<<19; p += 2 {
		bm.Set(p)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var n int
		bm.Range(func(PFN) bool { n++; return true })
	}
}

func BenchmarkBitmapNextSet(b *testing.B) {
	bm := NewBitmap(1 << 19)
	for p := PFN(0); p < 1<<19; p += 7 {
		bm.Set(p)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var n int
		for p := bm.NextSet(0); p != NoPFN; p = bm.NextSet(p + 1) {
			n++
		}
	}
}

// The digest primitives run once per page crossing the link (and once per
// audited page at switchover), so their per-call cost scales every
// integrity-enabled migration.

func BenchmarkPageDigest4K(b *testing.B) {
	page := make([]byte, PageSize)
	for i := range page {
		page[i] = byte(i * 31)
	}
	b.SetBytes(PageSize)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += PageDigest(page)
	}
	benchDigestSink = sink
}

func BenchmarkPageDigest8B(b *testing.B) {
	word := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += PageDigest(word)
	}
	benchDigestSink = sink
}

func BenchmarkMixDigest(b *testing.B) {
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = MixDigest(sink, PFN(i), uint64(i)*0x9E3779B97F4A7C15)
	}
	benchDigestSink = sink
}

// benchDigestSink defeats dead-code elimination of the digest benchmarks.
var benchDigestSink uint64
