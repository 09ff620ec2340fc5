package main

import (
	"time"

	"javmm/internal/mem"
	"javmm/internal/migration"
	"javmm/internal/obs/perf"
)

// sink absorbs kernel results so the compiler cannot remove the measured
// work.
var sink uint64

// kernel is one hot loop of the migration data path, timed on its own.
type kernel struct {
	name string
	op   func()
}

// seededPage fills a pseudo-random buffer determined by (seed, id).
func seededPage(seed int64, id uint64, size int) []byte {
	buf := make([]byte, size)
	x := uint64(seed)*0x9E3779B97F4A7C15 + id + 1
	for i := range buf {
		x = x*6364136223846793005 + 1442695040888963407
		buf[i] = byte(x >> 56)
	}
	return buf
}

// kernels builds the four loops the single-VM workloads lean on: the dirty
// bitmap walk and difference every pre-copy iteration runs, the page digest
// every transfer and demand fetch computes, and the raw wire codec. Sizes
// match the javmm-bench snapshot kernels of the same names.
func kernels(seed int64) []kernel {
	const bits = 1 << 16
	dense := mem.NewBitmap(bits)
	for p := mem.PFN(0); p < bits; p += 2 {
		dense.Set(p)
	}
	sparse := mem.NewBitmap(bits)
	for p := mem.PFN(0); p < bits; p += 64 {
		sparse.Set(p)
	}
	diff := mem.NewBitmap(bits)
	page := seededPage(seed, 0, mem.PageSize)

	var cfg migration.Config
	cfg.FillDefaults()
	const codecPages = 256
	codec, _ := cfg.NewWireCodec(codecPages, nil, nil)
	var next mem.PFN

	return []kernel{
		{"kernel.mem.bitmap-next-set.ns", func() {
			for p := dense.NextSet(0); p != mem.NoPFN; p = dense.NextSet(p + 1) {
				sink++
			}
		}},
		{"kernel.mem.bitmap-andnot.ns", func() {
			diff.CopyFrom(dense)
			diff.AndNot(sparse)
			sink += diff.Count()
		}},
		{"kernel.mem.page-digest-4k.ns", func() { sink += mem.PageDigest(page) }},
		{"kernel.codec.raw.ns", func() {
			w, _ := codec.Encode(next, mem.PageSize)
			sink += w
			next = (next + 1) % codecPages
		}},
	}
}

// nsPerOp calibrates an iteration count filling about 10 ms, then returns
// the median per-op time of five runs at that count.
func nsPerOp(op func()) float64 {
	iters := 1
	for iters < 1<<28 {
		start := time.Now()
		for i := 0; i < iters; i++ {
			op()
		}
		if time.Since(start) >= 10*time.Millisecond {
			break
		}
		iters *= 2
	}
	runs := make([]float64, 5)
	for r := range runs {
		start := time.Now()
		for i := 0; i < iters; i++ {
			op()
		}
		runs[r] = float64(time.Since(start).Nanoseconds()) / float64(iters)
	}
	return median(runs)
}

// probeCost is the stage profiler's cost per stage call. pairNs is the wall
// time one Enter/Exit pair adds to a traced run; selfNs is the part of it the
// profiler books as the stage's own self time, the amount by which every
// stage call over-reports its self time.
type probeCost struct {
	pairNs, selfNs float64
}

// probe times an empty Enter/Exit pair on a plain profiler in this process.
func probe() probeCost {
	p := perf.NewProfiler()
	pairNs := nsPerOp(func() {
		p.Enter(perf.StageSkipPolicy)
		p.Exit()
	})
	st := p.Snapshot()[0]
	return probeCost{pairNs, float64(st.SelfNs) / float64(st.Calls)}
}
