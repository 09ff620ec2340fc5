package jvm

import (
	"math/rand"
	"testing"

	"javmm/internal/guestos"
	"javmm/internal/hypervisor"
	"javmm/internal/mem"
	"javmm/internal/simclock"
)

func benchJVM(b *testing.B) (*JVM, *simclock.Clock) {
	b.Helper()
	clock := simclock.New()
	dom := hypervisor.NewDomain("vm", clock, mem.NewVersionStore(262144)) // 1 GiB
	g := guestos.NewGuest(dom, guestos.LKMConfig{Clock: clock})
	j, err := New(Config{
		Proc:              g.NewProcess("java"),
		Clock:             clock,
		Rand:              rand.New(rand.NewSource(1)),
		InitialYoungBytes: 128 << 20,
		MaxYoungBytes:     256 << 20,
		MaxOldBytes:       256 << 20,
		CodeCacheBytes:    8 << 20,
		EdenSurvival:      0.02,
	})
	if err != nil {
		b.Fatal(err)
	}
	return j, clock
}

// collectIfNeeded runs the GCs a workload driver would, so long benchmark
// loops do not exhaust the old generation.
func collectIfNeeded(b *testing.B, j *JVM, clock *simclock.Clock) {
	b.Helper()
	if j.NeedsFullGC() {
		d := j.BeginFullGC()
		clock.Advance(d)
		j.CompleteFullGC()
	}
	if j.NeedsMinorGC() {
		d := j.BeginMinorGC(false)
		clock.Advance(d)
		if _, err := j.CompleteMinorGC(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllocate measures bump allocation with page touching — the hot
// loop behind every workload's dirtying.
func BenchmarkAllocate(b *testing.B) {
	j, clock := benchJVM(b)
	b.SetBytes(1 << 20)
	for i := 0; i < b.N; i++ {
		if j.Allocate(1<<20) < 1<<20 {
			collectIfNeeded(b, j, clock)
		}
	}
}

// BenchmarkMinorGCCycle measures a full fill-and-collect cycle.
func BenchmarkMinorGCCycle(b *testing.B) {
	j, clock := benchJVM(b)
	for i := 0; i < b.N; i++ {
		j.Allocate(j.EdenFree())
		collectIfNeeded(b, j, clock)
	}
}

// BenchmarkRegionalMinorGCCycle measures the G1-style evacuation cycle.
func BenchmarkRegionalMinorGCCycle(b *testing.B) {
	clock := simclock.New()
	dom := hypervisor.NewDomain("vm", clock, mem.NewVersionStore(262144))
	g := guestos.NewGuest(dom, guestos.LKMConfig{Clock: clock})
	h, err := NewRegional(RegionalConfig{
		Proc:           g.NewProcess("java-g1"),
		Clock:          clock,
		Rand:           rand.New(rand.NewSource(1)),
		RegionBytes:    16 << 20,
		HeapBytes:      512 << 20,
		CodeCacheBytes: 8 << 20,
		EdenSurvival:   0.02,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Allocate(64 << 20)
		d := h.BeginMinorGC(false)
		clock.Advance(d)
		if _, err := h.CompleteMinorGC(); err != nil {
			b.Fatal(err)
		}
	}
}
