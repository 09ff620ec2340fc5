package jvm

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"javmm/internal/guestos"
	"javmm/internal/hypervisor"
	"javmm/internal/mem"
	"javmm/internal/simclock"
)

func newTestRegional(t *testing.T, cfg RegionalConfig) (*RegionalHeap, *guestos.Guest, *simclock.Clock) {
	t.Helper()
	clock := simclock.New()
	dom := hypervisor.NewDomain("vm", clock, mem.NewVersionStore(131072)) // 512 MiB
	g := guestos.NewGuest(dom, guestos.LKMConfig{Clock: clock})
	proc := g.NewProcess("java-g1")
	cfg.Proc = proc
	cfg.Clock = clock
	if cfg.Rand == nil {
		cfg.Rand = rand.New(rand.NewSource(5))
	}
	if cfg.RegionBytes == 0 {
		cfg.RegionBytes = 8 << 20
	}
	if cfg.HeapBytes == 0 {
		cfg.HeapBytes = 256 << 20
	}
	if cfg.CodeCacheBytes == 0 {
		cfg.CodeCacheBytes = 4 << 20
	}
	h, err := NewRegional(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h, g, clock
}

func (h *RegionalHeap) runMinorGC(t *testing.T, clock *simclock.Clock, enforced bool) GCStats {
	t.Helper()
	d := h.BeginMinorGC(enforced)
	clock.Advance(d)
	st, err := h.CompleteMinorGC()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestRegionalValidation(t *testing.T) {
	if _, err := NewRegional(RegionalConfig{}); err == nil {
		t.Fatal("missing proc accepted")
	}
	clock := simclock.New()
	dom := hypervisor.NewDomain("vm", clock, mem.NewVersionStore(1024))
	g := guestos.NewGuest(dom, guestos.LKMConfig{Clock: clock})
	if _, err := NewRegional(RegionalConfig{Proc: g.NewProcess("x")}); err == nil {
		t.Fatal("missing clock accepted")
	}
	if _, err := NewRegional(RegionalConfig{
		Proc: g.NewProcess("y"), Clock: clock,
		RegionBytes: 8 << 20, HeapBytes: 8 << 20,
	}); err == nil {
		t.Fatal("heap smaller than 4 regions accepted")
	}
}

func TestRegionalAllocateTakesRegions(t *testing.T) {
	h, g, _ := newTestRegional(t, RegionalConfig{})
	g.Dom.EnableLogDirty()
	got := h.Allocate(20 << 20) // crosses two 8 MiB regions into a third
	if got != 20<<20 {
		t.Fatalf("Allocate = %d", got)
	}
	if len(h.eden) != 3 {
		t.Fatalf("eden regions = %d, want 3", len(h.eden))
	}
	// 20 MiB of allocation writes, but taking regions 2 and 3 zeroed their
	// full 8 MiB each: total dirty = 3 regions × 2048 pages.
	if g.Dom.DirtyCount() != 6144 {
		t.Fatalf("dirty pages = %d, want 6144", g.Dom.DirtyCount())
	}
	if err := h.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

func TestRegionalYoungAreasNonContiguous(t *testing.T) {
	h, _, clock := newTestRegional(t, RegionalConfig{EdenSurvival: 0.3, SurvivalNoise: 1e-9})
	// Allocate and GC a few times so regions churn and survivors appear.
	for i := 0; i < 3; i++ {
		h.Allocate(40 << 20)
		h.runMinorGC(t, clock, false)
	}
	h.Allocate(40 << 20)
	areas := h.YoungAreas()
	if len(areas) == 0 {
		t.Fatal("no young areas")
	}
	var total uint64
	for _, a := range areas {
		if a.Len()%h.cfg.RegionBytes != 0 {
			t.Fatalf("area %v is not region-aligned", a)
		}
		total += a.Len()
	}
	if total != h.YoungCommitted() {
		t.Fatalf("areas cover %d, committed %d", total, h.YoungCommitted())
	}
	// With LIFO region recycling and churn, the young set fragments.
	if len(areas) < 2 {
		t.Logf("young areas = %v (contiguous this run; acceptable but unusual)", areas)
	}
}

func TestRegionalMinorGCFreesAndEvacuates(t *testing.T) {
	h, _, clock := newTestRegional(t, RegionalConfig{EdenSurvival: 0.25, SurvivalNoise: 1e-9})
	var freed []mem.VARange
	h.SetTICallbacks(func(r mem.VARange) { freed = append(freed, r) }, nil, nil)

	h.Allocate(30 << 20)
	edenBefore := len(h.eden)
	st := h.runMinorGC(t, clock, false)

	if st.Garbage == 0 || st.LiveAfter == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Garbage+st.LiveAfter+st.Promoted != st.YoungUsedBefore {
		t.Fatal("GC stats do not add up")
	}
	// All previous young regions were freed (one shrink per region).
	if len(freed) < edenBefore {
		t.Fatalf("freed %d regions, had %d eden", len(freed), edenBefore)
	}
	// Survivors live in fresh survivor regions.
	if len(h.surv) == 0 {
		t.Fatal("no survivor regions after GC with survivors")
	}
	if h.YoungUsed() != st.LiveAfter {
		t.Fatalf("young used %d != live %d", h.YoungUsed(), st.LiveAfter)
	}
	if err := h.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

func TestRegionalPromotionAndTenure(t *testing.T) {
	h, _, clock := newTestRegional(t, RegionalConfig{
		EdenSurvival: 0.3, SurvivorSurvival: 0.999999, SurvivalNoise: 1e-9,
		TenureThreshold: 2,
	})
	for i := 0; i < 4; i++ {
		h.Allocate(30 << 20)
		h.runMinorGC(t, clock, false)
	}
	if h.TotalPromoted == 0 {
		t.Fatal("no promotions")
	}
	if len(h.old) == 0 {
		t.Fatal("no old regions despite promotions")
	}
	for _, i := range h.surv {
		if h.regions[i].age >= h.cfg.TenureThreshold {
			t.Fatalf("survivor region with age %d past tenure", h.regions[i].age)
		}
	}
	if err := h.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

func TestRegionalNeedsMinorGCAtCap(t *testing.T) {
	h, _, _ := newTestRegional(t, RegionalConfig{MaxYoungRegions: 4})
	if h.NeedsMinorGC() {
		t.Fatal("fresh heap demands GC")
	}
	// Fill exactly 4 regions.
	if got := h.Allocate(64 << 20); got != 32<<20 {
		t.Fatalf("Allocate = %d, want capped at 4 regions (32 MiB)", got)
	}
	if !h.NeedsMinorGC() {
		t.Fatal("young at cap does not demand GC")
	}
	if h.Allocate(1) != 0 {
		t.Fatal("allocation continued past the young cap")
	}
}

func TestRegionalEnforcedGCHoldsThreads(t *testing.T) {
	h, _, clock := newTestRegional(t, RegionalConfig{EdenSurvival: 0.2, SurvivalNoise: 1e-9})
	var done int
	h.SetTICallbacks(nil, nil, func() { done++ })
	h.Allocate(20 << 20)
	h.RequestEnforcedGC()
	if !h.EnforcePending() {
		t.Fatal("enforce not pending")
	}
	h.runMinorGC(t, clock, true)
	if done != 1 {
		t.Fatalf("enforced-done calls = %d", done)
	}
	if !h.HeldAtSafepoint() {
		t.Fatal("threads not held")
	}
	if h.Allocate(1) != 0 {
		t.Fatal("allocation while held")
	}
	// Ready areas: young regions minus live survivor prefixes.
	ready := h.ReadyAreas()
	var readyBytes uint64
	for _, a := range ready {
		readyBytes += a.Len()
	}
	liveAligned := uint64(0)
	for _, i := range h.surv {
		liveAligned += pageCeil(h.regions[i].used)
	}
	if readyBytes+liveAligned != h.YoungCommitted() {
		t.Fatalf("ready %d + live %d != committed %d", readyBytes, liveAligned, h.YoungCommitted())
	}
	h.ReleaseFromSafepoint()
	if h.Allocate(1<<20) != 1<<20 {
		t.Fatal("allocation failed after release")
	}
}

func TestRegionalFullGCCompacts(t *testing.T) {
	h, _, clock := newTestRegional(t, RegionalConfig{
		EdenSurvival: 0.4, SurvivorSurvival: 0.9, SurvivalNoise: 1e-9,
		TenureThreshold: 1, OldGarbageFraction: 0.5,
	})
	for i := 0; i < 3; i++ {
		h.Allocate(30 << 20)
		h.runMinorGC(t, clock, false)
	}
	oldBefore := h.OldUsed()
	regionsBefore := len(h.old)
	if oldBefore == 0 {
		t.Fatal("no old data")
	}
	d := h.BeginFullGC()
	clock.Advance(d)
	st := h.CompleteFullGC()
	if st.OldUsedAfter >= oldBefore {
		t.Fatal("full GC reclaimed nothing")
	}
	if len(h.old) > regionsBefore {
		t.Fatal("compaction grew the old region set")
	}
	if err := h.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

func TestRegionalSeedOld(t *testing.T) {
	h, _, _ := newTestRegional(t, RegionalConfig{})
	if err := h.SeedOld(50 << 20); err != nil {
		t.Fatal(err)
	}
	if h.OldUsed() != 50<<20 {
		t.Fatalf("OldUsed = %d", h.OldUsed())
	}
	if err := h.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

func TestRegionalHeapExhaustion(t *testing.T) {
	h, _, clock := newTestRegional(t, RegionalConfig{
		HeapBytes: 64 << 20, RegionBytes: 8 << 20, MaxYoungRegions: 4,
		EdenSurvival: 0.9, TenureThreshold: 1, SurvivalNoise: 1e-9,
	})
	var last error
	for i := 0; i < 40 && last == nil; i++ {
		h.Allocate(32 << 20)
		d := h.BeginMinorGC(false)
		clock.Advance(d)
		_, last = h.CompleteMinorGC()
	}
	if !errors.Is(last, ErrHeapExhausted) {
		t.Fatalf("err = %v, want ErrHeapExhausted", last)
	}
}

func TestRegionalMutateOldAndJIT(t *testing.T) {
	h, g, _ := newTestRegional(t, RegionalConfig{})
	if err := h.SeedOld(20 << 20); err != nil {
		t.Fatal(err)
	}
	g.Dom.EnableLogDirty()
	h.MutateOld(50)
	if g.Dom.DirtyCount() == 0 {
		t.Fatal("MutateOld dirtied nothing")
	}
	snap := mem.NewBitmap(g.Dom.NumPages())
	g.Dom.PeekAndClear(snap)
	h.JITChurn(7)
	if g.Dom.DirtyCount() != 7 {
		t.Fatalf("JITChurn dirtied %d", g.Dom.DirtyCount())
	}
}

func TestRegionalRandomizedConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 8; trial++ {
		h, _, clock := newTestRegional(t, RegionalConfig{
			EdenSurvival:     0.02 + rng.Float64()*0.4,
			SurvivorSurvival: 0.2 + rng.Float64()*0.6,
			TenureThreshold:  1 + rng.Intn(4),
			SurvivalNoise:    rng.Float64() * 0.2,
			Rand:             rand.New(rand.NewSource(int64(trial))),
		})
		for i := 0; i < 25; i++ {
			h.Allocate(uint64(rng.Intn(40 << 20)))
			if h.NeedsMinorGC() || rng.Intn(3) == 0 {
				d := h.BeginMinorGC(false)
				clock.Advance(d)
				if _, err := h.CompleteMinorGC(); err != nil {
					if errors.Is(err, ErrHeapExhausted) {
						break
					}
					t.Fatal(err)
				}
			}
			if h.NeedsFullGC() {
				d := h.BeginFullGC()
				clock.Advance(d)
				h.CompleteFullGC()
			}
			if err := h.CheckConservation(); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, i, err)
			}
			// Region ledger: every region is in exactly one list.
			if len(h.free)+len(h.eden)+len(h.surv)+len(h.old) != len(h.regions) {
				t.Fatalf("trial %d: region ledger broken", trial)
			}
			clock.Advance(time.Duration(rng.Intn(1000)) * time.Millisecond)
		}
	}
}
