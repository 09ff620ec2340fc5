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

// newTestJVM boots a JVM inside a 256 MiB guest.
func newTestJVM(t *testing.T, cfg Config) (*JVM, *guestos.Guest, *simclock.Clock) {
	t.Helper()
	clock := simclock.New()
	dom := hypervisor.NewDomain("vm", clock, mem.NewVersionStore(65536))
	g := guestos.NewGuest(dom, guestos.LKMConfig{Clock: clock})
	proc := g.NewProcess("java")
	cfg.Proc = proc
	cfg.Clock = clock
	if cfg.Rand == nil {
		cfg.Rand = rand.New(rand.NewSource(7))
	}
	if cfg.MaxYoungBytes == 0 {
		cfg.MaxYoungBytes = 64 << 20
	}
	if cfg.InitialYoungBytes == 0 {
		cfg.InitialYoungBytes = 16 << 20
	}
	if cfg.MaxOldBytes == 0 {
		cfg.MaxOldBytes = 64 << 20
	}
	if cfg.CodeCacheBytes == 0 {
		cfg.CodeCacheBytes = 4 << 20
	}
	j, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return j, g, clock
}

func TestNewLayout(t *testing.T) {
	j, _, _ := newTestJVM(t, Config{})
	yr := j.YoungRange()
	if yr.Len() != 16<<20 {
		t.Fatalf("young committed = %d, want 16 MiB", yr.Len())
	}
	// Survivor ratio 8: eden 8/10 of committed (up to page rounding).
	if j.edenBytes < uint64(float64(j.youngCommitted)*0.75) {
		t.Fatalf("eden = %d of %d committed", j.edenBytes, j.youngCommitted)
	}
	if j.edenBytes+2*j.survivorBytes != j.youngCommitted {
		t.Fatal("eden + 2*survivor != committed")
	}
	// Old and code mappings exist beyond the young max extent.
	if j.oldBase < yr.Start+mem.VA(j.cfg.MaxYoungBytes) {
		t.Fatal("old generation overlaps young extent")
	}
	if j.CodeCacheRange().Len() != 4<<20 {
		t.Fatalf("code cache = %d", j.CodeCacheRange().Len())
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New without Proc succeeded")
	}
	clock := simclock.New()
	dom := hypervisor.NewDomain("vm", clock, mem.NewVersionStore(65536))
	g := guestos.NewGuest(dom, guestos.LKMConfig{Clock: clock})
	if _, err := New(Config{Proc: g.NewProcess("x")}); err == nil {
		t.Fatal("New without Clock succeeded")
	}
	if _, err := New(Config{
		Proc: g.NewProcess("y"), Clock: clock,
		InitialYoungBytes: 2 << 20, MaxYoungBytes: 1 << 20,
	}); err == nil {
		t.Fatal("initial young > max young accepted")
	}
}

func TestAllocateFillsEdenAndDirtiesPages(t *testing.T) {
	j, g, _ := newTestJVM(t, Config{})
	g.Dom.EnableLogDirty()
	got := j.Allocate(1 << 20)
	if got != 1<<20 {
		t.Fatalf("Allocate = %d", got)
	}
	if j.TotalAllocated != 1<<20 {
		t.Fatalf("TotalAllocated = %d", j.TotalAllocated)
	}
	// 1 MiB = 256 pages dirtied.
	if d := g.Dom.DirtyCount(); d != 256 {
		t.Fatalf("dirty pages = %d, want 256", d)
	}
	// Fill the rest of Eden: the return value caps at EdenFree.
	free := j.EdenFree()
	if got := j.Allocate(free + 12345); got != free {
		t.Fatalf("overfill Allocate = %d, want %d", got, free)
	}
	if !j.NeedsMinorGC() {
		t.Fatal("full Eden does not demand a GC")
	}
	if got := j.Allocate(1); got != 0 {
		t.Fatalf("Allocate on full Eden = %d", got)
	}
}

func TestMinorGCLifecycle(t *testing.T) {
	j, _, clock := newTestJVM(t, Config{EdenSurvival: 0.1, SurvivalNoise: 0.0001})
	j.Allocate(j.EdenFree())
	d := j.BeginMinorGC(false)
	if d < j.cfg.MinorGCBase {
		t.Fatalf("GC duration %v below base", d)
	}
	if !j.InGC() {
		t.Fatal("InGC = false during GC")
	}
	if j.Allocate(100) != 0 {
		t.Fatal("allocation succeeded during GC")
	}
	clock.Advance(d)
	st, err := j.CompleteMinorGC()
	if err != nil {
		t.Fatal(err)
	}
	if j.InGC() {
		t.Fatal("InGC after completion")
	}
	if j.edenUsed != 0 {
		t.Fatal("Eden not empty after minor GC")
	}
	// ~10% of eden survived into From.
	if j.fromUsed == 0 || j.fromUsed > j.survivorBytes {
		t.Fatalf("fromUsed = %d", j.fromUsed)
	}
	if st.Garbage+st.LiveAfter+st.Promoted != st.YoungUsedBefore {
		t.Fatal("GC stats do not add up")
	}
	if err := j.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if j.MinorGCs != 1 {
		t.Fatalf("MinorGCs = %d", j.MinorGCs)
	}
}

func TestSurvivorAgingAndPromotion(t *testing.T) {
	j, _, clock := newTestJVM(t, Config{
		EdenSurvival:     0.2,
		SurvivorSurvival: 0.999999, // effectively everything survives
		SurvivalNoise:    1e-9,
		TenureThreshold:  3,
	})
	for i := 0; i < 6; i++ {
		j.Allocate(j.EdenFree())
		d := j.BeginMinorGC(false)
		clock.Advance(d)
		if _, err := j.CompleteMinorGC(); err != nil {
			t.Fatal(err)
		}
		if err := j.CheckConservation(); err != nil {
			t.Fatalf("after GC %d: %v", i, err)
		}
	}
	// With tenure 3 and near-total survivor survival, promotions must have
	// happened.
	if j.TotalPromoted == 0 {
		t.Fatal("no promotions after 6 GCs with tenure threshold 3")
	}
	if j.oldUsed == 0 {
		t.Fatal("old generation empty despite promotions")
	}
	// No cohort in From can be older than the tenure threshold.
	for _, c := range j.fromCohorts {
		if c.age >= j.cfg.TenureThreshold {
			t.Fatalf("cohort age %d survived past tenure threshold", c.age)
		}
	}
}

func TestSurvivorOverflowPromotesEarly(t *testing.T) {
	j, _, clock := newTestJVM(t, Config{
		EdenSurvival:  0.9, // survivor space cannot hold 90% of Eden
		SurvivalNoise: 1e-9,
	})
	j.Allocate(j.EdenFree())
	d := j.BeginMinorGC(false)
	clock.Advance(d)
	st, err := j.CompleteMinorGC()
	if err != nil {
		t.Fatal(err)
	}
	if st.Promoted == 0 {
		t.Fatal("survivor overflow did not promote")
	}
	if j.fromUsed > j.survivorBytes {
		t.Fatal("From space over capacity")
	}
	if err := j.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

func TestAdaptiveGrowthUnderPressure(t *testing.T) {
	j, _, clock := newTestJVM(t, Config{EdenSurvival: 0.02})
	before := j.YoungCommitted()
	// Rapid refills: every GC happens well inside growBelow (3s).
	for i := 0; i < 4; i++ {
		j.Allocate(j.EdenFree())
		d := j.BeginMinorGC(false)
		clock.Advance(d)
		if _, err := j.CompleteMinorGC(); err != nil {
			t.Fatal(err)
		}
		clock.Advance(100 * time.Millisecond)
	}
	if j.YoungCommitted() <= before {
		t.Fatalf("young did not grow under allocation pressure: %d", j.YoungCommitted())
	}
	// Growth caps at the maximum.
	for i := 0; i < 10; i++ {
		j.Allocate(j.EdenFree())
		d := j.BeginMinorGC(false)
		clock.Advance(d)
		if _, err := j.CompleteMinorGC(); err != nil {
			t.Fatal(err)
		}
	}
	if j.YoungCommitted() != pageCeil(j.cfg.MaxYoungBytes) {
		t.Fatalf("young = %d, want max %d", j.YoungCommitted(), j.cfg.MaxYoungBytes)
	}
}

func TestAdaptiveShrinkWhenIdle(t *testing.T) {
	j, _, clock := newTestJVM(t, Config{EdenSurvival: 0.02})
	var shrunk []mem.VARange
	j.OnYoungShrink = func(r mem.VARange) { shrunk = append(shrunk, r) }

	// Grow first.
	for i := 0; i < 3; i++ {
		j.Allocate(j.EdenFree())
		d := j.BeginMinorGC(false)
		clock.Advance(d)
		if _, err := j.CompleteMinorGC(); err != nil {
			t.Fatal(err)
		}
	}
	grown := j.YoungCommitted()
	// Then a long-idle GC: interval > shrinkAbove (30s).
	clock.Advance(40 * time.Second)
	j.Allocate(j.EdenFree())
	d := j.BeginMinorGC(false)
	clock.Advance(d)
	if _, err := j.CompleteMinorGC(); err != nil {
		t.Fatal(err)
	}
	if j.YoungCommitted() >= grown {
		t.Fatalf("young did not shrink after idle: %d", j.YoungCommitted())
	}
	if len(shrunk) == 0 {
		t.Fatal("OnYoungShrink not invoked")
	}
	// The freed range is the committed tail.
	last := shrunk[len(shrunk)-1]
	if last.End != j.youngBase+mem.VA(grown) {
		t.Fatalf("freed range %v does not end at old committed boundary", last)
	}
}

func TestEnforcedGCHoldsThreads(t *testing.T) {
	j, _, clock := newTestJVM(t, Config{})
	var done int
	j.OnEnforcedDone = func() { done++ }
	j.Allocate(4 << 20)
	j.RequestEnforcedGC()
	if !j.EnforcePending() {
		t.Fatal("EnforcePending = false after request")
	}
	d := j.BeginMinorGC(true)
	if j.EnforcePending() {
		t.Fatal("EnforcePending still true after Begin")
	}
	clock.Advance(d)
	if _, err := j.CompleteMinorGC(); err != nil {
		t.Fatal(err)
	}
	if done != 1 {
		t.Fatalf("OnEnforcedDone calls = %d", done)
	}
	if !j.HeldAtSafepoint() {
		t.Fatal("threads not held after enforced GC")
	}
	if j.Allocate(100) != 0 {
		t.Fatal("allocation succeeded while held at Safepoint")
	}
	// Eden and To are empty: the post-collection state JAVMM ships.
	if j.edenUsed != 0 {
		t.Fatal("Eden not empty")
	}
	j.ReleaseFromSafepoint()
	if j.HeldAtSafepoint() {
		t.Fatal("still held after release")
	}
	if j.Allocate(100) != 100 {
		t.Fatal("allocation failed after release")
	}
}

func TestEnforcedGCWhileHeldCompletesImmediately(t *testing.T) {
	j, _, clock := newTestJVM(t, Config{})
	var done int
	j.OnEnforcedDone = func() { done++ }
	j.Allocate(1 << 20)
	d := j.BeginMinorGC(true)
	clock.Advance(d)
	if _, err := j.CompleteMinorGC(); err != nil {
		t.Fatal(err)
	}
	j.RequestEnforcedGC() // already held: callback fires, no new GC needed
	if done != 2 {
		t.Fatalf("OnEnforcedDone calls = %d, want 2", done)
	}
	if j.EnforcePending() {
		t.Fatal("EnforcePending set while held")
	}
}

func TestEnforcedGCSkipsAdaptiveResizing(t *testing.T) {
	j, _, clock := newTestJVM(t, Config{EdenSurvival: 0.02})
	// Warm up so an interval exists.
	j.Allocate(j.EdenFree())
	d := j.BeginMinorGC(false)
	clock.Advance(d)
	if _, err := j.CompleteMinorGC(); err != nil {
		t.Fatal(err)
	}
	committed := j.YoungCommitted()
	// Enforced GC right after (interval < growBelow would normally grow).
	j.Allocate(1 << 20)
	d = j.BeginMinorGC(true)
	clock.Advance(d)
	if _, err := j.CompleteMinorGC(); err != nil {
		t.Fatal(err)
	}
	if j.YoungCommitted() != committed {
		t.Fatal("enforced GC resized the young generation")
	}
	j.ReleaseFromSafepoint()
}

func TestFullGCCollectsOld(t *testing.T) {
	j, _, clock := newTestJVM(t, Config{
		EdenSurvival: 0.5, TenureThreshold: 1, SurvivalNoise: 1e-9,
		OldGarbageFraction: 0.4,
	})
	// Build up old data via promotion (tenure 1 promotes all survivors).
	for i := 0; i < 4; i++ {
		j.Allocate(j.EdenFree())
		d := j.BeginMinorGC(false)
		clock.Advance(d)
		if _, err := j.CompleteMinorGC(); err != nil {
			t.Fatal(err)
		}
	}
	before := j.OldUsed()
	if before == 0 {
		t.Fatal("no old data to collect")
	}
	d := j.BeginFullGC()
	if d < fullGCBase {
		t.Fatalf("full GC duration %v below base", d)
	}
	clock.Advance(d)
	st := j.CompleteFullGC()
	if st.OldUsedAfter >= before {
		t.Fatal("full GC reclaimed nothing")
	}
	if j.OldUsed() != st.OldUsedAfter {
		t.Fatal("OldUsed inconsistent with stats")
	}
	if err := j.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if j.FullGCs != 1 {
		t.Fatalf("FullGCs = %d", j.FullGCs)
	}
}

func TestHeapExhaustionReturnsError(t *testing.T) {
	j, _, clock := newTestJVM(t, Config{
		EdenSurvival: 0.9, TenureThreshold: 1, SurvivalNoise: 1e-9,
		MaxOldBytes: 8 << 20, // tiny old gen
	})
	var last error
	for i := 0; i < 50 && last == nil; i++ {
		j.Allocate(j.EdenFree())
		d := j.BeginMinorGC(false)
		clock.Advance(d)
		_, last = j.CompleteMinorGC()
	}
	if !errors.Is(last, ErrHeapExhausted) {
		t.Fatalf("err = %v, want ErrHeapExhausted", last)
	}
}

func TestGCPanicsOnMisuse(t *testing.T) {
	j, _, _ := newTestJVM(t, Config{})
	j.Allocate(1 << 20)
	j.BeginMinorGC(false)
	for name, fn := range map[string]func(){
		"double begin": func() { j.BeginMinorGC(false) },
		"full during":  func() { j.BeginFullGC() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("CompleteFullGC after BeginMinorGC did not panic")
			}
		}()
		j.CompleteFullGC()
	}()
}

func TestGCEndCallbackAndHistory(t *testing.T) {
	j, _, clock := newTestJVM(t, Config{})
	var events []GCStats
	j.OnGCEnd = func(st GCStats) { events = append(events, st) }
	j.Allocate(1 << 20)
	d := j.BeginMinorGC(false)
	clock.Advance(d)
	if _, err := j.CompleteMinorGC(); err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || len(j.History) != 1 {
		t.Fatalf("events = %d history = %d", len(events), len(j.History))
	}
	if events[0].Kind != MinorGC || events[0].Duration != d {
		t.Fatalf("event = %+v", events[0])
	}
	if events[0].At != clock.Now() {
		t.Fatal("event timestamp wrong")
	}
}

func TestMutateOldAndJITChurnDirtyPages(t *testing.T) {
	j, g, clock := newTestJVM(t, Config{EdenSurvival: 0.5, TenureThreshold: 1, SurvivalNoise: 1e-9})
	// Promote something first so old has content.
	j.Allocate(j.EdenFree())
	d := j.BeginMinorGC(false)
	clock.Advance(d)
	if _, err := j.CompleteMinorGC(); err != nil {
		t.Fatal(err)
	}
	g.Dom.EnableLogDirty()
	j.MutateOld(10)
	if g.Dom.DirtyCount() == 0 {
		t.Fatal("MutateOld dirtied nothing")
	}
	snap := mem.NewBitmap(g.Dom.NumPages())
	g.Dom.PeekAndClear(snap)
	j.JITChurn(5)
	if g.Dom.DirtyCount() != 5 {
		t.Fatalf("JITChurn dirtied %d pages, want 5", g.Dom.DirtyCount())
	}
}

func TestFromLiveRangeWithinYoung(t *testing.T) {
	j, _, clock := newTestJVM(t, Config{EdenSurvival: 0.1, SurvivalNoise: 1e-9})
	j.Allocate(j.EdenFree())
	d := j.BeginMinorGC(false)
	clock.Advance(d)
	if _, err := j.CompleteMinorGC(); err != nil {
		t.Fatal(err)
	}
	fl := j.FromLiveRange()
	yr := j.YoungRange()
	if fl.Empty() {
		t.Fatal("no From live range after GC with survivors")
	}
	if fl.Start < yr.Start || fl.End > yr.End {
		t.Fatalf("From live %v outside young %v", fl, yr)
	}
	if fl.Len() != j.fromUsed {
		t.Fatalf("From live len %d != fromUsed %d", fl.Len(), j.fromUsed)
	}
}

// Property: across randomized GC sequences the conservation ledger holds and
// occupancy never exceeds capacity.
func TestRandomizedGCConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 10; trial++ {
		cfg := Config{
			EdenSurvival:     0.01 + rng.Float64()*0.5,
			SurvivorSurvival: 0.2 + rng.Float64()*0.7,
			TenureThreshold:  1 + rng.Intn(5),
			SurvivalNoise:    rng.Float64() * 0.2,
			Rand:             rand.New(rand.NewSource(int64(trial))),
		}
		j, _, clock := newTestJVM(t, cfg)
		for i := 0; i < 30; i++ {
			j.Allocate(uint64(rng.Int63n(int64(j.EdenFree() + 1))))
			if j.NeedsMinorGC() || rng.Intn(3) == 0 {
				d := j.BeginMinorGC(false)
				clock.Advance(d)
				if _, err := j.CompleteMinorGC(); err != nil {
					if errors.Is(err, ErrHeapExhausted) {
						break
					}
					t.Fatal(err)
				}
			}
			if j.NeedsFullGC() {
				d := j.BeginFullGC()
				clock.Advance(d)
				j.CompleteFullGC()
			}
			if err := j.CheckConservation(); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, i, err)
			}
			if j.edenUsed > j.edenBytes || j.fromUsed > j.survivorBytes {
				t.Fatalf("trial %d: occupancy exceeds capacity", trial)
			}
			clock.Advance(time.Duration(rng.Intn(2000)) * time.Millisecond)
		}
	}
}

func TestALBShrinkAndRelease(t *testing.T) {
	j, _, clock := newTestJVM(t, Config{EdenSurvival: 0.02})
	// Grow under pressure first.
	for i := 0; i < 3; i++ {
		j.Allocate(j.EdenFree())
		d := j.BeginMinorGC(false)
		clock.Advance(d)
		if _, err := j.CompleteMinorGC(); err != nil {
			t.Fatal(err)
		}
	}
	grown := j.YoungCommitted()
	if grown <= 16<<20 {
		t.Fatalf("young did not grow: %d", grown)
	}

	j.ALBShrink(16 << 20)
	if !j.ALBActive() {
		t.Fatal("ALB not active after shrink request")
	}
	// The next GC applies the balloon.
	j.Allocate(j.EdenFree())
	d := j.BeginMinorGC(false)
	clock.Advance(d)
	if _, err := j.CompleteMinorGC(); err != nil {
		t.Fatal(err)
	}
	if j.YoungCommitted() != 16<<20 {
		t.Fatalf("young = %d MiB under ALB, want 16", j.YoungCommitted()>>20)
	}
	// Pinned: rapid refills do NOT regrow it while ALB is active.
	for i := 0; i < 3; i++ {
		j.Allocate(j.EdenFree())
		d := j.BeginMinorGC(false)
		clock.Advance(d)
		if _, err := j.CompleteMinorGC(); err != nil {
			t.Fatal(err)
		}
	}
	if j.YoungCommitted() != 16<<20 {
		t.Fatalf("ALB pin broken: young = %d MiB", j.YoungCommitted()>>20)
	}
	if err := j.CheckConservation(); err != nil {
		t.Fatal(err)
	}

	// Release: allocation pressure regrows the young generation.
	j.ALBRelease()
	if j.ALBActive() {
		t.Fatal("ALB still active after release")
	}
	for i := 0; i < 3; i++ {
		j.Allocate(j.EdenFree())
		d := j.BeginMinorGC(false)
		clock.Advance(d)
		if _, err := j.CompleteMinorGC(); err != nil {
			t.Fatal(err)
		}
	}
	if j.YoungCommitted() <= 16<<20 {
		t.Fatal("young did not regrow after ALB release")
	}
}

func TestALBShrinkFloorsAtLiveData(t *testing.T) {
	j, _, clock := newTestJVM(t, Config{EdenSurvival: 0.9, SurvivalNoise: 1e-9})
	j.Allocate(j.EdenFree())
	d := j.BeginMinorGC(false)
	clock.Advance(d)
	if _, err := j.CompleteMinorGC(); err != nil {
		t.Fatal(err)
	}
	// Request an absurdly small balloon; live survivor data floors it.
	j.ALBShrink(1)
	j.Allocate(j.EdenFree())
	d = j.BeginMinorGC(false)
	clock.Advance(d)
	if _, err := j.CompleteMinorGC(); err != nil {
		t.Fatal(err)
	}
	if j.fromUsed > j.survivorBytes {
		t.Fatal("ALB shrank survivor space below live data")
	}
}

func TestHeapInterfaceSurface(t *testing.T) {
	j, _, clock := newTestJVM(t, Config{EdenSurvival: 0.1, SurvivalNoise: 1e-9})
	// YoungAreas: exactly the contiguous young range.
	areas := j.YoungAreas()
	if len(areas) != 1 || areas[0] != j.YoungRange() {
		t.Fatalf("YoungAreas = %v", areas)
	}
	// GCHistory mirrors History.
	j.Allocate(4 << 20)
	d := j.BeginMinorGC(false)
	clock.Advance(d)
	if _, err := j.CompleteMinorGC(); err != nil {
		t.Fatal(err)
	}
	if len(j.GCHistory()) != 1 {
		t.Fatalf("GCHistory = %d entries", len(j.GCHistory()))
	}
	// ReadyAreas tile the young generation together with the page-rounded
	// live range.
	ready := j.ReadyAreas()
	var covered uint64
	for _, a := range ready {
		covered += a.Len()
	}
	live := j.FromLiveRange()
	liveAligned := mem.VARange{Start: live.Start.PageBase(), End: (live.End + mem.PageMask).PageBase()}
	if covered+liveAligned.Len() != j.YoungRange().Len() {
		t.Fatalf("ReadyAreas %v + live %v do not tile young", ready, liveAligned)
	}
	// SetTICallbacks installs all three hooks.
	var shrinks, gcs, dones int
	j.SetTICallbacks(
		func(mem.VARange) { shrinks++ },
		func(GCStats) { gcs++ },
		func() { dones++ },
	)
	j.Allocate(1 << 20)
	d = j.BeginMinorGC(true)
	clock.Advance(d)
	if _, err := j.CompleteMinorGC(); err != nil {
		t.Fatal(err)
	}
	if gcs != 1 || dones != 1 {
		t.Fatalf("hooks: gcs=%d dones=%d", gcs, dones)
	}
	j.ReleaseFromSafepoint()
}

// SeedOld is exercised by the workload package; its invariants are here.
func TestSeedOld(t *testing.T) {
	j, _, _ := newTestJVM(t, Config{})
	if err := j.SeedOld(10 << 20); err != nil {
		t.Fatal(err)
	}
	if j.OldUsed() != 10<<20 {
		t.Fatalf("OldUsed = %d", j.OldUsed())
	}
	if err := j.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if err := j.SeedOld(1 << 40); err == nil {
		t.Fatal("absurd seed accepted")
	}
}
