package workload

import (
	"testing"
	"time"

	"javmm/internal/mem"
)

func TestCatalogIsThePaperTable1(t *testing.T) {
	want := []string{"derby", "compiler", "xml", "sunflow", "serial", "crypto", "scimark", "mpeg", "compress"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("catalog = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("catalog[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestCatalogCategories(t *testing.T) {
	wantCat := map[string]Category{
		"derby": Category1, "compiler": Category1, "xml": Category1, "sunflow": Category1,
		"serial": Category2, "crypto": Category2, "mpeg": Category2, "compress": Category2,
		"scimark": Category3,
	}
	for _, p := range Catalog() {
		if p.Category != wantCat[p.Name] {
			t.Errorf("%s category = %d, want %d", p.Name, p.Category, wantCat[p.Name])
		}
		if p.AllocBytesPerSec == 0 || p.OpsPerSec == 0 {
			t.Errorf("%s has zero rates", p.Name)
		}
		if p.Description == "" {
			t.Errorf("%s has no description", p.Name)
		}
	}
}

func TestLookup(t *testing.T) {
	p, err := Lookup("derby")
	if err != nil || p.Name != "derby" {
		t.Fatalf("Lookup(derby) = %v, %v", p.Name, err)
	}
	if _, err := Lookup("nosuch"); err == nil {
		t.Fatal("Lookup of unknown workload succeeded")
	}
}

func bootSmall(t *testing.T, prof Profile, assisted bool) *VM {
	t.Helper()
	vm, err := Boot(BootConfig{
		MemBytes: 512 << 20,
		Profile:  prof,
		Assisted: assisted,
		Seed:     42,
	})
	if err != nil {
		t.Fatal(err)
	}
	return vm
}

// smallProfile is a scaled-down category-1 workload for fast unit tests.
func smallProfile() Profile {
	return Profile{
		Name:              "small",
		Description:       "scaled-down test workload",
		Category:          Category1,
		AllocBytesPerSec:  40 << 20,
		OpsPerSec:         10,
		EdenSurvival:      0.02,
		SurvivorSurvival:  0.5,
		TenureThreshold:   4,
		InitialYoungBytes: 16 << 20,
		MaxYoungBytes:     128 << 20,
		MaxOldBytes:       128 << 20,
		OldSeedBytes:      16 << 20,
		KernelPagesPerSec: 50,
		SafepointDelay:    30 * time.Millisecond,
		WriteTrapCost:     2 * time.Microsecond,
	}
}

func TestDriverRunAdvancesExactly(t *testing.T) {
	vm := bootSmall(t, smallProfile(), false)
	start := vm.Clock.Now()
	vm.Driver.Run(2500 * time.Millisecond)
	if got := vm.Clock.Now() - start; got != 2500*time.Millisecond {
		t.Fatalf("Run advanced %v, want 2.5s", got)
	}
}

func TestDriverAllocatesAndCollects(t *testing.T) {
	vm := bootSmall(t, smallProfile(), false)
	vm.Driver.Run(10 * time.Second)
	if vm.Driver.Err != nil {
		t.Fatal(vm.Driver.Err)
	}
	if vm.JVM.TotalAllocated < 100<<20 {
		t.Fatalf("allocated only %d bytes in 10s at 40 MiB/s", vm.JVM.TotalAllocated)
	}
	if vm.JVM.MinorGCs == 0 {
		t.Fatal("no minor GCs in 10s of heavy allocation")
	}
	if err := vm.JVM.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if vm.Driver.TotalOps < 50 {
		t.Fatalf("ops = %v, want ~100", vm.Driver.TotalOps)
	}
}

func TestDriverSamplesPerSecond(t *testing.T) {
	vm := bootSmall(t, smallProfile(), false)
	vm.Driver.Run(5 * time.Second)
	samples := vm.Driver.Samples()
	if len(samples) != 5 {
		t.Fatalf("samples = %d, want 5", len(samples))
	}
	for i, s := range samples {
		if s.Second != i {
			t.Fatalf("sample %d has Second %d", i, s.Second)
		}
		if s.Ops <= 0 {
			t.Fatalf("sample %d has no ops", i)
		}
	}
}

func TestDriverThrottleReducesThroughput(t *testing.T) {
	a := bootSmall(t, smallProfile(), false)
	a.Driver.Run(5 * time.Second)
	b := bootSmall(t, smallProfile(), false)
	b.Driver.SetThrottle(0.5)
	b.Driver.Run(5 * time.Second)
	if b.Driver.TotalOps >= a.Driver.TotalOps {
		t.Fatalf("throttled ops %v >= unthrottled %v", b.Driver.TotalOps, a.Driver.TotalOps)
	}
	if b.JVM.TotalAllocated >= a.JVM.TotalAllocated {
		t.Fatal("throttle did not slow allocation")
	}
}

func TestDriverThrottleValidation(t *testing.T) {
	vm := bootSmall(t, smallProfile(), false)
	defer func() {
		if recover() == nil {
			t.Fatal("invalid throttle accepted")
		}
	}()
	vm.Driver.SetThrottle(0)
}

func TestYoungGrowsToMaxUnderPressure(t *testing.T) {
	vm := bootSmall(t, smallProfile(), false)
	vm.Driver.Run(30 * time.Second)
	if vm.JVM.YoungCommitted() != 128<<20 {
		t.Fatalf("young = %d MiB, want max 128 MiB", vm.JVM.YoungCommitted()>>20)
	}
}

func TestLogDirtyOverheadSlowsGuest(t *testing.T) {
	a := bootSmall(t, smallProfile(), false)
	a.Driver.Run(5 * time.Second)

	b := bootSmall(t, smallProfile(), false)
	b.Dom.EnableLogDirty()
	// Drain the dirty bitmap each second like a migration round would, so
	// traps keep firing.
	snap := mem.NewBitmap(b.Dom.NumPages())
	for i := 0; i < 5; i++ {
		b.Driver.Run(time.Second)
		b.Dom.PeekAndClear(snap)
	}
	if b.Driver.TotalOps >= a.Driver.TotalOps {
		t.Fatalf("log-dirty ops %v >= untracked %v", b.Driver.TotalOps, a.Driver.TotalOps)
	}
}

func TestBootAssistedAttachesAgent(t *testing.T) {
	vm := bootSmall(t, smallProfile(), true)
	if vm.Agent == nil {
		t.Fatal("assisted boot has no agent")
	}
	vmPlain := bootSmall(t, smallProfile(), false)
	if vmPlain.Agent != nil {
		t.Fatal("plain boot has an agent")
	}
}

func TestBootDefaults(t *testing.T) {
	vm, err := Boot(BootConfig{Profile: smallProfile()})
	if err != nil {
		t.Fatal(err)
	}
	if vm.Dom.MemoryBytes() != 2<<30 {
		t.Fatalf("default memory = %d", vm.Dom.MemoryBytes())
	}
	if vm.Dom.Name() != "small-vm" {
		t.Fatalf("default name = %q", vm.Dom.Name())
	}
}

func TestBootSeedsOldGen(t *testing.T) {
	vm := bootSmall(t, smallProfile(), false)
	if vm.JVM.OldUsed() != 16<<20 {
		t.Fatalf("OldUsed = %d, want seed 16 MiB", vm.JVM.OldUsed())
	}
}

// TestCatalogProfilesRunCleanly boots every paper workload in a 2 GiB VM and
// runs it for 30 virtual seconds: no heap exhaustion, conservation holds,
// throughput is positive.
func TestCatalogProfilesRunCleanly(t *testing.T) {
	if testing.Short() {
		t.Skip("2 GiB VM warmups are slow in -short mode")
	}
	for _, prof := range Catalog() {
		prof := prof
		t.Run(prof.Name, func(t *testing.T) {
			vm, err := Boot(BootConfig{Profile: prof, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			vm.Driver.Run(30 * time.Second)
			if vm.Driver.Err != nil {
				t.Fatal(vm.Driver.Err)
			}
			if err := vm.JVM.CheckConservation(); err != nil {
				t.Fatal(err)
			}
			if vm.Driver.TotalOps <= 0 {
				t.Fatal("no operations completed")
			}
			if vm.JVM.MinorGCs == 0 {
				t.Fatal("no minor GCs")
			}
		})
	}
}

func TestLongestStall(t *testing.T) {
	samples := []Sample{
		{0, 1.0}, {1, 1.0}, {2, 0.0}, {3, 0.01}, {4, 0.0}, {5, 1.0},
		{6, 0.0}, {7, 1.0},
	}
	if got := LongestStall(samples, 0.05); got != 3 {
		t.Fatalf("LongestStall = %d, want 3", got)
	}
	if got := LongestStall(samples, 2.0); got != 8 {
		t.Fatalf("all-below threshold = %d, want 8", got)
	}
	if got := LongestStall(nil, 0.05); got != 1 {
		// Empty timeline: the single implicit second 0 has no ops.
		t.Fatalf("empty = %d", got)
	}
	// Missing seconds count as zero-op seconds (suspension gaps).
	gappy := []Sample{{0, 1.0}, {5, 1.0}}
	if got := LongestStall(gappy, 0.05); got != 4 {
		t.Fatalf("gappy = %d, want 4", got)
	}
}

func TestBootG1Collector(t *testing.T) {
	vm, err := Boot(BootConfig{
		MemBytes:  512 << 20,
		Profile:   smallProfile(),
		Assisted:  true,
		Seed:      9,
		Collector: CollectorG1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if vm.JVM != nil || vm.Regional == nil || vm.Heap == nil {
		t.Fatal("G1 boot wiring wrong")
	}
	vm.Driver.Run(20 * time.Second)
	if vm.Driver.Err != nil {
		t.Fatal(vm.Driver.Err)
	}
	if vm.Regional.MinorGCs == 0 {
		t.Fatal("no collections under allocation pressure")
	}
	if err := vm.Heap.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

func TestBootUnknownCollector(t *testing.T) {
	_, err := Boot(BootConfig{Profile: smallProfile(), Collector: "zgc"})
	if err == nil {
		t.Fatal("unknown collector accepted")
	}
}

func TestBootRejectsOversizedFootprint(t *testing.T) {
	p := smallProfile()
	p.InitialYoungBytes = 1 << 30
	p.OldSeedBytes = 1 << 30
	_, err := Boot(BootConfig{MemBytes: 512 << 20, Profile: p})
	if err == nil {
		t.Fatal("boot footprint beyond VM memory accepted")
	}
}

// TestCategorySizing reproduces the §5.3 taxonomy: after warmup, category-1
// workloads saturate their young generation; scimark keeps a small young and
// a large old generation.
func TestCategorySizing(t *testing.T) {
	if testing.Short() {
		t.Skip("warmups are slow in -short mode")
	}
	run := func(name string, warmup time.Duration) *VM {
		prof, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		vm, err := Boot(BootConfig{Profile: prof, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		vm.Driver.Run(warmup)
		if vm.Driver.Err != nil {
			t.Fatal(vm.Driver.Err)
		}
		return vm
	}

	derby := run("derby", 60*time.Second)
	if derby.JVM.YoungCommitted() != 1<<30 {
		t.Errorf("derby young = %d MiB, want 1024", derby.JVM.YoungCommitted()>>20)
	}

	scimark := run("scimark", 60*time.Second)
	if y := scimark.JVM.YoungCommitted(); y > 256<<20 {
		t.Errorf("scimark young = %d MiB, want small (<=256)", y>>20)
	}
	if old := scimark.JVM.OldUsed(); old < 300<<20 {
		t.Errorf("scimark old = %d MiB, want large (>=300)", old>>20)
	}
	if scimark.JVM.OldUsed() <= scimark.JVM.YoungCommitted() {
		t.Error("scimark should use more old than young memory")
	}
}
