package migration

import (
	"runtime"
	"testing"

	"javmm/internal/mem"
)

// migrateAllocs migrates a freshly booked VM of the given size in xen mode,
// with a guest dirtying a fixed hot set, and returns the heap objects the
// Migrate call allocated.
func migrateAllocs(t *testing.T, pages uint64) uint64 {
	t.Helper()
	r := newRig(pages, 1000*1000*1000)
	hot := mem.VARange{Start: 0x1000000, End: 0x1000000 + 512*mem.PageSize}
	sc := newScribbler(r.guest, r.clock, hot, 20000)
	src := r.source(Config{Mode: ModeVanilla}, sc)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rep, err := src.Migrate()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	r.verify(t, rep)
	if rep.TotalPagesSent < pages {
		t.Fatalf("%d-page VM sent only %d pages", pages, rep.TotalPagesSent)
	}
	return after.Mallocs - before.Mallocs
}

// The per-page send path allocates nothing in steady state: migrating a VM
// four times larger — 49k more page sends — costs at most a small constant
// of extra allocations (buffer growth, larger bitmaps), so a per-page
// allocation cannot creep back in unnoticed.
func TestXenMigrationAllocsDoNotScaleWithVMSize(t *testing.T) {
	if testing.Short() {
		t.Skip("boots two VMs")
	}
	small := migrateAllocs(t, 64<<20/mem.PageSize)
	large := migrateAllocs(t, 256<<20/mem.PageSize)
	const slack = 50
	if large > small+slack {
		t.Fatalf("256 MiB VM: %d allocs, 64 MiB VM: %d (allowed +%d)", large, small, slack)
	}
	t.Logf("allocs per migration: 64 MiB %d, 256 MiB %d", small, large)
}

// postCopyAllocs migrates a freshly booked VM of the given size post-copy,
// with a guest rewriting a quarter of its memory in page runs, and returns
// the demand faults, the guest write runs and the heap objects the Migrate
// call allocated. Faults and runs both grow with the VM.
func postCopyAllocs(t *testing.T, pages uint64) (faults, runs, allocs uint64) {
	t.Helper()
	r := newRig(pages, 1000*1000*1000)
	hot := mem.VARange{Start: 0x1000000, End: 0x1000000 + mem.VA(pages/4)*mem.PageSize}
	const perStep = 200 // pages per 1 ms step, so no run is longer
	sc := newScribbler(r.guest, r.clock, hot, perStep*1000)
	sc.runs = true
	src := r.source(Config{Mode: ModePostCopy}, sc)
	var before, after runtime.MemStats
	runtime.GC()
	writes := r.dom.Writes()
	runtime.ReadMemStats(&before)
	rep, err := src.Migrate()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	// The guest keeps writing after switchover, so the source image is not
	// the destination's to verify against; every page must have moved once.
	pc := rep.PostCopy
	if pc.Faults+pc.PrefetchPages != pages || r.dom.Writes() == writes {
		t.Fatalf("%d-page VM: %d faults + %d prefetched pages, %d writes",
			pages, pc.Faults, pc.PrefetchPages, r.dom.Writes()-writes)
	}
	return pc.Faults, (r.dom.Writes() - writes) / perStep, after.Mallocs - before.Mallocs
}

// The lazy phase allocates nothing per write run or per demand fault: a VM
// four times larger — about four times the faults and the runs — costs at
// most a small constant of extra allocations.
func TestPostCopyMigrationAllocsDoNotScaleWithVMSize(t *testing.T) {
	if testing.Short() {
		t.Skip("boots two VMs")
	}
	smallFaults, smallRuns, small := postCopyAllocs(t, 64<<20/mem.PageSize)
	largeFaults, largeRuns, large := postCopyAllocs(t, 256<<20/mem.PageSize)
	const slack = 50
	if largeFaults < smallFaults+20*slack || largeRuns < smallRuns+2*slack {
		t.Fatalf("faults %d -> %d, runs %d -> %d: the larger VM must fault and write much more",
			smallFaults, largeFaults, smallRuns, largeRuns)
	}
	if large > small+slack {
		t.Fatalf("256 MiB VM: %d allocs, 64 MiB VM: %d (allowed +%d)", large, small, slack)
	}
	t.Logf("post-copy allocs per migration: 64 MiB %d (%d faults, >=%d runs), 256 MiB %d (%d faults, >=%d runs)",
		small, smallFaults, smallRuns, large, largeFaults, largeRuns)
}
