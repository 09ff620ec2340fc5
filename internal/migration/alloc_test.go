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
