package migration

import (
	"math/rand"
	"testing"
	"time"

	"javmm/internal/mem"
)

// TestMigrationInvariantRandomized fuzzes the engine across random VM sizes,
// link speeds, working sets, skip-over areas and engine knobs, checking the
// correctness invariant after every run: each page that was not legitimately
// skipped (consented skip-over area, or freed frame) is identical at the
// destination.
func TestMigrationInvariantRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 40; trial++ {
		pages := uint64(1024 + rng.Intn(8)*1024)
		bw := uint64(2+rng.Intn(40)) * 1000 * 1000
		r := newRig(pages, bw)

		avail := r.guest.Frames.Free()
		hotPages := uint64(64 + rng.Intn(int(avail/2)))
		hot := mem.VARange{
			Start: 0x1000000,
			End:   0x1000000 + mem.VA(hotPages*mem.PageSize),
		}
		rate := float64(1000 + rng.Intn(40000))
		sc := newScribbler(r.guest, r.clock, hot, rate)

		mode := ModeVanilla
		if rng.Intn(2) == 1 {
			mode = ModeAppAssisted
			sc.skip = []mem.VARange{hot}
			if rng.Intn(2) == 1 {
				// Sometimes the app keeps a live head, like From-space
				// survivors (written by the app as it becomes ready).
				liveHead := mem.VARange{Start: hot.Start, End: hot.Start + mem.VA((1+rng.Intn(16))*mem.PageSize)}
				sc.readySkip = hot.Subtract(liveHead)
				sc.liveHead = liveHead
			}
			sc.readyDelay = time.Duration(rng.Intn(200)) * time.Millisecond
			sc.register(r.guest)
		}

		cfg := Config{
			Mode:               mode,
			MaxIterations:      2 + rng.Intn(29),
			DirtyPageThreshold: uint64(1 + rng.Intn(200)),
			ChunkPages:         uint64(32 << rng.Intn(6)),
			MaxTrafficFactor:   []float64{-1, 2, 3, 5}[rng.Intn(4)],
			Compress:           rng.Intn(4) == 0,
		}
		rep, err := r.source(cfg, sc).Migrate()
		if err != nil {
			t.Fatalf("trial %d (%+v): %v", trial, cfg, err)
		}
		r.verify(t, rep)

		// Structural invariants of the report.
		var sum uint64
		for i, it := range rep.Iterations {
			sum += it.BytesOnWire
			if (i == len(rep.Iterations)-1) != it.Last {
				t.Fatalf("trial %d: Last flag misplaced", trial)
			}
			if it.Duration < 0 {
				t.Fatalf("trial %d: negative duration", trial)
			}
		}
		if sum != rep.TotalBytes() {
			t.Fatalf("trial %d: TotalBytes %d != Σ iterations %d", trial, rep.TotalBytes(), sum)
		}
		if rep.VMDowntime < rep.Resumption {
			t.Fatalf("trial %d: downtime %v < resumption %v", trial, rep.VMDowntime, rep.Resumption)
		}
		if rep.TotalTime < rep.VMDowntime {
			t.Fatalf("trial %d: total %v < downtime %v", trial, rep.TotalTime, rep.VMDowntime)
		}
		if r.dom.Paused() {
			t.Fatalf("trial %d: domain left paused", trial)
		}
		if r.dom.LogDirtyEnabled() {
			t.Fatalf("trial %d: log-dirty left enabled", trial)
		}
	}
}

// TestPostCopyInvariantRandomized fuzzes post-copy: after every run, all
// pages are resident and the fault/prefetch split covers the memory exactly.
func TestPostCopyInvariantRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		pages := uint64(1024 + rng.Intn(4)*1024)
		r := newRig(pages, uint64(5+rng.Intn(40))*1000*1000)
		hotPages := uint64(64 + rng.Intn(512))
		hot := mem.VARange{Start: 0x1000000, End: 0x1000000 + mem.VA(hotPages*mem.PageSize)}
		sc := newScribbler(r.guest, r.clock, hot, float64(1000+rng.Intn(30000)))

		rep, err := r.source(Config{Mode: ModePostCopy}, sc).Migrate()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		pc := rep.PostCopy
		if pc.Faults+pc.PrefetchPages != pages {
			t.Fatalf("trial %d: faults %d + prefetch %d != %d", trial, pc.Faults, pc.PrefetchPages, pages)
		}
		if r.dest.PagesReceived != pages {
			t.Fatalf("trial %d: destination received %d of %d", trial, r.dest.PagesReceived, pages)
		}
		if r.dom.Paused() {
			t.Fatalf("trial %d: domain left paused", trial)
		}
	}
}
