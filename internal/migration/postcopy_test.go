package migration

import (
	"testing"
	"time"

	"javmm/internal/faults"
	"javmm/internal/mem"
	"javmm/internal/obs/ledger"
)

func TestPostCopyIdleGuest(t *testing.T) {
	r := newRig(4096, 50*1000*1000)
	rep, err := r.source(Config{Mode: ModePostCopy}, nil).Migrate()
	if err != nil {
		t.Fatal(err)
	}
	pc := rep.PostCopy
	if pc == nil {
		t.Fatal("no post-copy stats")
	}
	if pc.Faults != 0 {
		t.Fatalf("idle guest faulted %d times", pc.Faults)
	}
	if pc.PrefetchPages != 4096 {
		t.Fatalf("prefetched %d pages, want all 4096", pc.PrefetchPages)
	}
	// Every page reached the destination transport record.
	if r.dest.PagesReceived != 4096 {
		t.Fatalf("destination received %d pages", r.dest.PagesReceived)
	}
	// Downtime is only the switchover: CPU state + resumption.
	if rep.VMDowntime > time.Second {
		t.Fatalf("post-copy downtime = %v", rep.VMDowntime)
	}
	r.verify(t, rep)
}

// exportLog is a source page store that records the version each page had
// when it was last exported: the version the page's last delivery carried.
type exportLog struct {
	mem.PageStore
	exported []uint64
}

func (l *exportLog) AppendExport(dst []byte, p mem.PFN) []byte {
	l.exported[p] = l.Version(p)
	return l.PageStore.AppendExport(dst, p)
}

// A run with a post-copy phase delivers the source image end to end. Every
// page is stamped once first, so a page the lazy phase never delivered
// reads an older version at the destination. The guest writes only hot:
// every other frame must match the source exactly. A hot frame the guest
// rewrote after its fetch may lag the source, so every page the destination
// received must hold exactly the version of its last export; a delivery
// that ships any other content fails the run, warm or lazy.
func TestPostCopyImageMatchesSource(t *testing.T) {
	for _, mode := range []Mode{ModePostCopy, ModeHybrid} {
		t.Run(mode.String(), func(t *testing.T) {
			log := &exportLog{PageStore: mem.NewVersionStore(8192), exported: make([]uint64, 8192)}
			r := newRigStore(log, 20*1000*1000)
			hot := mem.VARange{Start: 0x1000000, End: 0x1000000 + 2048*mem.PageSize}
			sc := newScribbler(r.guest, r.clock, hot, 30000)
			for p := mem.PFN(0); uint64(p) < r.dom.NumPages(); p++ {
				r.dom.WritePage(p)
			}
			rep, err := r.source(Config{Mode: mode}, sc).Migrate()
			if err != nil {
				t.Fatal(err)
			}
			if rep.PostCopy == nil || rep.PostCopy.Faults == 0 {
				t.Fatal("the guest never faulted: the run has no lazy phase to check")
			}
			hotFrames := mem.NewBitmap(r.dom.NumPages())
			for va := hot.Start; va < hot.End; va += mem.PageSize {
				p, ok := sc.proc.AS.Translate(va)
				if !ok {
					t.Fatalf("hot page %#x unmapped", uint64(va))
				}
				hotFrames.Set(p)
			}
			src, dst := r.dom.Store(), r.dest.Store
			if err := VerifyMigration(src, dst, rep.FinalTransfer,
				func(p mem.PFN) bool { return !hotFrames.Test(p) }); err != nil {
				t.Fatal(err)
			}
			received := r.dest.ReceivedPages()
			if got := received.Count(); got != r.dom.NumPages() {
				t.Fatalf("destination received %d of %d pages", got, r.dom.NumPages())
			}
			lagging := 0
			received.Range(func(p mem.PFN) bool {
				if dst.Version(p) != log.exported[p] {
					t.Fatalf("frame %d: destination holds version %d, its last export was version %d",
						p, dst.Version(p), log.exported[p])
				}
				if dst.Version(p) != src.Version(p) {
					lagging++
				}
				return true
			})
			if lagging == 0 {
				t.Fatal("no hot frame lags the source: the guest rewrote no page after its delivery")
			}
		})
	}
}

func TestPostCopyDemandFaults(t *testing.T) {
	r := newRig(8192, 20*1000*1000)
	hot := mem.VARange{Start: 0x1000000, End: 0x1000000 + 2048*mem.PageSize}
	sc := newScribbler(r.guest, r.clock, hot, 30000)
	rep, err := r.source(Config{Mode: ModePostCopy}, sc).Migrate()
	if err != nil {
		t.Fatal(err)
	}
	pc := rep.PostCopy
	if pc.Faults == 0 {
		t.Fatal("write-heavy guest never faulted")
	}
	if pc.FaultStall <= 0 {
		t.Fatal("faults produced no stall")
	}
	if pc.Faults+pc.PrefetchPages != 8192 {
		t.Fatalf("faults %d + prefetch %d != 8192 pages", pc.Faults, pc.PrefetchPages)
	}
	if pc.ResidentAt <= 0 || pc.ResidentAt > rep.TotalTime {
		t.Fatalf("ResidentAt = %v of %v", pc.ResidentAt, rep.TotalTime)
	}
	// Post-copy moves each page exactly once: traffic ≈ memory size
	// (plus the switchover state).
	limit := float64(8192*mem.PageSize) * 1.05
	if got := rep.TotalBytes(); float64(got) > limit {
		t.Fatalf("post-copy traffic %d well above one memory size", got)
	}
}

func TestPostCopyDowntimeBeatsPreCopyForFastDirtier(t *testing.T) {
	hot := mem.VARange{Start: 0x1000000, End: 0x1000000 + 1024*mem.PageSize}

	pre := newRig(4096, 10*1000*1000)
	scPre := newScribbler(pre.guest, pre.clock, hot, 20000)
	preRep, err := pre.source(Config{Mode: ModeVanilla}, scPre).Migrate()
	if err != nil {
		t.Fatal(err)
	}

	post := newRig(4096, 10*1000*1000)
	scPost := newScribbler(post.guest, post.clock, hot, 20000)
	postRep, err := post.source(Config{Mode: ModePostCopy}, scPost).Migrate()
	if err != nil {
		t.Fatal(err)
	}
	if postRep.VMDowntime >= preRep.VMDowntime {
		t.Fatalf("post-copy downtime %v not below pre-copy %v",
			postRep.VMDowntime, preRep.VMDowntime)
	}
	// But the guest pays: stalls while the working set is non-resident.
	if postRep.PostCopy.FaultStall == 0 {
		t.Fatal("no degradation recorded for post-copy")
	}
}

func TestPostCopyValidation(t *testing.T) {
	r := newRig(64, 1000)
	src := r.source(Config{Mode: ModePostCopy}, nil)
	src.Link = nil
	if _, err := src.Migrate(); err == nil {
		t.Fatal("missing link accepted")
	}
}

// runGuest writes one run at the start of its first slice and then idles.
type runGuest struct {
	r   *testRig
	run []mem.PFN
}

func (g *runGuest) Run(d time.Duration) {
	if g.run != nil {
		g.r.dom.WritePages(g.run)
		g.run = nil
	}
	g.r.clock.Advance(d)
}

// A page a write run repeats is demand-fetched once, whether the run's
// faulting pages are fetched together or, under an armed injector, one at
// a time.
func TestPostCopyFetchesRepeatedRunPageOnce(t *testing.T) {
	for _, armed := range []bool{false, true} {
		r := newRig(4096, 50*1000*1000)
		led := ledger.New()
		cfg := Config{Mode: ModePostCopy, Ledger: led}
		if armed {
			cfg.Faults = r.injector(t, faults.Plan{})
		}
		// High PFNs: the prefetch cursor, which starts at 0, has not reached
		// them when the guest first runs.
		g := &runGuest{r: r, run: []mem.PFN{4000, 4001, 4000, 4090, 4000, 4001}}
		rep, err := r.source(cfg, g).Migrate()
		if err != nil {
			t.Fatal(err)
		}
		pc := rep.PostCopy
		if pc.Faults != 3 || pc.Faults+pc.PrefetchPages != 4096 || r.dest.PagesReceived != 4096 {
			t.Fatalf("armed=%v: %d faults + %d prefetched, %d received; want 3 faults and every page once",
				armed, pc.Faults, pc.PrefetchPages, r.dest.PagesReceived)
		}
		for _, p := range []mem.PFN{4000, 4001, 4090} {
			if got := led.Sends(p); got != 1 {
				t.Fatalf("armed=%v: page %d sent %d times, want once", armed, p, got)
			}
		}
	}
}
