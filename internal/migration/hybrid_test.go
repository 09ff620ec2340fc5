package migration

import (
	"errors"
	"testing"
	"time"

	"javmm/internal/guestos"
	"javmm/internal/hypervisor"
	"javmm/internal/mem"
	"javmm/internal/netsim"
	"javmm/internal/simclock"
)

// Regression: a nil source domain must fail the same way Migrate does, not
// masquerade as a missing destination.
func TestPostCopyNilSourceDomain(t *testing.T) {
	r := newRig(64, 1000)
	src := r.source(Config{Mode: ModePostCopy}, nil)
	src.Dom = nil
	_, err := src.Migrate()
	if !errors.Is(err, ErrNoSource) {
		t.Fatalf("nil source domain: err = %v, want ErrNoSource", err)
	}
	if _, err := (&Source{Cfg: Config{Mode: ModeHybrid}}).Migrate(); !errors.Is(err, ErrNoSource) {
		t.Fatalf("hybrid nil source domain: err = %v, want ErrNoSource", err)
	}
}

// An idle guest dirties nothing after the warm phase, so a hybrid migration
// is a complete pre-copy followed by an empty lazy phase — and the full
// store-equality invariant holds at the destination.
func TestHybridIdleGuestVerifies(t *testing.T) {
	r := newRig(4096, 50*1000*1000)
	rep, err := r.source(Config{Mode: ModeHybrid}, nil).Migrate()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != ModeHybrid {
		t.Fatalf("report mode = %v", rep.Mode)
	}
	pc := rep.PostCopy
	if pc == nil {
		t.Fatal("hybrid run carries no post-copy stats")
	}
	if pc.WarmPages != 4096 {
		t.Fatalf("warm phase left %d pages resident, want all 4096", pc.WarmPages)
	}
	if pc.Faults != 0 || pc.PrefetchPages != 0 {
		t.Fatalf("idle guest needed lazy work: faults %d prefetch %d", pc.Faults, pc.PrefetchPages)
	}
	if r.dest.PagesReceived != 4096 {
		t.Fatalf("destination received %d pages", r.dest.PagesReceived)
	}
	r.verify(t, rep)
}

// With a dirtying guest the warm phase, demand faults and pre-paging must
// jointly account for every page exactly once past switchover, and the
// engine must restore the domain (log-dirty off, unpaused).
func TestHybridDirtyingGuestInvariants(t *testing.T) {
	r := newRig(8192, 20*1000*1000)
	hot := mem.VARange{Start: 0x1000000, End: 0x1000000 + 2048*mem.PageSize}
	sc := newScribbler(r.guest, r.clock, hot, 30000)
	rep, err := r.source(Config{Mode: ModeHybrid}, sc).Migrate()
	if err != nil {
		t.Fatal(err)
	}
	pc := rep.PostCopy
	if pc == nil {
		t.Fatal("no post-copy stats")
	}
	if pc.WarmPages == 0 {
		t.Fatal("warm phase left nothing resident")
	}
	if got := pc.WarmPages + pc.Faults + pc.PrefetchPages; got != 8192 {
		t.Fatalf("warm %d + faults %d + prefetch %d = %d, want 8192",
			pc.WarmPages, pc.Faults, pc.PrefetchPages, got)
	}
	// A fast dirtier must leave lazy work behind — otherwise the test
	// degenerates into the idle case.
	if pc.Faults+pc.PrefetchPages == 0 {
		t.Fatal("dirtying guest needed no lazy phase")
	}
	if len(rep.Iterations) < 2 {
		t.Fatalf("iterations = %d, want warm rounds plus the lazy round", len(rep.Iterations))
	}
	if last := rep.Iterations[len(rep.Iterations)-1]; !last.Last {
		t.Fatal("final iteration not marked Last")
	}
	if r.dom.Paused() {
		t.Fatal("domain left paused")
	}
	if r.dom.LogDirtyEnabled() {
		t.Fatal("log-dirty left enabled")
	}
	if pc.ResidentAt <= 0 || pc.ResidentAt > rep.TotalTime {
		t.Fatalf("ResidentAt = %v of %v", pc.ResidentAt, rep.TotalTime)
	}
}

// The warm phase trades pre-copy traffic for a shorter degradation tail:
// against the same dirtier, hybrid must stall the guest less than pure
// post-copy.
func TestHybridShortensDegradationTail(t *testing.T) {
	hot := mem.VARange{Start: 0x1000000, End: 0x1000000 + 1024*mem.PageSize}

	post := newRig(8192, 20*1000*1000)
	scPost := newScribbler(post.guest, post.clock, hot, 20000)
	postRep, err := post.source(Config{Mode: ModePostCopy}, scPost).Migrate()
	if err != nil {
		t.Fatal(err)
	}

	hyb := newRig(8192, 20*1000*1000)
	scHyb := newScribbler(hyb.guest, hyb.clock, hot, 20000)
	hybRep, err := hyb.source(Config{Mode: ModeHybrid}, scHyb).Migrate()
	if err != nil {
		t.Fatal(err)
	}
	if hybRep.PostCopy.FaultStall >= postRep.PostCopy.FaultStall {
		t.Fatalf("hybrid stall %v not below post-copy %v",
			hybRep.PostCopy.FaultStall, postRep.PostCopy.FaultStall)
	}
}

// The engine's backstop against a guest that never reports suspension-ready
// is configurable, so this failure path runs in milliseconds of virtual time
// instead of the old hardwired minute.
func TestSuspensionBackstopConfigurable(t *testing.T) {
	clock := simclock.New()
	dom := hypervisor.NewDomain("vm", clock, mem.NewVersionStore(4096))
	// Disable the LKM's own prepare timeout so its fallback never fires
	// and the engine-side backstop is what trips.
	guest := guestos.NewGuest(dom, guestos.LKMConfig{Clock: clock, PrepareTimeout: -1})

	hot := mem.VARange{Start: 0x1000000, End: 0x1000000 + 512*mem.PageSize}
	sc := newScribbler(guest, clock, hot, 1000)
	sc.skip = []mem.VARange{hot}
	sc.readyDelay = time.Hour // far beyond the backstop
	sc.register(guest)

	src := &Source{
		Dom:   dom,
		LKM:   guest.LKM,
		Link:  netsim.NewLink(clock, 50*1000*1000, 0),
		Clock: clock,
		Exec:  sc,
		Dest:  NewDestination(4096),
		Cfg:   Config{Mode: ModeAppAssisted, SuspensionBackstop: 500 * time.Millisecond},
	}
	before := clock.Now()
	_, err := src.Migrate()
	if !errors.Is(err, ErrSuspensionTimeout) {
		t.Fatalf("err = %v, want ErrSuspensionTimeout", err)
	}
	// The wait itself must be bounded by the configured backstop (plus the
	// migration work before it), not the old one-minute constant.
	if elapsed := clock.Now() - before; elapsed > 30*time.Second {
		t.Fatalf("backstop took %v of virtual time", elapsed)
	}
}
