package javmm

import (
	"testing"
	"time"

	"javmm/internal/guestos"
	"javmm/internal/hypervisor"
	"javmm/internal/jvm"
	"javmm/internal/mem"
	"javmm/internal/simclock"
)

// rig assembles guest + JVM + agent for direct workflow testing (the agent's
// GC execution is driven by hand here; the workload package drives it in
// integration tests).
type rig struct {
	clock *simclock.Clock
	guest *guestos.Guest
	jvm   *jvm.JVM
	agent *Agent
}

func newRig(t *testing.T) *rig {
	t.Helper()
	clock := simclock.New()
	dom := hypervisor.NewDomain("vm", clock, mem.NewVersionStore(65536))
	g := guestos.NewGuest(dom, guestos.LKMConfig{Clock: clock})
	proc := g.NewProcess("java")
	j, err := jvm.New(jvm.Config{
		Proc:              proc,
		Clock:             clock,
		InitialYoungBytes: 16 << 20,
		MaxYoungBytes:     32 << 20,
		MaxOldBytes:       64 << 20,
		CodeCacheBytes:    4 << 20,
		EdenSurvival:      0.1,
		SurvivalNoise:     1e-9,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &rig{clock: clock, guest: g, jvm: j, agent: Attach(j, g, proc)}
}

// runEnforcedGC plays the workload driver's role: observes the pending
// enforce request and executes the collection.
func (r *rig) runEnforcedGC(t *testing.T) {
	t.Helper()
	if !r.jvm.EnforcePending() {
		t.Fatal("no enforced GC pending")
	}
	r.clock.Advance(r.jvm.SafepointDelay())
	d := r.jvm.BeginMinorGC(true)
	r.clock.Advance(d)
	if _, err := r.jvm.CompleteMinorGC(); err != nil {
		t.Fatal(err)
	}
}

func TestAgentReportsYoungGenOnQuery(t *testing.T) {
	r := newRig(t)
	daemon := r.guest.LKM.DaemonEndpoint()
	daemon.Bind(func(any) {})
	daemon.Notify(guestos.EvMigrationBegin{})
	if r.agent.Queries != 1 {
		t.Fatalf("Queries = %d", r.agent.Queries)
	}
	// The whole committed young generation must now be skip-marked.
	tb := r.guest.LKM.TransferBitmap()
	youngPages := r.jvm.YoungRange().Pages()
	if skipped := tb.Len() - tb.Count(); skipped != youngPages {
		t.Fatalf("skipped = %d, want young pages %d", skipped, youngPages)
	}
}

func TestAgentFullWorkflow(t *testing.T) {
	r := newRig(t)
	// Put live data into From by running a natural GC over allocated Eden.
	r.jvm.Allocate(8 << 20)
	d := r.jvm.BeginMinorGC(false)
	r.clock.Advance(d)
	if _, err := r.jvm.CompleteMinorGC(); err != nil {
		t.Fatal(err)
	}

	var ready bool
	daemon := r.guest.LKM.DaemonEndpoint()
	daemon.Bind(func(msg any) {
		if _, ok := msg.(guestos.EvSuspensionReady); ok {
			ready = true
		}
	})

	daemon.Notify(guestos.EvMigrationBegin{})
	daemon.Notify(guestos.EvEnteringLastIter{})
	if ready {
		t.Fatal("ready before enforced GC ran")
	}
	if r.agent.EnforcedGCs != 1 {
		t.Fatalf("EnforcedGCs = %d", r.agent.EnforcedGCs)
	}
	r.runEnforcedGC(t)
	if !ready {
		t.Fatal("not ready after enforced GC")
	}
	if !r.jvm.HeldAtSafepoint() {
		t.Fatal("threads not held")
	}

	// The From-space live pages must be transfer-marked; the rest of the
	// young generation stays skipped.
	tb := r.guest.LKM.TransferBitmap()
	live := r.jvm.FromLiveRange()
	if live.Empty() {
		t.Fatal("no survivors after enforced GC; test needs live data")
	}
	var liveSkipped, liveSeen int
	procAS := r.guest.Processes()[0].AS
	procAS.Walk(mem.VARange{Start: live.Start.PageBase(), End: (live.End + mem.PageMask).PageBase()},
		func(va mem.VA, p mem.PFN) {
			liveSeen++
			if !tb.Test(p) {
				liveSkipped++
			}
		})
	if liveSeen == 0 {
		t.Fatal("walk found no live pages")
	}
	if liveSkipped != 0 {
		t.Fatalf("%d live From pages still skip-marked", liveSkipped)
	}

	daemon.Notify(guestos.EvVMResumed{})
	if r.jvm.HeldAtSafepoint() {
		t.Fatal("threads still held after resume")
	}
	if r.agent.ResumeEvents != 1 {
		t.Fatalf("ResumeEvents = %d", r.agent.ResumeEvents)
	}
	if r.agent.migrating {
		t.Fatal("agent still in migrating state")
	}
}

func TestAgentShrinkNotificationDuringMigration(t *testing.T) {
	r := newRig(t)
	daemon := r.guest.LKM.DaemonEndpoint()
	daemon.Bind(func(any) {})

	// No migration: shrink events are not relayed.
	r.jvm.OnYoungShrink(mem.VARange{Start: 0x1000, End: 0x2000})
	if r.agent.ShrinkSent != 0 {
		t.Fatal("shrink relayed outside migration")
	}

	// Grow the young generation first: back-to-back GCs under pressure.
	for i := 0; i < 3; i++ {
		r.jvm.Allocate(r.jvm.EdenFree())
		d := r.jvm.BeginMinorGC(false)
		r.clock.Advance(d)
		if _, err := r.jvm.CompleteMinorGC(); err != nil {
			t.Fatal(err)
		}
	}
	if r.jvm.YoungCommitted() <= 16<<20 {
		t.Fatal("young generation did not grow; cannot test shrink")
	}

	daemon.Notify(guestos.EvMigrationBegin{})
	before := r.guest.LKM.ShrinkEvents
	// Trigger a real adaptive shrink: long-idle GC.
	r.clock.Advance(40 * time.Second)
	r.jvm.Allocate(4 << 20)
	d := r.jvm.BeginMinorGC(false)
	r.clock.Advance(d)
	if _, err := r.jvm.CompleteMinorGC(); err != nil {
		t.Fatal(err)
	}
	if r.agent.ShrinkSent == 0 {
		t.Fatal("adaptive shrink not relayed during migration")
	}
	if r.guest.LKM.ShrinkEvents == before {
		t.Fatal("LKM did not process the shrink")
	}
}

func TestAgentIgnoresDuplicatePrepare(t *testing.T) {
	r := newRig(t)
	daemon := r.guest.LKM.DaemonEndpoint()
	daemon.Bind(func(any) {})
	daemon.Notify(guestos.EvMigrationBegin{})
	daemon.Notify(guestos.EvEnteringLastIter{})
	if r.agent.EnforcedGCs != 1 {
		t.Fatalf("EnforcedGCs = %d", r.agent.EnforcedGCs)
	}
	// A stray duplicate prepare must not request a second GC.
	r.agent.onNetlink(guestos.MsgPrepareSuspension{})
	if r.agent.EnforcedGCs != 1 {
		t.Fatalf("EnforcedGCs after dup = %d", r.agent.EnforcedGCs)
	}
}

func TestAgentSecondMigration(t *testing.T) {
	r := newRig(t)
	daemon := r.guest.LKM.DaemonEndpoint()
	daemon.Bind(func(any) {})
	for round := 1; round <= 2; round++ {
		daemon.Notify(guestos.EvMigrationBegin{})
		daemon.Notify(guestos.EvEnteringLastIter{})
		r.runEnforcedGC(t)
		daemon.Notify(guestos.EvVMResumed{})
		if r.jvm.HeldAtSafepoint() {
			t.Fatalf("round %d: still held", round)
		}
	}
	if r.agent.Queries != 2 || r.agent.ReadySent != 2 || r.agent.ResumeEvents != 2 {
		t.Fatalf("agent counters: %+v", r.agent)
	}
}

func TestAgentDetach(t *testing.T) {
	r := newRig(t)
	r.agent.Detach()
	daemon := r.guest.LKM.DaemonEndpoint()
	daemon.Bind(func(any) {})
	daemon.Notify(guestos.EvMigrationBegin{})
	if r.agent.Queries != 0 {
		t.Fatal("detached agent still receives queries")
	}
	// Nothing skipped: no apps responded.
	tb := r.guest.LKM.TransferBitmap()
	if tb.Count() != tb.Len() {
		t.Fatal("transfer bits cleared with no agent attached")
	}
}

// regionalRig wires a regional (G1-style) heap with the agent.
type regionalRig struct {
	clock *simclock.Clock
	guest *guestos.Guest
	heap  *jvm.RegionalHeap
	agent *Agent
}

func newRegionalRig(t *testing.T, reReport bool) *regionalRig {
	t.Helper()
	clock := simclock.New()
	dom := hypervisor.NewDomain("vm", clock, mem.NewVersionStore(131072))
	g := guestos.NewGuest(dom, guestos.LKMConfig{Clock: clock})
	proc := g.NewProcess("java-g1")
	h, err := jvm.NewRegional(jvm.RegionalConfig{
		Proc:           proc,
		Clock:          clock,
		RegionBytes:    8 << 20,
		HeapBytes:      256 << 20,
		CodeCacheBytes: 4 << 20,
		EdenSurvival:   0.1,
		SurvivalNoise:  1e-9,
	})
	if err != nil {
		t.Fatal(err)
	}
	agent := AttachHeap(h, g, proc, Options{ReReportOnGC: reReport})
	return &regionalRig{clock: clock, guest: g, heap: h, agent: agent}
}

func TestAgentRegionalMultiRangeQuery(t *testing.T) {
	r := newRegionalRig(t, true)
	// Churn regions so the young set fragments.
	for i := 0; i < 3; i++ {
		r.heap.Allocate(30 << 20)
		d := r.heap.BeginMinorGC(false)
		r.clock.Advance(d)
		if _, err := r.heap.CompleteMinorGC(); err != nil {
			t.Fatal(err)
		}
	}
	r.heap.Allocate(30 << 20)

	daemon := r.guest.LKM.DaemonEndpoint()
	daemon.Bind(func(any) {})
	daemon.Notify(guestos.EvMigrationBegin{})
	tb := r.guest.LKM.TransferBitmap()
	skipped := tb.Len() - tb.Count()
	wantPages := r.heap.YoungCommitted() / mem.PageSize
	if skipped != wantPages {
		t.Fatalf("skipped %d pages, want young committed %d", skipped, wantPages)
	}
}

func TestAgentRegionalGrowReportsKeepSkippingEffective(t *testing.T) {
	r := newRegionalRig(t, true)
	daemon := r.guest.LKM.DaemonEndpoint()
	daemon.Bind(func(any) {})
	daemon.Notify(guestos.EvMigrationBegin{})

	before := r.agent.GrowReports
	// Allocation takes fresh regions mid-migration: each must be reported
	// and skip-marked immediately.
	r.heap.Allocate(30 << 20)
	if r.agent.GrowReports <= before {
		t.Fatal("no grow reports for fresh regions")
	}
	tb := r.guest.LKM.TransferBitmap()
	if skipped := tb.Len() - tb.Count(); skipped != r.heap.YoungCommitted()/mem.PageSize {
		t.Fatalf("fresh regions not skip-marked: %d skipped", skipped)
	}

	// A GC churns everything; the re-report re-covers the new young set.
	d := r.heap.BeginMinorGC(false)
	r.clock.Advance(d)
	if _, err := r.heap.CompleteMinorGC(); err != nil {
		t.Fatal(err)
	}
	if r.agent.ReReports == 0 {
		t.Fatal("no GC-end re-report")
	}
	if skipped := tb.Len() - tb.Count(); skipped != r.heap.YoungCommitted()/mem.PageSize {
		t.Fatalf("post-GC young set not skip-marked: %d skipped", skipped)
	}
}

func TestAgentRegionalNoReReportErodes(t *testing.T) {
	r := newRegionalRig(t, false)
	daemon := r.guest.LKM.DaemonEndpoint()
	daemon.Bind(func(any) {})
	daemon.Notify(guestos.EvMigrationBegin{})
	r.heap.Allocate(30 << 20)
	d := r.heap.BeginMinorGC(false)
	r.clock.Advance(d)
	if _, err := r.heap.CompleteMinorGC(); err != nil {
		t.Fatal(err)
	}
	// Old young regions freed (shrink restores their bits), new regions
	// never reported: nothing is skip-marked any more.
	tb := r.guest.LKM.TransferBitmap()
	if skipped := tb.Len() - tb.Count(); skipped != 0 {
		t.Fatalf("deferred-expansion mode still skips %d pages after churn", skipped)
	}
	if r.agent.GrowReports != 0 || r.agent.ReReports != 0 {
		t.Fatal("re-reporting fired despite being disabled")
	}
}

func TestAgentRegionalEnforcedGCWorkflow(t *testing.T) {
	r := newRegionalRig(t, true)
	r.heap.Allocate(20 << 20)
	var ready bool
	daemon := r.guest.LKM.DaemonEndpoint()
	daemon.Bind(func(msg any) {
		if _, ok := msg.(guestos.EvSuspensionReady); ok {
			ready = true
		}
	})
	daemon.Notify(guestos.EvMigrationBegin{})
	daemon.Notify(guestos.EvEnteringLastIter{})
	if !r.heap.EnforcePending() {
		t.Fatal("no enforced GC pending")
	}
	d := r.heap.BeginMinorGC(true)
	r.clock.Advance(d)
	if _, err := r.heap.CompleteMinorGC(); err != nil {
		t.Fatal(err)
	}
	if !ready {
		t.Fatal("not suspension-ready after enforced GC")
	}
	if !r.heap.HeldAtSafepoint() {
		t.Fatal("threads not held")
	}
	daemon.Notify(guestos.EvVMResumed{})
	if r.heap.HeldAtSafepoint() {
		t.Fatal("threads still held after resume")
	}
}

func TestAgentReadyAreasExcludeLiveExactly(t *testing.T) {
	r := newRig(t)
	r.jvm.Allocate(8 << 20)
	d := r.jvm.BeginMinorGC(false)
	r.clock.Advance(d)
	if _, err := r.jvm.CompleteMinorGC(); err != nil {
		t.Fatal(err)
	}
	var got []mem.VARange
	r.guest.Bus.BindKernel(func(from guestos.AppID, msg any) {
		if m, ok := msg.(guestos.MsgSuspensionReady); ok {
			got = m.Areas
		}
		// Forward to the LKM is unnecessary: we only inspect the payload.
	})
	r.agent.migrating = true
	r.agent.onEnforcedDone()
	if len(got) == 0 {
		t.Fatal("no ready areas sent")
	}
	live := r.jvm.FromLiveRange()
	for _, a := range got {
		if a.Overlaps(live) {
			t.Fatalf("ready area %v overlaps live range %v", a, live)
		}
	}
	// The union of areas plus the page-rounded live range covers the young
	// generation exactly.
	var covered uint64
	for _, a := range got {
		covered += a.Len()
	}
	liveAligned := mem.VARange{Start: live.Start.PageBase(), End: (live.End + mem.PageMask).PageBase()}
	if covered+liveAligned.Len() != r.jvm.YoungRange().Len() {
		t.Fatalf("areas %v + live %v do not tile young %v", got, liveAligned, r.jvm.YoungRange())
	}
}
