package guestos

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"javmm/internal/hypervisor"
	"javmm/internal/mem"
	"javmm/internal/simclock"
)

// testGuest builds a small guest: 8192 pages (32 MiB), kernel reservation
// included.
func testGuest(t *testing.T) (*Guest, *simclock.Clock) {
	t.Helper()
	clock := simclock.New()
	dom := hypervisor.NewDomain("guest", clock, mem.NewVersionStore(8192), 2)
	g := NewGuest(dom, LKMConfig{Clock: clock})
	return g, clock
}

func TestBusMulticastOrderAndClose(t *testing.T) {
	b := NewBus()
	var order []int
	s1 := b.Subscribe(func(any) { order = append(order, 1) })
	s2 := b.Subscribe(func(any) { order = append(order, 2) })
	b.Multicast("x")
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("multicast order %v", order)
	}
	s1.Close()
	order = nil
	b.Multicast("y")
	if len(order) != 1 || order[0] != 2 {
		t.Fatalf("after close, multicast order %v", order)
	}
	if b.Subscribers() != 1 {
		t.Fatalf("Subscribers = %d", b.Subscribers())
	}
	_ = s2
}

func TestBusSendWithoutKernel(t *testing.T) {
	b := NewBus()
	s := b.Subscribe(func(any) {})
	if err := s.Send("msg"); err == nil {
		t.Fatal("Send without kernel receiver succeeded")
	}
}

func TestBusSendToKernel(t *testing.T) {
	b := NewBus()
	var gotFrom AppID
	var gotMsg any
	b.BindKernel(func(from AppID, msg any) { gotFrom, gotMsg = from, msg })
	s := b.Subscribe(func(any) {})
	if err := s.Send("hello"); err != nil {
		t.Fatal(err)
	}
	if gotFrom != s.App() || gotMsg != "hello" {
		t.Fatalf("kernel got (%d, %v)", gotFrom, gotMsg)
	}
}

func TestParseVARanges(t *testing.T) {
	got, err := ParseVARanges("0x1000-0x2000,4096-8192")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != (mem.VARange{Start: 0x1000, End: 0x2000}) ||
		got[1] != (mem.VARange{Start: 4096, End: 8192}) {
		t.Fatalf("ParseVARanges = %v", got)
	}
	for _, bad := range []string{"", "x", "0x10", "0x20-0x10", "0x10-0x10", "zz-0x10"} {
		if _, err := ParseVARanges(bad); err == nil {
			t.Errorf("ParseVARanges(%q) succeeded", bad)
		}
	}
}

func TestFormatParseRoundTrip(t *testing.T) {
	in := []mem.VARange{{Start: 0x1000, End: 0x2000}, {Start: 0xa000, End: 0xf000}}
	out, err := ParseVARanges(FormatVARanges(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip %v -> %v", in, out)
	}
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("round trip %v -> %v", in, out)
		}
	}
}

func TestProcEntryCommands(t *testing.T) {
	g, _ := testGuest(t)
	proc := g.NewProcess("app")
	area := mem.VARange{Start: 0x100000, End: 0x100000 + 16*mem.PageSize}
	if err := proc.Alloc(area); err != nil {
		t.Fatal(err)
	}
	sock := g.LKM.RegisterApp(proc, func(any) {})
	pe := OpenProc(sock)

	g.LKM.DaemonEndpoint().Notify(EvMigrationBegin{})
	if err := pe.Write("skip " + FormatVARanges([]mem.VARange{area})); err != nil {
		t.Fatal(err)
	}
	cleared := g.LKM.TransferBitmap().Len() - g.LKM.TransferBitmap().Count()
	if cleared != 16 {
		t.Fatalf("cleared bits = %d, want 16", cleared)
	}
	if err := pe.Write("bogus 0x0-0x1"); err == nil {
		t.Fatal("unknown verb accepted")
	}
	if err := pe.Write("skip"); err == nil {
		t.Fatal("skip without ranges accepted")
	}
	if err := pe.Write(""); err == nil {
		t.Fatal("empty command accepted")
	}

	// Compression hints through /proc.
	if err := pe.Write("hint strong " + FormatVARanges([]mem.VARange{area})); err != nil {
		t.Fatal(err)
	}
	if g.LKM.HintedPages != 16 {
		t.Fatalf("HintedPages = %d after /proc hint", g.LKM.HintedPages)
	}
	for _, bad := range []string{"hint", "hint turbo 0x1000-0x2000", "hint strong zz"} {
		if err := pe.Write(bad); err == nil {
			t.Fatalf("%q accepted", bad)
		}
	}
}

func TestLKMInitialState(t *testing.T) {
	g, _ := testGuest(t)
	if g.LKM.State() != StateInitialized {
		t.Fatalf("state = %v", g.LKM.State())
	}
	tb := g.LKM.TransferBitmap()
	if tb.Count() != tb.Len() {
		t.Fatal("transfer bitmap not initialized all-set")
	}
	if g.LKM.BitmapBytes() != 1024 {
		t.Fatalf("BitmapBytes = %d, want 1024 for 8192 pages", g.LKM.BitmapBytes())
	}
}

func TestStateStrings(t *testing.T) {
	names := map[State]string{
		StateInitialized:      "INITIALIZED",
		StateMigrationStarted: "MIGRATION_STARTED",
		StateEnteringLastIter: "ENTERING_LAST_ITER",
		StateSuspensionReady:  "SUSPENSION_READY",
		StateResumed:          "RESUMED",
		State(99):             "State(99)",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("State(%d).String() = %q, want %q", int(s), s.String(), want)
		}
	}
}

// appHarness wires a scripted application into the LKM for workflow tests.
type appHarness struct {
	proc *Process
	sock *Socket
	// areas reported on query and on prepare.
	queryAreas []mem.VARange
	readyAreas []mem.VARange
	// readyDelay defers the suspension-ready response by virtual time;
	// zero responds immediately. Negative means never respond.
	readyDelay time.Duration
	clock      *simclock.Clock

	queries, prepares, resumes int
}

func newAppHarness(g *Guest, clock *simclock.Clock, name string) *appHarness {
	h := &appHarness{proc: g.NewProcess(name), clock: clock}
	h.sock = g.LKM.RegisterApp(h.proc, h.onMsg)
	return h
}

func (h *appHarness) onMsg(msg any) {
	switch msg.(type) {
	case MsgQuerySkipAreas:
		h.queries++
		if len(h.queryAreas) > 0 {
			h.sock.Send(MsgReportAreas{App: h.sock.App(), Areas: h.queryAreas})
		}
	case MsgPrepareSuspension:
		h.prepares++
		if h.readyDelay < 0 {
			return // never responds: straggler
		}
		respond := func() {
			h.sock.Send(MsgSuspensionReady{App: h.sock.App(), Areas: h.readyAreas})
		}
		if h.readyDelay == 0 {
			respond()
		} else {
			h.clock.AfterFunc(h.readyDelay, func(time.Duration) { respond() })
		}
	case MsgVMResumed:
		h.resumes++
	}
}

func pagesAt(start mem.VA, n uint64) mem.VARange {
	return mem.VARange{Start: start, End: start + mem.VA(n*mem.PageSize)}
}

func TestWorkflowHappyPath(t *testing.T) {
	g, clock := testGuest(t)
	h := newAppHarness(g, clock, "app")
	area := pagesAt(0x100000, 64)
	if err := h.proc.Alloc(area); err != nil {
		t.Fatal(err)
	}
	h.queryAreas = []mem.VARange{area}
	// Suspension-ready keeps only the tail 8 pages skipped (like the From
	// space leaving the young gen: the first 8 pages hold live data).
	live := pagesAt(area.Start, 8)
	h.readyAreas = area.Subtract(live)

	var ready []EvSuspensionReady
	daemon := g.LKM.DaemonEndpoint()
	daemon.Bind(func(msg any) {
		if ev, ok := msg.(EvSuspensionReady); ok {
			ready = append(ready, ev)
		}
	})

	daemon.Notify(EvMigrationBegin{})
	if g.LKM.State() != StateMigrationStarted {
		t.Fatalf("state = %v", g.LKM.State())
	}
	if h.queries != 1 {
		t.Fatalf("queries = %d", h.queries)
	}
	tb := g.LKM.TransferBitmap()
	if skipped := tb.Len() - tb.Count(); skipped != 64 {
		t.Fatalf("first update skipped %d pages, want 64", skipped)
	}

	daemon.Notify(EvEnteringLastIter{})
	if len(ready) != 1 {
		t.Fatalf("suspension-ready events = %d, want 1", len(ready))
	}
	if g.LKM.State() != StateSuspensionReady {
		t.Fatalf("state = %v", g.LKM.State())
	}
	// The 8 live pages left the skip-over set: their bits are set again.
	if skipped := tb.Len() - tb.Count(); skipped != 56 {
		t.Fatalf("after final update skipped %d pages, want 56", skipped)
	}
	var liveSkipped int
	h.proc.AS.Walk(live, func(va mem.VA, p mem.PFN) {
		if !tb.Test(p) {
			liveSkipped++
		}
	})
	if liveSkipped != 0 {
		t.Fatalf("%d live pages still skip-marked", liveSkipped)
	}
	if ready[0].FinalUpdate <= 0 {
		t.Fatal("final update duration not accounted")
	}
	if ready[0].Fallbacks != 0 {
		t.Fatalf("Fallbacks = %d", ready[0].Fallbacks)
	}

	daemon.Notify(EvVMResumed{})
	if h.resumes != 1 {
		t.Fatalf("resumes = %d", h.resumes)
	}
	if g.LKM.State() != StateInitialized {
		t.Fatalf("state after resume = %v", g.LKM.State())
	}
	if tb.Count() != tb.Len() {
		t.Fatal("transfer bitmap not reset after resume")
	}
}

func TestShrinkUsesPFNCacheAfterFree(t *testing.T) {
	g, clock := testGuest(t)
	h := newAppHarness(g, clock, "app")
	area := pagesAt(0x200000, 32)
	if err := h.proc.Alloc(area); err != nil {
		t.Fatal(err)
	}
	h.queryAreas = []mem.VARange{area}
	daemon := g.LKM.DaemonEndpoint()
	daemon.Bind(func(any) {})
	daemon.Notify(EvMigrationBegin{})

	// Record which PFNs back the tail 8 pages, then deallocate them — the
	// exact case §3.3.4 designs the PFN cache for: after the free, page
	// tables can no longer find the departing PFNs.
	leaving := pagesAt(area.Start+24*mem.PageSize, 8)
	var leavingPFNs []mem.PFN
	h.proc.AS.Walk(leaving, func(va mem.VA, p mem.PFN) { leavingPFNs = append(leavingPFNs, p) })
	h.proc.Free(leaving)

	h.sock.Send(MsgAreaShrunk{App: h.sock.App(), Left: []mem.VARange{leaving}})

	tb := g.LKM.TransferBitmap()
	for _, p := range leavingPFNs {
		if !tb.Test(p) {
			t.Fatalf("PFN %d left the area but transfer bit still cleared", p)
		}
	}
	if skipped := tb.Len() - tb.Count(); skipped != 24 {
		t.Fatalf("skipped = %d, want 24", skipped)
	}
	if g.LKM.ShrinkEvents != 1 {
		t.Fatalf("ShrinkEvents = %d", g.LKM.ShrinkEvents)
	}
}

func TestExpandDeferredToFinalUpdate(t *testing.T) {
	g, clock := testGuest(t)
	h := newAppHarness(g, clock, "app")
	area := pagesAt(0x300000, 16)
	grown := pagesAt(0x300000, 32)
	if err := h.proc.Alloc(grown); err != nil {
		t.Fatal(err)
	}
	h.queryAreas = []mem.VARange{area}
	h.readyAreas = []mem.VARange{grown}
	daemon := g.LKM.DaemonEndpoint()
	daemon.Bind(func(any) {})

	daemon.Notify(EvMigrationBegin{})
	tb := g.LKM.TransferBitmap()
	if skipped := tb.Len() - tb.Count(); skipped != 16 {
		t.Fatalf("skipped after first update = %d, want 16", skipped)
	}
	// Expansion is NOT reported mid-migration (paper: no notification on
	// expand); the final update picks it up.
	daemon.Notify(EvEnteringLastIter{})
	if skipped := tb.Len() - tb.Count(); skipped != 32 {
		t.Fatalf("skipped after final update = %d, want 32", skipped)
	}
}

func TestPrepareTimeoutFallsBackToFullTransfer(t *testing.T) {
	g, clock := testGuest(t)
	h := newAppHarness(g, clock, "app")
	area := pagesAt(0x400000, 16)
	if err := h.proc.Alloc(area); err != nil {
		t.Fatal(err)
	}
	h.queryAreas = []mem.VARange{area}
	h.readyDelay = -1 // never responds

	var ready []EvSuspensionReady
	daemon := g.LKM.DaemonEndpoint()
	daemon.Bind(func(msg any) {
		if ev, ok := msg.(EvSuspensionReady); ok {
			ready = append(ready, ev)
		}
	})
	daemon.Notify(EvMigrationBegin{})
	daemon.Notify(EvEnteringLastIter{})
	if len(ready) != 0 {
		t.Fatal("suspension-ready before timeout")
	}
	clock.Advance(11 * time.Second) // default timeout 10s
	if len(ready) != 1 {
		t.Fatalf("suspension-ready events = %d, want 1 after timeout", len(ready))
	}
	if ready[0].Fallbacks != 1 {
		t.Fatalf("Fallbacks = %d, want 1", ready[0].Fallbacks)
	}
	tb := g.LKM.TransferBitmap()
	if tb.Count() != tb.Len() {
		t.Fatal("straggler's area not restored to full transfer")
	}
	if g.LKM.FallbackApps != 1 {
		t.Fatalf("FallbackApps = %d", g.LKM.FallbackApps)
	}
}

func TestDelayedReadyArrivesBeforeTimeout(t *testing.T) {
	g, clock := testGuest(t)
	h := newAppHarness(g, clock, "app")
	area := pagesAt(0x500000, 16)
	if err := h.proc.Alloc(area); err != nil {
		t.Fatal(err)
	}
	h.queryAreas = []mem.VARange{area}
	h.readyAreas = []mem.VARange{area}
	h.readyDelay = 900 * time.Millisecond // like an enforced GC finishing

	var readyAt time.Duration = -1
	daemon := g.LKM.DaemonEndpoint()
	daemon.Bind(func(msg any) {
		if _, ok := msg.(EvSuspensionReady); ok {
			readyAt = clock.Now()
		}
	})
	daemon.Notify(EvMigrationBegin{})
	daemon.Notify(EvEnteringLastIter{})
	clock.Advance(2 * time.Second)
	if readyAt != 900*time.Millisecond {
		t.Fatalf("ready at %v, want 900ms", readyAt)
	}
	// Timer must have been cancelled: advancing past the timeout changes
	// nothing.
	before := g.LKM.FallbackApps
	clock.Advance(20 * time.Second)
	if g.LKM.FallbackApps != before {
		t.Fatal("timeout fired after all apps were ready")
	}
}

func TestMultipleAppsCoordination(t *testing.T) {
	g, clock := testGuest(t)
	h1 := newAppHarness(g, clock, "app1")
	h2 := newAppHarness(g, clock, "app2")
	a1 := pagesAt(0x100000, 16)
	a2 := pagesAt(0x200000, 24)
	if err := h1.proc.Alloc(a1); err != nil {
		t.Fatal(err)
	}
	if err := h2.proc.Alloc(a2); err != nil {
		t.Fatal(err)
	}
	h1.queryAreas = []mem.VARange{a1}
	h2.queryAreas = []mem.VARange{a2}
	h1.readyAreas = []mem.VARange{a1}
	h2.readyAreas = []mem.VARange{a2}
	h1.readyDelay = 100 * time.Millisecond
	h2.readyDelay = 300 * time.Millisecond

	var readyAt time.Duration = -1
	daemon := g.LKM.DaemonEndpoint()
	daemon.Bind(func(msg any) {
		if _, ok := msg.(EvSuspensionReady); ok {
			readyAt = clock.Now()
		}
	})
	daemon.Notify(EvMigrationBegin{})
	tb := g.LKM.TransferBitmap()
	if skipped := tb.Len() - tb.Count(); skipped != 40 {
		t.Fatalf("skipped = %d, want 40 across two apps", skipped)
	}
	daemon.Notify(EvEnteringLastIter{})
	clock.Advance(time.Second)
	// The LKM waits for the slower app: ready only after both responded.
	if readyAt != 300*time.Millisecond {
		t.Fatalf("ready at %v, want 300ms (slowest app)", readyAt)
	}
}

func TestAppWithNoAreasIsNotWaitedOn(t *testing.T) {
	g, clock := testGuest(t)
	h1 := newAppHarness(g, clock, "hasareas")
	h2 := newAppHarness(g, clock, "noareas")
	a1 := pagesAt(0x100000, 8)
	if err := h1.proc.Alloc(a1); err != nil {
		t.Fatal(err)
	}
	h1.queryAreas = []mem.VARange{a1}
	h1.readyAreas = []mem.VARange{a1}
	h2.readyDelay = -1 // never responds, but has no areas either

	var ready int
	daemon := g.LKM.DaemonEndpoint()
	daemon.Bind(func(msg any) {
		if _, ok := msg.(EvSuspensionReady); ok {
			ready++
		}
	})
	daemon.Notify(EvMigrationBegin{})
	daemon.Notify(EvEnteringLastIter{})
	if ready != 1 {
		t.Fatalf("ready = %d: LKM waited on an app with no skip-over areas", ready)
	}
}

func TestInvalidTransitionsCounted(t *testing.T) {
	g, _ := testGuest(t)
	daemon := g.LKM.DaemonEndpoint()
	daemon.Bind(func(any) {})
	daemon.Notify(EvEnteringLastIter{}) // wrong state
	daemon.Notify(EvVMResumed{})        // wrong state
	daemon.Notify("garbage")
	if g.LKM.InvalidMsgs != 3 {
		t.Fatalf("InvalidMsgs = %d, want 3", g.LKM.InvalidMsgs)
	}
	// Messages from unknown apps are dropped.
	g.Bus.BindKernel(g.LKM.onAppMessage)
	g.LKM.onAppMessage(999, MsgReportAreas{App: 999})
	if g.LKM.InvalidMsgs != 4 {
		t.Fatalf("InvalidMsgs = %d, want 4", g.LKM.InvalidMsgs)
	}
}

func TestReportAreasOutsideMigrationDropped(t *testing.T) {
	g, clock := testGuest(t)
	h := newAppHarness(g, clock, "app")
	area := pagesAt(0x100000, 8)
	if err := h.proc.Alloc(area); err != nil {
		t.Fatal(err)
	}
	h.sock.Send(MsgReportAreas{App: h.sock.App(), Areas: []mem.VARange{area}})
	tb := g.LKM.TransferBitmap()
	if tb.Count() != tb.Len() {
		t.Fatal("report outside migration cleared transfer bits")
	}
	if g.LKM.InvalidMsgs != 1 {
		t.Fatalf("InvalidMsgs = %d", g.LKM.InvalidMsgs)
	}
}

func TestSecondMigrationAfterResume(t *testing.T) {
	g, clock := testGuest(t)
	h := newAppHarness(g, clock, "app")
	area := pagesAt(0x100000, 16)
	if err := h.proc.Alloc(area); err != nil {
		t.Fatal(err)
	}
	h.queryAreas = []mem.VARange{area}
	h.readyAreas = []mem.VARange{area}
	daemon := g.LKM.DaemonEndpoint()
	daemon.Bind(func(any) {})

	for round := 1; round <= 2; round++ {
		daemon.Notify(EvMigrationBegin{})
		tb := g.LKM.TransferBitmap()
		if skipped := tb.Len() - tb.Count(); skipped != 16 {
			t.Fatalf("round %d: skipped = %d, want 16", round, skipped)
		}
		daemon.Notify(EvEnteringLastIter{})
		if g.LKM.State() != StateSuspensionReady {
			t.Fatalf("round %d: state = %v", round, g.LKM.State())
		}
		daemon.Notify(EvVMResumed{})
		if g.LKM.State() != StateInitialized {
			t.Fatalf("round %d: state after resume = %v", round, g.LKM.State())
		}
	}
	if h.queries != 2 || h.resumes != 2 {
		t.Fatalf("queries = %d resumes = %d, want 2 each", h.queries, h.resumes)
	}
}

func TestCacheAccounting(t *testing.T) {
	g, clock := testGuest(t)
	h := newAppHarness(g, clock, "app")
	area := pagesAt(0x100000, 100)
	if err := h.proc.Alloc(area); err != nil {
		t.Fatal(err)
	}
	h.queryAreas = []mem.VARange{area}
	daemon := g.LKM.DaemonEndpoint()
	daemon.Bind(func(any) {})
	daemon.Notify(EvMigrationBegin{})
	if g.LKM.CacheHighWater != 100 {
		t.Fatalf("CacheHighWater = %d, want 100", g.LKM.CacheHighWater)
	}
	if g.LKM.CacheBytes() != 400 {
		t.Fatalf("CacheBytes = %d, want 400", g.LKM.CacheBytes())
	}
}

func TestUnalignedAreaAlignedInward(t *testing.T) {
	g, clock := testGuest(t)
	h := newAppHarness(g, clock, "app")
	// Area covering pages 0x100000..0x110000 but with ragged edges.
	if err := h.proc.Alloc(pagesAt(0x100000, 16)); err != nil {
		t.Fatal(err)
	}
	h.queryAreas = []mem.VARange{{Start: 0x100b00, End: 0x10fafe}}
	daemon := g.LKM.DaemonEndpoint()
	daemon.Bind(func(any) {})
	daemon.Notify(EvMigrationBegin{})
	tb := g.LKM.TransferBitmap()
	// Aligned inward: [0x101000, 0x10f000) = 14 pages.
	if skipped := tb.Len() - tb.Count(); skipped != 14 {
		t.Fatalf("skipped = %d, want 14", skipped)
	}
}

func TestCompressionHints(t *testing.T) {
	g, _ := testGuest(t)
	h := newAppHarness(g, g.Dom.Clock(), "app")
	area := pagesAt(0x100000, 16)
	if err := h.proc.Alloc(area); err != nil {
		t.Fatal(err)
	}
	daemon := g.LKM.DaemonEndpoint()
	daemon.Bind(func(any) {})

	// Hints outside migration are rejected.
	h.sock.Send(MsgCompressionHints{App: h.sock.App(), Areas: []mem.VARange{area}, Level: HintStrong})
	if g.LKM.InvalidMsgs != 1 {
		t.Fatalf("InvalidMsgs = %d", g.LKM.InvalidMsgs)
	}

	daemon.Notify(EvMigrationBegin{})
	h.sock.Send(MsgCompressionHints{App: h.sock.App(), Areas: []mem.VARange{area}, Level: HintStrong})
	if g.LKM.HintedPages != 16 {
		t.Fatalf("HintedPages = %d, want 16", g.LKM.HintedPages)
	}
	var strongs int
	h.proc.AS.Walk(area, func(va mem.VA, p mem.PFN) {
		if g.LKM.HintFor(p) == HintStrong {
			strongs++
		}
	})
	if strongs != 16 {
		t.Fatalf("strong-hinted pages = %d", strongs)
	}
	// Unknown levels are rejected.
	h.sock.Send(MsgCompressionHints{App: h.sock.App(), Areas: []mem.VARange{area}, Level: 99})
	if g.LKM.InvalidMsgs != 2 {
		t.Fatalf("InvalidMsgs = %d", g.LKM.InvalidMsgs)
	}
	// Re-hinting overrides.
	h.sock.Send(MsgCompressionHints{App: h.sock.App(), Areas: []mem.VARange{area}, Level: HintNone})
	h.proc.AS.Walk(area, func(va mem.VA, p mem.PFN) {
		if g.LKM.HintFor(p) != HintNone {
			t.Fatal("re-hint did not override")
		}
	})
	// Migration end clears hints.
	daemon.Notify(EvMigrationAborted{})
	if g.LKM.HintedPages != 0 {
		t.Fatal("hints survived migration end")
	}
	h.proc.AS.Walk(area, func(va mem.VA, p mem.PFN) {
		if g.LKM.HintFor(p) != HintDefault {
			t.Fatal("hint map not reset")
		}
	})
}

// TestRemapInsideSkipAreaAssumption documents the paper's §3.3.4 case-(2)
// assumption: pages in skip-over areas are not remapped (page sharing,
// compaction, in-guest migration) during migration. The LKM's PFN cache goes
// stale on a remap — the OLD frame keeps its cleared bit while the NEW frame
// is never cleared. The test demonstrates both halves: migration stays
// CORRECT for the new frame (it is transferred, conservatively), while the
// old frame's cleared bit persists until the area shrinks or migration ends
// — exactly the exposure the paper accepts by assumption.
func TestRemapInsideSkipAreaAssumption(t *testing.T) {
	g, _ := testGuest(t)
	h := newAppHarness(g, g.Dom.Clock(), "app")
	area := pagesAt(0x100000, 8)
	if err := h.proc.Alloc(area); err != nil {
		t.Fatal(err)
	}
	h.queryAreas = []mem.VARange{area}
	daemon := g.LKM.DaemonEndpoint()
	daemon.Bind(func(any) {})
	daemon.Notify(EvMigrationBegin{})

	va := area.Start
	oldPFN, _ := h.proc.AS.Translate(va)
	newPFN, err := g.Frames.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	h.proc.AS.Remap(va, newPFN) // §3.3.4 case (2), assumed absent

	tb := g.LKM.TransferBitmap()
	if tb.Test(oldPFN) {
		t.Fatal("old frame's bit set without notification (unexpectedly clever LKM?)")
	}
	// The new frame is conservatively transferable: correctness holds.
	if !tb.Test(newPFN) {
		t.Fatal("new frame skip-marked without ever being reported")
	}
	// After migration ends, the stale clearance is wiped with everything
	// else.
	daemon.Notify(EvMigrationAborted{})
	if !tb.Test(oldPFN) {
		t.Fatal("stale clearance survived migration end")
	}
}

func TestDirtyKernelPageBounds(t *testing.T) {
	g, _ := testGuest(t)
	g.DirtyKernelPage(0) // fine
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-reservation kernel dirty did not panic")
		}
	}()
	g.DirtyKernelPage(KernelReservedPages)
}

func TestProcessWriteSegfaultPanics(t *testing.T) {
	g, _ := testGuest(t)
	p := g.NewProcess("app")
	defer func() {
		if recover() == nil {
			t.Fatal("write to unmapped VA did not panic")
		}
	}()
	p.Write(0xdead000)
}

func TestProcessWriteSetsDirty(t *testing.T) {
	g, _ := testGuest(t)
	p := g.NewProcess("app")
	r := pagesAt(0x100000, 4)
	if err := p.Alloc(r); err != nil {
		t.Fatal(err)
	}
	g.Dom.EnableLogDirty()
	if n := p.WriteRange(r); n != 4 {
		t.Fatalf("WriteRange wrote %d pages", n)
	}
	if g.Dom.DirtyCount() != 4 {
		t.Fatalf("DirtyCount = %d, want 4", g.Dom.DirtyCount())
	}
}

func TestWriteRangeHolePanicsAfterEarlierPages(t *testing.T) {
	g, _ := testGuest(t)
	p := g.NewProcess("app")
	r := pagesAt(0x100000, 8)
	if err := p.Alloc(r); err != nil {
		t.Fatal(err)
	}
	hole := r.Start + 5*mem.PageSize
	p.Free(mem.VARange{Start: hole, End: hole + mem.PageSize})
	writes := g.Dom.Writes()
	defer func() {
		msg := recover()
		if want := fmt.Sprintf("guestos: process %q segfault at %#x", "app", uint64(hole)); msg != want {
			t.Fatalf("panic = %v, want %q", msg, want)
		}
		if got := g.Dom.Writes() - writes; got != 5 {
			t.Fatalf("%d pages written before the hole, want 5", got)
		}
	}()
	p.WriteRange(r)
}

func TestWriteRangeAndUntracedEmitsAllocateNothing(t *testing.T) {
	g, _ := testGuest(t)
	p := g.NewProcess("app")
	r := pagesAt(0x100000, 1200) // starts mid-leaf and spans three leaf tables
	if err := p.Alloc(r); err != nil {
		t.Fatal(err)
	}
	g.Dom.EnableLogDirty()
	g.Dom.BeginDirtyEpoch()
	bus := NewBus()
	for name, fn := range map[string]func(){
		"Process.WriteRange":      func() { p.WriteRange(r) },
		"LKM.setState":            func() { g.LKM.setState(StateInitialized) },
		"Bus.Multicast (no subs)": func() { bus.Multicast(MsgQuerySkipAreas{}) },
	} {
		if allocs := testing.AllocsPerRun(20, fn); allocs != 0 {
			t.Errorf("%s: %v allocs per call, want 0", name, allocs)
		}
	}
}

func TestStatusRendering(t *testing.T) {
	g, _ := testGuest(t)
	s := g.LKM.Status()
	if !strings.Contains(s, "INITIALIZED") || !strings.Contains(s, "apps: 0") {
		t.Fatalf("Status = %q", s)
	}
}
