package migration

import (
	"testing"
	"time"

	"javmm/internal/guestos"
	"javmm/internal/hypervisor"
	"javmm/internal/mem"
	"javmm/internal/netsim"
	"javmm/internal/obs"
	"javmm/internal/simclock"
)

// scribbler is a synthetic guest executor: it rewrites a fixed working set of
// pages at a configurable rate, via real page-table mappings, and can play
// the role of a cooperative application with a skip-over area.
type scribbler struct {
	clock *simclock.Clock
	proc  *guestos.Process
	// hot is the VA range rewritten continuously.
	hot mem.VARange
	// pagesPerSec is the dirtying rate.
	pagesPerSec float64
	throttle    float64
	cursor      mem.VA
	carry       float64
	// runs writes each step's pages as page-table runs (WriteRange), the
	// way the JVM's heap stores reach the domain, instead of page by page.
	runs bool

	// When acting as an app: skip-over area and prepare behaviour.
	sock       *guestos.Socket
	skip       []mem.VARange
	readySkip  []mem.VARange
	liveHead   mem.VARange // data excluded from readySkip; rewritten at ready
	readyDelay time.Duration
}

func newScribbler(g *guestos.Guest, clock *simclock.Clock, hot mem.VARange, rate float64) *scribbler {
	s := &scribbler{
		clock:       clock,
		proc:        g.NewProcess("scribbler"),
		hot:         hot,
		pagesPerSec: rate,
		throttle:    1.0,
		cursor:      hot.Start,
	}
	if err := s.proc.Alloc(hot); err != nil {
		panic(err)
	}
	return s
}

func (s *scribbler) register(g *guestos.Guest) {
	s.sock = g.LKM.RegisterApp(s.proc, func(msg any) {
		switch msg.(type) {
		case guestos.MsgQuerySkipAreas:
			if len(s.skip) > 0 {
				s.sock.Send(guestos.MsgReportAreas{App: s.sock.App(), Areas: s.skip})
			}
		case guestos.MsgPrepareSuspension:
			if len(s.skip) == 0 {
				return
			}
			areas := s.readySkip
			if areas == nil {
				areas = s.skip
			}
			respond := func() {
				// The framework's correctness contract (§3.3.4): data
				// leaving the skip-over area at the final update must have
				// been produced after the handshake began — like the
				// enforced GC copying survivors into the From space. The
				// app therefore writes its live head before reporting
				// ready.
				if !s.liveHead.Empty() {
					s.proc.WriteRange(s.liveHead)
				}
				s.sock.Send(guestos.MsgSuspensionReady{App: s.sock.App(), Areas: areas})
			}
			if s.readyDelay > 0 {
				s.clock.AfterFunc(s.readyDelay, func(time.Duration) { respond() })
			} else {
				respond()
			}
		}
	})
}

// Run implements GuestExecutor: dirty pages round-robin across the hot set.
func (s *scribbler) Run(d time.Duration) {
	target := s.clock.Now() + d
	// Advance in 1 ms steps so timers interleave with writes.
	for s.clock.Now() < target {
		step := time.Millisecond
		if rem := target - s.clock.Now(); rem < step {
			step = rem
		}
		writes := s.pagesPerSec*s.throttle*step.Seconds() + s.carry
		n := int(writes)
		s.carry = writes - float64(n)
		for n > 0 {
			k := 1
			if s.runs {
				k = int(min(uint64(n), uint64(s.hot.End-s.cursor)/mem.PageSize))
				s.proc.WriteRange(mem.VARange{Start: s.cursor, End: s.cursor + mem.VA(k)*mem.PageSize})
			} else {
				s.proc.Write(s.cursor)
			}
			n -= k
			s.cursor += mem.VA(k) * mem.PageSize
			if s.cursor >= s.hot.End {
				s.cursor = s.hot.Start
			}
		}
		s.clock.Advance(step)
	}
}

func (s *scribbler) SetThrottle(f float64) { s.throttle = f }

// testRig bundles a small VM ready to migrate.
type testRig struct {
	clock *simclock.Clock
	dom   *hypervisor.Domain
	guest *guestos.Guest
	link  *netsim.Link
	dest  *Destination
}

// newRig builds a VM with `pages` pages and a link of `bw` bytes/sec.
func newRig(pages uint64, bw uint64) *testRig {
	clock := simclock.New()
	dom := hypervisor.NewDomain("vm", clock, mem.NewVersionStore(pages))
	guest := guestos.NewGuest(dom, guestos.LKMConfig{Clock: clock})
	return &testRig{
		clock: clock,
		dom:   dom,
		guest: guest,
		link:  netsim.NewLink(clock, bw, 0),
		dest:  NewDestination(pages),
	}
}

func (r *testRig) source(cfg Config, exec GuestExecutor) *Source {
	return &Source{
		Dom:   r.dom,
		LKM:   r.guest.LKM,
		Link:  r.link,
		Clock: r.clock,
		Exec:  exec,
		Dest:  r.dest,
		Cfg:   cfg,
	}
}

func (r *testRig) verify(t *testing.T, rep *Report) {
	t.Helper()
	err := VerifyMigration(r.dom.Store(), r.dest.Store, rep.FinalTransfer,
		func(p mem.PFN) bool { return r.guest.Frames.Allocated(p) })
	if err != nil {
		t.Fatal(err)
	}
}

func TestMigrateIdleGuestVanilla(t *testing.T) {
	r := newRig(8192, 100*1000*1000)
	rep, err := r.source(Config{Mode: ModeVanilla}, nil).Migrate()
	if err != nil {
		t.Fatal(err)
	}
	// Idle guest: iteration 1 sends everything, iteration 2 sends nothing
	// (which is what tells the engine it converged, as in xc_domain_save),
	// then stop-and-copy is empty.
	if len(rep.Iterations) != 3 {
		t.Fatalf("iterations = %d, want 3", len(rep.Iterations))
	}
	if rep.Iterations[0].PagesSent != 8192 {
		t.Fatalf("iter 1 sent %d pages, want 8192", rep.Iterations[0].PagesSent)
	}
	if rep.Iterations[1].PagesSent != 0 {
		t.Fatalf("iter 2 sent %d pages, want 0", rep.Iterations[1].PagesSent)
	}
	if !rep.Iterations[2].Last {
		t.Fatal("final iteration not marked Last")
	}
	if rep.Iterations[2].PagesSent != 0 {
		t.Fatalf("stop-and-copy sent %d pages, want 0", rep.Iterations[2].PagesSent)
	}
	r.verify(t, rep)
	// Downtime is just resumption.
	if rep.VMDowntime != rep.Resumption {
		t.Fatalf("VMDowntime = %v, Resumption = %v", rep.VMDowntime, rep.Resumption)
	}
	// Total traffic ≈ memory size.
	if rep.TotalBytes() != 8192*mem.PageSize {
		t.Fatalf("traffic = %d, want one memory size", rep.TotalBytes())
	}
}

func TestMigrateDirtyingGuestVanillaConverges(t *testing.T) {
	r := newRig(8192, 200*1000*1000)
	hot := mem.VARange{Start: 0x1000000, End: 0x1000000 + 256*mem.PageSize}
	// Slow dirtying: 1000 pages/s against ~48k pages/s of link: converges.
	sc := newScribbler(r.guest, r.clock, hot, 1000)
	rep, err := r.source(Config{Mode: ModeVanilla}, sc).Migrate()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Iterations) >= 30 {
		t.Fatalf("slow dirtier should converge before cap, took %d iterations", len(rep.Iterations))
	}
	r.verify(t, rep)
}

func TestMigrateFastDirtierHitsIterationCap(t *testing.T) {
	r := newRig(4096, 10*1000*1000) // slow link: 2441 pages/s
	hot := mem.VARange{Start: 0x1000000, End: 0x1000000 + 1024*mem.PageSize}
	sc := newScribbler(r.guest, r.clock, hot, 20000) // dirties far faster
	// Disable the traffic cap so the iteration cap is what stops pre-copy.
	rep, err := r.source(Config{Mode: ModeVanilla, MaxTrafficFactor: -1}, sc).Migrate()
	if err != nil {
		t.Fatal(err)
	}
	// 30 live iterations + stop-and-copy.
	if len(rep.Iterations) != 31 {
		t.Fatalf("iterations = %d, want 31 (30 live + last)", len(rep.Iterations))
	}
	if rep.LastIterBytes == 0 {
		t.Fatal("fast dirtier should leave dirty pages for stop-and-copy")
	}
	r.verify(t, rep)
}

func TestMigrateTrafficCap(t *testing.T) {
	r := newRig(4096, 10*1000*1000)
	hot := mem.VARange{Start: 0x1000000, End: 0x1000000 + 1024*mem.PageSize}
	sc := newScribbler(r.guest, r.clock, hot, 20000)
	cfg := Config{Mode: ModeVanilla, MaxTrafficFactor: 1.5}
	rep, err := r.source(cfg, sc).Migrate()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Iterations) >= 31 {
		t.Fatal("traffic cap did not trigger before iteration cap")
	}
	// Cap applies to pre-copy; stop-and-copy may exceed it slightly.
	limit := 2.2 * float64(4096*mem.PageSize)
	if got := rep.TotalBytes(); float64(got) > limit {
		t.Fatalf("traffic = %d, way beyond cap", got)
	}
	r.verify(t, rep)
}

func TestSkipAlreadyDirtiedWithinRound(t *testing.T) {
	r := newRig(2048, 5*1000*1000)
	hot := mem.VARange{Start: 0x1000000, End: 0x1000000 + 512*mem.PageSize}
	sc := newScribbler(r.guest, r.clock, hot, 50000) // rewrites hot set fast
	// Small chunks so guest writes interleave within a round.
	rep, err := r.source(Config{Mode: ModeVanilla, MaxIterations: 5, ChunkPages: 64}, sc).Migrate()
	if err != nil {
		t.Fatal(err)
	}
	var skipped uint64
	for _, it := range rep.Iterations {
		skipped += it.PagesSkippedDirty
	}
	if skipped == 0 {
		t.Fatal("no pages skipped as already-dirtied despite rapid rewriting")
	}
	r.verify(t, rep)
}

func TestMigrateAppAssistedSkipsArea(t *testing.T) {
	r := newRig(8192, 50*1000*1000)
	hot := mem.VARange{Start: 0x1000000, End: 0x1000000 + 2048*mem.PageSize}
	sc := newScribbler(r.guest, r.clock, hot, 30000)
	sc.skip = []mem.VARange{hot} // the entire hot set is skippable
	sc.readyDelay = 50 * time.Millisecond
	sc.register(r.guest)

	rep, err := r.source(Config{Mode: ModeAppAssisted}, sc).Migrate()
	if err != nil {
		t.Fatal(err)
	}
	var skippedBitmap uint64
	for _, it := range rep.Iterations {
		skippedBitmap += it.PagesSkippedBitmap
	}
	if skippedBitmap == 0 {
		t.Fatal("no pages skipped via transfer bitmap")
	}
	// The hot pages must not have been transferred at all after iteration 1
	// — and not even in iteration 1, since the first bitmap update precedes
	// it.
	if rep.Iterations[0].PagesSent > 8192-2048 {
		t.Fatalf("iter 1 sent %d pages; young-gen-like area not skipped", rep.Iterations[0].PagesSent)
	}
	r.verify(t, rep)
	if rep.PrepareWait < 50*time.Millisecond {
		t.Fatalf("PrepareWait = %v, want >= 50ms", rep.PrepareWait)
	}
	if rep.FinalUpdate <= 0 {
		t.Fatal("FinalUpdate not recorded")
	}
}

func TestAppAssistedBeatsVanillaOnHotSkippableSet(t *testing.T) {
	run := func(mode Mode) *Report {
		r := newRig(8192, 20*1000*1000)
		hot := mem.VARange{Start: 0x1000000, End: 0x1000000 + 4096*mem.PageSize}
		sc := newScribbler(r.guest, r.clock, hot, 40000)
		if mode == ModeAppAssisted {
			sc.skip = []mem.VARange{hot}
			sc.register(r.guest)
		}
		rep, err := r.source(Config{Mode: mode}, sc).Migrate()
		if err != nil {
			panic(err)
		}
		r.verify(&testing.T{}, rep)
		return rep
	}
	xen := run(ModeVanilla)
	jav := run(ModeAppAssisted)
	if jav.TotalTime >= xen.TotalTime {
		t.Fatalf("app-assisted (%v) not faster than vanilla (%v)", jav.TotalTime, xen.TotalTime)
	}
	if jav.TotalBytes() >= xen.TotalBytes() {
		t.Fatalf("app-assisted traffic (%d) not below vanilla (%d)", jav.TotalBytes(), xen.TotalBytes())
	}
	if jav.VMDowntime >= xen.VMDowntime {
		t.Fatalf("app-assisted downtime (%v) not below vanilla (%v)", jav.VMDowntime, xen.VMDowntime)
	}
}

func TestAppAssistedRequiresLKM(t *testing.T) {
	r := newRig(64, 1000)
	src := r.source(Config{Mode: ModeAppAssisted}, nil)
	src.LKM = nil
	if _, err := src.Migrate(); err != ErrNoLKM {
		t.Fatalf("err = %v, want ErrNoLKM", err)
	}
}

func TestMigrateValidation(t *testing.T) {
	r := newRig(64, 1000)
	cases := map[string]func(*Source){
		"no dest":  func(s *Source) { s.Dest = nil },
		"no link":  func(s *Source) { s.Link = nil },
		"no clock": func(s *Source) { s.Clock = nil },
		"no dom":   func(s *Source) { s.Dom = nil },
		"mismatch": func(s *Source) { s.Dest = NewDestination(32) },
	}
	for name, mutate := range cases {
		src := r.source(Config{}, nil)
		mutate(src)
		if _, err := src.Migrate(); err == nil {
			t.Errorf("%s: Migrate succeeded", name)
		}
	}
}

func TestThrottleAppliedAndRestored(t *testing.T) {
	// Dirtying at 2000 pages/s against a ~1220 pages/s link never
	// converges; throttled to 25 % (500 pages/s) it does — the whole point
	// of Clark-style write throttling.
	hot := mem.VARange{Start: 0x1000000, End: 0x1000000 + 1024*mem.PageSize}

	r := newRig(2048, 5*1000*1000)
	sc := newScribbler(r.guest, r.clock, hot, 2000)
	cfg := Config{Mode: ModeVanilla, ThrottleFactor: 0.25, MaxTrafficFactor: -1}
	rep, err := r.source(cfg, sc).Migrate()
	if err != nil {
		t.Fatal(err)
	}
	if sc.throttle != 1.0 {
		t.Fatalf("throttle not restored: %v", sc.throttle)
	}
	r.verify(t, rep)
	if rep.LiveIterations() >= 30 {
		t.Fatalf("throttled migration did not converge (%d live iterations)", rep.LiveIterations())
	}

	r2 := newRig(2048, 5*1000*1000)
	sc2 := newScribbler(r2.guest, r2.clock, hot, 2000)
	rep2, err := r2.source(Config{Mode: ModeVanilla, MaxTrafficFactor: -1}, sc2).Migrate()
	if err != nil {
		t.Fatal(err)
	}
	if rep2.LiveIterations() < 30 {
		t.Fatalf("unthrottled migration converged in %d iterations; expected iteration cap", rep2.LiveIterations())
	}
}

func TestSkipFreePages(t *testing.T) {
	r := newRig(8192, 50*1000*1000)
	hot := mem.VARange{Start: 0x1000000, End: 0x1000000 + 512*mem.PageSize}
	sc := newScribbler(r.guest, r.clock, hot, 1000)

	src := r.source(Config{Mode: ModeVanilla, SkipFreePages: true}, sc)
	src.GuestFree = func(p mem.PFN) bool { return !r.guest.Frames.Allocated(p) }
	rep, err := src.Migrate()
	if err != nil {
		t.Fatal(err)
	}
	r.verify(t, rep)
	var freeSkipped uint64
	for _, it := range rep.Iterations {
		freeSkipped += it.PagesSkippedFree
	}
	if freeSkipped == 0 {
		t.Fatal("no free pages skipped on a mostly-empty VM")
	}
	// Only the kernel reservation (4096 pages) and the scribbler's 512
	// pages are allocated: iteration 1 must not ship the ~3.5k free pages.
	if rep.Iterations[0].PagesSent > 4700 {
		t.Fatalf("iteration 1 sent %d pages despite free skipping", rep.Iterations[0].PagesSent)
	}

	// Without free skipping, the same VM ships everything.
	r2 := newRig(8192, 50*1000*1000)
	sc2 := newScribbler(r2.guest, r2.clock, hot, 1000)
	rep2, err := r2.source(Config{Mode: ModeVanilla}, sc2).Migrate()
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalBytes() >= rep2.TotalBytes() {
		t.Fatalf("free skipping saved nothing: %d vs %d", rep.TotalBytes(), rep2.TotalBytes())
	}
}

func TestSkipFreePagesCorrectAcrossReallocation(t *testing.T) {
	// Frames freed mid-migration and reallocated must still arrive
	// correctly (the zero-on-alloc write re-dirties them).
	r := newRig(4096, 10*1000*1000)
	hot := mem.VARange{Start: 0x1000000, End: 0x1000000 + 256*mem.PageSize}
	sc := newScribbler(r.guest, r.clock, hot, 5000)
	src := r.source(Config{Mode: ModeVanilla, SkipFreePages: true, MaxIterations: 6}, sc)
	src.GuestFree = func(p mem.PFN) bool { return !r.guest.Frames.Allocated(p) }

	// Churn mappings during migration via a clock timer: free and
	// reallocate a range between iterations.
	churn := mem.VARange{Start: 0x2000000, End: 0x2000000 + 128*mem.PageSize}
	if err := sc.proc.Alloc(churn); err != nil {
		t.Fatal(err)
	}
	r.clock.AfterFunc(2*time.Second, func(time.Duration) {
		sc.proc.Free(churn)
	})
	r.clock.AfterFunc(4*time.Second, func(time.Duration) {
		if err := sc.proc.Alloc(churn); err != nil {
			t.Error(err)
		}
	})
	rep, err := src.Migrate()
	if err != nil {
		t.Fatal(err)
	}
	r.verify(t, rep)
}

func TestCompressionReducesWireBytes(t *testing.T) {
	run := func(compress bool) *Report {
		r := newRig(2048, 10*1000*1000)
		cfg := Config{Mode: ModeVanilla, Compress: compress}
		rep, err := r.source(cfg, nil).Migrate()
		if err != nil {
			panic(err)
		}
		return rep
	}
	plain := run(false)
	comp := run(true)
	if comp.TotalBytes() >= plain.TotalBytes() {
		t.Fatalf("compressed traffic %d >= plain %d", comp.TotalBytes(), plain.TotalBytes())
	}
	if comp.CPUTime <= plain.CPUTime {
		t.Fatalf("compression CPU %v <= plain %v", comp.CPUTime, plain.CPUTime)
	}
}

func TestDeltaCompressionResends(t *testing.T) {
	// A fast dirtier makes pre-copy resend the hot set repeatedly; deltas
	// shrink every resend.
	hot := mem.VARange{Start: 0x1000000, End: 0x1000000 + 256*mem.PageSize}

	run := func(delta bool) *Report {
		r := newRig(2048, 5*1000*1000)
		sc := newScribbler(r.guest, r.clock, hot, 20000)
		cfg := Config{Mode: ModeVanilla, MaxIterations: 6, MaxTrafficFactor: -1, DeltaCompression: delta}
		rep, err := r.source(cfg, sc).Migrate()
		if err != nil {
			t.Fatal(err)
		}
		r.verify(t, rep)
		return rep
	}
	plain := run(false)
	d := run(true)
	if d.DeltaResends == 0 {
		t.Fatal("no delta resends recorded")
	}
	if plain.DeltaResends != 0 || plain.DeltaCacheBytes != 0 {
		t.Fatal("delta stats recorded without delta mode")
	}
	if d.TotalBytes() >= plain.TotalBytes() {
		t.Fatalf("delta traffic %d >= plain %d", d.TotalBytes(), plain.TotalBytes())
	}
	if d.DeltaCacheBytes != 2048*mem.PageSize {
		t.Fatalf("DeltaCacheBytes = %d", d.DeltaCacheBytes)
	}
}

func TestHintedCompressionWireSizes(t *testing.T) {
	// An idle 2048-page VM with three hinted regions: the wire volume must
	// reflect per-page ratios.
	r := newRig(2048, 100*1000*1000)
	proc := r.guest.NewProcess("app")
	strong := mem.VARange{Start: 0x100000, End: 0x100000 + 256*mem.PageSize}
	none := mem.VARange{Start: 0x400000, End: 0x400000 + 256*mem.PageSize}
	for _, a := range []mem.VARange{strong, none} {
		if err := proc.Alloc(a); err != nil {
			t.Fatal(err)
		}
	}
	sock := r.guest.LKM.RegisterApp(proc, func(any) {})
	daemonSide := r.guest.LKM.DaemonEndpoint()
	daemonSide.Bind(func(any) {})

	hints := map[mem.PFN]uint8{}
	collect := func(a mem.VARange, level uint8) {
		proc.AS.Walk(a, func(va mem.VA, p mem.PFN) { hints[p] = level })
	}
	collect(strong, guestos.HintStrong)
	collect(none, guestos.HintNone)

	cfg := Config{
		Mode:              ModeVanilla,
		Compress:          true,
		HintedCompression: true,
	}
	src := r.source(cfg, nil)
	src.HintFor = func(p mem.PFN) uint8 { return hints[p] }
	rep, err := src.Migrate()
	if err != nil {
		t.Fatal(err)
	}
	r.verify(t, rep)
	// Expected iteration-1 wire: 256 pages at 0.35, 256 at 1.0, the
	// remaining 1536 at the uniform 0.45.
	pageF := float64(mem.PageSize)
	want := uint64(256*pageF*0.35) + uint64(256*pageF) + uint64(1536*pageF*0.45)
	got := rep.Iterations[0].BytesOnWire
	diff := float64(got) - float64(want)
	if diff < 0 {
		diff = -diff
	}
	if diff/float64(want) > 0.01 {
		t.Fatalf("iteration 1 wire = %d, want ≈%d", got, want)
	}
	_ = sock
}

func TestIterationStatsRates(t *testing.T) {
	st := IterationStats{Duration: 2 * time.Second, BytesOnWire: 4000, PagesDirtiedDuring: 100}
	if got := st.TransferRate(); got != 2000 {
		t.Fatalf("TransferRate = %v", got)
	}
	if got := st.DirtyRate(); got != 50 {
		t.Fatalf("DirtyRate = %v", got)
	}
	zero := IterationStats{}
	if zero.TransferRate() != 0 || zero.DirtyRate() != 0 {
		t.Fatal("zero-duration rates not zero")
	}
}

func TestVerifyMigrationDetectsDivergence(t *testing.T) {
	src := mem.NewVersionStore(8)
	dst := mem.NewVersionStore(8)
	all := mem.NewBitmap(8)
	all.SetAll()
	src.Write(3)
	if err := VerifyMigration(src, dst, all, nil); err == nil {
		t.Fatal("divergence not detected")
	}
	// Cleared transfer bit exempts the page.
	tb := all.Clone()
	tb.Clear(3)
	if err := VerifyMigration(src, dst, tb, nil); err != nil {
		t.Fatal(err)
	}
	// required predicate exempts the page.
	if err := VerifyMigration(src, dst, all, func(p mem.PFN) bool { return p != 3 }); err != nil {
		t.Fatal(err)
	}
	// Size mismatch.
	if err := VerifyMigration(src, mem.NewVersionStore(4), all, nil); err == nil {
		t.Fatal("size mismatch not detected")
	}
}

func TestIterationStatsStreamOnEventBus(t *testing.T) {
	r := newRig(2048, 50*1000*1000)
	tr := obs.New(r.clock)
	var seen []IterationStats
	tr.Subscribe(func(e obs.Event) {
		if st, ok := e.Data.(IterationStats); ok {
			seen = append(seen, st)
		}
	})
	rep, err := r.source(Config{Mode: ModeVanilla, Tracer: tr}, nil).Migrate()
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(rep.Iterations) {
		t.Fatalf("streamed %d iterations, report has %d", len(seen), len(rep.Iterations))
	}
	for i := range seen {
		if seen[i] != rep.Iterations[i] {
			t.Fatalf("streamed iteration %d = %+v, report has %+v", i, seen[i], rep.Iterations[i])
		}
	}
	if !seen[len(seen)-1].Last {
		t.Fatal("final streamed iteration not marked Last")
	}
}

func TestModeStrings(t *testing.T) {
	if ModeVanilla.String() != "xen" || ModeAppAssisted.String() != "javmm" {
		t.Fatal("mode names wrong")
	}
}

func TestModeStringRoundTrip(t *testing.T) {
	cases := []struct {
		mode Mode
		want string
		// parses reports whether ParseMode maps the string back; the
		// default-branch rendering of unknown modes must not parse.
		parses bool
	}{
		{ModeVanilla, "xen", true},
		{ModeAppAssisted, "javmm", true},
		{ModePostCopy, "post-copy", true},
		{ModeHybrid, "hybrid", true},
		{Mode(4), "Mode(4)", false},
		{Mode(-1), "Mode(-1)", false},
		{Mode(99), "Mode(99)", false},
	}
	for _, c := range cases {
		if got := c.mode.String(); got != c.want {
			t.Errorf("Mode(%d).String() = %q, want %q", int(c.mode), got, c.want)
		}
		back, err := ParseMode(c.mode.String())
		if c.parses {
			if err != nil {
				t.Errorf("ParseMode(%q) failed: %v", c.mode.String(), err)
			} else if back != c.mode {
				t.Errorf("ParseMode(%q) = %v, want %v", c.mode.String(), back, c.mode)
			}
		} else if err == nil {
			t.Errorf("ParseMode(%q) accepted an unknown mode", c.mode.String())
		}
	}
}

func TestParseModeRejectsJunk(t *testing.T) {
	for _, s := range []string{"", "kvm", "Xen", "JAVMM", " javmm"} {
		if _, err := ParseMode(s); err == nil {
			t.Errorf("ParseMode(%q) did not fail", s)
		}
	}
}

func TestDownTimeIncludesStopAndCopyTransfer(t *testing.T) {
	r := newRig(4096, 5*1000*1000)
	hot := mem.VARange{Start: 0x1000000, End: 0x1000000 + 1024*mem.PageSize}
	sc := newScribbler(r.guest, r.clock, hot, 30000)
	rep, err := r.source(Config{Mode: ModeVanilla, MaxIterations: 3}, sc).Migrate()
	if err != nil {
		t.Fatal(err)
	}
	last := rep.Iterations[len(rep.Iterations)-1]
	if rep.VMDowntime != last.Duration+rep.Resumption {
		t.Fatalf("VMDowntime = %v, want last iter %v + resumption %v",
			rep.VMDowntime, last.Duration, rep.Resumption)
	}
}

// A silent straggler: the app reports a skip-over area but never answers
// prepare-suspension, so the LKM's timeout restores its areas to full
// transfer (the fallback of paper §6). The engine must then actually send
// the restored pages — they were skipped in earlier rounds and are not
// dirty, so dirty tracking alone would strand stale content at the
// destination. Regression test for the fleet chaos finding where a resumed
// migration of a frozen guest left every restored page behind.
func TestAssistedStragglerFallbackTransfersRestoredPages(t *testing.T) {
	r := newRig(2048, 100*1000*1000)
	proc := r.guest.NewProcess("straggler")
	skip := mem.VARange{Start: 0x1000000, End: 0x1000000 + 256*mem.PageSize}
	if err := proc.Alloc(skip); err != nil {
		t.Fatal(err)
	}
	// The area's content exists before migration and never changes again.
	proc.WriteRange(skip)
	var sock *guestos.Socket
	sock = r.guest.LKM.RegisterApp(proc, func(msg any) {
		if _, ok := msg.(guestos.MsgQuerySkipAreas); ok {
			sock.Send(guestos.MsgReportAreas{App: sock.App(), Areas: []mem.VARange{skip}})
		}
		// MsgPrepareSuspension goes unanswered — the straggler.
	})
	rep, err := r.source(Config{Mode: ModeAppAssisted}, nil).Migrate()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fallbacks != 1 {
		t.Fatalf("Fallbacks = %d, want 1", rep.Fallbacks)
	}
	// The restored pages ride the stop-and-copy round.
	last := rep.Iterations[len(rep.Iterations)-1]
	if !last.Last || last.PagesSent < 256 {
		t.Fatalf("stop-and-copy sent %d pages (want ≥ the 256 restored)", last.PagesSent)
	}
	// FinalTransfer covers the restored area again, and the image matches
	// page for page.
	r.verify(t, rep)
}
