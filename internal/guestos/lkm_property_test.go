package guestos

import (
	"math/rand"
	"testing"
	"time"

	"javmm/internal/hypervisor"
	"javmm/internal/mem"
	"javmm/internal/simclock"
)

// TestLKMRandomizedInvariants drives the LKM with randomized daemon events
// and application messages — including out-of-order and duplicate ones — and
// checks after every step:
//
//  1. cleared transfer bits == live PFN-cache entries (the §3.3.4
//     bookkeeping never leaks or double-counts),
//  2. the state machine stays in a defined state,
//  3. after resume or abort, the bitmap is fully set and the state is
//     INITIALIZED.
func TestLKMRandomizedInvariants(t *testing.T) {
	for trial := 0; trial < 15; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) * 977))
		clock := simclock.New()
		dom := hypervisor.NewDomain("vm", clock, mem.NewVersionStore(16384))
		g := NewGuest(dom, LKMConfig{Clock: clock})

		// Two model applications with their own mapped regions.
		type modelApp struct {
			proc *Process
			sock *Socket
			// mapped pieces the app may report/shrink, keyed by range.
			pieces []mem.VARange
		}
		var apps []*modelApp
		for i := 0; i < 2; i++ {
			a := &modelApp{proc: g.NewProcess("app")}
			a.sock = g.LKM.RegisterApp(a.proc, func(any) {})
			base := mem.VA(0x1000000 * (i + 1))
			for j := 0; j < 4; j++ {
				r := mem.VARange{
					Start: base + mem.VA(j*0x100000),
					End:   base + mem.VA(j*0x100000+(16+rng.Intn(48))*mem.PageSize),
				}
				if err := a.proc.Alloc(r); err != nil {
					t.Fatal(err)
				}
				a.pieces = append(a.pieces, r)
			}
			apps = append(apps, a)
		}

		daemon := g.LKM.DaemonEndpoint()
		daemon.Bind(func(any) {})

		check := func(step int) {
			tb := g.LKM.TransferBitmap()
			cleared := int(tb.Len() - tb.Count())
			if cleared != g.LKM.CacheEntries() {
				t.Fatalf("trial %d step %d: cleared bits %d != cache entries %d (state %v)",
					trial, step, cleared, g.LKM.CacheEntries(), g.LKM.State())
			}
			switch g.LKM.State() {
			case StateInitialized, StateMigrationStarted, StateEnteringLastIter,
				StateSuspensionReady, StateResumed:
			default:
				t.Fatalf("trial %d step %d: undefined state %v", trial, step, g.LKM.State())
			}
		}

		for step := 0; step < 400; step++ {
			a := apps[rng.Intn(len(apps))]
			piece := a.pieces[rng.Intn(len(a.pieces))]
			switch rng.Intn(10) {
			case 0:
				daemon.Notify(EvMigrationBegin{})
			case 1:
				daemon.Notify(EvEnteringLastIter{})
			case 2:
				daemon.Notify(EvVMResumed{})
			case 3:
				daemon.Notify(EvMigrationAborted{})
			case 4, 5:
				a.sock.Send(MsgReportAreas{App: a.sock.App(), Areas: []mem.VARange{piece}})
			case 6:
				// Shrink a random prefix of a piece.
				cut := mem.VARange{
					Start: piece.Start,
					End:   piece.Start + mem.VA((1+rng.Intn(8))*mem.PageSize),
				}
				a.sock.Send(MsgAreaShrunk{App: a.sock.App(), Left: []mem.VARange{cut}})
			case 7:
				a.sock.Send(MsgSuspensionReady{App: a.sock.App(), Areas: []mem.VARange{piece}})
			case 8:
				clock.Advance(time.Duration(rng.Intn(2000)) * time.Millisecond)
			case 9:
				// Duplicate-report storm (the G1 re-reporting pattern).
				for k := 0; k < 3; k++ {
					a.sock.Send(MsgReportAreas{App: a.sock.App(), Areas: []mem.VARange{piece}})
				}
			}
			check(step)
		}

		// Drive to a clean end from any state.
		daemon.Notify(EvMigrationAborted{})
		tb := g.LKM.TransferBitmap()
		if tb.Count() != tb.Len() {
			t.Fatalf("trial %d: bitmap not fully set after abort", trial)
		}
		if g.LKM.State() != StateInitialized {
			t.Fatalf("trial %d: state %v after abort", trial, g.LKM.State())
		}
		if g.LKM.CacheEntries() != 0 {
			t.Fatalf("trial %d: cache not empty after abort", trial)
		}
	}
}

// TestLKMAbortFromEveryState checks the abort path out of each migration
// stage.
func TestLKMAbortFromEveryState(t *testing.T) {
	build := func() (*Guest, *hypervisor.Endpoint, *Socket, *Process) {
		clock := simclock.New()
		dom := hypervisor.NewDomain("vm", clock, mem.NewVersionStore(4096))
		g := NewGuest(dom, LKMConfig{Clock: clock})
		proc := g.NewProcess("app")
		r := mem.VARange{Start: 0x100000, End: 0x100000 + 32*mem.PageSize}
		if err := proc.Alloc(r); err != nil {
			t.Fatal(err)
		}
		var sock *Socket
		sock = g.LKM.RegisterApp(proc, func(msg any) {
			if _, ok := msg.(MsgQuerySkipAreas); ok {
				sock.Send(MsgReportAreas{App: sock.App(), Areas: []mem.VARange{r}})
			}
		})
		daemon := g.LKM.DaemonEndpoint()
		daemon.Bind(func(any) {})
		return g, daemon, sock, proc
	}

	// Abort from MIGRATION_STARTED.
	g, daemon, _, _ := build()
	daemon.Notify(EvMigrationBegin{})
	daemon.Notify(EvMigrationAborted{})
	if g.LKM.State() != StateInitialized || g.LKM.TransferBitmap().Count() != g.LKM.TransferBitmap().Len() {
		t.Fatal("abort from MIGRATION_STARTED did not reset")
	}

	// Abort from ENTERING_LAST_ITER (app never becomes ready).
	g, daemon, _, _ = build()
	daemon.Notify(EvMigrationBegin{})
	daemon.Notify(EvEnteringLastIter{})
	daemon.Notify(EvMigrationAborted{})
	if g.LKM.State() != StateInitialized {
		t.Fatal("abort from ENTERING_LAST_ITER did not reset")
	}
	// The prepare timer must be dead: advancing past the timeout changes
	// nothing.
	before := g.LKM.FallbackApps
	g.Dom.Clock().Advance(30 * time.Second)
	if g.LKM.FallbackApps != before {
		t.Fatal("prepare timer fired after abort")
	}

	// Abort in INITIALIZED is invalid.
	g, daemon, _, _ = build()
	daemon.Notify(EvMigrationAborted{})
	if g.LKM.InvalidMsgs != 1 {
		t.Fatalf("InvalidMsgs = %d", g.LKM.InvalidMsgs)
	}
}
