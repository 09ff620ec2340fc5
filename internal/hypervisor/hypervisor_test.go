package hypervisor

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"javmm/internal/mem"
	"javmm/internal/simclock"
)

func newTestDomain(pages uint64) *Domain {
	return NewDomain("test", simclock.New(), mem.NewVersionStore(pages))
}

func TestDomainBasics(t *testing.T) {
	d := newTestDomain(16)
	if d.Name() != "test" {
		t.Fatalf("Name = %q", d.Name())
	}
	if d.NumPages() != 16 {
		t.Fatalf("NumPages = %d", d.NumPages())
	}
	if d.MemoryBytes() != 16*mem.PageSize {
		t.Fatalf("MemoryBytes = %d", d.MemoryBytes())
	}
}

func TestWritePageBumpsVersion(t *testing.T) {
	d := newTestDomain(4)
	d.WritePage(2)
	d.WritePage(2)
	if v := d.Store().Version(2); v != 2 {
		t.Fatalf("Version = %d, want 2", v)
	}
	if d.Writes() != 2 {
		t.Fatalf("Writes = %d, want 2", d.Writes())
	}
}

func TestLogDirtyTracksOnlyWhenEnabled(t *testing.T) {
	d := newTestDomain(8)
	d.WritePage(1)
	if d.DirtyCount() != 0 {
		t.Fatal("write dirtied page before log-dirty enabled")
	}
	if err := d.EnableLogDirty(); err != nil {
		t.Fatal(err)
	}
	d.WritePage(1)
	d.WritePage(3)
	if d.DirtyCount() != 2 {
		t.Fatalf("DirtyCount = %d, want 2", d.DirtyCount())
	}
	d.DisableLogDirty()
	if d.DirtyCount() != 0 {
		t.Fatal("DisableLogDirty did not clear bitmap")
	}
	d.WritePage(5)
	if d.DirtyCount() != 0 {
		t.Fatal("write tracked after DisableLogDirty")
	}
}

func TestEnableLogDirtyTwiceErrors(t *testing.T) {
	d := newTestDomain(4)
	if err := d.EnableLogDirty(); err != nil {
		t.Fatal(err)
	}
	if err := d.EnableLogDirty(); err == nil {
		t.Fatal("second EnableLogDirty succeeded")
	}
}

func TestPeekAndClearStartsNewRound(t *testing.T) {
	d := newTestDomain(8)
	d.EnableLogDirty()
	d.WritePage(1)
	d.WritePage(2)
	snap := mem.NewBitmap(8)
	if n := d.PeekAndClear(snap); n != 2 {
		t.Fatalf("PeekAndClear = %d, want 2", n)
	}
	if !snap.Test(1) || !snap.Test(2) {
		t.Fatal("snapshot missing dirty pages")
	}
	if d.DirtyCount() != 0 {
		t.Fatal("dirty bitmap not cleared")
	}
	// New round: re-dirtying sets bits again.
	d.WritePage(1)
	if d.DirtyWord(0) != 1<<1 {
		t.Fatal("new round tracking wrong")
	}
}

func TestPeekDoesNotClear(t *testing.T) {
	d := newTestDomain(8)
	d.EnableLogDirty()
	d.WritePage(3)
	snap := mem.NewBitmap(8)
	if n := d.Peek(snap); n != 1 {
		t.Fatalf("Peek = %d, want 1", n)
	}
	if d.DirtyCount() != 1 {
		t.Fatal("Peek cleared the bitmap")
	}
}

// DirtyWord peeks the current round a word at a time, without clearing.
func TestDirtyWordPeeksCurrentRound(t *testing.T) {
	d := newTestDomain(130)
	d.EnableLogDirty()
	for _, p := range []mem.PFN{0, 63, 64, 129} {
		d.WritePage(p)
	}
	want := []uint64{1 | 1<<63, 1, 1 << 1}
	for wi, w := range want {
		if got := d.DirtyWord(wi); got != w {
			t.Fatalf("DirtyWord(%d) = %#x, want %#x", wi, got, w)
		}
	}
	if d.DirtyCount() != 4 {
		t.Fatal("DirtyWord cleared the round")
	}
}

func TestPauseAccounting(t *testing.T) {
	clock := simclock.New()
	d := NewDomain("x", clock, mem.NewVersionStore(4))
	clock.Advance(time.Second)
	d.Pause()
	d.Pause() // idempotent
	clock.Advance(2 * time.Second)
	if got := d.TotalPaused(); got != 2*time.Second {
		t.Fatalf("TotalPaused mid-pause = %v, want 2s", got)
	}
	d.Unpause()
	d.Unpause() // idempotent
	clock.Advance(time.Second)
	if got := d.TotalPaused(); got != 2*time.Second {
		t.Fatalf("TotalPaused = %v, want 2s", got)
	}
	if d.PauseCount() != 1 {
		t.Fatalf("PauseCount = %d, want 1", d.PauseCount())
	}
}

func TestWriteWhilePausedPanics(t *testing.T) {
	d := newTestDomain(4)
	d.Pause()
	defer func() {
		if recover() == nil {
			t.Fatal("write while paused did not panic")
		}
	}()
	d.WritePage(0)
}

func TestDirtyEventsCountOncePerPagePerRound(t *testing.T) {
	d := newTestDomain(8)
	d.EnableLogDirty()
	d.WritePage(1)
	d.WritePage(1) // already dirty: no new event
	d.WritePage(2)
	if got := d.DirtyEvents(); got != 2 {
		t.Fatalf("DirtyEvents = %d, want 2", got)
	}
	snap := mem.NewBitmap(8)
	d.PeekAndClear(snap)
	d.WritePage(1) // new round: dirties again
	if got := d.DirtyEvents(); got != 3 {
		t.Fatalf("DirtyEvents = %d, want 3", got)
	}
}

func TestPageFaultHookFiresBeforeWrite(t *testing.T) {
	d := newTestDomain(8)
	var faults [][]mem.PFN
	d.SetPageFaultHook(func(run []mem.PFN) {
		faults = append(faults, append([]mem.PFN(nil), run...))
		// The hook observes the page BEFORE the write applies.
		if d.Store().Version(run[0]) != 0 {
			t.Fatal("fault hook ran after the write")
		}
	})
	d.WritePage(3)
	if want := [][]mem.PFN{{3}}; !reflect.DeepEqual(faults, want) {
		t.Fatalf("hook saw runs %v, want the one-page run %v", faults, want)
	}
	d.SetPageFaultHook(nil)
	d.WritePage(4)
	if len(faults) != 1 {
		t.Fatal("cleared hook still fired")
	}
}

func TestEventChannelDelivery(t *testing.T) {
	ec := NewEventChannel()
	var got []any
	ec.Guest().Bind(func(msg any) { got = append(got, msg) })
	ec.Daemon().Notify("begin")
	ec.Daemon().Notify("last-iter")
	if len(got) != 2 || got[0] != "begin" || got[1] != "last-iter" {
		t.Fatalf("guest received %v", got)
	}
	if ec.Daemon().Sent() != 2 {
		t.Fatalf("Sent = %d", ec.Daemon().Sent())
	}
}

func TestEventChannelBothDirections(t *testing.T) {
	ec := NewEventChannel()
	var daemonGot, guestGot any
	ec.Daemon().Bind(func(msg any) { daemonGot = msg })
	ec.Guest().Bind(func(msg any) { guestGot = msg })
	ec.Daemon().Notify("to-guest")
	ec.Guest().Notify("to-daemon")
	if guestGot != "to-guest" || daemonGot != "to-daemon" {
		t.Fatalf("delivery wrong: daemon=%v guest=%v", daemonGot, guestGot)
	}
}

func TestEventChannelUnboundDrops(t *testing.T) {
	ec := NewEventChannel()
	ec.Daemon().Notify("lost")
	if ec.Daemon().Dropped() != 1 {
		t.Fatalf("Dropped = %d, want 1", ec.Daemon().Dropped())
	}
}

func TestEventChannelRebind(t *testing.T) {
	ec := NewEventChannel()
	var a, b int
	ec.Guest().Bind(func(any) { a++ })
	ec.Daemon().Notify(1)
	ec.Guest().Bind(func(any) { b++ })
	ec.Daemon().Notify(2)
	if a != 1 || b != 1 {
		t.Fatalf("rebind routing wrong: a=%d b=%d", a, b)
	}
}

// domainState is everything a guest write can change on a domain.
type domainState struct {
	versions           []uint64
	dirty, epoch       *mem.Bitmap
	writes, dirtyEvent uint64
}

func captureState(d *Domain) domainState {
	st := domainState{
		dirty:      mem.NewBitmap(d.NumPages()),
		writes:     d.Writes(),
		dirtyEvent: d.DirtyEvents(),
	}
	for p := mem.PFN(0); uint64(p) < d.NumPages(); p++ {
		st.versions = append(st.versions, d.Store().Version(p))
	}
	d.Peek(st.dirty)
	st.epoch, _ = d.DirtySince(d.DirtyEpoch())
	return st
}

// TestWritePagesMatchesWritePage drives two domains with the same random
// runs, one through WritePages and one through a WritePage per page, and
// requires identical versions, bitmaps and counters after every run — with
// log-dirty on and off, the epoch armed and unarmed, and rounds cleared in
// between.
func TestWritePagesMatchesWritePage(t *testing.T) {
	const pages = 1 << 12
	for _, tc := range []struct {
		name            string
		logDirty, epoch bool
	}{
		{"plain", false, false},
		{"log-dirty", true, false},
		{"epoch", false, true},
		{"log-dirty+epoch", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(16))
			runs, single := newTestDomain(pages), newTestDomain(pages)
			for _, d := range []*Domain{runs, single} {
				if tc.logDirty {
					if err := d.EnableLogDirty(); err != nil {
						t.Fatal(err)
					}
				}
				if tc.epoch {
					d.BeginDirtyEpoch()
				}
			}
			snap := mem.NewBitmap(pages)
			for i := 0; i < 300; i++ {
				// Runs may repeat a page: the contract holds for any
				// sequence, not only the distinct frames of a page table.
				run := make([]mem.PFN, rng.Intn(80))
				for k := range run {
					run[k] = mem.PFN(rng.Intn(pages))
				}
				runs.WritePages(run)
				for _, p := range run {
					single.WritePage(p)
				}
				if got, want := captureState(runs), captureState(single); !reflect.DeepEqual(got, want) {
					t.Fatalf("run %d (%d pages): state diverged from per-page writes", i, len(run))
				}
				if tc.logDirty && i%50 == 49 {
					runs.PeekAndClear(snap)
					single.PeekAndClear(snap)
				}
			}
			if runs.Writes() == 0 || (tc.logDirty && runs.DirtyEvents() == 0) {
				t.Fatal("the runs wrote nothing")
			}
		})
	}
}

// The hook sees the whole run once, in write order, before any page of it
// is written; the writes then leave the state per-page writes leave.
func TestWritePagesRunsFaultHookOncePerRun(t *testing.T) {
	d := newTestDomain(64)
	if err := d.EnableLogDirty(); err != nil {
		t.Fatal(err)
	}
	d.WritePage(9)
	run := []mem.PFN{7, 9, 3, 40}
	var seen [][]mem.PFN
	var before []uint64
	d.SetPageFaultHook(func(r []mem.PFN) {
		seen = append(seen, append([]mem.PFN(nil), r...))
		for _, p := range r {
			before = append(before, d.Store().Version(p))
		}
	})
	d.WritePages(run)
	if want := [][]mem.PFN{run}; !reflect.DeepEqual(seen, want) {
		t.Fatalf("hook saw runs %v, want the run %v once", seen, want)
	}
	if want := []uint64{0, 1, 0, 0}; !reflect.DeepEqual(before, want) {
		t.Fatalf("hook saw versions %v, want pre-write versions %v", before, want)
	}
	if d.Writes() != 5 || d.DirtyEvents() != 4 {
		t.Fatalf("Writes = %d, DirtyEvents = %d, want 5 and 4", d.Writes(), d.DirtyEvents())
	}
	d.WritePages(nil)
	if len(seen) != 1 {
		t.Fatalf("an empty run called the hook: %v", seen)
	}
}

func TestWritePagesWhilePausedPanicsBeforeAnyWrite(t *testing.T) {
	d := newTestDomain(8)
	d.Pause()
	defer func() {
		if recover() == nil {
			t.Fatal("WritePages while paused did not panic")
		}
		for p := mem.PFN(0); p < 8; p++ {
			if v := d.Store().Version(p); v != 0 {
				t.Fatalf("page %d written (version %d) before the panic", p, v)
			}
		}
		if d.Writes() != 0 {
			t.Fatalf("Writes = %d before the panic", d.Writes())
		}
	}()
	d.WritePages([]mem.PFN{2, 3, 4})
}
