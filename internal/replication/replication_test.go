package replication

import (
	"testing"
	"time"

	"javmm/internal/guestos"
	"javmm/internal/hypervisor"
	"javmm/internal/mem"
	"javmm/internal/migration"
	"javmm/internal/netsim"
	"javmm/internal/simclock"
	"javmm/internal/workload"
)

// dirtier rewrites a mapped range cyclically, with an optional skip-over
// registration. It implements migration.GuestExecutor.
type dirtier struct {
	clock  *simclock.Clock
	proc   *guestos.Process
	hot    mem.VARange
	rate   float64
	cursor mem.VA
	carry  float64
	sock   *guestos.Socket
	skip   []mem.VARange
}

func newDirtier(g *guestos.Guest, clock *simclock.Clock, hot mem.VARange, rate float64) *dirtier {
	d := &dirtier{clock: clock, proc: g.NewProcess("dirtier"), hot: hot, rate: rate, cursor: hot.Start}
	if err := d.proc.Alloc(hot); err != nil {
		panic(err)
	}
	return d
}

func (d *dirtier) register(g *guestos.Guest, skip []mem.VARange) {
	d.skip = skip
	d.sock = g.LKM.RegisterApp(d.proc, func(msg any) {
		if _, ok := msg.(guestos.MsgQuerySkipAreas); ok {
			d.sock.Send(guestos.MsgReportAreas{App: d.sock.App(), Areas: d.skip})
		}
	})
}

func (d *dirtier) Run(dur time.Duration) {
	end := d.clock.Now() + dur
	for d.clock.Now() < end {
		step := time.Millisecond
		if rem := end - d.clock.Now(); rem < step {
			step = rem
		}
		w := d.rate*step.Seconds() + d.carry
		n := int(w)
		d.carry = w - float64(n)
		for i := 0; i < n; i++ {
			d.proc.Write(d.cursor)
			d.cursor += mem.PageSize
			if d.cursor >= d.hot.End {
				d.cursor = d.hot.Start
			}
		}
		d.clock.Advance(step)
	}
}

func newRig(pages uint64) (*guestos.Guest, *simclock.Clock, *Replicator) {
	clock := simclock.New()
	dom := hypervisor.NewDomain("vm", clock, mem.NewVersionStore(pages))
	g := guestos.NewGuest(dom, guestos.LKMConfig{Clock: clock})
	r := &Replicator{
		Dom:    dom,
		LKM:    g.LKM,
		Link:   netsim.NewLink(clock, 100*1000*1000, 0),
		Clock:  clock,
		Backup: migration.NewDestination(pages),
	}
	return g, clock, r
}

func TestProtectIdleGuest(t *testing.T) {
	_, _, r := newRig(2048)
	rep, err := r.Protect(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Epochs) < 10 {
		t.Fatalf("epochs = %d, want ~10 for 1s at 100ms", len(rep.Epochs))
	}
	// Initial sync ships everything; idle epochs ship nothing.
	if rep.Epochs[0].SentPages != 2048 {
		t.Fatalf("initial sync sent %d pages", rep.Epochs[0].SentPages)
	}
	for _, e := range rep.Epochs[1:] {
		if e.SentPages != 0 {
			t.Fatalf("idle epoch %d sent %d pages", e.Index, e.SentPages)
		}
	}
	if r.Dom.LogDirtyEnabled() {
		t.Fatal("log-dirty left enabled")
	}
}

func TestProtectCapturesDirtyDeltas(t *testing.T) {
	g, clock, r := newRig(4096)
	hot := mem.VARange{Start: 0x1000000, End: 0x1000000 + 256*mem.PageSize}
	d := newDirtier(g, clock, hot, 10000)
	r.Exec = d
	rep, err := r.Protect(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var deltaPages uint64
	for _, e := range rep.Epochs[1:] {
		deltaPages += e.SentPages
		if e.SentPages+e.Deprotected != e.DirtyPages {
			t.Fatalf("epoch %d: sent %d + deprotected %d != dirty %d",
				e.Index, e.SentPages, e.Deprotected, e.DirtyPages)
		}
	}
	if deltaPages == 0 {
		t.Fatal("no dirty deltas captured")
	}
	// The backup has every hot page at some version.
	var missing int
	d.proc.AS.Walk(hot, func(va mem.VA, p mem.PFN) {
		if r.Backup.Store.Version(p) == 0 {
			missing++
		}
	})
	if missing != 0 {
		t.Fatalf("%d hot pages never reached the backup", missing)
	}
	if rep.AvgPause() <= 0 {
		t.Fatal("no checkpoint pauses recorded")
	}
}

func TestDeprotectionOmitsSkipAreas(t *testing.T) {
	run := func(deprotect bool) *Report {
		g, clock, r := newRig(4096)
		hot := mem.VARange{Start: 0x1000000, End: 0x1000000 + 512*mem.PageSize}
		d := newDirtier(g, clock, hot, 20000)
		d.register(g, []mem.VARange{hot})
		r.Exec = d
		r.Cfg.Deprotect = deprotect
		rep, err := r.Protect(2 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		// The LKM must be reset for future migrations either way.
		if g.LKM.State() != guestos.StateInitialized {
			t.Fatalf("LKM state after protection = %v", g.LKM.State())
		}
		return rep
	}
	plain := run(false)
	dep := run(true)
	if dep.Deprotected == 0 {
		t.Fatal("deprotection omitted nothing")
	}
	if dep.TotalBytes >= plain.TotalBytes {
		t.Fatalf("deprotected traffic %d >= plain %d", dep.TotalBytes, plain.TotalBytes)
	}
	if dep.AvgPause() >= plain.AvgPause() {
		t.Fatalf("deprotected avg pause %v >= plain %v (capture copies fewer pages)",
			dep.AvgPause(), plain.AvgPause())
	}
}

func TestProtectValidation(t *testing.T) {
	_, _, r := newRig(64)
	if _, err := r.Protect(0); err == nil {
		t.Fatal("zero window accepted")
	}
	r.Backup = nil
	if _, err := r.Protect(time.Second); err != ErrNoBackup {
		t.Fatalf("err = %v, want ErrNoBackup", err)
	}
	_, _, r2 := newRig(64)
	r2.Cfg.Deprotect = true
	r2.LKM = nil
	if _, err := r2.Protect(time.Second); err != ErrNoLKM {
		t.Fatalf("err = %v, want ErrNoLKM", err)
	}
	_, _, r3 := newRig(64)
	r3.Dom.EnableLogDirty()
	if _, err := r3.Protect(time.Second); err != ErrAlreadyDirty {
		t.Fatalf("err = %v, want ErrAlreadyDirty", err)
	}
}

// TestJavaVMDeprotection protects a real derby VM: RemusDB's open question
// answered with JAVMM's skip-over areas — young-generation garbage is not
// replicated.
func TestJavaVMDeprotection(t *testing.T) {
	if testing.Short() {
		t.Skip("full VM protection run is slow in -short mode")
	}
	run := func(deprotect bool) *Report {
		prof, err := workload.Lookup("derby")
		if err != nil {
			t.Fatal(err)
		}
		vm, err := workload.Boot(workload.BootConfig{Profile: prof, Assisted: true, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		vm.Driver.Run(60 * time.Second)
		r := &Replicator{
			Dom:    vm.Dom,
			LKM:    vm.Guest.LKM,
			Link:   netsim.NewLink(vm.Clock, netsim.GigabitEffective, 0),
			Clock:  vm.Clock,
			Exec:   vm.Driver,
			Backup: migration.NewDestination(vm.Dom.NumPages()),
			Cfg:    Config{Deprotect: deprotect},
		}
		rep, err := r.Protect(10 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if vm.Driver.Err != nil {
			t.Fatal(vm.Driver.Err)
		}
		return rep
	}
	plain := run(false)
	dep := run(true)
	// Derby dirties ~280 MB/s of young garbage: deprotection must cut the
	// checkpoint stream drastically.
	if float64(dep.TotalBytes) > 0.6*float64(plain.TotalBytes) {
		t.Fatalf("deprotected stream %d not ≪ plain %d", dep.TotalBytes, plain.TotalBytes)
	}
}
