package faults

import (
	"reflect"
	"testing"
	"time"

	"javmm/internal/obs"
	"javmm/internal/simclock"
)

func TestNilInjectorIsNoOp(t *testing.T) {
	var inj *Injector
	inj.Begin()
	inj.SetObs(nil, nil)
	if inj.Armed() {
		t.Fatal("nil injector reports armed")
	}
	if inj.Fire(SiteDestReceive) {
		t.Fatal("nil injector fired")
	}
	if inj.LinkDown() {
		t.Fatal("nil injector partitioned")
	}
	if f := inj.BandwidthFactor(); f != 1 {
		t.Fatalf("nil injector bandwidth factor = %v, want 1", f)
	}
	if ev := inj.Events(); ev != nil {
		t.Fatalf("nil injector has events: %v", ev)
	}
}

func TestInjectorInertUntilBegin(t *testing.T) {
	clock := simclock.New()
	inj, err := NewInjector(clock, Plan{{Site: SiteDestReceive}})
	if err != nil {
		t.Fatal(err)
	}
	if inj.Fire(SiteDestReceive) {
		t.Fatal("unarmed injector fired")
	}
	inj.Begin()
	if !inj.Fire(SiteDestReceive) {
		t.Fatal("armed injector did not fire the first occurrence")
	}
}

func TestDiscreteNthAndCount(t *testing.T) {
	clock := simclock.New()
	inj, err := NewInjector(clock, Plan{{Site: SiteDestReceive, Nth: 3, Count: 2}})
	if err != nil {
		t.Fatal(err)
	}
	inj.Begin()
	var fired []int
	for i := 1; i <= 6; i++ {
		if inj.Fire(SiteDestReceive) {
			fired = append(fired, i)
		}
	}
	if want := []int{3, 4}; !reflect.DeepEqual(fired, want) {
		t.Fatalf("fired on occurrences %v, want %v", fired, want)
	}
	ev := inj.Events()
	if len(ev) != 2 || ev[0].Occurrence != 3 || ev[1].Occurrence != 4 {
		t.Fatalf("audit log %+v, want occurrences 3 and 4", ev)
	}
}

func TestDiscreteAtGatesEligibility(t *testing.T) {
	clock := simclock.New()
	inj, err := NewInjector(clock, Plan{{Site: SitePostCopyFetch, At: time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Hour) // arming time, not absolute time, is what counts
	inj.Begin()
	if inj.Fire(SitePostCopyFetch) {
		t.Fatal("fired before At elapsed")
	}
	clock.Advance(time.Second)
	if !inj.Fire(SitePostCopyFetch) {
		t.Fatal("did not fire after At elapsed")
	}
}

func TestPartitionWindow(t *testing.T) {
	clock := simclock.New()
	inj, err := NewInjector(clock, Plan{
		{Site: SiteLinkPartition, At: time.Second, For: 2 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	inj.Begin()
	if inj.LinkDown() {
		t.Fatal("down before window")
	}
	clock.Advance(time.Second)
	if !inj.LinkDown() {
		t.Fatal("up inside window")
	}
	clock.Advance(2 * time.Second)
	if inj.LinkDown() {
		t.Fatal("down after window healed")
	}
	// Window activation is logged exactly once.
	if ev := inj.Events(); len(ev) != 1 || ev[0].Site != SiteLinkPartition {
		t.Fatalf("audit log %+v, want one link.partition event", ev)
	}
}

func TestBandwidthFactorCompounds(t *testing.T) {
	clock := simclock.New()
	inj, err := NewInjector(clock, Plan{
		{Site: SiteLinkBandwidth, For: 10 * time.Second, Factor: 0.5},
		{Site: SiteLinkBandwidth, At: time.Second, For: time.Second, Factor: 0.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	inj.Begin()
	if f := inj.BandwidthFactor(); f != 0.5 {
		t.Fatalf("factor = %v, want 0.5", f)
	}
	clock.Advance(time.Second)
	if f := inj.BandwidthFactor(); f != 0.5*0.1 {
		t.Fatalf("overlapping factor = %v, want 0.05", f)
	}
	clock.Advance(2 * time.Second)
	if f := inj.BandwidthFactor(); f != 0.5 {
		t.Fatalf("factor after short window = %v, want 0.5", f)
	}
}

func TestBeginResetsState(t *testing.T) {
	clock := simclock.New()
	inj, err := NewInjector(clock, Plan{{Site: SiteLKMHandshake}})
	if err != nil {
		t.Fatal(err)
	}
	inj.Begin()
	if !inj.Fire(SiteLKMHandshake) {
		t.Fatal("run 1: no fire")
	}
	if inj.Fire(SiteLKMHandshake) {
		t.Fatal("run 1: fired twice with count 1")
	}
	inj.Begin() // second migration: counters reset
	if !inj.Fire(SiteLKMHandshake) {
		t.Fatal("run 2: no fire after re-arm")
	}
	if n := len(inj.Events()); n != 1 {
		t.Fatalf("audit log carries %d events across Begin, want 1", n)
	}
}

func TestObsMirroring(t *testing.T) {
	clock := simclock.New()
	inj, err := NewInjector(clock, Plan{{Site: SiteDestReceive}})
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.New(clock)
	m := obs.NewMetrics(clock)
	inj.SetObs(tr, m)
	inj.Begin()
	inj.Fire(SiteDestReceive)
	evs := tr.Events()
	if len(evs) != 1 || evs[0].Kind != obs.KindFault || evs[0].Track != obs.TrackFaults {
		t.Fatalf("trace events %+v, want one fault.injected on faults track", evs)
	}
	snap := m.Snapshot()
	found := map[string]int64{}
	for _, c := range snap.Counters {
		found[c.Name] = c.Value
	}
	if found["faults.injected"] != 1 || found["faults.dest.receive"] != 1 {
		t.Fatalf("counters %v, want faults.injected=1 and faults.dest.receive=1", found)
	}
}

func TestPlanValidate(t *testing.T) {
	bad := []Rule{
		{Site: "no.such.site"},
		{Site: SiteLinkPartition},                              // windowed without For
		{Site: SiteLinkPartition, For: time.Second, Nth: 2},    // windowed with #nth
		{Site: SiteLinkBandwidth, For: time.Second},            // factor unset
		{Site: SiteLinkBandwidth, For: time.Second, Factor: 2}, // factor out of range
		{Site: SiteNetlinkDelay},                               // delay unset
		{Site: SiteHostCrash},                                  // windowed without For
		{Site: SiteDestReceive, Host: "d1"},                    // host= on a non-host-scoped site
	}
	for _, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("rule %+v validated, want error", r)
		}
	}
	good := Plan{
		{Site: SiteLinkPartition, At: time.Second, For: time.Second},
		{Site: SiteLinkBandwidth, For: time.Second, Factor: 0.5},
		{Site: SiteNetlinkDelay, Delay: time.Millisecond},
		{Site: SiteLKMHandshake},
		{Site: SiteDestCrash, At: 30 * time.Second},
		{Site: SiteHostCrash, At: time.Second, For: time.Minute, Host: "d1"},
		{Site: SiteHostFlaky, For: time.Second}, // unscoped: matches any host
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
}

func TestParseRule(t *testing.T) {
	cases := []struct {
		spec string
		want Rule
	}{
		{"lkm.handshake", Rule{Site: SiteLKMHandshake}},
		{"link.partition@10s,for=2s", Rule{Site: SiteLinkPartition, At: 10 * time.Second, For: 2 * time.Second}},
		{"link.bandwidth@5s,for=1s,factor=0.1", Rule{Site: SiteLinkBandwidth, At: 5 * time.Second, For: time.Second, Factor: 0.1}},
		{"dest.receive#3,count=2", Rule{Site: SiteDestReceive, Nth: 3, Count: 2}},
		{"netlink.delay#1,delay=50ms", Rule{Site: SiteNetlinkDelay, Nth: 1, Delay: 50 * time.Millisecond}},
		{"dest.crash@30s", Rule{Site: SiteDestCrash, At: 30 * time.Second}},
		{"postcopy.fetch@1s#2", Rule{Site: SitePostCopyFetch, At: time.Second, Nth: 2}},
		{"host.crash@30s,for=2m,host=d1", Rule{Site: SiteHostCrash, At: 30 * time.Second, For: 2 * time.Minute, Host: "d1"}},
		{"host.flaky,for=45s", Rule{Site: SiteHostFlaky, For: 45 * time.Second}},
	}
	for _, c := range cases {
		got, err := ParseRule(c.spec)
		if err != nil {
			t.Errorf("ParseRule(%q): %v", c.spec, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseRule(%q) = %+v, want %+v", c.spec, got, c.want)
		}
		// The canonical String form round-trips.
		back, err := ParseRule(got.String())
		if err != nil || back != got {
			t.Errorf("round-trip %q -> %q -> %+v (%v)", c.spec, got.String(), back, err)
		}
	}
}

func TestParseRuleErrors(t *testing.T) {
	bad := []string{
		"",
		"no.such.site",
		"link.partition",            // missing for=
		"link.partition@ten,for=1s", // bad duration
		"dest.receive#zero",         // bad nth
		"dest.receive#0",            // nth must be positive
		"dest.receive,count=0",      // count must be positive
		"dest.receive,bogus=1",      // unknown key
		"dest.receive,count",        // not key=value
		"link.bandwidth@1s,for=1s,factor=1.5",
		"netlink.delay#1",         // missing delay=
		"host.crash,for=1s,host=", // empty host=
		"dest.receive,host=d1",    // host= on a non-host-scoped site
		"host.crash@1s,host=d1",   // windowed without for=
	}
	for _, s := range bad {
		if _, err := ParseRule(s); err == nil {
			t.Errorf("ParseRule(%q) succeeded, want error", s)
		}
	}
}

func TestParsePlan(t *testing.T) {
	p, err := ParsePlan([]string{"lkm.handshake", "dest.receive#2"})
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 2 {
		t.Fatalf("plan has %d rules, want 2", len(p))
	}
	if _, err := ParsePlan([]string{"lkm.handshake", "broken"}); err == nil {
		t.Fatal("bad plan parsed")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []Event {
		clock := simclock.New()
		inj, err := NewInjector(clock, Plan{
			{Site: SiteDestReceive, Nth: 2, Count: 3},
			{Site: SiteLinkPartition, At: time.Second, For: time.Second},
		})
		if err != nil {
			t.Fatal(err)
		}
		inj.Begin()
		for i := 0; i < 4; i++ {
			inj.Fire(SiteDestReceive)
			clock.Advance(500 * time.Millisecond)
			inj.LinkDown()
		}
		return inj.Events()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("identical plans diverged:\n%v\n%v", a, b)
	}
}

func TestHostWindowsScopeToNamedHost(t *testing.T) {
	clock := simclock.New()
	inj, err := NewInjector(clock, Plan{
		{Site: SiteHostCrash, At: time.Second, For: 2 * time.Second, Host: "d1"},
		{Site: SiteHostFlaky, At: time.Second, For: 2 * time.Second}, // unscoped
	})
	if err != nil {
		t.Fatal(err)
	}
	inj.Begin()
	if inj.HostDown("d1") || inj.HostFlaky("d1") {
		t.Fatal("host faults active before their windows")
	}
	clock.Advance(time.Second)
	if !inj.HostDown("d1") {
		t.Fatal("d1 up inside its crash window")
	}
	if inj.HostDown("d2") {
		t.Fatal("crash scoped to d1 took d2 down")
	}
	// The unscoped flaky window covers every host.
	if !inj.HostFlaky("d1") || !inj.HostFlaky("d2") {
		t.Fatal("unscoped flaky window missed a host")
	}
	if until, ok := inj.HostDownUntil("d1"); !ok || until != 3*time.Second {
		t.Fatalf("HostDownUntil(d1) = %v,%v, want 3s", until, ok)
	}
	if _, ok := inj.HostDownUntil("d2"); ok {
		t.Fatal("HostDownUntil(d2) reported a window")
	}
	clock.Advance(2 * time.Second)
	if inj.HostDown("d1") || inj.HostFlaky("d2") {
		t.Fatal("host faults outlived their windows")
	}
}

// The fault checks sit on the per-page send path: with no injector, or one
// not yet armed, they must cost no allocation.
func TestDisarmedChecksAllocateNothing(t *testing.T) {
	clock := simclock.New()
	idle, err := NewInjector(clock, Plan{{Site: SiteDestReceive}, {Site: SiteHostFlaky, For: time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	for _, inj := range []*Injector{nil, idle} {
		allocs := testing.AllocsPerRun(100, func() {
			if inj.Fire(SiteDestReceive) || inj.HostDown("d1") || inj.HostFlaky("d1") {
				t.Fatal("disarmed injector fired")
			}
		})
		if allocs != 0 {
			t.Fatalf("injector %p: %v allocs per check, want 0", inj, allocs)
		}
	}
}
