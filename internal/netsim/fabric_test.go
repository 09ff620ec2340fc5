package netsim

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"javmm/internal/faults"
	"javmm/internal/obs"
	"javmm/internal/simclock"
)

// Satellite: Modulator return values are validated for the whole illegal
// range. NaN is the case the old "f <= 0 || f > 1" check let through
// silently — every comparison with NaN is false — so it is pinned here
// alongside the ordinary out-of-range values.
func TestModulatorValidationPinned(t *testing.T) {
	for _, tc := range []struct {
		name   string
		factor float64
		panics bool
	}{
		{"full", 1.0, false},
		{"half", 0.5, false},
		{"zero", 0.0, true},
		{"negative", -0.25, true},
		{"above-one", 1.5, true},
		{"nan", math.NaN(), true},
		{"inf", math.Inf(1), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := NewLink(simclock.New(), 1000, 0)
			l.Modulator = func(time.Duration) float64 { return tc.factor }
			defer func() {
				if got := recover() != nil; got != tc.panics {
					t.Fatalf("factor %v: panic=%v, want %v", tc.factor, got, tc.panics)
				}
			}()
			l.Bandwidth()
		})
	}
}

// sharedPair builds the canonical contention topology: two sources, one
// destination-side shared link of bw bytes/sec everyone crosses.
func sharedPair(bw uint64) (*simclock.Clock, *Fabric, *Link, *Link) {
	clock := simclock.New()
	f := NewFabric(clock)
	f.AddHost("src0", 0)
	f.AddHost("src1", 0)
	f.AddHost("dst", 0)
	f.AddLink("backbone", bw, 0, "src0", "src1", "dst")
	a, err := f.Dial("src0", "dst")
	if err != nil {
		panic(err)
	}
	b, err := f.Dial("src1", "dst")
	if err != nil {
		panic(err)
	}
	return clock, f, a, b
}

// A lone transfer on a fabric port costs what a plain Link charges when
// the cost is a whole number of nanoseconds. Otherwise the two differ by
// 1ns: the port completes at the ceiling nanosecond, the Link truncates.
func TestFabricSingleTenantMatchesLink(t *testing.T) {
	clock, f, a, _ := sharedPair(1000)
	m := obs.NewMetrics(clock)
	a.SetMetrics(m)
	tr, err := a.Transfer(2000)
	if err != nil {
		t.Fatal(err)
	}
	d, err := tr.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * time.Second; d != want {
		t.Fatalf("uncontended transfer took %v, want %v", d, want)
	}
	if clock.Now() != 2*time.Second {
		t.Fatalf("clock at %v, want 2s", clock.Now())
	}
	if fl := f.Report().Flows[0]; fl.BytesSent != 2000 || fl.Transfers != 1 {
		t.Fatalf("flow accounting = %d bytes / %d transfers", fl.BytesSent, fl.Transfers)
	}
	sent, sends := m.Counter("net.bytes_sent").Value(), m.Counter("net.sends").Value()
	if busy := time.Duration(m.Counter("net.busy_ns").Value()); sent != 2000 || sends != 1 || busy != 2*time.Second {
		t.Fatalf("port counters = %d bytes / %d sends / %v busy", sent, sends, busy)
	}
}

// Satellite: two equal transfers admitted together on one shared link each
// observe ~half the bandwidth — both finish at 2x the solo time.
func TestFabricFairShareHalves(t *testing.T) {
	clock, _, a, b := sharedPair(1000)
	ta, _ := a.Transfer(1000)
	tb, _ := b.Transfer(1000)
	da, _ := ta.Wait()
	db, _ := tb.Wait()
	// Solo: 1s each. Contended the whole way: 2s each.
	if da != 2*time.Second || db != 2*time.Second {
		t.Fatalf("contended durations %v / %v, want 2s each", da, db)
	}
	if clock.Now() != 2*time.Second {
		t.Fatalf("clock at %v, want 2s", clock.Now())
	}
	// Observed per-transfer rate is ~half the link: 1000 bytes in 2s.
	if rate := float64(ta.Bytes()) / da.Seconds(); rate < 480 || rate > 520 {
		t.Fatalf("observed rate %.0f B/s, want ~500", rate)
	}
}

// Progressive fair share: a transfer's cost integrates over contender-set
// changes. B arrives halfway through A's solo run; A gets full bandwidth
// before, half after.
func TestFabricProgressiveShare(t *testing.T) {
	clock, _, a, b := sharedPair(1000)
	ta, _ := a.Transfer(1000) // solo: 1s
	clock.Advance(500 * time.Millisecond)
	tb, _ := b.Transfer(1000)
	da, _ := ta.Wait()
	db, _ := tb.Wait()
	// A: 500ms at 1000 B/s (500 B) + 500 B at 500 B/s (1s) = 1.5s total.
	if da != 1500*time.Millisecond {
		t.Fatalf("A took %v, want 1.5s", da)
	}
	// B: 1s at 500 B/s (500 B) until A finishes, then 500 B at full = 1.5s.
	if db != 1500*time.Millisecond {
		t.Fatalf("B took %v, want 1.5s", db)
	}
}

// Satellite: byte conservation — the shared link's bytesSent equals the sum
// of per-transfer (and per-port) bytes, with no float residue.
func TestFabricByteConservation(t *testing.T) {
	_, f, a, b := sharedPair(117_000_000)
	sizes := []uint64{4096, 1 << 20, 3 << 20, 12345, 999999, 4096 * 7}
	var want uint64
	var trs []*Transfer
	for i, n := range sizes {
		port := a
		if i%2 == 1 {
			port = b
		}
		tr, err := port.Transfer(n)
		if err != nil {
			t.Fatal(err)
		}
		want += n
		trs = append(trs, tr)
	}
	for _, tr := range trs {
		if _, err := tr.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	rep := f.Report()
	if len(rep.Links) != 1 {
		t.Fatalf("report has %d links, want 1", len(rep.Links))
	}
	bk := rep.Links[0]
	if bk.Name != "backbone" || bk.BytesSent != want {
		t.Fatalf("backbone carried %d bytes, want %d", bk.BytesSent, want)
	}
	if got := rep.Flows[0].BytesSent + rep.Flows[1].BytesSent; got != want {
		t.Fatalf("flows account %d bytes, want %d", got, want)
	}
	if bk.Transfers != uint64(len(sizes)) {
		t.Fatalf("backbone transfers = %d, want %d", bk.Transfers, len(sizes))
	}
	if bk.MaxConcurrent != len(sizes) {
		t.Fatalf("max concurrent = %d, want %d", bk.MaxConcurrent, len(sizes))
	}
}

// Satellite: a fault-injected partition on the shared link stalls every
// tenant; both finish late by the partition length (within the stall-recheck
// quantum).
func TestFabricSharedPartitionStallsAllTenants(t *testing.T) {
	clock, f, a, b := sharedPair(1000)
	inj, err := faults.NewInjector(clock, faults.Plan{{
		Site: faults.SiteLinkPartition,
		At:   200 * time.Millisecond,
		For:  600 * time.Millisecond,
	}})
	if err != nil {
		t.Fatal(err)
	}
	inj.Begin() // windows are relative to arming
	f.SetLinkFaults("backbone", inj)
	ta, _ := a.Transfer(500) // contended: 1s, partition adds 600ms
	tb, _ := b.Transfer(500)
	da, _ := ta.Wait()
	db, _ := tb.Wait()
	want := 1600 * time.Millisecond
	if da < want || da > want+2*stallRecheck {
		t.Fatalf("A took %v, want ~%v (stalled by the partition)", da, want)
	}
	if db < want || db > want+2*stallRecheck {
		t.Fatalf("B took %v, want ~%v (stalled by the partition)", db, want)
	}
}

// A port-level partition gates admission with the SendErr retry contract.
func TestFabricPortPartitionGatesAdmission(t *testing.T) {
	clock, _, a, _ := sharedPair(1000)
	inj, err := faults.NewInjector(clock, faults.Plan{{
		Site: faults.SiteLinkPartition,
		At:   0,
		For:  100 * time.Millisecond,
	}})
	if err != nil {
		t.Fatal(err)
	}
	inj.Begin()
	a.SetFaults(inj)
	m := obs.NewMetrics(clock)
	a.SetMetrics(m)
	if _, err := a.Transfer(100); err != ErrPartitioned {
		t.Fatalf("admission during partition: err = %v, want ErrPartitioned", err)
	}
	if got := m.Counter("net.failed_sends").Value(); got != 1 {
		t.Fatalf("net.failed_sends = %d, want 1", got)
	}
	clock.Advance(150 * time.Millisecond)
	tr, err := a.Transfer(100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Wait(); err != nil {
		t.Fatal(err)
	}
}

// Under a scheduler, N processes transferring concurrently settle to the
// same durations as the caller-driven drive, and repeated runs are
// byte-identical.
func TestFabricUnderSchedulerDeterministic(t *testing.T) {
	run := func() ([]time.Duration, FabricReport) {
		clock := simclock.New()
		sched := simclock.NewScheduler(clock)
		f := NewFabric(clock)
		f.AddHost("dst", 0)
		ports := make([]*Link, 3)
		for i := range ports {
			f.AddHost([]string{"s0", "s1", "s2"}[i], 0)
		}
		f.AddLink("backbone", 1000, 0, "s0", "s1", "s2", "dst")
		for i := range ports {
			p, err := f.Dial([]string{"s0", "s1", "s2"}[i], "dst")
			if err != nil {
				t.Fatal(err)
			}
			ports[i] = p
		}
		durs := make([]time.Duration, 3)
		for i := range ports {
			i := i
			sched.Go([]string{"s0", "s1", "s2"}[i], func() {
				clock.Advance(time.Duration(i) * 250 * time.Millisecond)
				tr, err := ports[i].Transfer(1000)
				if err != nil {
					t.Error(err)
					return
				}
				durs[i], _ = tr.Wait()
			})
		}
		sched.Run()
		return durs, f.Report()
	}
	d1, r1 := run()
	d2, r2 := run()
	if !reflect.DeepEqual(d1, d2) || !reflect.DeepEqual(r1, r2) {
		t.Fatalf("two scheduled runs diverged:\n%v %+v\n%v %+v", d1, r1, d2, r2)
	}
	// Staggered arrivals: s0 runs solo for 250ms, then shares. Everyone's
	// duration must be at least the solo cost and the set must be ordered
	// (earlier arrivals see less lifetime contention here).
	for i, d := range d1 {
		if d < time.Second {
			t.Fatalf("transfer %d took %v, less than the solo cost", i, d)
		}
	}
	var total uint64
	for _, lu := range r1.Links {
		if lu.Name == "backbone" {
			total = lu.BytesSent
		}
	}
	if total != 3000 {
		t.Fatalf("backbone carried %d bytes, want 3000", total)
	}
}

// NIC caps participate in arbitration: two transfers from one NIC-capped
// host split the NIC even when the backbone is fat.
func TestFabricNICCapArbitrates(t *testing.T) {
	clock := simclock.New()
	f := NewFabric(clock)
	f.AddHost("src", 1000) // NIC is the bottleneck
	f.AddHost("d0", 0)
	f.AddHost("d1", 0)
	f.AddLink("backbone", 1_000_000, 0, "src", "d0", "d1")
	p0, err := f.Dial("src", "d0")
	if err != nil {
		t.Fatal(err)
	}
	p1, err := f.Dial("src", "d1")
	if err != nil {
		t.Fatal(err)
	}
	t0, _ := p0.Transfer(1000)
	t1, _ := p1.Transfer(1000)
	d0, _ := t0.Wait()
	d1, _ := t1.Wait()
	if d0 != 2*time.Second || d1 != 2*time.Second {
		t.Fatalf("NIC-capped pair took %v / %v, want 2s each", d0, d1)
	}
	if clock.Now() != 2*time.Second {
		t.Fatalf("clock at %v, want 2s", clock.Now())
	}
}

// The settled-bytes integral conserves bytes: once the fabric is idle, each
// trunk's continuous integral agrees with its whole-byte counter to within
// the sub-byte rounding residue per transfer, and its utilization lands in
// (0, 1].
func TestFabricSettledBytesConservation(t *testing.T) {
	_, f, a, b := sharedPair(117_000_000)
	sizes := []uint64{4096, 1 << 20, 3 << 20, 12345, 999999}
	var trs []*Transfer
	for i, n := range sizes {
		port := a
		if i%2 == 1 {
			port = b
		}
		tr, err := port.Transfer(n)
		if err != nil {
			t.Fatal(err)
		}
		trs = append(trs, tr)
	}
	for _, tr := range trs {
		if _, err := tr.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	rep := f.Report()
	bk, ok := rep.Link("backbone")
	if !ok {
		t.Fatal("no backbone row")
	}
	if tol := float64(bk.Transfers); bk.ConservationError() > tol {
		t.Fatalf("conservation error %.3f bytes over %d transfers (settled %.3f, sent %d)",
			bk.ConservationError(), bk.Transfers, bk.SettledBytes, bk.BytesSent)
	}
	if bk.Utilization <= 0 || bk.Utilization > 1.0001 {
		t.Fatalf("utilization = %v, want (0,1]", bk.Utilization)
	}
	// Concurrent equal transfers saturate the link while busy.
	if bk.Utilization < 0.99 {
		t.Fatalf("saturated link reports utilization %v, want ~1", bk.Utilization)
	}
}

// Per-flow accounting: a contended flow's queueing is the extra time beyond
// its uncontended ideal; a solo flow's queueing is zero.
func TestFabricFlowQueueing(t *testing.T) {
	_, f, a, b := sharedPair(1000)
	ta, _ := a.Transfer(1000) // solo ideal: 1s
	tb, _ := b.Transfer(1000)
	da, _ := ta.Wait()
	tb.Wait()
	rep := f.Report()
	if len(rep.Flows) != 2 {
		t.Fatalf("report has %d flows, want 2", len(rep.Flows))
	}
	fa := rep.Flows[0]
	if fa.Name != "src0->dst" || fa.BytesSent != 1000 || fa.Transfers != 1 {
		t.Fatalf("flow A = %+v", fa)
	}
	// Contended 2s against a 1s ideal: 1s of queueing, no stall.
	if want := da - time.Second; fa.Queueing != want {
		t.Fatalf("flow A queueing = %v, want %v", fa.Queueing, want)
	}
	if fa.Stall != 0 {
		t.Fatalf("flow A stall = %v, want 0", fa.Stall)
	}

	// A later solo transfer adds no queueing.
	ts, _ := a.Transfer(500)
	ts.Wait()
	rep = f.Report()
	if got := rep.Flows[0].Queueing; got != da-time.Second {
		t.Fatalf("solo transfer added queueing: %v", got)
	}
}

// A mid-flight partition shows up as per-flow stall (rate-zero time), within
// the stall-recheck quantum.
func TestFabricFlowStallAccounting(t *testing.T) {
	clock, f, a, _ := sharedPair(1000)
	inj, err := faults.NewInjector(clock, faults.Plan{{
		Site: faults.SiteLinkPartition,
		At:   200 * time.Millisecond,
		For:  600 * time.Millisecond,
	}})
	if err != nil {
		t.Fatal(err)
	}
	inj.Begin()
	f.SetLinkFaults("backbone", inj)
	tr, _ := a.Transfer(500) // solo 500ms + 600ms partition
	tr.Wait()
	fl := f.Report().Flows[0]
	if fl.Stall < 600*time.Millisecond || fl.Stall > 600*time.Millisecond+2*stallRecheck {
		t.Fatalf("flow stall = %v, want ~600ms", fl.Stall)
	}
	if fl.Queueing < fl.Stall {
		t.Fatalf("queueing %v < stall %v", fl.Queueing, fl.Stall)
	}
}

// With a tracer attached, every transfer becomes a span on its flow's track
// and contention changes become instants on the link's track — and repeat
// runs are byte-identical through the Chrome exporter.
func TestFabricTracerSpans(t *testing.T) {
	run := func() []byte {
		clock := simclock.New()
		f := NewFabric(clock)
		f.AddHost("src0", 0)
		f.AddHost("src1", 0)
		f.AddHost("dst", 0)
		f.AddLink("backbone", 1000, 0, "src0", "src1", "dst")
		tr := obs.New(clock)
		f.SetTracer(tr)
		a, _ := f.Dial("src0", "dst")
		b, _ := f.Dial("src1", "dst")
		ta, _ := a.Transfer(1000)
		tb, _ := b.Transfer(500)
		ta.Wait()
		tb.Wait()

		var begins, ends, contention int
		for _, e := range tr.Events() {
			switch {
			case e.Kind == obs.KindTransfer && e.Phase == obs.PhaseBegin:
				begins++
				if e.Track != obs.TrackFabric+"/src0->dst" && e.Track != obs.TrackFabric+"/src1->dst" {
					t.Fatalf("transfer span on track %q", e.Track)
				}
			case e.Kind == obs.KindTransfer && e.Phase == obs.PhaseEnd:
				ends++
			case e.Kind == obs.KindContention:
				contention++
				if e.Track != obs.TrackFabric+"/backbone" {
					t.Fatalf("contention event on track %q", e.Track)
				}
			case e.Kind == obs.KindSpanError:
				t.Fatalf("span error in fabric trace: %+v", e)
			}
		}
		if begins != 2 || ends != 2 {
			t.Fatalf("transfer spans = %d begins / %d ends, want 2/2", begins, ends)
		}
		if contention == 0 {
			t.Fatal("no contention events")
		}
		var buf bytes.Buffer
		if err := obs.WriteChromeTrace(&buf, tr.Events()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(run(), run()) {
		t.Fatal("fabric trace not byte-identical across runs")
	}
}

// Duplicate dials of the same host pair get unique, deterministic flow
// names.
func TestFabricDuplicateDialFlowNames(t *testing.T) {
	_, f, _, _ := sharedPair(1000)
	if _, err := f.Dial("src0", "dst"); err != nil {
		t.Fatal(err)
	}
	rep := f.Report()
	if len(rep.Flows) != 3 {
		t.Fatalf("%d flows, want 3", len(rep.Flows))
	}
	if rep.Flows[0].Name != "src0->dst" || rep.Flows[2].Name != "src0->dst#2" {
		t.Fatalf("flow names = %q, %q, %q", rep.Flows[0].Name, rep.Flows[1].Name, rep.Flows[2].Name)
	}
}

// Dial surfaces unroutable pairs and unknown hosts as errors.
func TestFabricDialErrors(t *testing.T) {
	f := NewFabric(simclock.New())
	f.AddHost("a", 0)
	f.AddHost("b", 0)
	if _, err := f.Dial("a", "zzz"); err == nil {
		t.Fatal("Dial to unknown host succeeded")
	}
	if _, err := f.Dial("a", "b"); err == nil {
		t.Fatal("Dial with no connecting link succeeded")
	}
}

// Regression for the settle-residue bound under heavy contention: eight
// flows with mutually-prime sizes arrive in overlapping waves, forcing the
// fair-share fixed point through dozens of recalc events, and the residue
// must stay within one byte per transfer on every trunk —
// FabricReport.VerifyConservation, the invariant the fleet runner asserts
// after every plan.
func TestFabricVerifyConservationEightFlows(t *testing.T) {
	clock := simclock.New()
	f := NewFabric(clock)
	const flows = 8
	hosts := make([]string, 0, flows+1)
	for i := 0; i < flows; i++ {
		h := fmt.Sprintf("src%d", i)
		f.AddHost(h, 50_000_000) // NIC caps add per-host trunks to the bound check
		hosts = append(hosts, h)
	}
	f.AddHost("dst", 0)
	f.AddLink("backbone", 117_000_000, 100*time.Microsecond, append(hosts, "dst")...)

	ports := make([]*Link, flows)
	for i := range ports {
		p, err := f.Dial(hosts[i], "dst")
		if err != nil {
			t.Fatal(err)
		}
		ports[i] = p
	}
	// Three waves of staggered transfers per flow: flows join and leave the
	// contender set at different instants, churning the settle fixed point.
	sizes := []uint64{999983, 4096*3 + 1, 1<<20 + 7, 123457, 777767, 4095, 1<<19 + 13, 666013}
	var trs []*Transfer
	for wave := 0; wave < 3; wave++ {
		for i, p := range ports {
			n := sizes[(i+wave)%len(sizes)] + uint64(wave*911)
			tr, err := p.Transfer(n)
			if err != nil {
				t.Fatal(err)
			}
			trs = append(trs, tr)
		}
		clock.Advance(time.Duration(wave+1) * 3 * time.Millisecond)
	}
	for _, tr := range trs {
		if _, err := tr.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	rep := f.Report()
	if err := rep.VerifyConservation(); err != nil {
		t.Fatal(err)
	}
	for _, u := range rep.Links {
		if res := u.ConservationError(); res > float64(u.Transfers+1) {
			t.Fatalf("link %s residue %.3f exceeds bound %d", u.Name, res, u.Transfers+1)
		}
	}
	// The bound is real: a report whose settled integral drifted past it
	// must fail verification.
	bad := rep
	bad.Links = append([]LinkUsage(nil), rep.Links...)
	bad.Links[0].SettledBytes += float64(bad.Links[0].Transfers + 2)
	if err := bad.VerifyConservation(); err == nil {
		t.Fatal("doctored report passed VerifyConservation")
	}
}

// Route exposes the shared links a flow would cross, for admission
// accounting.
func TestFabricRoute(t *testing.T) {
	f := NewFabric(simclock.New())
	f.AddHost("a", 0)
	f.AddHost("b", 0)
	f.AddHost("c", 0)
	f.AddLink("tor", 1000, 0, "a", "b")
	f.AddLink("spine", 1000, 0, "b", "c")
	route, err := f.Route("a", "c")
	if err != nil {
		t.Fatal(err)
	}
	if len(route) != 2 || route[0] != "tor" || route[1] != "spine" {
		t.Fatalf("route = %v, want [tor spine]", route)
	}
	if _, err := f.Route("a", "zzz"); err == nil {
		t.Fatal("Route to unknown host succeeded")
	}
}
