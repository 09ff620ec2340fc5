package fleet

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"javmm/internal/migration"
	"javmm/internal/obs/attrib"
	"javmm/internal/obs/fleetobs"
	"javmm/internal/obs/sla"
)

// obsOpts is a 2-VM contended run with the full observability plane on.
func obsOpts(t *testing.T, mode migration.Mode) OrchestratorOptions {
	opts := backboneOpts(t, mode, 500*time.Millisecond, "compress", "derby")
	opts.Collect = true
	return opts
}

func mustRunObs(t *testing.T, opts OrchestratorOptions) *PlanResult {
	t.Helper()
	res, err := Orchestrate(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Moves {
		r := &res.Moves[i]
		if r.Err != nil {
			t.Fatalf("VM %s errored: %v", r.Name, r.Err)
		}
		if r.VerifyErr != nil {
			t.Fatalf("VM %s failed verification: %v", r.Name, r.VerifyErr)
		}
	}
	if res.Obs == nil {
		t.Fatal("Collect run returned no collector")
	}
	return res
}

// A 2-VM Backbone fleet with the fleet plane on emits one merged Chrome
// trace, byte-identical run to run (the test binary runs under -race in CI,
// so this is the determinism-under-race acceptance too).
func TestFleetMergedTraceByteIdentical(t *testing.T) {
	var traces [2][]byte
	var proms [2][]byte
	for run := range traces {
		res := mustRunObs(t, obsOpts(t, migration.ModeAppAssisted))
		var buf bytes.Buffer
		if err := res.Obs.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		traces[run] = append([]byte(nil), buf.Bytes()...)
		buf.Reset()
		if err := res.Obs.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		proms[run] = append([]byte(nil), buf.Bytes()...)
	}
	if !bytes.Equal(traces[0], traces[1]) {
		t.Fatal("merged Chrome traces differ between same-seed runs")
	}
	if !bytes.Equal(proms[0], proms[1]) {
		t.Fatal("labeled Prometheus pages differ between same-seed runs")
	}
}

// The merged trace carries one process row per VM plus the fabric row, and
// the fabric row holds per-flow transfer spans.
func TestFleetTraceLanes(t *testing.T) {
	opts := fleetOpts(t, migration.ModeAppAssisted)
	opts.Collect = true
	res := mustRunObs(t, opts)

	lanes := res.Obs.Lanes()
	if len(lanes) != 5 {
		t.Fatalf("lanes = %d, want 4 VMs + fabric", len(lanes))
	}
	for i, r := range res.Moves {
		if lanes[i].Name != r.Name {
			t.Fatalf("lane %d = %q, want %q", i, lanes[i].Name, r.Name)
		}
		if len(lanes[i].Events) == 0 {
			t.Fatalf("VM lane %q recorded no events", lanes[i].Name)
		}
	}
	fabric := lanes[len(lanes)-1]
	if fabric.Name != fleetobs.FabricLane {
		t.Fatalf("last lane = %q, want %q", fabric.Name, fleetobs.FabricLane)
	}
	spans := 0
	for _, e := range fabric.Events {
		if strings.HasPrefix(e.Track, "fabric/") {
			spans++
		}
	}
	if spans == 0 {
		t.Fatal("fabric lane recorded no flow spans")
	}

	var buf bytes.Buffer
	if err := res.Obs.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, r := range res.Moves {
		if !strings.Contains(out, `{"name":"process_name","ph":"M","ts":0,`) ||
			!strings.Contains(out, `"args":{"name":"`+r.Name+`"}`) {
			t.Fatalf("trace missing process row for %s", r.Name)
		}
	}
	if !strings.Contains(out, `"args":{"name":"fabric"}`) {
		t.Fatal("trace missing fabric process row")
	}

	// The flat merged stream is time-ordered with lane-prefixed tracks.
	merged := res.Obs.MergedEvents()
	if len(merged) == 0 {
		t.Fatal("no merged events")
	}
	for i, e := range merged {
		if i > 0 && e.At < merged[i-1].At {
			t.Fatalf("merged stream out of order at %d: %v after %v", i, e.At, merged[i-1].At)
		}
		if !strings.Contains(e.Track, "/") {
			t.Fatalf("merged event track %q lacks lane prefix", e.Track)
		}
	}
}

// Per-link utilization reconciles with the fabric's byte conservation: the
// backbone's settled-bytes integral matches the bytes the engines shipped
// (within the per-transfer rounding bound), the collector's fleet registry
// carries the same numbers, and utilization is a sane fraction.
func TestFleetFabricUtilizationReconciles(t *testing.T) {
	res := mustRunObs(t, obsOpts(t, migration.ModeAppAssisted))

	link, ok := res.Fabric.Link("backbone")
	if !ok {
		t.Fatal("no backbone link in fabric report")
	}
	if link.BytesSent == 0 {
		t.Fatal("backbone carried no bytes")
	}
	if err := link.ConservationError(); err > float64(link.Transfers) {
		t.Fatalf("byte conservation broken: |settled-sent| = %v over %d transfers", err, link.Transfers)
	}
	if link.Utilization <= 0 || link.Utilization > 1 {
		t.Fatalf("utilization = %v, want (0,1]", link.Utilization)
	}
	if len(res.Fabric.Flows) != len(res.Moves) {
		t.Fatalf("flows = %d, want one per VM", len(res.Fabric.Flows))
	}

	snap := res.Obs.FleetMetrics().Snapshot()
	sent, ok := snap.Counter("fabric.backbone.bytes_sent")
	if !ok {
		t.Fatal("fleet registry missing fabric.backbone.bytes_sent")
	}
	if uint64(sent) != link.BytesSent {
		t.Fatalf("fleet counter says %d bytes, fabric report says %d", sent, link.BytesSent)
	}
	// Each VM's port counts its own net.* traffic in the VM's registry;
	// summed across planes they must cover every flow's bytes exactly. The
	// engine counts into the same per-VM registry.
	var netSent int64
	for i, plane := range res.Obs.VMs() {
		snap := plane.Metrics.Snapshot()
		v, ok := snap.Counter("net.bytes_sent")
		if !ok {
			t.Fatalf("VM %s registry missing net.bytes_sent", res.Moves[i].Name)
		}
		netSent += v
		var pages uint64
		for _, it := range res.Moves[i].Report.Iterations {
			pages += it.PagesSent
		}
		if got, ok := snap.Counter("migration.pages_sent"); !ok || uint64(got) != pages {
			t.Fatalf("VM %s registry says %d pages sent (present %v), report says %d",
				res.Moves[i].Name, got, ok, pages)
		}
	}
	var flowSum uint64
	for _, f := range res.Fabric.Flows {
		flowSum += f.BytesSent
	}
	if uint64(netSent) != flowSum {
		t.Fatalf("net.bytes_sent = %d, per-flow sum = %d", netSent, flowSum)
	}
}

// The live progress stream: every VM's plane captures a complete phased
// stream, the same points fan out through OnProgress tagged with the right
// VM names, and delivery is in virtual-time order.
func TestFleetProgressStream(t *testing.T) {
	type tagged struct {
		vm string
		p  migration.Progress
	}
	var live []tagged
	opts := obsOpts(t, migration.ModeAppAssisted)
	opts.OnProgress = func(vm string, p migration.Progress) {
		live = append(live, tagged{vm, p})
	}
	res := mustRunObs(t, opts)

	byVM := make(map[string]int)
	var lastAt time.Duration
	for i, e := range live {
		byVM[e.vm]++
		if e.p.At < lastAt {
			t.Fatalf("live point %d out of order: %v after %v", i, e.p.At, lastAt)
		}
		lastAt = e.p.At
	}
	for i, plane := range res.Obs.VMs() {
		name := res.Moves[i].Name
		stream := plane.Progress()
		if len(stream) < 3 {
			t.Fatalf("VM %s captured only %d progress points", name, len(stream))
		}
		if byVM[name] != len(stream) {
			t.Fatalf("VM %s: %d live points, %d captured", name, byVM[name], len(stream))
		}
		if stream[0].Phase != migration.ProgressStart {
			t.Fatalf("VM %s stream starts with %q", name, stream[0].Phase)
		}
		last := stream[len(stream)-1]
		if last.Phase != migration.ProgressDone {
			t.Fatalf("VM %s stream ends with %q", name, last.Phase)
		}
		rep := res.Moves[i].Report
		if last.BytesSent != rep.TotalBytes() {
			t.Fatalf("VM %s final progress says %d bytes, report says %d",
				name, last.BytesSent, rep.TotalBytes())
		}
		for _, p := range stream {
			if p.VM != name {
				t.Fatalf("VM %s stream carries point for %q", name, p.VM)
			}
			if p.ETA < 0 || p.ETA > migration.MaxETA {
				t.Fatalf("VM %s ETA out of range: %v", name, p.ETA)
			}
		}
	}

	// Without the collector, the direct OnProgress path delivers the same
	// per-VM streams.
	var direct []tagged
	opts2 := obsOpts(t, migration.ModeAppAssisted)
	opts2.Collect = false
	opts2.OnProgress = func(vm string, p migration.Progress) {
		direct = append(direct, tagged{vm, p})
	}
	if _, err := Orchestrate(opts2); err != nil {
		t.Fatal(err)
	}
	if len(direct) != len(live) {
		t.Fatalf("direct path delivered %d points, collector path %d", len(direct), len(live))
	}
	for i := range direct {
		if direct[i].vm != live[i].vm || direct[i].p != live[i].p {
			t.Fatalf("streams diverge at %d:\n%v %+v\n%v %+v",
				i, direct[i].vm, direct[i].p, live[i].vm, live[i].p)
		}
	}
}

// SLA pricing rides the run: every VM gets a cost that reconciles against a
// freshly built attribution tick-for-tick, and the fleet aggregate
// re-derives from its rows.
func TestFleetSLAReconciles(t *testing.T) {
	for _, mode := range []migration.Mode{migration.ModeVanilla, migration.ModeAppAssisted} {
		t.Run(mode.String(), func(t *testing.T) {
			m := sla.Default()
			opts := obsOpts(t, mode)
			opts.SLA = &m
			res := mustRunObs(t, opts)
			if res.SLA == nil {
				t.Fatal("no fleet SLA aggregate")
			}
			if len(res.SLA.PerVM) != len(res.Moves) {
				t.Fatalf("priced %d VMs, fleet has %d", len(res.SLA.PerVM), len(res.Moves))
			}
			if err := res.SLA.Reconcile(); err != nil {
				t.Fatal(err)
			}
			for i := range res.Moves {
				r := &res.Moves[i]
				if r.SLACost == nil {
					t.Fatalf("VM %s has no SLA cost", r.Name)
				}
				if len(r.Samples) == 0 {
					t.Fatalf("VM %s has no workload samples", r.Name)
				}
				led := res.Obs.VMs()[i].Ledger
				a := attrib.Build(r.Report, r.EnforcedGC, led)
				if err := a.Reconcile(r.Report); err != nil {
					t.Fatal(err)
				}
				if r.SLACost.WorkloadDowntime != a.WorkloadDowntime {
					t.Fatalf("VM %s cost prices %v downtime, attribution says %v",
						r.Name, r.SLACost.WorkloadDowntime, a.WorkloadDowntime)
				}
				if err := r.SLACost.Reconcile(m, a, r.Samples); err != nil {
					t.Fatal(err)
				}
				if r.SLACost.Total <= 0 {
					t.Fatalf("VM %s priced at %v", r.Name, r.SLACost.Total)
				}
			}
			if res.SLA.WorstVM == "" {
				t.Fatal("no worst VM named")
			}
		})
	}
}
