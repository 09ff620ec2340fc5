package perf

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestNilProfilerIsNoop(t *testing.T) {
	var p *Profiler
	p.Enter(StageSkipPolicy)
	p.Exit()
	if got := p.Snapshot(); got != nil {
		t.Fatalf("nil profiler Snapshot = %v, want nil", got)
	}
	if got := p.SelfTotal(); got != 0 {
		t.Fatalf("nil profiler SelfTotal = %v, want 0", got)
	}
}

func TestProfilerCountsAndStageNames(t *testing.T) {
	p := NewProfiler()
	for i := 0; i < 3; i++ {
		p.Enter(StageWireCodec)
		p.Exit()
	}
	p.Enter(StagePageSink)
	p.Exit()
	stats := p.Snapshot()
	if len(stats) != 2 {
		t.Fatalf("got %d stages, want 2: %+v", len(stats), stats)
	}
	// Canonical order: wire-codec (1) before page-sink (4).
	if stats[0].Stage != "wire-codec" || stats[0].Calls != 3 {
		t.Errorf("stats[0] = %+v, want wire-codec x3", stats[0])
	}
	if stats[1].Stage != "page-sink" || stats[1].Calls != 1 {
		t.Errorf("stats[1] = %+v, want page-sink x1", stats[1])
	}
}

func TestProfilerSelfTimeExcludesNested(t *testing.T) {
	p := NewProfiler()
	p.Enter(StageDigestAudit)
	busyWait(2 * time.Millisecond)
	p.Enter(StageWireCodec)
	busyWait(10 * time.Millisecond)
	p.Exit()
	busyWait(2 * time.Millisecond)
	p.Exit()

	stats := p.Snapshot()
	var audit, codec StageStats
	for _, s := range stats {
		switch s.Stage {
		case "digest-audit":
			audit = s
		case "wire-codec":
			codec = s
		}
	}
	if audit.TotalNs <= codec.TotalNs {
		t.Errorf("audit total %d should exceed nested codec total %d", audit.TotalNs, codec.TotalNs)
	}
	// The audit stage itself only busy-waited ~4ms; the nested codec
	// ~10ms. Self-time must strip the nested portion.
	if audit.SelfNs >= codec.SelfNs {
		t.Errorf("audit self %d should be below codec self %d after nesting subtraction",
			audit.SelfNs, codec.SelfNs)
	}
	if sum := audit.SelfNs + codec.SelfNs; sum > audit.TotalNs {
		t.Errorf("self times (%d) exceed outer total (%d): not additive", sum, audit.TotalNs)
	}
	if got := p.SelfTotal().Nanoseconds(); got != audit.SelfNs+codec.SelfNs {
		t.Errorf("SelfTotal = %d, want %d", got, audit.SelfNs+codec.SelfNs)
	}
}

func busyWait(d time.Duration) {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
	}
}

func TestProfilerAllocTracking(t *testing.T) {
	p := NewProfiler(WithAllocs())
	var sink [][]byte
	// Objects above the runtime's 32 KiB small-object limit are booked when
	// they are allocated; small ones only when their span leaves the P's
	// cache (see WithAllocs). Large objects make the bound below test
	// attribution rather than cache state.
	p.Enter(StagePageSink)
	for i := 0; i < 4; i++ {
		sink = append(sink, make([]byte, 64<<10))
	}
	p.Exit()
	_ = sink
	stats := p.Snapshot()
	if len(stats) != 1 {
		t.Fatalf("got %d stages, want 1", len(stats))
	}
	if stats[0].SelfAllocBytes < 64*4096 {
		t.Errorf("SelfAllocBytes = %d, want >= %d", stats[0].SelfAllocBytes, 64*4096)
	}
}

func TestProfilerExitOnEmptyStack(t *testing.T) {
	p := NewProfiler()
	p.Exit() // must not panic
	if got := len(p.Snapshot()); got != 0 {
		t.Fatalf("spurious stage recorded: %d", got)
	}
}

func TestStageStringStable(t *testing.T) {
	want := []string{
		"skip-policy", "wire-codec", "stop-policy", "suspension-protocol",
		"page-sink", "lazy-fetch", "digest-audit",
	}
	stages := Stages()
	if len(stages) != len(want) {
		t.Fatalf("Stages() has %d entries, want %d", len(stages), len(want))
	}
	for i, s := range stages {
		if s.String() != want[i] {
			t.Errorf("stage %d = %q, want %q", i, s, want[i])
		}
	}
	if Stage(200).String() != "unknown" {
		t.Errorf("out-of-range stage should stringify as unknown")
	}
}

func testSnapshot() *Snapshot {
	return &Snapshot{
		Schema: SchemaVersion,
		Seed:   1,
		Scenarios: []Scenario{
			{
				Name: "e2e/derby/javmm/raw",
				Deterministic: Deterministic{
					Mode: "javmm", Workload: "derby", Codec: "raw",
					TotalVirtualNs: 100e9, VMDowntimeNs: 2e9,
					WorkloadDowntimeNs: 5e9, Iterations: 7,
					PagesSent: 40000, PagesSkipped: 12000,
					BytesOnWire: 40000 * 4096, RollingDigest: "deadbeef",
				},
				Timing: Timing{Runs: 5, NsPerOp: 1e8, AllocBytesPerOp: 1 << 20, AllocsPerOp: 5000, PagesPerSec: 4e5},
				Stages: []StageShare{{Stage: "wire-codec", Calls: 40000, SelfNs: 3e7, TotalNs: 3e7, Share: 0.3}},
			},
			{
				Name: "e2e/derby/xen/raw",
				Deterministic: Deterministic{
					Mode: "xen", Workload: "derby", Codec: "raw",
					TotalVirtualNs: 120e9, VMDowntimeNs: 9e9,
					WorkloadDowntimeNs: 9e9, Iterations: 12,
					PagesSent: 90000, BytesOnWire: 90000 * 4096,
					RollingDigest: "cafebabe",
				},
				Timing: Timing{Runs: 5, NsPerOp: 2e8, AllocBytesPerOp: 2 << 20, AllocsPerOp: 9000, PagesPerSec: 4.5e5},
			},
		},
		Kernels: []Kernel{
			{
				Name:          "kernel/mem/page-digest-4k",
				Deterministic: map[string]int64{"digest": 12345},
				Timing:        Timing{Runs: 7, NsPerOp: 900, AllocBytesPerOp: 0, AllocsPerOp: 0},
			},
		},
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := testSnapshot()
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := WriteSnapshot(&buf2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Errorf("write -> read -> write not byte-identical:\n%s\nvs\n%s", buf.Bytes(), buf2.Bytes())
	}
}

func TestReadSnapshotRejectsWrongSchema(t *testing.T) {
	_, err := ReadSnapshot(strings.NewReader(`{"schema":"javmm-bench/v0","seed":1,"scenarios":[],"kernels":[]}`))
	if err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("want schema error, got %v", err)
	}
}

func TestDeterministicBytesIgnoresTiming(t *testing.T) {
	a := testSnapshot()
	b := testSnapshot()
	// Perturb only timing: deterministic bytes must not move.
	b.Scenarios[0].Timing.NsPerOp *= 3
	b.Kernels[0].Timing.AllocsPerOp = 999
	b.Scenarios[0].Stages[0].SelfNs = 1
	if !bytes.Equal(a.DeterministicBytes(), b.DeterministicBytes()) {
		t.Errorf("timing perturbation changed deterministic bytes")
	}
	// Perturb a deterministic field: bytes must move.
	b.Scenarios[0].Deterministic.PagesSent++
	if bytes.Equal(a.DeterministicBytes(), b.DeterministicBytes()) {
		t.Errorf("deterministic perturbation did not change deterministic bytes")
	}
}

func TestDeterministicBytesOrderIndependent(t *testing.T) {
	a := testSnapshot()
	b := testSnapshot()
	b.Scenarios[0], b.Scenarios[1] = b.Scenarios[1], b.Scenarios[0]
	if !bytes.Equal(a.DeterministicBytes(), b.DeterministicBytes()) {
		t.Errorf("scenario order changed deterministic bytes")
	}
}

func TestCompareCleanSnapshotsPass(t *testing.T) {
	r := Compare(testSnapshot(), testSnapshot(), DefaultThresholds())
	if !r.OK(false) {
		t.Fatalf("identical snapshots should compare clean: %+v", r)
	}
	if len(r.Drift)+len(r.Missing)+len(r.Regressions)+len(r.Improvements) != 0 {
		t.Fatalf("identical snapshots produced findings: %+v", r)
	}
}

func TestCompareCatchesTimingRegression(t *testing.T) {
	old := testSnapshot()
	new := testSnapshot()
	// +25% ns/op: past the 15% threshold, must regress.
	new.Scenarios[0].Timing.NsPerOp = old.Scenarios[0].Timing.NsPerOp * 5 / 4
	r := Compare(old, new, DefaultThresholds())
	if r.OK(false) {
		t.Fatalf("+25%% ns_per_op not flagged: %+v", r)
	}
	if len(r.Regressions) != 1 || r.Regressions[0].Metric != "ns_per_op" {
		t.Fatalf("regressions = %+v, want one ns_per_op", r.Regressions)
	}
	// Report-only tolerates timing regressions.
	if !r.OK(true) {
		t.Errorf("report-only should tolerate timing regressions")
	}
}

func TestCompareNsNoiseFloor(t *testing.T) {
	// A 2ns -> 3ns wobble is integer-granularity noise, not a +50%
	// regression: below MinNsPerOp the ns_per_op judgment is skipped.
	old := testSnapshot()
	new := testSnapshot()
	old.Kernels[0].Timing.NsPerOp = 2
	new.Kernels[0].Timing.NsPerOp = 3
	r := Compare(old, new, DefaultThresholds())
	if !r.OK(false) {
		t.Fatalf("sub-floor ns wobble flagged: %+v", r.Regressions)
	}
	// Crossing the floor re-enables the judgment.
	new.Kernels[0].Timing.NsPerOp = 300
	r = Compare(old, new, DefaultThresholds())
	if len(r.Regressions) != 1 || r.Regressions[0].Metric != "ns_per_op" {
		t.Fatalf("above-floor regression not flagged: %+v", r.Regressions)
	}
}

func TestCompareThroughputDirection(t *testing.T) {
	old := testSnapshot()
	new := testSnapshot()
	// pages/sec dropping 25% is a regression even though the number shrank.
	new.Scenarios[0].Timing.PagesPerSec = old.Scenarios[0].Timing.PagesPerSec * 0.75
	r := Compare(old, new, DefaultThresholds())
	if len(r.Regressions) != 1 || r.Regressions[0].Metric != "pages_per_sec" {
		t.Fatalf("regressions = %+v, want one pages_per_sec", r.Regressions)
	}

	// And rising 25% is an improvement.
	new2 := testSnapshot()
	new2.Scenarios[0].Timing.PagesPerSec = old.Scenarios[0].Timing.PagesPerSec * 1.25
	r2 := Compare(old, new2, DefaultThresholds())
	if len(r2.Regressions) != 0 || len(r2.Improvements) != 1 {
		t.Fatalf("want one improvement, got %+v", r2)
	}
}

func TestCompareDeterministicDriftAlwaysFatal(t *testing.T) {
	old := testSnapshot()
	new := testSnapshot()
	new.Scenarios[1].Deterministic.BytesOnWire += 4096
	r := Compare(old, new, DefaultThresholds())
	if len(r.Drift) != 1 {
		t.Fatalf("drift = %+v, want one entry", r.Drift)
	}
	if r.OK(false) || r.OK(true) {
		t.Fatalf("deterministic drift must fail in both modes")
	}
}

func TestCompareKernelDigestDrift(t *testing.T) {
	old := testSnapshot()
	new := testSnapshot()
	new.Kernels[0].Deterministic["digest"] = 54321
	r := Compare(old, new, DefaultThresholds())
	if len(r.Drift) != 1 || r.Drift[0].Entry != "kernel/mem/page-digest-4k" {
		t.Fatalf("drift = %+v, want kernel digest drift", r.Drift)
	}
	if r.OK(true) {
		t.Fatalf("kernel digest drift must fail even report-only")
	}
}

func TestCompareMissingEntryFatal(t *testing.T) {
	old := testSnapshot()
	new := testSnapshot()
	new.Scenarios = new.Scenarios[:1]
	r := Compare(old, new, DefaultThresholds())
	if len(r.Missing) != 1 || r.Missing[0] != "e2e/derby/xen/raw" {
		t.Fatalf("missing = %v", r.Missing)
	}
	if r.OK(true) {
		t.Fatalf("missing entries must fail even report-only")
	}
}

func TestCompareSeedMismatchIsDrift(t *testing.T) {
	old := testSnapshot()
	new := testSnapshot()
	new.Seed = 2
	r := Compare(old, new, DefaultThresholds())
	if len(r.Drift) == 0 || r.Drift[0].Field != "seed" {
		t.Fatalf("seed mismatch not reported as drift: %+v", r.Drift)
	}
}

func TestCompareNewEntryInformational(t *testing.T) {
	old := testSnapshot()
	new := testSnapshot()
	new.Kernels = append(new.Kernels, Kernel{Name: "kernel/mem/extra", Timing: Timing{Runs: 1, NsPerOp: 10}})
	r := Compare(old, new, DefaultThresholds())
	if !r.OK(false) {
		t.Fatalf("new entries must not fail comparison: %+v", r)
	}
	if len(r.New) != 1 || r.New[0] != "kernel/mem/extra" {
		t.Fatalf("new = %v", r.New)
	}
}

func TestWriteReportMentionsSections(t *testing.T) {
	old := testSnapshot()
	new := testSnapshot()
	new.Scenarios[0].Timing.NsPerOp *= 2
	new.Scenarios[1].Deterministic.PagesSent++
	r := Compare(old, new, DefaultThresholds())
	var buf bytes.Buffer
	WriteReport(&buf, r, true)
	out := buf.String()
	for _, want := range []string{"DETERMINISTIC DRIFT", "TIMING REGRESSIONS", "report-only"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestAnalyzeDocRoundTrip(t *testing.T) {
	d := &AnalyzeDoc{
		Schema: AnalyzeSchemaVersion,
		Source: "workload=derby mode=javmm seed=1",
		Seed:   1,
		Deterministic: Deterministic{
			Mode: "javmm", Workload: "derby", Codec: "raw",
			TotalVirtualNs: 100e9, PagesSent: 40000,
		},
		Components: map[string]int64{"stop-and-copy": 2e9, "handshake": 1e8},
	}
	var buf bytes.Buffer
	if err := WriteAnalyzeDoc(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAnalyzeDoc(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := WriteAnalyzeDoc(&buf2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Errorf("analyze doc round trip not byte-identical:\n%s\nvs\n%s", buf.Bytes(), buf2.Bytes())
	}
}
