package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"io"

	"javmm"
	"javmm/internal/obs/perf"
)

// base returns the quick-test option set; cases tweak what they care about.
func base() options {
	return options{
		Run:       true,
		Format:    "table",
		TopN:      5,
		Workload:  "derby",
		Mode:      "javmm",
		MemMiB:    2048,
		Bandwidth: javmm.GigabitEthernet,
		Warmup:    30 * time.Second,
		Seed:      1,
		Collector: "parallel",
	}
}

func TestRunModeTables(t *testing.T) {
	var buf bytes.Buffer
	if err := run(base(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Downtime attribution",
		"workload downtime",
		"enforced-gc",
		"Iteration series",
		"Ledger summary",
		"Traffic by send reason",
		"bitmap-skip",
		"Integrity and resume",
		"pages audited",
		"rolling digest",
		"Top 5 hottest pages",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("run-mode output missing %q", want)
		}
	}
}

func TestRunModeCorruptionRepairRows(t *testing.T) {
	o := base()
	o.Faults = []string{"corrupt-page-stream#40,count=3"}
	var buf bytes.Buffer
	if err := run(o, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"digest mismatches",
		"repairs",
		"repair traffic",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("corrupting run output missing %q:\n%s", want, out)
		}
	}
}

func TestRunModePostCopyFaultStalls(t *testing.T) {
	o := base()
	o.Mode = "post-copy"
	var buf bytes.Buffer
	if err := run(o, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Demand-fault stalls") {
		t.Errorf("post-copy output missing fault-stall quantile summary:\n%s", out)
	}
	if !strings.Contains(out, "demand-fault") {
		t.Errorf("post-copy output missing demand-fault traffic row")
	}
}

// TestRunModeDeterministic is the acceptance criterion: two same-seed runs
// must produce byte-identical analyzer output, in both formats.
func TestRunModeDeterministic(t *testing.T) {
	for _, format := range []string{"table", "csv"} {
		o := base()
		o.Mode = "hybrid"
		o.Format = format
		var a, b bytes.Buffer
		if err := run(o, &a); err != nil {
			t.Fatal(err)
		}
		if err := run(o, &b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("format %s: same-seed runs differ", format)
		}
		if a.Len() == 0 {
			t.Errorf("format %s: empty output", format)
		}
	}
}

func TestCSVFormat(t *testing.T) {
	o := base()
	o.Format = "csv"
	var buf bytes.Buffer
	if err := run(o, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "# Downtime attribution") {
		t.Errorf("csv output missing table title comment")
	}
	if !strings.Contains(out, "component,time,ns,share") {
		t.Errorf("csv output missing CSV header row:\n%s", out[:min(len(out), 600)])
	}
}

func TestTraceAndMetricsModes(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.jsonl")
	metricsPath := filepath.Join(dir, "metrics.json")

	o := base()
	o.TraceOut = tracePath
	o.MetricsOut = metricsPath
	if err := run(o, new(bytes.Buffer)); err != nil {
		t.Fatal(err)
	}

	var traceBuf bytes.Buffer
	if err := run(options{TracePath: tracePath, Format: "table", TopN: 5}, &traceBuf); err != nil {
		t.Fatal(err)
	}
	out := traceBuf.String()
	for _, want := range []string{"Events by kind", "Spans by track and name", "migration.run", "vm-paused"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace-mode output missing %q:\n%s", want, out)
		}
	}

	var metricsBuf bytes.Buffer
	if err := run(options{MetricsPath: metricsPath, Format: "table", TopN: 5}, &metricsBuf); err != nil {
		t.Fatal(err)
	}
	out = metricsBuf.String()
	for _, want := range []string{"Counters", "migration.bytes_on_wire", "Histograms", "p95"} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics-mode output missing %q", want)
		}
	}

	var promBuf bytes.Buffer
	if err := run(options{MetricsPath: metricsPath, Prom: true, Format: "table", TopN: 5}, &promBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(promBuf.String(), "# TYPE javmm_migration_bytes_on_wire counter") {
		t.Errorf("prom output missing typed counter line:\n%s", promBuf.String()[:min(promBuf.Len(), 400)])
	}
}

func TestSourceSelection(t *testing.T) {
	if err := run(options{Format: "table"}, new(bytes.Buffer)); err == nil {
		t.Error("no source chosen: want error")
	}
	if err := run(options{Run: true, TracePath: "x", Format: "table"}, new(bytes.Buffer)); err == nil {
		t.Error("two sources chosen: want error")
	}
	if err := run(options{Run: true, Format: "xml"}, new(bytes.Buffer)); err == nil {
		t.Error("bad format: want error")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestRunModeDegradedVisible(t *testing.T) {
	o := base()
	o.Faults = []string{"lkm.handshake"}
	o.FaultSeed = 1
	var buf bytes.Buffer
	if err := run(o, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "mode=xen (degraded from javmm)") {
		t.Fatalf("header does not show effective mode:\n%s", out)
	}
	if !strings.Contains(out, "DEGRADED javmm -> xen") {
		t.Fatalf("attribution notes do not show degradation:\n%s", out)
	}
	// A degraded run charges neither assisted component; the attribution
	// still reconciled (run() would have failed otherwise).
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "enforced-gc") || strings.HasPrefix(line, "final-update") {
			if !strings.Contains(line, "0 µs") {
				t.Errorf("degraded run charges assisted component: %q", line)
			}
		}
	}
}

func TestRunModeAbortReported(t *testing.T) {
	o := base()
	o.Mode = "xen"
	o.Faults = []string{"dest.crash@2s"}
	var buf bytes.Buffer
	if err := run(o, &buf); err == nil {
		t.Fatal("crashed-destination run succeeded")
	}
	if !strings.Contains(buf.String(), "run ABORTED") {
		t.Fatalf("abort banner missing:\n%s", buf.String())
	}
}

// TestJSONOutput covers the -json machine format: schema-versioned, shares
// the bench Deterministic block, round-trips emit -> parse -> emit
// byte-identically, and is itself deterministic across independent runs.
func TestJSONOutput(t *testing.T) {
	o := base()
	o.JSON = true
	var first bytes.Buffer
	if err := run(o, &first); err != nil {
		t.Fatal(err)
	}
	doc, err := perf.ReadAnalyzeDoc(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("parsing -json output: %v", err)
	}
	if doc.Schema != perf.AnalyzeSchemaVersion {
		t.Fatalf("schema = %q", doc.Schema)
	}
	d := doc.Deterministic
	if d.Mode != "javmm" || d.Workload != "derby" || d.Codec != "raw" {
		t.Fatalf("labels = %s/%s/%s", d.Mode, d.Workload, d.Codec)
	}
	if d.PagesSent == 0 || d.TotalVirtualNs == 0 {
		t.Fatalf("empty deterministic block: %+v", d)
	}
	if len(doc.Components) == 0 {
		t.Fatal("no downtime components")
	}
	if _, ok := doc.Components["enforced-gc"]; !ok {
		t.Fatalf("assisted run missing enforced-gc component: %v", doc.Components)
	}
	// Components must sum to the workload downtime exactly (the attribution
	// reconciles, and the JSON carries the same numbers).
	var sum int64
	for _, ns := range doc.Components {
		sum += ns
	}
	if sum != d.WorkloadDowntimeNs {
		t.Fatalf("components sum %d != workload downtime %d", sum, d.WorkloadDowntimeNs)
	}

	// Round trip: parse -> re-emit is byte-identical.
	var again bytes.Buffer
	if err := perf.WriteAnalyzeDoc(&again, doc); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), again.Bytes()) {
		t.Fatal("emit -> parse -> emit did not round-trip byte-identically")
	}

	// Deterministic: an independent identical run emits identical bytes.
	var second bytes.Buffer
	if err := run(o, &second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("-json output not deterministic across identical runs")
	}
}

func TestJSONRequiresRun(t *testing.T) {
	o := base()
	o.Run = false
	o.MetricsPath = "whatever.json"
	o.JSON = true
	if err := run(o, io.Discard); err == nil || !strings.Contains(err.Error(), "-json requires -run") {
		t.Fatalf("err = %v, want -json requires -run", err)
	}
}

// -heal ingests a healing summary, reconciles the ledger's resume-refetch
// bucket against the resume plans' queued refetches, and renders the Healing
// table (and the Prometheus page with -prom).
func TestHealMode(t *testing.T) {
	// A real healed plan: the preferred destination is down, the move
	// relocates on its second attempt.
	res, err := javmm.Orchestrate(javmm.OrchestratorOptions{
		Cluster:   mustCluster(t, "host src ram 64G; host d1 ram 64G; host d2 ram 64G; vm fv0 on src workload mpeg mem 512M"),
		Plan:      mustPlan(t, "evacuate host src"),
		Mode:      javmm.ModeXen,
		Seed:      1,
		Ordering:  javmm.OrderAdmission,
		Admission: javmm.AdmissionPolicy{MaxPerLink: 1, MaxPerHost: 1},
		Warmup:    2 * time.Second,
		FaultPlan: mustFaultPlan(t, "host.crash@0s,for=10m,host=d1"),
		Retry:     javmm.RetryPolicy{Enabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "heal.json")
	if err := res.Healing().WriteJSON(path); err != nil {
		t.Fatal(err)
	}

	o := options{Format: "table", HealPath: path}
	var buf bytes.Buffer
	if err := run(o, &buf); err != nil {
		t.Fatalf("heal mode failed: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{"Healing", "relocated", "src->d2", "totals: 1 retries, 1 relocations"} {
		if !strings.Contains(out, want) {
			t.Fatalf("heal table missing %q:\n%s", want, out)
		}
	}

	buf.Reset()
	o.Prom = true
	if err := run(o, &buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"javmm_heal_relocations_total 1", `javmm_heal_move_attempts{vm="fv0",outcome="relocated"} 2`} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("heal prom page missing %q:\n%s", want, buf.String())
		}
	}

	// A summary whose ledger tags more resume sends than any resume plan
	// queued cannot reconcile.
	hs, err := javmm.ReadHealingSummary(path)
	if err != nil {
		t.Fatal(err)
	}
	hs.Moves[0].LedgerResumeSends = hs.Moves[0].RefetchPages + 1
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := hs.WriteJSON(bad); err != nil {
		t.Fatal(err)
	}
	if err := run(options{Format: "table", HealPath: bad}, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "reconcile") {
		t.Fatalf("err = %v, want reconciliation failure", err)
	}
}

func mustCluster(t *testing.T, s string) *javmm.Cluster {
	t.Helper()
	c, err := javmm.ParseCluster(s)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func mustPlan(t *testing.T, s string) *javmm.MigrationPlan {
	t.Helper()
	p, err := javmm.ParseMigrationPlan(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustFaultPlan(t *testing.T, rules ...string) javmm.FaultPlan {
	t.Helper()
	p, err := javmm.ParseFaultPlan(rules)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
