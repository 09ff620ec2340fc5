package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"javmm"
	"javmm/internal/chaos"
)

// base returns the quick-test option set; cases tweak what they care about.
func base() options {
	return options{
		Workload:    "derby",
		Mode:        "javmm",
		Collector:   "parallel",
		MemMiB:      2048,
		Bandwidth:   javmm.GigabitEthernet,
		Warmup:      60 * time.Second,
		Seed:        1,
		TraceFormat: "chrome",
		Verify:      true,
	}
}

func TestRunJavmmMode(t *testing.T) {
	o := base()
	o.Verbose = true
	var out bytes.Buffer
	if err := run(o, &out); err != nil {
		t.Fatal(err)
	}
	// -v prints its per-iteration table from the event bus, ending in the
	// marked stop-and-copy row; without -trace nothing is traced to a file.
	if !regexp.MustCompile(`(?m)^\d+ +\* `).MatchString(out.String()) {
		t.Fatalf("no stop-and-copy row in the -v table:\n%s", out.String())
	}
	if strings.Contains(out.String(), "  trace ") {
		t.Fatalf("-v without -trace reported a trace file:\n%s", out.String())
	}
}

func TestRunXenModeWithYoungOverride(t *testing.T) {
	o := base()
	o.Workload = "compiler"
	o.Mode = "xen"
	o.YoungMiB = 512
	if err := run(o, new(bytes.Buffer)); err != nil {
		t.Fatal(err)
	}
}

func TestRunCompression(t *testing.T) {
	o := base()
	o.Workload = "crypto"
	o.Collector = "g1"
	o.MemMiB = 1024
	o.Warmup = 30 * time.Second
	o.YoungMiB = 256
	o.Compress = true
	if err := run(o, new(bytes.Buffer)); err != nil {
		t.Fatal(err)
	}
}

func TestRunPostCopyMode(t *testing.T) {
	o := base()
	o.Mode = "post-copy"
	o.Warmup = 30 * time.Second
	var buf bytes.Buffer
	if err := run(o, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"migration complete (post-copy)",
		"demand faults",
		"fully resident at",
		"verification        n/a",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("post-copy output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "destination pages match") {
		t.Fatal("post-copy run claimed store-equality verification")
	}
}

func TestRunHybridMode(t *testing.T) {
	o := base()
	o.Mode = "hybrid"
	o.Warmup = 30 * time.Second
	var buf bytes.Buffer
	if err := run(o, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"migration complete (hybrid)",
		"warm-phase resident",
		"fully resident at",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("hybrid output missing %q:\n%s", want, out)
		}
	}
}

func TestRunRejectsUnknownWorkload(t *testing.T) {
	o := base()
	o.Workload = "nosuch"
	if err := run(o, new(bytes.Buffer)); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestRunRejectsUnknownMode(t *testing.T) {
	o := base()
	o.Mode = "warp"
	if err := run(o, new(bytes.Buffer)); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

func TestRunRejectsUnknownTraceFormat(t *testing.T) {
	o := base()
	o.TraceFormat = "xml"
	if err := run(o, new(bytes.Buffer)); err == nil {
		t.Fatal("unknown trace format accepted")
	}
}

func TestRunWritesChromeTrace(t *testing.T) {
	o := base()
	o.Warmup = 30 * time.Second
	o.TracePath = filepath.Join(t.TempDir(), "out.json")
	if err := run(o, new(bytes.Buffer)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(o.TracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace is not valid chrome JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}
	for i, e := range doc.TraceEvents {
		for _, k := range []string{"name", "ph", "ts", "pid", "tid"} {
			if _, ok := e[k]; !ok {
				t.Fatalf("traceEvent %d missing %q", i, k)
			}
		}
	}
}

func TestRunWritesJSONLTrace(t *testing.T) {
	o := base()
	o.Warmup = 30 * time.Second
	o.TracePath = filepath.Join(t.TempDir(), "out.jsonl")
	o.TraceFormat = "jsonl"
	if err := run(o, new(bytes.Buffer)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(o.TracePath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) == 0 {
		t.Fatal("empty trace")
	}
	for i, ln := range lines {
		var obj map[string]any
		if err := json.Unmarshal([]byte(ln), &obj); err != nil {
			t.Fatalf("line %d invalid: %v", i, err)
		}
	}
}

func TestRunMetricsSummary(t *testing.T) {
	o := base()
	o.Warmup = 30 * time.Second
	o.Metrics = true
	var buf bytes.Buffer
	if err := run(o, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"metrics at ", "migration.pages_sent", "jvm.gc.minor", "net.bytes_sent"} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics summary missing %q:\n%s", want, out)
		}
	}
}

// -stage-profile prints the probe it took before the run and nets it out of
// every row, so the shares of the profiled time still sum to at most 100%.
func TestRunStageProfileSubtractsProbe(t *testing.T) {
	o := base()
	o.Warmup = 30 * time.Second
	o.StageProfile = true
	var buf bytes.Buffer
	if err := run(o, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !regexp.MustCompile(`(?m)^  probe: \d+ ns of self time per Enter/Exit pair`).MatchString(out) {
		t.Fatalf("no probe line in the stage profile:\n%s", out)
	}
	rows := regexp.MustCompile(`(?m)^  [a-z-]+ +\d+ .* (\d+\.\d)%$`).FindAllStringSubmatch(out, -1)
	if len(rows) == 0 {
		t.Fatalf("no stage rows in the stage profile:\n%s", out)
	}
	sum := 0.0
	for _, r := range rows {
		share, err := strconv.ParseFloat(r[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		sum += share
	}
	// Each share is rounded to 0.1%, so allow half a step per row.
	if sum > 100+0.05*float64(len(rows)) {
		t.Fatalf("stage shares sum to %.1f%%:\n%s", sum, out)
	}
}

func TestRunWritesMetricsSnapshot(t *testing.T) {
	o := base()
	o.Warmup = 30 * time.Second
	o.MetricsOut = filepath.Join(t.TempDir(), "metrics.json")
	var buf bytes.Buffer
	if err := run(o, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "metrics snapshot") {
		t.Fatal("report does not mention the written snapshot")
	}
	f, err := os.Open(o.MetricsOut)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	snap, err := javmm.ReadMetricsJSON(f)
	if err != nil {
		t.Fatalf("snapshot does not read back: %v", err)
	}
	if _, ok := snap.Counter("migration.pages_sent"); !ok {
		t.Fatal("snapshot missing migration.pages_sent")
	}
}

func TestRunFaultDegradesToXen(t *testing.T) {
	o := base()
	o.Warmup = 30 * time.Second
	o.Faults = []string{"lkm.handshake"}
	o.FaultSeed = 1
	var buf bytes.Buffer
	if err := run(o, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "migration complete (xen)") {
		t.Fatalf("degraded run did not complete with xen semantics:\n%s", out)
	}
	if !strings.Contains(out, "DEGRADED") || !strings.Contains(out, "javmm -> xen") {
		t.Fatalf("degrade record missing from report:\n%s", out)
	}
	if !strings.Contains(out, "faults injected") {
		t.Fatalf("fault audit missing from report:\n%s", out)
	}
}

func TestRunFaultRetriesThroughPartition(t *testing.T) {
	o := base()
	o.Mode = "xen"
	o.Warmup = 30 * time.Second
	o.Faults = []string{"link.partition@2s,for=100ms"}
	var buf bytes.Buffer
	if err := run(o, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "migration complete (xen)") {
		t.Fatalf("run with healed partition did not complete:\n%s", out)
	}
	if !strings.Contains(out, "retries") {
		t.Fatalf("retry record missing from report:\n%s", out)
	}
}

func TestRunFaultAbortReportsRollback(t *testing.T) {
	o := base()
	o.Mode = "xen"
	o.Warmup = 30 * time.Second
	o.Faults = []string{"dest.crash@2s"}
	var buf bytes.Buffer
	err := run(o, &buf)
	if err == nil {
		t.Fatal("crashed-destination run succeeded")
	}
	out := buf.String()
	if !strings.Contains(out, "migration ABORTED") {
		t.Fatalf("abort banner missing:\n%s", out)
	}
	if !strings.Contains(out, "source VM           resumed") ||
		!strings.Contains(out, "destination         discarded") {
		t.Fatalf("rollback summary missing:\n%s", out)
	}
}

func TestRunResumeAfterAbort(t *testing.T) {
	o := base()
	o.Warmup = 30 * time.Second
	o.Faults = []string{"dest.receive#100,count=1000000"}
	o.Resume = true
	var buf bytes.Buffer
	if err := run(o, &buf); err != nil {
		t.Fatalf("resumed run failed: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{
		"migration ABORTED",
		"destination         kept (resume token minted)",
		"resuming from token",
		"resume              trusted",
		"migration complete",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("resume output missing %q:\n%s", want, out)
		}
	}
}

func TestRunVerifyAuditsCorruption(t *testing.T) {
	o := base()
	o.Warmup = 30 * time.Second
	o.Faults = []string{"corrupt-page-stream#40,count=3"}
	var buf bytes.Buffer
	if err := run(o, &buf); err != nil {
		t.Fatalf("corrupting run failed under -verify: %v\n%s", err, buf.String())
	}
	if out := buf.String(); !strings.Contains(out, "integrity           ") {
		t.Fatalf("integrity audit line missing:\n%s", out)
	}
}

func TestRunVerifyDisabledNote(t *testing.T) {
	o := base()
	o.Warmup = 30 * time.Second
	o.Verify = false
	var buf bytes.Buffer
	if err := run(o, &buf); err != nil {
		t.Fatal(err)
	}
	if out := buf.String(); !strings.Contains(out, "integrity           DISABLED") {
		t.Fatalf("ablation note missing:\n%s", out)
	}
}

func TestRunRejectsBadFaultSpec(t *testing.T) {
	o := base()
	o.Faults = []string{"no.such.site"}
	if err := run(o, new(bytes.Buffer)); err == nil {
		t.Fatal("bad fault spec accepted")
	}
}

// planCluster is a small evacuation topology for the -plan tests: two VMs on
// one source, disjoint quiet windows so a cycle-aware run launches both quiet.
const planCluster = "host a ram 64G; host b ram 64G; host c ram 64G; " +
	"vm v1 on a workload mpeg mem 512M cycle 30s/10s/15s/0.1; " +
	"vm v2 on a workload compress mem 512M cycle 30s/10s/15s/0.1/15s"

func TestRunPlanCycleAware(t *testing.T) {
	o := base()
	o.Cluster = planCluster
	o.Plan = "evacuate host a"
	o.Ordering = "cycle-aware"
	o.MaxPerLink = 2
	o.MaxPerHost = 2
	o.Warmup = 5 * time.Second
	o.SLA = true
	var buf bytes.Buffer
	if err := run(o, &buf); err != nil {
		t.Fatalf("plan run failed: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{
		`orchestrating "evacuate host a"`,
		"wl-downtime",
		"v1", "v2", "a->",
		"OK (quiet)",
		"plan makespan",
		"admission verified: caps (link=2 host=2) never over-committed",
		"utilization",
		"SLA cost (default model): fleet",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("plan output missing %q:\n%s", want, out)
		}
	}
}

func TestRunPlanRejectsIncompleteSpec(t *testing.T) {
	o := base()
	o.Plan = "evacuate host a"
	if err := run(o, new(bytes.Buffer)); err == nil {
		t.Fatal("-plan without -cluster accepted")
	}
	o = base()
	o.Cluster = planCluster
	if err := run(o, new(bytes.Buffer)); err == nil {
		t.Fatal("-cluster without -plan accepted")
	}
}

// Every directive the -plan help quotes must parse as written: the help is
// the grammar's reference on the command line.
func TestPlanUsageDirectivesParse(t *testing.T) {
	var o options
	fs := flag.NewFlagSet("javmm-migrate", flag.ContinueOnError)
	defineFlags(fs, &o)
	usage := fs.Lookup("plan").Usage
	quoted := strings.Split(usage, "'")
	if len(quoted) < 3 || len(quoted)%2 != 1 {
		t.Fatalf("-plan usage quotes no directives, or an odd number of quotes: %q", usage)
	}
	for i := 1; i < len(quoted); i += 2 {
		if _, err := javmm.ParseMigrationPlan(quoted[i]); err != nil {
			t.Errorf("-plan usage directive %q does not parse: %v", quoted[i], err)
		}
	}
}

func TestRunPlanRejectsBadOrdering(t *testing.T) {
	o := base()
	o.Cluster = planCluster
	o.Plan = "evacuate host a"
	o.Ordering = "chaotic"
	if err := run(o, new(bytes.Buffer)); err == nil {
		t.Fatal("unknown ordering accepted")
	}
}

func TestRunPlanRejectsPeers(t *testing.T) {
	o := base()
	o.Cluster = planCluster
	o.Plan = "evacuate host a"
	o.Ordering = "naive"
	o.Peers = 2
	if err := run(o, new(bytes.Buffer)); err == nil {
		t.Fatal("-plan composed with -peers")
	}
}

// The fleet chaos search promises that FleetViolation.Repro() is the exact
// javmm-migrate argument list that replays the shrunk fault plan. Prove it:
// parse the repro through the real flag definitions and run it — the replay
// must reproduce the planted integrity violation (a completed move whose
// image diverged because the audit was disabled).
func TestRunPlanReplaysChaosRepro(t *testing.T) {
	res := chaos.SearchFleet(chaos.FleetOptions{Seed: 1, Plans: 64, DisableIntegrityAudit: true})
	v := res.Violation
	if v == nil {
		t.Fatal("fleet search with the audit disabled found no violation to replay")
	}
	var o options
	fs := flag.NewFlagSet("javmm-migrate", flag.ContinueOnError)
	defineFlags(fs, &o)
	if err := fs.Parse(v.Repro()); err != nil {
		t.Fatalf("repro args do not parse through the CLI flag set: %v\nargs: %v", err, v.Repro())
	}
	var buf bytes.Buffer
	err := run(o, &buf)
	if err == nil {
		t.Fatalf("repro replay did not reproduce the violation %q:\n%s", v.Invariant, buf.String())
	}
	if out := buf.String(); !strings.Contains(out, "VERIFY FAILED") {
		t.Fatalf("replay output missing the verification failure (run err: %v):\n%s", err, out)
	}
}

// The healing twin of TestRunPlanReplaysChaosRepro: a violation found by the
// healing search carries the -retry/-max-attempts/-move-deadline/
// -plan-deadline/-breaker flags, parses through the real flag definitions,
// and replays to the same planted verification failure with healing on.
func TestRunPlanReplaysHealChaosRepro(t *testing.T) {
	res := chaos.SearchFleet(chaos.FleetOptions{Seed: 2, Plans: 64, Heal: true, DisableIntegrityAudit: true})
	v := res.Violation
	if v == nil {
		t.Fatal("healing search with the audit disabled found no violation to replay")
	}
	var o options
	fs := flag.NewFlagSet("javmm-migrate", flag.ContinueOnError)
	defineFlags(fs, &o)
	if err := fs.Parse(v.Repro()); err != nil {
		t.Fatalf("healing repro args do not parse through the CLI flag set: %v\nargs: %v", err, v.Repro())
	}
	if !o.Retry {
		t.Fatalf("healing repro did not set -retry: %v", v.Repro())
	}
	var buf bytes.Buffer
	err := run(o, &buf)
	if err == nil {
		t.Fatalf("healing repro replay did not reproduce the violation %q:\n%s", v.Invariant, buf.String())
	}
	if out := buf.String(); !strings.Contains(out, "VERIFY FAILED") || !strings.Contains(out, "healing:") {
		t.Fatalf("replay output missing the verification failure or healing summary (run err: %v):\n%s", err, out)
	}
}

// -retry surfaces the healing outcome table: a host crash on the preferred
// destination relocates the move, the status column says so, and -heal-out
// round-trips the summary JSON.
func TestRunPlanRetryHealsHostCrash(t *testing.T) {
	o := base()
	o.Cluster = "host src ram 64G; host d1 ram 64G; host d2 ram 64G; vm fv0 on src workload mpeg mem 512M"
	o.Plan = "evacuate host src"
	o.Ordering = "admission"
	o.MaxPerLink = 1
	o.MaxPerHost = 1
	o.Warmup = 2 * time.Second
	o.Mode = "xen"
	o.Retry = true
	o.Relocate = true
	o.Faults = []string{"host.crash@0s,for=10m,host=d1"}
	o.HealOut = filepath.Join(t.TempDir(), "heal.json")
	var buf bytes.Buffer
	if err := run(o, &buf); err != nil {
		t.Fatalf("healed plan run failed: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{
		"[relocated, 2 attempt(s)]",
		"healing: 1 retries, 1 relocations",
		"healing summary",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("healed plan output missing %q:\n%s", want, out)
		}
	}
	hs, err := javmm.ReadHealingSummary(o.HealOut)
	if err != nil {
		t.Fatalf("reading healing summary: %v", err)
	}
	if len(hs.Moves) != 1 || hs.Relocations != 1 || hs.Moves[0].Outcome != "relocated" {
		t.Fatalf("healing summary = %+v, want one relocated move", hs)
	}
}

// -heal-out without -retry is a usage error, not a silent no-op.
func TestRunPlanHealOutNeedsRetry(t *testing.T) {
	o := base()
	o.Cluster = planCluster
	o.Plan = "evacuate host a"
	o.Ordering = "admission"
	o.HealOut = "x.json"
	if err := run(o, new(bytes.Buffer)); err == nil || !strings.Contains(err.Error(), "-retry") {
		t.Fatalf("err = %v, want the -heal-out usage error", err)
	}
}
