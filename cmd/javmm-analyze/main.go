// Command javmm-analyze turns a migration's observability exports into
// deterministic attribution tables: where every byte on the wire came from
// (the per-page provenance ledger) and where every tick of downtime went
// (the attribution breakdown). It reconciles byte-for-byte with the
// migration report, so the tables are an audit, not an estimate.
//
// Sources, one of which must be chosen:
//
//	javmm-analyze -run -workload derby -mode javmm     # run and analyze
//	javmm-analyze -trace out.jsonl                     # analyze a JSONL trace
//	javmm-analyze -metrics metrics.json                # analyze a snapshot
//	javmm-analyze -metrics metrics.json -prom          # Prometheus exposition
//
// Fleet mode analyzes N concurrent migrations over one shared fabric: run a
// fleet live, or ingest the artifacts a `javmm-migrate -peers` run exported:
//
//	javmm-analyze -fleet 4 -workload derby -mode javmm # run and analyze a fleet
//	javmm-analyze -fleet 4 -prom                       # labeled Prometheus page
//	javmm-analyze -fleet-metrics fleet.json            # ingest a fleet snapshot
//	javmm-analyze -fleet-sla sla.json                  # ingest a fleet SLA cost
//	javmm-analyze -heal heal.json                      # ingest a healing summary
//
// Output is byte-identical across same-seed runs; -format csv emits each
// table as RFC-4180 CSV for plotting.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"javmm"
	"javmm/internal/experiments"
	"javmm/internal/obs/perf"
)

func main() {
	var o options
	flag.BoolVar(&o.Run, "run", false, "boot a VM, migrate it and analyze the run")
	flag.StringVar(&o.TracePath, "trace", "", "analyze an existing JSONL trace file")
	flag.StringVar(&o.MetricsPath, "metrics", "", "analyze an existing metrics snapshot (JSON)")
	flag.IntVar(&o.Fleet, "fleet", 0, "run an N-VM fleet of -workload over one shared link and analyze it (fleet table, per-link utilization, SLA summary)")
	flag.StringVar(&o.FleetMetricsPath, "fleet-metrics", "", "analyze a fleet metrics snapshot (JSON from javmm-migrate -peers -metrics-out)")
	flag.StringVar(&o.FleetSLAPath, "fleet-sla", "", "analyze a fleet SLA cost file (JSON from javmm-migrate -peers -sla-out)")
	flag.StringVar(&o.HealPath, "heal", "", "analyze a healing summary (JSON from javmm-migrate -retry -heal-out): per-move outcome table, retry/relocation totals, token-reuse savings, ledger reconciliation")
	flag.DurationVar(&o.Stagger, "stagger", 500*time.Millisecond, "with -fleet: delay between consecutive engine starts")
	flag.BoolVar(&o.Prom, "prom", false, "render the metrics snapshot in Prometheus text format")
	flag.BoolVar(&o.JSON, "json", false, "with -run: emit the machine-readable analyze document (javmm-analyze/v1) instead of tables")
	flag.StringVar(&o.Format, "format", "table", "output format: table or csv")
	flag.IntVar(&o.TopN, "top", 10, "number of hottest pages to list")

	// Run-mode knobs, mirroring javmm-migrate.
	flag.StringVar(&o.Workload, "workload", "derby", "workload to run: "+strings.Join(javmm.WorkloadNames(), ", "))
	flag.StringVar(&o.Mode, "mode", "javmm", "migration mode: xen, javmm, post-copy or hybrid")
	flag.Uint64Var(&o.MemMiB, "mem", 2048, "VM memory in MiB")
	flag.IntVar(&o.VCPUs, "vcpus", 4, "virtual CPUs")
	flag.Uint64Var(&o.Bandwidth, "bandwidth", javmm.GigabitEthernet, "link payload bandwidth in bytes/sec")
	flag.DurationVar(&o.Warmup, "warmup", 300*time.Second, "virtual warmup before migration")
	flag.Int64Var(&o.Seed, "seed", 1, "deterministic seed")
	flag.StringVar(&o.Collector, "collector", "parallel", "garbage collector: parallel or g1")
	flag.BoolVar(&o.Compress, "compress", false, "compress unskipped pages (§6 extension)")
	flag.StringVar(&o.TraceOut, "trace-out", "", "also write the run's trace as JSONL to this file")
	flag.StringVar(&o.MetricsOut, "metrics-out", "", "also write the run's metrics snapshot (JSON) to this file")
	flag.Func("fault", "inject a fault into the -run migration: site[@at][#nth][,key=val...] (repeatable)", func(s string) error {
		o.Faults = append(o.Faults, s)
		return nil
	})
	flag.Int64Var(&o.FaultSeed, "fault-seed", 1, "seed for the retry backoff jitter")
	flag.Parse()
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "javmm-analyze:", err)
		os.Exit(1)
	}
}

// options collects every CLI knob; run is pure in it so tests drive the full
// command without a process boundary.
type options struct {
	Run              bool
	TracePath        string
	MetricsPath      string
	Fleet            int
	FleetMetricsPath string
	FleetSLAPath     string
	HealPath         string
	Stagger          time.Duration
	Prom             bool
	JSON             bool
	Format           string
	TopN             int

	Workload   string
	Mode       string
	MemMiB     uint64
	VCPUs      int
	Bandwidth  uint64
	Warmup     time.Duration
	Seed       int64
	Collector  string
	Compress   bool
	TraceOut   string
	MetricsOut string
	Faults     []string // -fault rule specs for the -run migration
	FaultSeed  int64
}

func run(o options, out io.Writer) error {
	if o.Format != "table" && o.Format != "csv" {
		return fmt.Errorf("unknown format %q (want table or csv)", o.Format)
	}
	sources := 0
	for _, set := range []bool{o.Run, o.TracePath != "", o.MetricsPath != "",
		o.Fleet > 0, o.FleetMetricsPath != "", o.FleetSLAPath != "", o.HealPath != ""} {
		if set {
			sources++
		}
	}
	if sources != 1 {
		return fmt.Errorf("choose exactly one of -run, -trace, -metrics, -fleet, -fleet-metrics, -fleet-sla or -heal")
	}
	if o.JSON && !o.Run {
		return fmt.Errorf("-json requires -run (traces and metrics files have their own machine formats)")
	}
	if o.JSON && o.Prom {
		return fmt.Errorf("-json and -prom are mutually exclusive")
	}
	switch {
	case o.Run:
		return analyzeRun(o, out)
	case o.TracePath != "":
		return analyzeTrace(o, out)
	case o.Fleet > 0:
		return analyzeFleet(o, out)
	case o.FleetMetricsPath != "":
		return analyzeFleetMetrics(o, out)
	case o.FleetSLAPath != "":
		return analyzeFleetSLA(o, out)
	case o.HealPath != "":
		return analyzeHealing(o, out)
	default:
		return analyzeMetrics(o, out)
	}
}

// emit renders one table in the chosen format.
func emit(o options, out io.Writer, t *experiments.Table) {
	if o.Format == "csv" {
		fmt.Fprintf(out, "# %s\n%s\n", t.Title, t.CSV())
		return
	}
	fmt.Fprintln(out, t.Render())
}

// analyzeRun boots a VM, migrates it with a ledger and metrics attached, and
// prints the reconciled attribution of the finished run.
func analyzeRun(o options, out io.Writer) error {
	prof, err := javmm.Workload(o.Workload)
	if err != nil {
		return err
	}
	mode, err := javmm.ParseMode(o.Mode)
	if err != nil {
		return err
	}
	vm, err := javmm.BootVM(javmm.BootConfig{
		MemBytes:  o.MemMiB << 20,
		VCPUs:     o.VCPUs,
		Profile:   prof,
		Assisted:  mode == javmm.ModeJAVMM,
		Seed:      o.Seed,
		Collector: o.Collector,
	})
	if err != nil {
		return err
	}
	vm.Driver.Run(o.Warmup)
	if vm.Driver.Err != nil {
		return vm.Driver.Err
	}

	led := javmm.NewLedger()
	metrics := javmm.NewMetrics(vm.Clock)
	engine := javmm.EngineConfig{Compress: o.Compress}
	engine.Recovery.Seed = o.FaultSeed
	opts := javmm.MigrateOptions{
		Mode:      mode,
		Bandwidth: o.Bandwidth,
		Ledger:    led,
		Metrics:   metrics,
		Engine:    engine,
	}
	if len(o.Faults) > 0 {
		plan, err := javmm.ParseFaultPlan(o.Faults)
		if err != nil {
			return err
		}
		inj, err := javmm.NewFaultInjector(vm.Clock, plan)
		if err != nil {
			return err
		}
		opts.Faults = inj
	}
	var tracer *javmm.Tracer
	if o.TraceOut != "" {
		tracer = javmm.NewTracer(vm.Clock)
		opts.Tracer = tracer
	}
	res, err := javmm.Migrate(vm, opts)
	if err != nil {
		if res != nil && res.Recovery != nil && res.Recovery.Aborted {
			fmt.Fprintf(out, "run ABORTED after %v: %s (source resumed, destination discarded)\n",
				res.TotalTime, res.Recovery.AbortReason)
		}
		return err
	}
	a, err := javmm.Attribute(res, led)
	if err != nil {
		return err
	}
	snap := metrics.Snapshot()

	if o.JSON {
		return emitAnalyzeJSON(o, out, prof.Name, res, a)
	}

	modeLabel := res.EffectiveMode().String()
	if a.Degraded != nil {
		modeLabel = fmt.Sprintf("%s (degraded from %s)", res.EffectiveMode(), a.Degraded.From)
	}
	fmt.Fprintf(out, "run: workload=%s mode=%s mem=%dMiB seed=%d total-time=%v traffic=%s\n\n",
		prof.Name, modeLabel, o.MemMiB, o.Seed, res.TotalTime, fmtBytes(a.TotalBytes))
	emit(o, out, attributionTable(a))
	emit(o, out, iterationTable(a))
	sum := led.Summary()
	emit(o, out, ledgerTable(sum))
	emit(o, out, trafficTable(sum))
	emit(o, out, skipTable(sum))
	if t := integrityTable(res.Report, sum); t != nil {
		emit(o, out, t)
	}
	emit(o, out, topPagesTable(led.TopPages(o.TopN), o.TopN))
	if t := faultStallTable(snap); t != nil {
		emit(o, out, t)
	}

	if o.TraceOut != "" {
		if err := writeFile(o.TraceOut, func(w io.Writer) error {
			return javmm.WriteTraceJSONL(w, tracer.Events())
		}); err != nil {
			return err
		}
	}
	if o.MetricsOut != "" {
		if err := writeFile(o.MetricsOut, func(w io.Writer) error {
			return javmm.WriteMetricsJSON(w, snap)
		}); err != nil {
			return err
		}
	}
	if o.Prom {
		return javmm.WritePrometheus(out, snap)
	}
	return nil
}

// emitAnalyzeJSON renders the run as the javmm-analyze/v1 document: the same
// deterministic metric block a bench scenario carries, plus the reconciled
// downtime attribution as a component -> nanoseconds map. Trajectory tooling
// can diff this against a BENCH_NNNN.json scenario directly.
func emitAnalyzeJSON(o options, out io.Writer, workload string, res *javmm.Result, a *javmm.Attribution) error {
	det := javmm.BenchDeterministic(res)
	det.Workload = workload
	det.Codec = "raw"
	if o.Compress {
		det.Codec = "compress"
	}
	doc := &perf.AnalyzeDoc{
		Schema: perf.AnalyzeSchemaVersion,
		Source: fmt.Sprintf("run:workload=%s,mode=%s,mem=%d,bandwidth=%d,warmup=%s,seed=%d",
			workload, o.Mode, o.MemMiB, o.Bandwidth, o.Warmup, o.Seed),
		Seed:          o.Seed,
		Deterministic: det,
		Components:    make(map[string]int64),
	}
	for _, c := range a.Components() {
		doc.Components[c.Name] = c.Dur.Nanoseconds()
	}
	return perf.WriteAnalyzeDoc(out, doc)
}

// analyzeTrace summarizes a JSONL trace: event counts by kind and the
// begin/end span roll-up per track.
func analyzeTrace(o options, out io.Writer) error {
	f, err := os.Open(o.TracePath)
	if err != nil {
		return err
	}
	events, err := javmm.ReadTraceJSONL(f)
	f.Close()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "trace: %s (%d events)\n\n", o.TracePath, len(events))
	emit(o, out, kindTable(events))
	emit(o, out, spanTable(events))
	return nil
}

// analyzeFleet runs an N-VM fleet with the full observability plane attached
// and prints the fleet view: per-VM outcomes, per-link utilization with byte
// conservation, per-flow contention and the SLA cost summary. With -prom the
// labeled Prometheus page (per-VM vm="..." series, fleet scope="fleet"
// series) replaces the tables; -metrics-out and -trace-out export the fleet
// snapshot and the merged time-ordered JSONL stream.
func analyzeFleet(o options, out io.Writer) error {
	prof, err := javmm.Workload(o.Workload)
	if err != nil {
		return err
	}
	mode, err := javmm.ParseMode(o.Mode)
	if err != nil {
		return err
	}
	profiles := make([]javmm.Profile, o.Fleet)
	for i := range profiles {
		profiles[i] = prof
	}
	m := javmm.DefaultSLA()
	cluster, moves := javmm.Backbone(profiles, o.MemMiB<<20, o.Bandwidth)
	res, err := javmm.Orchestrate(javmm.OrchestratorOptions{
		Cluster: cluster,
		Moves:   moves,
		Mode:    mode,
		Seed:    o.Seed,
		Warmup:  o.Warmup,
		Stagger: o.Stagger,
		Engine:  javmm.EngineConfig{Compress: o.Compress},
		Collect: true,
		SLA:     &m,
	})
	if err != nil {
		return err
	}
	for i := range res.Moves {
		if e := res.Moves[i].Err; e != nil {
			return fmt.Errorf("%s: %w", res.Moves[i].Name, e)
		}
		if e := res.Moves[i].VerifyErr; e != nil {
			return fmt.Errorf("%s: destination verification FAILED: %w", res.Moves[i].Name, e)
		}
	}

	if o.TraceOut != "" {
		if err := writeFile(o.TraceOut, func(w io.Writer) error {
			return javmm.WriteTraceJSONL(w, res.Obs.MergedEvents())
		}); err != nil {
			return err
		}
	}
	if o.MetricsOut != "" {
		if err := writeFile(o.MetricsOut, func(w io.Writer) error {
			return javmm.WriteFleetSnapshotJSON(w, res.Obs.Snapshot())
		}); err != nil {
			return err
		}
	}
	if o.Prom {
		return res.Obs.WritePrometheus(out)
	}

	fmt.Fprintf(out, "fleet: %d×%s mode=%s mem=%dMiB seed=%d makespan=%v\n\n",
		o.Fleet, prof.Name, mode, o.MemMiB, o.Seed, res.MakeSpan)
	emit(o, out, fleetTable(res))
	emit(o, out, linkTable(res.Fabric))
	emit(o, out, flowTable(res.Fabric))
	if res.SLA != nil {
		if err := res.SLA.Reconcile(); err != nil {
			return err
		}
		emit(o, out, slaTable(res.SLA))
	}
	return nil
}

// fleetTable is the per-VM outcome roll-up of a fleet run.
func fleetTable(res *javmm.PlanResult) *experiments.Table {
	t := &experiments.Table{
		Title:  "Fleet (per-VM outcomes, boot order)",
		Header: []string{"vm", "start", "end", "total", "downtime", "wl-downtime", "traffic", "sla cost"},
	}
	for i := range res.Moves {
		vm := &res.Moves[i]
		cost := "n/a"
		if vm.SLACost != nil {
			cost = fmt.Sprintf("%.4f", vm.SLACost.Total)
		}
		t.AddRow(vm.Name,
			fmtDur(vm.StartAt),
			fmtDur(vm.EndAt),
			fmtDur(vm.Report.TotalTime),
			fmtDur(vm.Report.VMDowntime),
			fmtDur(vm.WorkloadDowntime),
			fmtBytes(vm.Report.TotalBytes()),
			cost)
	}
	return t
}

// linkTable is the per-link utilization audit: the settled-bytes integral
// must match the bytes the engines shipped (byte conservation), and the
// utilization is the time-weighted mean fraction of capacity in use.
func linkTable(rep javmm.FabricReport) *experiments.Table {
	t := &experiments.Table{
		Title:  "Links (time-weighted utilization; settled bytes conserve sent bytes)",
		Header: []string{"link", "bandwidth", "bytes", "transfers", "busy", "peak", "utilization", "conservation err"},
	}
	for _, lu := range rep.Links {
		t.AddRow(lu.Name,
			fmt.Sprintf("%.0f MB/s", float64(lu.Bandwidth)/1e6),
			fmtBytes(lu.BytesSent),
			fmt.Sprintf("%d", lu.Transfers),
			fmtDur(lu.Busy),
			fmt.Sprintf("%d", lu.MaxConcurrent),
			fmt.Sprintf("%.1f%%", lu.Utilization*100),
			fmt.Sprintf("%.1f B", lu.ConservationError()))
	}
	return t
}

// flowTable is the per-flow fair-share account: what contention cost each
// migration beyond its uncontended ideal.
func flowTable(rep javmm.FabricReport) *experiments.Table {
	t := &experiments.Table{
		Title:  "Flows (fair-share queueing beyond the uncontended ideal)",
		Header: []string{"flow", "bytes", "transfers", "queueing", "stalled"},
	}
	for _, fu := range rep.Flows {
		t.AddRow(fu.Name,
			fmtBytes(fu.BytesSent),
			fmt.Sprintf("%d", fu.Transfers),
			fmtDur(fu.Queueing),
			fmtDur(fu.Stall))
	}
	return t
}

// slaTable is the SLA cost summary: per-VM rows plus the fleet aggregate.
func slaTable(f *javmm.FleetSLACost) *experiments.Table {
	t := &experiments.Table{
		Title:  "SLA cost (downtime × penalty + throughput-dip integral)",
		Header: []string{"vm", "mode", "downtime", "downtime cost", "lost ops", "dip sec", "dip cost", "total"},
	}
	for _, c := range f.PerVM {
		t.AddRow(c.VM, c.Mode,
			fmtDur(c.WorkloadDowntime),
			fmt.Sprintf("%.4f", c.DowntimeCost),
			fmt.Sprintf("%.0f", c.LostOps),
			fmt.Sprintf("%d", c.DipSeconds),
			fmt.Sprintf("%.4f", c.DipCost),
			fmt.Sprintf("%.4f", c.Total))
	}
	t.AddRow("fleet", "", "",
		fmt.Sprintf("%.4f", f.DowntimeCost),
		fmt.Sprintf("%.0f", f.LostOps),
		"",
		fmt.Sprintf("%.4f", f.DipCost),
		fmt.Sprintf("%.4f", f.Total))
	t.Notes = append(t.Notes, fmt.Sprintf("worst VM: %s", f.WorstVM))
	return t
}

// analyzeFleetMetrics ingests a fleet snapshot (javmm-migrate -peers
// -metrics-out) and renders per-VM key metrics plus the fleet-scoped fabric
// registry — or, with -prom, the same labeled Prometheus page a live
// collector would serve.
func analyzeFleetMetrics(o options, out io.Writer) error {
	f, err := os.Open(o.FleetMetricsPath)
	if err != nil {
		return err
	}
	snap, err := javmm.ReadFleetSnapshotJSON(f)
	f.Close()
	if err != nil {
		return err
	}
	if o.Prom {
		return javmm.WritePrometheusLabeled(out, javmm.FleetLabeledSnapshots(snap))
	}
	fmt.Fprintf(out, "fleet metrics: %s (%d VMs)\n\n", o.FleetMetricsPath, len(snap.VMs))
	t := &experiments.Table{
		Title:  "Per-VM key metrics",
		Header: []string{"vm", "pages sent", "bytes on wire", "iterations", "net bytes", "net sends"},
	}
	for _, v := range snap.VMs {
		t.AddRow(v.Name,
			counterCell(v.Metrics, "migration.pages_sent"),
			counterCell(v.Metrics, "migration.bytes_on_wire"),
			counterCell(v.Metrics, "migration.iterations"),
			counterCell(v.Metrics, "net.bytes_sent"),
			counterCell(v.Metrics, "net.sends"))
	}
	emit(o, out, t)
	fmt.Fprintln(out, "fleet-scoped registry (fabric links):")
	emit(o, out, counterTable(snap.Fleet))
	emit(o, out, gaugeTable(snap.Fleet))
	return nil
}

// counterCell renders one named counter, "0" when the registry never touched
// it.
func counterCell(s javmm.MetricsSnapshot, name string) string {
	v, _ := s.Counter(name)
	return fmt.Sprintf("%d", v)
}

// analyzeFleetSLA ingests a fleet SLA cost file, re-verifies the aggregate
// against its rows and prints the summary table.
func analyzeFleetSLA(o options, out io.Writer) error {
	f, err := os.Open(o.FleetSLAPath)
	if err != nil {
		return err
	}
	cost, err := javmm.ReadFleetSLAJSON(f)
	f.Close()
	if err != nil {
		return err
	}
	if err := cost.Reconcile(); err != nil {
		return err
	}
	fmt.Fprintf(out, "fleet SLA: %s (%d VMs, aggregate re-derives from rows)\n\n",
		o.FleetSLAPath, len(cost.PerVM))
	emit(o, out, slaTable(&cost))
	return nil
}

// analyzeHealing ingests a healing summary (javmm-migrate -retry -heal-out),
// reconciles each move's ledger resume-refetch bucket against the resume
// plans' queued refetches (the ledger can only tag sends for pages a resume
// plan queued: LedgerResumeSends ≤ RefetchPages), and prints the Healing
// table. -prom renders the same numbers as a Prometheus exposition page.
func analyzeHealing(o options, out io.Writer) error {
	hs, err := javmm.ReadHealingSummary(o.HealPath)
	if err != nil {
		return err
	}
	for _, m := range hs.Moves {
		if m.LedgerResumeSends > m.RefetchPages {
			return fmt.Errorf("healing summary does not reconcile: move %s ledger tagged %d resume-refetch sends, resume plans queued only %d pages",
				m.VM, m.LedgerResumeSends, m.RefetchPages)
		}
	}
	if o.Prom {
		fmt.Fprintf(out, "# TYPE javmm_heal_retries_total counter\njavmm_heal_retries_total %d\n", hs.Retries)
		fmt.Fprintf(out, "# TYPE javmm_heal_relocations_total counter\njavmm_heal_relocations_total %d\n", hs.Relocations)
		fmt.Fprintf(out, "# TYPE javmm_heal_breaker_opens_total counter\njavmm_heal_breaker_opens_total %d\n", hs.BreakerOpens)
		fmt.Fprintf(out, "# TYPE javmm_heal_backoff_seconds counter\njavmm_heal_backoff_seconds %g\n", hs.BackoffTotal.Seconds())
		fmt.Fprintf(out, "# TYPE javmm_heal_token_saved_bytes counter\njavmm_heal_token_saved_bytes %d\n", hs.TokenSavedBytes)
		fmt.Fprintf(out, "# TYPE javmm_heal_move_attempts gauge\n")
		for _, m := range hs.Moves {
			fmt.Fprintf(out, "javmm_heal_move_attempts{vm=%q,outcome=%q} %d\n", m.VM, m.Outcome, m.Attempts)
		}
		fmt.Fprintf(out, "# TYPE javmm_heal_move_refetch_pages gauge\n")
		for _, m := range hs.Moves {
			fmt.Fprintf(out, "javmm_heal_move_refetch_pages{vm=%q} %d\n", m.VM, m.RefetchPages)
		}
		return nil
	}
	fmt.Fprintf(out, "healing summary: %s (%d moves, ledger resume-refetch reconciled)\n\n",
		o.HealPath, len(hs.Moves))
	emit(o, out, healTable(hs))
	fmt.Fprintf(out, "totals: %d retries, %d relocations, %d breaker opens, backoff %v, token reuse saved %d bytes\n",
		hs.Retries, hs.Relocations, hs.BreakerOpens, hs.BackoffTotal, hs.TokenSavedBytes)
	return nil
}

// healTable renders the per-move healing outcomes.
func healTable(hs *javmm.HealingSummary) *experiments.Table {
	t := &experiments.Table{
		Title: "Healing",
		Header: []string{"vm", "route", "outcome", "attempts", "relocations",
			"backoff", "token saved", "refetch pages", "ledger sends", "err"},
	}
	for _, m := range hs.Moves {
		t.AddRow(m.VM, m.From+"->"+m.To, m.Outcome,
			fmt.Sprintf("%d", m.Attempts),
			fmt.Sprintf("%d", m.Relocations),
			m.Backoff.Round(time.Millisecond).String(),
			fmt.Sprintf("%d", m.TokenSavedBytes),
			fmt.Sprintf("%d", m.RefetchPages),
			fmt.Sprintf("%d", m.LedgerResumeSends),
			m.Err)
	}
	return t
}

// analyzeMetrics prints a metrics snapshot as tables, or as Prometheus text
// exposition with -prom.
func analyzeMetrics(o options, out io.Writer) error {
	f, err := os.Open(o.MetricsPath)
	if err != nil {
		return err
	}
	snap, err := javmm.ReadMetricsJSON(f)
	f.Close()
	if err != nil {
		return err
	}
	if o.Prom {
		return javmm.WritePrometheus(out, snap)
	}
	fmt.Fprintf(out, "metrics: %s (snapshot at %v)\n\n", o.MetricsPath, snap.At)
	emit(o, out, counterTable(snap))
	emit(o, out, gaugeTable(snap))
	emit(o, out, histogramTable(snap))
	return nil
}

// attributionTable is the downtime audit: each component, its exact length
// and its share of the workload-visible downtime. The components sum to the
// reported downtime tick-for-tick (Attribute refuses to return otherwise).
func attributionTable(a *javmm.Attribution) *experiments.Table {
	t := &experiments.Table{
		Title:  "Downtime attribution (components sum to workload downtime exactly)",
		Header: []string{"component", "time", "ns", "share"},
	}
	total := a.WorkloadDowntime
	for _, c := range a.Components() {
		t.AddRow(c.Name, fmtDur(c.Dur), fmt.Sprintf("%d", c.Dur.Nanoseconds()), fmtShare(float64(c.Dur), float64(total)))
	}
	t.AddRow("workload downtime", fmtDur(total), fmt.Sprintf("%d", total.Nanoseconds()), "100.0%")
	t.Notes = append(t.Notes,
		fmt.Sprintf("VM paused (stop-and-copy + resumption): %s", fmtDur(a.VMDowntime)))
	if a.Faults > 0 || a.FaultStall > 0 {
		t.Notes = append(t.Notes,
			fmt.Sprintf("post-switchover degradation: %d demand faults stalled the guest %s (not downtime)",
				a.Faults, fmtDur(a.FaultStall)))
	}
	if d := a.Degraded; d != nil {
		t.Notes = append(t.Notes,
			fmt.Sprintf("DEGRADED %s -> %s at %s (%s): assisted components not charged",
				d.From, d.To, fmtDur(d.At), d.Reason))
	}
	if a.Retries > 0 {
		t.Notes = append(t.Notes,
			fmt.Sprintf("recovery: %d retried stage attempts, %s cumulative backoff",
				a.Retries, fmtDur(a.BackoffTotal)))
	}
	return t
}

// iterationTable is the per-round series behind the attribution: traffic,
// dirtying and rates for every pre-copy round and the stop-and-copy.
func iterationTable(a *javmm.Attribution) *experiments.Table {
	t := &experiments.Table{
		Title:  "Iteration series (per-round traffic and dirtying)",
		Header: []string{"iter", "start", "duration", "sent", "pages", "dirtied", "dirty pg/s", "xfer MB/s"},
	}
	for _, it := range a.Iterations {
		idx := fmt.Sprintf("%d", it.Index)
		if it.Last {
			idx += "*"
		}
		t.AddRow(idx,
			fmtDur(it.Start),
			fmtDur(it.Duration),
			fmtBytes(it.BytesOnWire),
			fmt.Sprintf("%d", it.PagesSent),
			fmt.Sprintf("%d", it.PagesDirtied),
			fmt.Sprintf("%.0f", it.DirtyRate),
			fmt.Sprintf("%.1f", it.TransferRate/1e6))
	}
	t.Notes = append(t.Notes, "* = final (stop-and-copy or lazy) round")
	return t
}

// ledgerTable is the provenance roll-up: what moved, what moved twice, what
// the skip policy saved.
func ledgerTable(s javmm.LedgerSummary) *experiments.Table {
	t := &experiments.Table{
		Title:  "Ledger summary (per-page provenance)",
		Header: []string{"metric", "value"},
	}
	t.AddRow("pages tracked", fmt.Sprintf("%d", s.NumPages))
	t.AddRow("total sends", fmt.Sprintf("%d", s.TotalSends))
	t.AddRow("total bytes", fmtBytes(s.TotalBytes))
	t.AddRow("wasted bytes (re-sends)", fmtBytes(s.WastedBytes))
	t.AddRow("saved bytes (skips)", fmtBytes(s.SavedBytes))
	t.AddRow("pages never sent", fmt.Sprintf("%d", s.PagesNeverSent))
	t.AddRow("pages sent once", fmt.Sprintf("%d", s.PagesSentOnce))
	t.AddRow("pages re-sent", fmt.Sprintf("%d", s.PagesResent))
	t.AddRow("max sends of one page", fmt.Sprintf("%d", s.MaxSends))
	return t
}

// trafficTable splits the wire traffic by send reason; the bytes column
// sums to the report's total traffic exactly.
func trafficTable(s javmm.LedgerSummary) *experiments.Table {
	t := &experiments.Table{
		Title:  "Traffic by send reason (sums to report total exactly)",
		Header: []string{"reason", "sends", "bytes", "share"},
	}
	for _, r := range javmm.SendReasons() {
		rt := s.SendsByReason[r]
		t.AddRow(r.String(), fmt.Sprintf("%d", rt.Count), fmtBytes(rt.Bytes),
			fmtShare(float64(rt.Bytes), float64(s.TotalBytes)))
	}
	t.AddRow("total", fmt.Sprintf("%d", s.TotalSends), fmtBytes(s.TotalBytes), "100.0%")
	return t
}

// skipTable splits the pages the engine left behind by cause.
func skipTable(s javmm.LedgerSummary) *experiments.Table {
	t := &experiments.Table{
		Title:  "Skips by reason (bitmap and free skips are traffic saved)",
		Header: []string{"reason", "events", "raw bytes", "saved"},
	}
	for _, r := range javmm.SkipReasons() {
		rt := s.SkipsByReason[r]
		saved := "no"
		if r.Saved() {
			saved = "yes"
		}
		t.AddRow(r.String(), fmt.Sprintf("%d", rt.Count), fmtBytes(rt.Bytes), saved)
	}
	return t
}

// topPagesTable lists the hottest pages: the ones the pre-copy rounds kept
// re-sending.
func topPagesTable(pages []javmm.PageStat, n int) *experiments.Table {
	t := &experiments.Table{
		Title:  fmt.Sprintf("Top %d hottest pages (most sends first)", n),
		Header: []string{"pfn", "sends", "bytes", "last iter", "skips"},
	}
	for _, p := range pages {
		t.AddRow(fmt.Sprintf("0x%x", uint64(p.PFN)),
			fmt.Sprintf("%d", p.Sends),
			fmtBytes(p.Bytes),
			fmt.Sprintf("%d", p.LastIter),
			fmt.Sprintf("%d", p.Skips))
	}
	return t
}

// integrityTable is the end-to-end verification audit: what the digest plane
// checked and healed, and — on resumed runs — how much of the resume token
// was honoured versus refetched. Nil when the run recorded neither.
func integrityTable(rep *javmm.Report, sum javmm.LedgerSummary) *experiments.Table {
	ic, rs := rep.Integrity, rep.Resume
	if ic == nil && rs == nil {
		return nil
	}
	t := &experiments.Table{
		Title:  "Integrity and resume (digest audit, repairs, token reuse)",
		Header: []string{"metric", "value"},
	}
	if ic != nil {
		t.AddRow("pages audited", fmt.Sprintf("%d", ic.PagesAudited))
		t.AddRow("audit rounds", fmt.Sprintf("%d", ic.AuditRounds))
		t.AddRow("digest mismatches", fmt.Sprintf("%d", ic.Mismatches))
		t.AddRow("repairs", fmt.Sprintf("%d", ic.Repairs))
		t.AddRow("repair traffic", fmtBytes(ic.RepairBytes))
		t.AddRow("rolling digest", fmt.Sprintf("%016x", ic.RollingDigest))
	}
	if rs != nil {
		if rs.FullFirstCopy {
			t.AddRow("resume", fmt.Sprintf("token refused (%s)", rs.Reason))
		} else {
			t.AddRow("resume trusted pages", fmt.Sprintf("%d", rs.TrustedPages))
			t.AddRow("resume refetch pages", fmt.Sprintf("%d", rs.RefetchPages))
			t.AddRow("resume saved bytes", fmtBytes(rs.SavedBytes))
		}
		rt := sum.SendsByReason[javmm.ReasonResumeRefetch]
		t.AddRow("resume-refetch traffic", fmt.Sprintf("%d sends, %s", rt.Count, fmtBytes(rt.Bytes)))
	}
	if ic != nil && ic.Mismatches > 0 {
		t.Notes = append(t.Notes,
			"every mismatch was repaired by verified re-fetch before the run reported success")
	}
	return t
}

// faultStallTable summarizes post-switchover demand-fault stalls with exact
// quantiles, or nil when the run recorded no faults.
func faultStallTable(s javmm.MetricsSnapshot) *experiments.Table {
	h, ok := s.Histogram("migration.fault_stall_ns")
	if !ok || h.Count == 0 {
		return nil
	}
	t := &experiments.Table{
		Title:  "Demand-fault stalls (per-fault guest stall)",
		Header: []string{"faults", "mean", "p50", "p95", "p99", "max"},
	}
	t.AddRow(fmt.Sprintf("%d", h.Count),
		fmtDur(time.Duration(h.Mean)),
		fmtDur(time.Duration(h.P50)),
		fmtDur(time.Duration(h.P95)),
		fmtDur(time.Duration(h.P99)),
		fmtDur(time.Duration(h.Max)))
	return t
}

// kindTable counts trace events by kind.
func kindTable(events []javmm.Event) *experiments.Table {
	counts := map[string]int{}
	for _, ev := range events {
		counts[string(ev.Kind)]++
	}
	kinds := make([]string, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	t := &experiments.Table{
		Title:  "Events by kind",
		Header: []string{"kind", "events"},
	}
	for _, k := range kinds {
		t.AddRow(k, fmt.Sprintf("%d", counts[k]))
	}
	return t
}

// spanAgg accumulates the paired begin/end spans of one (track, name).
type spanAgg struct {
	track, name string
	count       int
	total       time.Duration
	min, max    time.Duration
}

// spanTable pairs begin/end events per track (the tracer enforces LIFO
// nesting, so a stack reconstructs the pairing exactly) and rolls the spans
// up by track and name.
func spanTable(events []javmm.Event) *experiments.Table {
	type open struct {
		name string
		at   time.Duration
	}
	stacks := map[string][]open{}
	aggs := map[string]*spanAgg{}
	for _, ev := range events {
		switch ev.Phase {
		case "begin":
			stacks[ev.Track] = append(stacks[ev.Track], open{ev.Name, ev.At})
		case "end":
			st := stacks[ev.Track]
			if len(st) == 0 {
				continue
			}
			top := st[len(st)-1]
			stacks[ev.Track] = st[:len(st)-1]
			d := ev.At - top.at
			key := ev.Track + "\x00" + top.name
			a := aggs[key]
			if a == nil {
				a = &spanAgg{track: ev.Track, name: top.name, min: d, max: d}
				aggs[key] = a
			}
			a.count++
			a.total += d
			if d < a.min {
				a.min = d
			}
			if d > a.max {
				a.max = d
			}
		}
	}
	keys := make([]string, 0, len(aggs))
	for k := range aggs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	t := &experiments.Table{
		Title:  "Spans by track and name",
		Header: []string{"track", "span", "count", "total", "mean", "min", "max"},
	}
	for _, k := range keys {
		a := aggs[k]
		t.AddRow(a.track, a.name,
			fmt.Sprintf("%d", a.count),
			fmtDur(a.total),
			fmtDur(a.total/time.Duration(a.count)),
			fmtDur(a.min),
			fmtDur(a.max))
	}
	return t
}

// counterTable, gaugeTable and histogramTable render a metrics snapshot.
func counterTable(s javmm.MetricsSnapshot) *experiments.Table {
	t := &experiments.Table{
		Title:  "Counters",
		Header: []string{"name", "value"},
	}
	for _, c := range s.Counters {
		t.AddRow(c.Name, fmt.Sprintf("%d", c.Value))
	}
	return t
}

func gaugeTable(s javmm.MetricsSnapshot) *experiments.Table {
	t := &experiments.Table{
		Title:  "Gauges",
		Header: []string{"name", "value", "time-weighted mean"},
	}
	for _, g := range s.Gauges {
		t.AddRow(g.Name, fmt.Sprintf("%g", g.Value), fmt.Sprintf("%g", g.TimeWeightedMean))
	}
	return t
}

func histogramTable(s javmm.MetricsSnapshot) *experiments.Table {
	t := &experiments.Table{
		Title:  "Histograms (exact quantiles over retained samples)",
		Header: []string{"name", "n", "mean", "p50", "p95", "p99", "min", "max"},
	}
	for _, h := range s.Histograms {
		t.AddRow(h.Name,
			fmt.Sprintf("%d", h.Count),
			fmt.Sprintf("%g", h.Mean),
			fmt.Sprintf("%g", h.P50),
			fmt.Sprintf("%g", h.P95),
			fmt.Sprintf("%g", h.P99),
			fmt.Sprintf("%g", h.Min),
			fmt.Sprintf("%g", h.Max))
	}
	return t
}

// writeFile creates path and streams fn into it.
func writeFile(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = fn(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// fmtShare renders part/whole as a percentage, "n/a" for an empty whole.
func fmtShare(part, whole float64) string {
	if whole == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1f%%", part/whole*100)
}

// fmtBytes renders a byte count in decimal units, as traffic is reported.
func fmtBytes(b uint64) string {
	switch {
	case b >= 1e9:
		return fmt.Sprintf("%.2f GB", float64(b)/1e9)
	case b >= 1e6:
		return fmt.Sprintf("%.1f MB", float64(b)/1e6)
	case b >= 1e3:
		return fmt.Sprintf("%.1f KB", float64(b)/1e3)
	default:
		return fmt.Sprintf("%d B", b)
	}
}

// fmtDur renders a duration with sensible precision for the tables.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.3f s", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2f ms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%d µs", d.Microseconds())
	}
}
