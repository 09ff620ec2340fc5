// Command javmm-migrate live-migrates a simulated Java VM, the equivalent of
// the paper's added Xen management command (`xl migrate` with
// application-assistance, §3.3). It boots a VM running the chosen workload,
// warms it up, migrates it in the chosen mode and prints the migration
// report, optionally with the per-iteration breakdown, a metrics summary and
// a trace file loadable in Perfetto.
//
// Usage:
//
//	javmm-migrate -workload derby -mode javmm -warmup 300s -v
//	javmm-migrate -workload scimark -mode xen -bandwidth 117000000
//	javmm-migrate -workload derby -mode javmm -trace out.json -metrics
//
// With -plan it becomes the fleet orchestrator front end: -cluster declares
// hosts/links/VMs, -plan a batch plan ("evacuate host H", "drain rack R",
// "migrate vm V to H", "rebalance" or "rebalance util 0.6"), -ordering the
// launch policy (naive, admission, cycle-aware), and admission caps bound
// concurrency:
//
//	javmm-migrate -cluster 'host a ram 64G; host b ram 64G; vm v1 on a; vm v2 on a' \
//	    -plan 'evacuate host a' -ordering cycle-aware -max-per-link 2
//
// -retry turns the orchestrator self-healing (DESIGN.md §18): failed moves
// retry with seeded backoff inside -max-attempts/-move-deadline/-plan-deadline
// budgets, permanent destination losses (host.crash faults) re-select a
// destination with the dead host excluded and the stale resume token degraded
// to a clean first copy, and a per-host circuit breaker (-breaker K/w/c)
// keeps repeat offenders out of re-selection until their cooldown:
//
//	javmm-migrate -cluster '...' -plan 'evacuate host a' -retry \
//	    -breaker 3/2m/5m -fault 'host.crash@0s,for=10m,host=b' -heal-out heal.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"javmm"
)

func main() {
	var o options
	defineFlags(flag.CommandLine, &o)
	flag.Parse()
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "javmm-migrate:", err)
		os.Exit(1)
	}
}

// defineFlags binds every CLI knob to the flag set; a separate function so
// tests can round-trip argument lists (e.g. a chaos reproducer) through the
// real definitions.
func defineFlags(fs *flag.FlagSet, o *options) {
	fs.StringVar(&o.Workload, "workload", "derby", "workload to run: "+strings.Join(javmm.WorkloadNames(), ", "))
	fs.StringVar(&o.Mode, "mode", "javmm", "migration mode: xen, javmm, post-copy or hybrid")
	fs.Uint64Var(&o.MemMiB, "mem", 2048, "VM memory in MiB")
	fs.IntVar(&o.VCPUs, "vcpus", 4, "virtual CPUs")
	fs.Uint64Var(&o.Bandwidth, "bandwidth", javmm.GigabitEthernet, "link payload bandwidth in bytes/sec")
	fs.DurationVar(&o.Warmup, "warmup", 300*time.Second, "virtual warmup before migration")
	fs.Uint64Var(&o.YoungMiB, "young", 0, "override max young generation in MiB (0 = workload default)")
	fs.Int64Var(&o.Seed, "seed", 1, "deterministic seed")
	fs.IntVar(&o.Peers, "peers", 1, "migrate N VMs of this workload concurrently over one shared link")
	fs.DurationVar(&o.Stagger, "stagger", 500*time.Millisecond, "with -peers: delay between consecutive engine starts")
	fs.StringVar(&o.Cluster, "cluster", "", "declarative cluster topology (host/link/vm statements, ';'-separated) for -plan")
	fs.StringVar(&o.Plan, "plan", "", "batch migration plan to orchestrate against -cluster: 'evacuate host H', 'drain rack R', 'migrate vm V to H', 'migrate vm V', 'rebalance', 'rebalance util 0.6'")
	fs.StringVar(&o.Ordering, "ordering", "cycle-aware", "with -plan: launch policy (naive, admission or cycle-aware)")
	fs.IntVar(&o.MaxPerLink, "max-per-link", 1, "with -plan: admission cap on concurrent migrations per shared link (0 = unbounded)")
	fs.IntVar(&o.MaxPerHost, "max-per-host", 1, "with -plan: admission cap on concurrent inbound migrations per destination host (0 = unbounded)")
	fs.BoolVar(&o.Compress, "compress", false, "compress unskipped pages (§6 extension)")
	fs.StringVar(&o.Collector, "collector", "parallel", "garbage collector: parallel or g1")
	fs.BoolVar(&o.Verbose, "v", false, "print per-iteration details")
	fs.StringVar(&o.TracePath, "trace", "", "write a migration trace to this file")
	fs.StringVar(&o.TraceFormat, "trace-format", "chrome", "trace format: chrome (Perfetto-loadable) or jsonl")
	fs.BoolVar(&o.Metrics, "metrics", false, "print the metrics summary table after migration")
	fs.StringVar(&o.MetricsOut, "metrics-out", "", "write the metrics snapshot as JSON to this file")
	fs.BoolVar(&o.Progress, "progress", false, "print the live progress stream (phase, iteration, remaining, ETA) as the engines emit it")
	fs.BoolVar(&o.SLA, "sla", false, "price the run against the default SLA model and print the cost summary")
	fs.StringVar(&o.SLAOut, "sla-out", "", "with -peers: write the fleet SLA cost as JSON to this file")
	fs.Func("fault", "inject a fault: site[@at][#nth][,key=val...] (repeatable); e.g. 'link.partition@10s,for=2s', 'dest.receive#3,count=2', 'host.crash@30s,for=2m,host=d1'", func(s string) error {
		o.Faults = append(o.Faults, s)
		return nil
	})
	fs.Int64Var(&o.FaultSeed, "fault-seed", 1, "seed for the retry backoff jitter")
	fs.BoolVar(&o.Retry, "retry", false, "with -plan: self-healing orchestration — failed moves retry with seeded backoff, permanent destination losses re-select a destination, a per-host breaker gates re-selection (DESIGN.md §18)")
	fs.IntVar(&o.MaxAttempts, "max-attempts", 0, "with -retry: launch budget per move (0 = policy default)")
	fs.DurationVar(&o.MoveDeadline, "move-deadline", 0, "with -retry: give up on a move this long after its first launch (0 = policy default)")
	fs.DurationVar(&o.PlanDeadline, "plan-deadline", 0, "with -retry: stop launching attempts this long after warmup (0 = policy default)")
	fs.StringVar(&o.Breaker, "breaker", "", "with -retry: per-host circuit breaker as threshold/window/cooldown (e.g. 3/2m/5m), or 'off' (empty = policy default)")
	fs.BoolVar(&o.Relocate, "relocate", true, "with -retry: re-select a destination after a permanent failure (-relocate=false retries the same host only)")
	fs.StringVar(&o.HealOut, "heal-out", "", "with -retry: write the healing summary (per-move outcomes, retries, relocations, token savings) as JSON to this file (javmm-analyze -heal ingests it)")
	fs.BoolVar(&o.Resume, "resume", false, "on a clean abort, keep the destination image and resume the migration from the minted token (faults detached)")
	fs.BoolVar(&o.Verify, "verify", true, "end-to-end page-digest audit: detect and repair in-flight corruption at switchover (-verify=false ablates it)")
	fs.StringVar(&o.CPUProfile, "cpuprofile", "", "write a CPU profile of the run to this file (stages carry pprof labels)")
	fs.StringVar(&o.MemProfile, "memprofile", "", "write a heap profile at the end of the run to this file")
	fs.BoolVar(&o.StageProfile, "stage-profile", false, "print the real-clock per-stage wall/allocation table after migration")
}

// options collects every CLI knob; run is pure in it so tests drive the full
// command without a process boundary.
type options struct {
	Workload     string
	Mode         string
	Collector    string
	MemMiB       uint64
	VCPUs        int
	Bandwidth    uint64
	Warmup       time.Duration
	YoungMiB     uint64
	Seed         int64
	Peers        int
	Stagger      time.Duration
	Cluster      string
	Plan         string
	Ordering     string
	MaxPerLink   int
	MaxPerHost   int
	Compress     bool
	Verbose      bool
	TracePath    string
	TraceFormat  string // "chrome" or "jsonl"
	Metrics      bool
	MetricsOut   string
	Progress     bool
	SLA          bool
	SLAOut       string
	Faults       []string // -fault rule specs
	FaultSeed    int64
	Retry        bool
	MaxAttempts  int
	MoveDeadline time.Duration
	PlanDeadline time.Duration
	Breaker      string
	Relocate     bool
	HealOut      string
	Resume       bool
	Verify       bool
	CPUProfile   string
	MemProfile   string
	StageProfile bool
}

func run(o options, out io.Writer) error {
	if o.CPUProfile != "" {
		f, err := os.Create(o.CPUProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	prof, err := javmm.Workload(o.Workload)
	if err != nil {
		return err
	}
	if o.YoungMiB != 0 {
		prof.MaxYoungBytes = o.YoungMiB << 20
		if prof.InitialYoungBytes > prof.MaxYoungBytes {
			prof.InitialYoungBytes = prof.MaxYoungBytes
		}
	}
	mode, err := javmm.ParseMode(o.Mode)
	if err != nil {
		return err
	}
	if o.TraceFormat != "chrome" && o.TraceFormat != "jsonl" {
		return fmt.Errorf("unknown trace format %q (want chrome or jsonl)", o.TraceFormat)
	}
	if o.Plan != "" || o.Cluster != "" {
		if o.Peers > 1 {
			return fmt.Errorf("-plan does not compose with -peers (the cluster declares the VMs)")
		}
		return runPlan(o, mode, out)
	}
	if o.Peers > 1 {
		return runFleet(o, prof, mode, out)
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

	fmt.Fprintf(out, "booted %s: %d MiB, %d vCPUs, workload %s (category %d)\n",
		vm.Dom.Name(), o.MemMiB, o.VCPUs, prof.Name, prof.Category)
	fmt.Fprintf(out, "warming up for %v of virtual time...\n", o.Warmup)
	vm.Driver.Run(o.Warmup)
	if vm.Driver.Err != nil {
		return vm.Driver.Err
	}
	fmt.Fprintf(out, "at migration: young gen %d MiB committed, old gen %d MiB used, %d GCs so far\n",
		vm.Heap.YoungCommitted()>>20, vm.Heap.OldUsed()>>20, len(vm.Heap.GCHistory()))

	engine := javmm.EngineConfig{Compress: o.Compress}
	// The stage profiler feeds the -stage-profile table; under -cpuprofile it
	// is attached for its pprof goroutine labels alone, so samples group by
	// engine stage in `go tool pprof`.
	var stages *javmm.StageProfiler
	if o.StageProfile || o.CPUProfile != "" {
		stages = javmm.NewStageProfiler()
		engine.Perf = stages
	}
	// -v reads the per-iteration statistics off the tracer's event bus, so
	// it needs a tracer even without -trace.
	var tracer *javmm.Tracer
	if o.TracePath != "" || o.Verbose {
		tracer = javmm.NewTracer(vm.Clock)
	}
	if o.Verbose {
		fmt.Fprintf(out, "\n%-5s %-10s %-10s %-12s %-12s %-12s\n",
			"iter", "start", "duration", "sent", "skip-dirty", "skip-bitmap")
		tracer.Subscribe(func(e javmm.Event) {
			it, ok := e.Data.(javmm.IterationStats)
			if !ok {
				return
			}
			mark := " "
			if it.Last {
				mark = "*"
			}
			fmt.Fprintf(out, "%-4d%s %-10v %-10v %-12s %-12s %-12s\n",
				it.Index, mark,
				it.Start.Round(time.Millisecond),
				it.Duration.Round(time.Millisecond),
				mb(it.BytesOnWire),
				mb(it.PagesSkippedDirty*4096),
				mb(it.PagesSkippedBitmap*4096))
		})
	}

	engine.Recovery.Seed = o.FaultSeed
	engine.Recovery.EnableResume = o.Resume
	engine.Integrity.Disable = !o.Verify
	if o.Progress {
		engine.OnProgress = func(p javmm.Progress) { printProgress(out, p.VM, p) }
	}
	opts := javmm.MigrateOptions{
		Mode:      mode,
		Bandwidth: o.Bandwidth,
		Engine:    engine,
		Tracer:    tracer,
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
	var metrics *javmm.Metrics
	if o.Metrics || o.MetricsOut != "" {
		metrics = javmm.NewMetrics(vm.Clock)
		opts.Metrics = metrics
	}
	res, err := javmm.Migrate(vm, opts)
	if err != nil {
		if res == nil || res.Recovery == nil || !res.Recovery.Aborted {
			return err
		}
		fmt.Fprintf(out, "\nmigration ABORTED after %v: %s\n",
			res.TotalTime.Round(time.Millisecond), res.Recovery.AbortReason)
		printRecovery(out, res.Recovery, opts.Faults)
		fmt.Fprintf(out, "  source VM           resumed (still authoritative)\n")
		if !o.Resume || res.ResumeToken() == nil {
			fmt.Fprintf(out, "  destination         discarded\n")
			return err
		}
		fmt.Fprintf(out, "  destination         kept (resume token minted)\n")
		fmt.Fprintf(out, "\nresuming from token (faults detached)...\n")
		res, err = javmm.Resume(vm, res, javmm.MigrateOptions{
			Bandwidth: o.Bandwidth,
			Engine:    engine,
			Tracer:    tracer,
			Metrics:   metrics,
		})
		if err != nil {
			return fmt.Errorf("resume failed: %w", err)
		}
	}

	effective := res.EffectiveMode()
	fmt.Fprintf(out, "\nmigration complete (%s):\n", effective)
	fmt.Fprintf(out, "  total time          %v\n", res.TotalTime.Round(time.Millisecond))
	fmt.Fprintf(out, "  total traffic       %.2f GB (%d pages)\n", float64(res.TotalBytes())/1e9, res.TotalPagesSent)
	fmt.Fprintf(out, "  iterations          %d (%d live + stop-and-copy)\n", len(res.Iterations), res.LiveIterations())
	fmt.Fprintf(out, "  VM downtime         %v\n", res.VMDowntime.Round(time.Millisecond))
	fmt.Fprintf(out, "  workload downtime   %v\n", res.WorkloadDowntime.Round(time.Millisecond))
	if effective == javmm.ModeJAVMM {
		fmt.Fprintf(out, "  enforced GC         %v\n", res.EnforcedGC.Round(time.Millisecond))
		fmt.Fprintf(out, "  final bitmap update %v\n", res.FinalUpdate.Round(time.Microsecond))
	}
	if res.Recovery != nil {
		printRecovery(out, res.Recovery, opts.Faults)
	}
	if pc := res.PostCopy; pc != nil {
		fmt.Fprintf(out, "  demand faults       %d (stalled the guest %v)\n", pc.Faults, pc.FaultStall.Round(time.Millisecond))
		fmt.Fprintf(out, "  prefetched pages    %d\n", pc.PrefetchPages)
		if mode == javmm.ModeHybrid {
			fmt.Fprintf(out, "  warm-phase resident %.1f MB at switchover\n", float64(pc.WarmPages*4096)/1e6)
		}
		fmt.Fprintf(out, "  fully resident at   %v\n", pc.ResidentAt.Round(time.Millisecond))
	}
	if rs := res.Resume; rs != nil {
		if rs.FullFirstCopy {
			fmt.Fprintf(out, "  resume              token refused, full first copy (%s)\n", rs.Reason)
		} else {
			fmt.Fprintf(out, "  resume              trusted %d pages, refetched %d (saved %s)\n",
				rs.TrustedPages, rs.RefetchPages, mb(rs.SavedBytes))
		}
	}
	if ic := res.Integrity; ic != nil {
		fmt.Fprintf(out, "  integrity           %d pages audited in %d rounds, %d mismatches, %d repaired (rolling digest %016x)\n",
			ic.PagesAudited, ic.AuditRounds, ic.Mismatches, ic.Repairs, ic.RollingDigest)
	} else if !o.Verify {
		fmt.Fprintf(out, "  integrity           DISABLED (-verify=false): in-flight corruption would go undetected\n")
	}
	fmt.Fprintf(out, "  daemon CPU (model)  %v\n", res.CPUTime.Round(time.Millisecond))
	if res.VerifyErr != nil {
		return fmt.Errorf("destination verification FAILED: %w", res.VerifyErr)
	}
	if res.PostCopy != nil {
		fmt.Fprintf(out, "  verification        n/a (post-copy phase: residency checked by the engine)\n")
	} else {
		fmt.Fprintf(out, "  verification        OK (destination pages match)\n")
	}

	if o.SLA {
		a, err := javmm.Attribute(res, nil)
		if err != nil {
			return err
		}
		m := javmm.DefaultSLA()
		c := javmm.BuildSLACost(vm.Dom.Name(), m, a, vm.Driver.Samples())
		if err := c.Reconcile(m, a, vm.Driver.Samples()); err != nil {
			return err
		}
		fmt.Fprintf(out, "  SLA cost            %.4f (downtime %.4f + dip %.4f: %.0f ops lost over %ds)\n",
			c.Total, c.DowntimeCost, c.DipCost, c.LostOps, c.DipSeconds)
	}

	if o.TracePath != "" {
		if err := writeTrace(o.TracePath, o.TraceFormat, tracer.Events()); err != nil {
			return err
		}
		fmt.Fprintf(out, "  trace               %s (%d events, %s)\n", o.TracePath, tracer.Len(), o.TraceFormat)
	}
	if metrics != nil {
		snap := metrics.Snapshot()
		if o.MetricsOut != "" {
			if err := writeMetrics(o.MetricsOut, snap); err != nil {
				return err
			}
			fmt.Fprintf(out, "  metrics snapshot    %s\n", o.MetricsOut)
		}
		if o.Metrics {
			printMetrics(out, snap)
		}
	}
	if o.StageProfile {
		printStageProfile(out, stages)
	}
	if o.MemProfile != "" {
		f, err := os.Create(o.MemProfile)
		if err != nil {
			return err
		}
		runtime.GC()
		err = pprof.WriteHeapProfile(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "  heap profile        %s\n", o.MemProfile)
	}
	return nil
}

// runFleet is the -peers path: N VMs of the same workload migrate
// concurrently over one shared backbone link, on one deterministic clock.
func runFleet(o options, prof javmm.Profile, mode javmm.Mode, out io.Writer) error {
	if len(o.Faults) > 0 || o.Resume {
		return fmt.Errorf("-peers does not compose with -fault or -resume (single-VM features)")
	}
	profiles := make([]javmm.Profile, o.Peers)
	for i := range profiles {
		profiles[i] = prof
	}
	fmt.Fprintf(out, "migrating %d %s VMs (%d MiB each, mode %s) over one shared %.0f MB/s link, engines staggered %v...\n",
		o.Peers, prof.Name, o.MemMiB, mode, float64(o.Bandwidth)/1e6, o.Stagger)
	// The full observability plane rides along whenever any of its surfaces
	// is asked for: the merged trace, the metrics page, the live progress
	// stream or SLA pricing.
	cluster, moves := javmm.Backbone(profiles, o.MemMiB<<20, o.Bandwidth)
	fopts := javmm.OrchestratorOptions{
		Cluster: cluster,
		Moves:   moves,
		Mode:    mode,
		Seed:    o.Seed,
		Warmup:  o.Warmup,
		Stagger: o.Stagger,
		Engine:  javmm.EngineConfig{Compress: o.Compress},
	}
	fopts.Collect = o.TracePath != "" || o.Metrics || o.MetricsOut != "" || o.Progress || o.SLA || o.SLAOut != ""
	if o.Progress {
		fopts.OnProgress = func(vm string, p javmm.Progress) { printProgress(out, vm, p) }
	}
	if o.SLA || o.SLAOut != "" {
		m := javmm.DefaultSLA()
		fopts.SLA = &m
	}
	res, err := javmm.Orchestrate(fopts)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\n%-14s %-10s %-10s %-10s %-12s %-12s %-10s\n",
		"vm", "start", "end", "total", "downtime", "wl-downtime", "traffic")
	var firstErr error
	for i := range res.Moves {
		vm := &res.Moves[i]
		if vm.Err != nil {
			fmt.Fprintf(out, "%-14s FAILED: %v\n", vm.Name, vm.Err)
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", vm.Name, vm.Err)
			}
			continue
		}
		fmt.Fprintf(out, "%-14s %-10v %-10v %-10v %-12v %-12v %-10s\n",
			vm.Name,
			vm.StartAt.Round(time.Millisecond),
			vm.EndAt.Round(time.Millisecond),
			vm.Report.TotalTime.Round(time.Millisecond),
			vm.Report.VMDowntime.Round(time.Millisecond),
			vm.WorkloadDowntime.Round(time.Millisecond),
			mb(vm.Report.TotalBytes()))
		if vm.VerifyErr != nil && firstErr == nil {
			firstErr = fmt.Errorf("%s: destination verification FAILED: %w", vm.Name, vm.VerifyErr)
		}
	}
	fmt.Fprintf(out, "\nfleet makespan %v (first engine start to last completion)\n",
		res.MakeSpan.Round(time.Millisecond))
	for _, lu := range res.Fabric.Links {
		fmt.Fprintf(out, "  link %-10s %s in %d transfers, busy %v, peak %d concurrent, utilization %.1f%%\n",
			lu.Name, mb(lu.BytesSent), lu.Transfers, lu.Busy.Round(time.Millisecond),
			lu.MaxConcurrent, lu.Utilization*100)
	}
	for _, fu := range res.Fabric.Flows {
		if fu.Queueing > 0 || fu.Stall > 0 {
			fmt.Fprintf(out, "  flow %-14s queued %v (stalled %v) behind fair share\n",
				fu.Name, fu.Queueing.Round(time.Millisecond), fu.Stall.Round(time.Millisecond))
		}
	}

	if f := res.SLA; f != nil {
		if err := f.Reconcile(); err != nil {
			return err
		}
		fmt.Fprintf(out, "\nSLA cost (default model):\n")
		fmt.Fprintf(out, "  %-14s %-10s %-10s %-12s %-8s %s\n",
			"vm", "downtime", "dip", "lost-ops", "dip-sec", "total")
		for _, c := range f.PerVM {
			fmt.Fprintf(out, "  %-14s %-10.4f %-10.4f %-12.0f %-8d %.4f\n",
				c.VM, c.DowntimeCost, c.DipCost, c.LostOps, c.DipSeconds, c.Total)
		}
		fmt.Fprintf(out, "  %-14s %-10.4f %-10.4f %-12.0f %-8s %.4f (worst: %s)\n",
			"fleet", f.DowntimeCost, f.DipCost, f.LostOps, "", f.Total, f.WorstVM)
		if o.SLAOut != "" {
			if err := writeFleetSLA(o.SLAOut, *f); err != nil {
				return err
			}
			fmt.Fprintf(out, "  SLA cost JSON       %s\n", o.SLAOut)
		}
	}

	if coll := res.Obs; coll != nil {
		if o.TracePath != "" {
			if err := writeFleetTrace(o.TracePath, o.TraceFormat, coll); err != nil {
				return err
			}
			fmt.Fprintf(out, "  merged trace        %s (%d lanes, %s)\n",
				o.TracePath, len(coll.Lanes()), o.TraceFormat)
		}
		if o.MetricsOut != "" {
			if err := writeFleetSnapshot(o.MetricsOut, coll.Snapshot()); err != nil {
				return err
			}
			fmt.Fprintf(out, "  fleet snapshot      %s\n", o.MetricsOut)
		}
		if o.Metrics {
			fmt.Fprintf(out, "\nfleet metrics (Prometheus, labeled):\n")
			if err := coll.WritePrometheus(out); err != nil {
				return err
			}
		}
	}
	return firstErr
}

// runPlan is the -plan path: orchestrate a batch migration plan against a
// declared cluster (DESIGN.md §17). It is also the chaos runner's replay
// surface — a FleetViolation.Repro() argument list lands here, -fault rules
// included.
func runPlan(o options, mode javmm.Mode, out io.Writer) error {
	if o.Cluster == "" {
		return fmt.Errorf("-plan needs -cluster (the topology the plan compiles against)")
	}
	if o.Plan == "" {
		return fmt.Errorf("-cluster needs -plan (the batch plan to execute)")
	}
	cluster, err := javmm.ParseCluster(o.Cluster)
	if err != nil {
		return err
	}
	plan, err := javmm.ParseMigrationPlan(o.Plan)
	if err != nil {
		return err
	}
	ord, err := javmm.ParseOrdering(o.Ordering)
	if err != nil {
		return err
	}
	engine := javmm.EngineConfig{Compress: o.Compress}
	engine.Recovery.Seed = o.FaultSeed
	engine.Recovery.EnableResume = o.Resume
	engine.Integrity.Disable = !o.Verify
	oo := javmm.OrchestratorOptions{
		Cluster:  cluster,
		Plan:     plan,
		Mode:     mode,
		Seed:     o.Seed,
		Ordering: ord,
		Admission: javmm.AdmissionPolicy{
			MaxPerLink: o.MaxPerLink,
			MaxPerHost: o.MaxPerHost,
		},
		Warmup: o.Warmup,
		Engine: engine,
	}
	if o.Retry {
		oo.Retry = javmm.RetryPolicy{
			Enabled:           true,
			MaxAttempts:       o.MaxAttempts,
			MoveDeadline:      o.MoveDeadline,
			PlanDeadline:      o.PlanDeadline,
			DisableRelocation: !o.Relocate,
			Seed:              o.FaultSeed,
		}
		if o.Breaker != "" {
			bp, err := javmm.ParseBreakerPolicy(o.Breaker)
			if err != nil {
				return err
			}
			oo.Retry.Breaker = bp
		}
	} else if o.HealOut != "" {
		return fmt.Errorf("-heal-out needs -retry (the healing summary records the self-healing run)")
	}
	if len(o.Faults) > 0 {
		fp, err := javmm.ParseFaultPlan(o.Faults)
		if err != nil {
			return err
		}
		oo.FaultPlan = fp
	}
	if o.SLA || o.SLAOut != "" {
		m := javmm.DefaultSLA()
		oo.SLA = &m
	}
	oo.Collect = o.TracePath != "" || o.Metrics || o.MetricsOut != ""
	if o.Progress {
		oo.OnProgress = func(vm string, p javmm.Progress) { printProgress(out, vm, p) }
	}

	fmt.Fprintf(out, "orchestrating %q on %d hosts / %d VMs (mode %s, ordering %s, caps link=%d host=%d, warmup %v)...\n",
		o.Plan, len(cluster.Hosts), len(cluster.VMs), mode, ord, o.MaxPerLink, o.MaxPerHost, o.Warmup)
	res, err := javmm.Orchestrate(oo)
	if err != nil {
		return err
	}
	if len(res.Moves) == 0 {
		fmt.Fprintf(out, "plan compiled to no moves: nothing to do\n")
		return nil
	}

	fmt.Fprintf(out, "\n%-10s %-12s %-10s %-8s %-7s %-10s %-12s %-10s %s\n",
		"vm", "route", "launched", "waited", "defer", "total", "wl-downtime", "traffic", "status")
	var firstErr error
	for i := range res.Moves {
		m := &res.Moves[i]
		status := "OK"
		switch {
		case m.QuietLaunch:
			status = "OK (quiet)"
		case m.Forced:
			status = "OK (forced)"
		}
		if m.Err != nil {
			status = fmt.Sprintf("ABORTED: %v", m.Err)
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", m.Name, m.Err)
			}
		} else if m.VerifyErr != nil {
			status = fmt.Sprintf("VERIFY FAILED: %v", m.VerifyErr)
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: destination verification FAILED: %w", m.Name, m.VerifyErr)
			}
		}
		total := time.Duration(0)
		var traffic uint64
		if m.Report != nil {
			total = m.Report.TotalTime
			traffic = m.Report.TotalBytes()
		}
		if o.Retry {
			status = fmt.Sprintf("%s [%s, %d attempt(s)]", status, m.Outcome, len(m.Attempts))
		}
		fmt.Fprintf(out, "%-10s %-12s %-10v %-8v %-7d %-10v %-12v %-10s %s\n",
			m.Name, m.From+"->"+m.To,
			m.LaunchedAt.Round(time.Millisecond),
			(m.LaunchedAt - m.EligibleAt).Round(time.Millisecond),
			m.Deferrals,
			total.Round(time.Millisecond),
			m.WorkloadDowntime.Round(time.Millisecond),
			mb(traffic), status)
	}

	if o.Retry {
		hs := res.Healing()
		fmt.Fprintf(out, "\nhealing: %d retries, %d relocations, %d breaker opens, backoff %v, token reuse saved %s\n",
			hs.Retries, hs.Relocations, hs.BreakerOpens,
			hs.BackoffTotal.Round(time.Millisecond), mb(hs.TokenSavedBytes))
		for _, mh := range hs.Moves {
			if mh.Attempts > 1 || mh.Relocations > 0 {
				fmt.Fprintf(out, "  %-10s %s: %d attempts, %d relocations, refetched %d pages\n",
					mh.VM, mh.Outcome, mh.Attempts, mh.Relocations, mh.RefetchPages)
			}
		}
		if o.HealOut != "" {
			if err := hs.WriteJSON(o.HealOut); err != nil {
				return err
			}
			fmt.Fprintf(out, "  healing summary     %s\n", o.HealOut)
		}
	}

	// Aborted moves resume from their tokens with the fault plane detached,
	// exactly like an operator retry after the outage.
	if o.Resume {
		for i := range res.Moves {
			m := &res.Moves[i]
			if m.Err == nil {
				continue
			}
			rep, rerr := res.ResumeAborted(i)
			if rerr != nil {
				fmt.Fprintf(out, "  resume %-10s FAILED: %v\n", m.Name, rerr)
				continue
			}
			fmt.Fprintf(out, "  resume %-10s OK: %d pages in %v (faults detached, image verified)\n",
				m.Name, rep.TotalPagesSent, rep.TotalTime.Round(time.Millisecond))
			if firstErr != nil && firstErr.Error() == fmt.Sprintf("%s: %v", m.Name, m.Err) {
				firstErr = nil
			}
		}
	}

	fmt.Fprintf(out, "\nplan makespan %v (first launch to last completion)\n",
		res.MakeSpan.Round(time.Millisecond))
	if ord != javmm.OrderNaive {
		if err := javmm.VerifyAdmission(res.Moves, oo.Admission); err != nil {
			return fmt.Errorf("admission over-commit: %w", err)
		}
		fmt.Fprintf(out, "admission verified: caps (link=%d host=%d) never over-committed\n",
			o.MaxPerLink, o.MaxPerHost)
	}
	for _, lu := range res.Fabric.Links {
		fmt.Fprintf(out, "  link %-10s %s in %d transfers, busy %v, peak %d concurrent, utilization %.1f%%\n",
			lu.Name, mb(lu.BytesSent), lu.Transfers, lu.Busy.Round(time.Millisecond),
			lu.MaxConcurrent, lu.Utilization*100)
	}

	if f := res.SLA; f != nil {
		if err := f.Reconcile(); err != nil {
			return err
		}
		fmt.Fprintf(out, "\nSLA cost (default model): fleet %.4f (downtime %.4f + dip %.4f, worst: %s)\n",
			f.Total, f.DowntimeCost, f.DipCost, f.WorstVM)
		if o.SLAOut != "" {
			if err := writeFleetSLA(o.SLAOut, *f); err != nil {
				return err
			}
			fmt.Fprintf(out, "  SLA cost JSON       %s\n", o.SLAOut)
		}
	}
	if coll := res.Obs; coll != nil {
		if o.TracePath != "" {
			if err := writeFleetTrace(o.TracePath, o.TraceFormat, coll); err != nil {
				return err
			}
			fmt.Fprintf(out, "  merged trace        %s (%d lanes, %s)\n",
				o.TracePath, len(coll.Lanes()), o.TraceFormat)
		}
		if o.MetricsOut != "" {
			if err := writeFleetSnapshot(o.MetricsOut, coll.Snapshot()); err != nil {
				return err
			}
			fmt.Fprintf(out, "  fleet snapshot      %s\n", o.MetricsOut)
		}
		if o.Metrics {
			fmt.Fprintf(out, "\nfleet metrics (Prometheus, labeled):\n")
			if err := coll.WritePrometheus(out); err != nil {
				return err
			}
		}
	}
	return firstErr
}

// printProgress renders one live progress point as a fleet status line.
// Emission is in virtual-time order across all engines, so the stream reads
// as the fleet's merged timeline.
func printProgress(out io.Writer, vm string, p javmm.Progress) {
	line := fmt.Sprintf("[%9v] %-14s %-13s iter=%d sent=%s",
		p.At.Round(time.Millisecond), vm, p.Phase, p.Iteration, mb(p.BytesSent))
	if p.BytesRemaining > 0 {
		line += fmt.Sprintf(" remaining=%s", mb(p.BytesRemaining))
		switch {
		case p.Converging:
			line += fmt.Sprintf(" eta=%v", p.ETA.Round(time.Millisecond))
		case p.TransferRate > 0:
			// An observed transfer rate that still cannot outrun the dirty
			// rate: pre-copy will not converge at these rates.
			line += " NOT CONVERGING"
		}
	}
	fmt.Fprintln(out, line)
}

// writeFleetTrace exports the merged fleet timeline: chrome renders per-VM
// process lanes plus the fabric lane; jsonl flattens the same events into one
// time-ordered stream with lane-prefixed tracks.
func writeFleetTrace(path, format string, coll *javmm.FleetCollector) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if format == "jsonl" {
		err = javmm.WriteTraceJSONL(f, coll.MergedEvents())
	} else {
		err = coll.WriteChromeTrace(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeFleetSnapshot exports the per-VM + fleet metrics snapshot
// (javmm-analyze -fleet ingests it).
func writeFleetSnapshot(path string, s javmm.FleetSnapshot) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = javmm.WriteFleetSnapshotJSON(f, s)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeFleetSLA exports the fleet SLA cost as JSON.
func writeFleetSLA(path string, f javmm.FleetSLACost) error {
	w, err := os.Create(path)
	if err != nil {
		return err
	}
	err = javmm.WriteFleetSLAJSON(w, f)
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	return err
}

// printStageProfile renders the real-clock per-stage account: where the
// simulator itself spent wall time and heap allocation, self-attributed (a
// stage's row excludes the stages it called into).
func printStageProfile(out io.Writer, stages *javmm.StageProfiler) {
	snap := stages.Snapshot()
	if len(snap) == 0 {
		fmt.Fprintf(out, "\nstage profile: no stages recorded\n")
		return
	}
	var totalSelf int64
	for _, s := range snap {
		totalSelf += s.SelfNs
	}
	fmt.Fprintf(out, "\nstage profile (real clock, self-attributed):\n")
	fmt.Fprintf(out, "  %-22s %12s %12s %12s %12s %7s\n",
		"stage", "calls", "self", "total", "self-alloc", "share")
	for _, s := range snap {
		share := 0.0
		if totalSelf > 0 {
			share = float64(s.SelfNs) / float64(totalSelf) * 100
		}
		fmt.Fprintf(out, "  %-22s %12d %12v %12v %12s %6.1f%%\n",
			s.Stage, s.Calls,
			time.Duration(s.SelfNs).Round(time.Microsecond),
			time.Duration(s.TotalNs).Round(time.Microsecond),
			mb(s.SelfAllocBytes), share)
	}
}

// writeMetrics exports the snapshot as JSON (readable back with
// javmm.ReadMetricsJSON, e.g. by javmm-analyze).
func writeMetrics(path string, s javmm.MetricsSnapshot) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = javmm.WriteMetricsJSON(f, s)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeTrace exports the recorded events in the chosen format.
func writeTrace(path, format string, events []javmm.Event) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if format == "jsonl" {
		err = javmm.WriteTraceJSONL(f, events)
	} else {
		err = javmm.WriteTraceChrome(f, events)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// printMetrics renders the snapshot as a summary table: counters, then
// gauges, then histograms, each name-sorted.
func printMetrics(out io.Writer, s javmm.MetricsSnapshot) {
	fmt.Fprintf(out, "\nmetrics at %v:\n", s.At.Round(time.Millisecond))
	for _, c := range s.Counters {
		fmt.Fprintf(out, "  %-32s %d\n", c.Name, c.Value)
	}
	for _, g := range s.Gauges {
		fmt.Fprintf(out, "  %-32s %.3g (time-weighted mean %.3g)\n", g.Name, g.Value, g.TimeWeightedMean)
	}
	for _, h := range s.Histograms {
		fmt.Fprintf(out, "  %-32s n=%d mean=%.3g min=%.3g max=%.3g\n", h.Name, h.Count, h.Mean, h.Min, h.Max)
	}
}

// printRecovery renders the robustness layer's account of the run: injected
// faults, retried stages, and any mid-flight degradation.
func printRecovery(out io.Writer, rec *javmm.RecoveryStats, inj *javmm.FaultInjector) {
	if inj != nil {
		if ev := inj.Events(); len(ev) > 0 {
			fmt.Fprintf(out, "  faults injected     %d:", len(ev))
			for _, e := range ev {
				fmt.Fprintf(out, " %s@%v", e.Site, e.At.Round(time.Millisecond))
			}
			fmt.Fprintln(out)
		}
	}
	if n := len(rec.Retries); n > 0 {
		fmt.Fprintf(out, "  retries             %d (total backoff %v)\n",
			n, rec.BackoffTotal.Round(time.Millisecond))
		for _, r := range rec.Retries {
			fmt.Fprintf(out, "    %-14s attempt %d at %v, backed off %v: %s\n",
				r.Stage, r.Attempt, r.At.Round(time.Millisecond),
				r.Backoff.Round(time.Millisecond), r.Err)
		}
	}
	if d := rec.Degraded; d != nil {
		fmt.Fprintf(out, "  DEGRADED            %s -> %s at %v (%s)\n",
			d.From, d.To, d.At.Round(time.Millisecond), d.Reason)
	}
}

func mb(b uint64) string { return fmt.Sprintf("%.1f MB", float64(b)/1e6) }
