// Package experiments regenerates every table and figure of the paper's
// evaluation (§4.2 and §5) plus the §6 extension ablations. Each runner
// boots fresh VMs, warms the workload to its steady state, migrates it over
// a simulated gigabit link and reduces the results into printable tables and
// series. DESIGN.md §5 maps each experiment ID to its runner and benchmark.
package experiments

import (
	"fmt"
	"time"

	"javmm/internal/faults"
	"javmm/internal/jvm"
	"javmm/internal/migration"
	"javmm/internal/netsim"
	"javmm/internal/obs/attrib"
	"javmm/internal/workload"
)

// RunOpts parameterizes one migration experiment.
type RunOpts struct {
	Profile workload.Profile
	Mode    migration.Mode
	Seed    int64

	// MemBytes is the VM size (default 2 GiB, the paper's testbed).
	MemBytes uint64
	// Bandwidth is the migration link's payload bandwidth (default
	// gigabit-effective).
	Bandwidth uint64
	// Warmup is how long the workload runs before migration begins
	// (paper: 300 s, halfway through a 10-minute run).
	Warmup time.Duration
	// Cooldown keeps the workload running after migration so throughput
	// timelines capture the recovery (Figure 11).
	Cooldown time.Duration

	// MaxYoungOverride caps the young generation (Table 3 sweeps).
	MaxYoungOverride uint64

	// LKMRewalk selects the LKM's full-rewalk final update; pairs with the
	// engine's conservative last iteration (ablation X5).
	LKMRewalk bool

	// ALBShrinkTo, when non-zero, applies Application-Level Ballooning
	// after warmup: the young generation is shrunk toward this size and
	// held there through the migration (ablation X6, the §2 baseline).
	ALBShrinkTo uint64

	// Collector selects the garbage collector (workload.CollectorParallel
	// default, workload.CollectorG1 for the regional heap) and
	// AgentReReport overrides the agent's per-GC re-reporting (X11).
	Collector     string
	AgentReReport *bool

	// Engine is the engine configuration under ablation (compression,
	// free-page skipping, the retry jitter seed, ...). Mode above wins over
	// Engine.Mode, LKMRewalk turns on Engine.ConservativeLastIter, and
	// Engine.HintedCompression also has the agent collect the per-page
	// hints it reads (§6, X2).
	Engine migration.Config

	// FaultPlan, when non-empty, injects faults into every layer of the run
	// (resilience experiments).
	FaultPlan faults.Plan
	// AllowAbort tolerates a fault-aborted migration: instead of an error,
	// RunMigration returns the Run with Aborted set and the partial report
	// (source resumed, destination discarded).
	AllowAbort bool
	// ResumeAfterAbort (implies AllowAbort) enables the resume plane on the
	// run: an abort keeps the destination image, mints a ResumeToken, and
	// RunMigration then resumes the migration fault-free from the token.
	// The continuation's report lands in Run.ResumeReport.
	ResumeAfterAbort bool
}

func (o *RunOpts) fillDefaults() {
	if o.MemBytes == 0 {
		o.MemBytes = 2 << 30
	}
	if o.Bandwidth == 0 {
		o.Bandwidth = netsim.GigabitEffective
	}
	if o.Warmup == 0 {
		o.Warmup = 300 * time.Second
	}
}

// Run is the outcome of one migration experiment: the engine report plus the
// guest-side observations the figures need.
type Run struct {
	Opts   RunOpts
	Report *migration.Report

	// Heap state observed when migration began (Table 2 / Table 3).
	YoungCommittedAtMigration uint64
	OldUsedAtMigration        uint64

	// EnforcedGC is the duration of the JAVMM-enforced collection (zero
	// for vanilla runs).
	EnforcedGC time.Duration

	// WorkloadDowntime is the paper's §5.3 downtime: stop-and-copy and
	// resumption, plus — for JAVMM — the enforced GC and the final bitmap
	// update, during which Java threads are paused.
	WorkloadDowntime time.Duration

	// Samples is the full per-second throughput timeline (Figure 11).
	Samples []workload.Sample
	// MigrationStartSecond is the timeline second at which migration began.
	MigrationStartSecond int

	// LKMBitmapBytes and LKMCacheBytes are the framework's memory overhead
	// (§5.3: at most 1 MB).
	LKMBitmapBytes, LKMCacheBytes uint64

	// VerifyErr is the migration-correctness check outcome (nil = pages
	// match at the destination).
	VerifyErr error

	// AgentReReports counts the agent's mid-migration skip-area re-reports
	// and AgentGrowReports its immediate young-growth reports (non-zero
	// only for region-churning collectors with re-reporting on).
	AgentReReports   int
	AgentGrowReports int

	// Attribution is the reconciled downtime/traffic accounting of the
	// run, always present (without the per-reason ledger breakdown).
	// RunMigration fails if it does not reconcile with the Report — figures
	// must not be built from numbers that do not add up.
	Attribution *attrib.Attribution

	// Aborted marks a fault-aborted run (only with RunOpts.AllowAbort);
	// AbortReason carries the permanent failure behind it.
	Aborted     bool
	AbortReason string
	// FaultEvents is the injector's audit log of faults that fired.
	FaultEvents []faults.Event

	// ResumeReport is the continuation's report when ResumeAfterAbort
	// resumed an aborted run (nil when the run completed outright), and
	// ResumeVerifyErr its destination-consistency outcome.
	ResumeReport    *migration.Report
	ResumeVerifyErr error
}

// RunMigration boots a fresh VM, warms it up, migrates it and returns the
// combined observations.
func RunMigration(opts RunOpts) (*Run, error) {
	opts.fillDefaults()
	prof := opts.Profile
	if opts.MaxYoungOverride != 0 {
		prof.MaxYoungBytes = opts.MaxYoungOverride
		if prof.InitialYoungBytes > prof.MaxYoungBytes {
			prof.InitialYoungBytes = prof.MaxYoungBytes
		}
	}

	vm, err := workload.Boot(workload.BootConfig{
		MemBytes:      opts.MemBytes,
		Profile:       prof,
		Assisted:      opts.Mode == migration.ModeAppAssisted,
		Seed:          opts.Seed,
		LKMRewalk:     opts.LKMRewalk,
		Collector:     opts.Collector,
		AgentReReport: opts.AgentReReport,
		AgentHints:    opts.Engine.HintedCompression,
	})
	if err != nil {
		return nil, err
	}
	vm.Driver.Run(opts.Warmup)
	if vm.Driver.Err != nil {
		return nil, fmt.Errorf("experiments: warmup failed: %w", vm.Driver.Err)
	}
	if opts.ALBShrinkTo > 0 {
		if vm.JVM == nil {
			return nil, fmt.Errorf("experiments: ALB requires the parallel collector")
		}
		// Balloon the heap down and give the workload a few GC cycles for
		// the shrink to take effect before migration begins.
		vm.JVM.ALBShrink(opts.ALBShrinkTo)
		vm.Driver.Run(15 * time.Second)
		if vm.Driver.Err != nil {
			return nil, fmt.Errorf("experiments: ALB shrink failed: %w", vm.Driver.Err)
		}
	}

	run := &Run{
		Opts:                      opts,
		YoungCommittedAtMigration: vm.Heap.YoungCommitted(),
		OldUsedAtMigration:        vm.Heap.OldUsed(),
		MigrationStartSecond:      int(vm.Clock.Now() / time.Second),
	}

	cfg := opts.Engine
	cfg.Mode = opts.Mode
	if opts.LKMRewalk {
		cfg.ConservativeLastIter = true
	}
	var inj *faults.Injector
	if len(opts.FaultPlan) > 0 {
		inj, err = faults.NewInjector(vm.Clock, opts.FaultPlan)
		if err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
		cfg.Faults = inj
	}
	if opts.ResumeAfterAbort {
		opts.AllowAbort = true
		cfg.Recovery.EnableResume = true
	}
	link := netsim.NewLink(vm.Clock, opts.Bandwidth, 100*time.Microsecond)
	src := migration.NewSource(vm.Guest, vm.Driver, link, migration.NewDestination(vm.Dom.NumPages()), cfg)
	report, err := src.Migrate()
	aborted := false
	if err != nil {
		if !opts.AllowAbort || report == nil || report.Recovery == nil || !report.Recovery.Aborted {
			return nil, fmt.Errorf("experiments: migration failed: %w", err)
		}
		aborted = true
	}
	if vm.Driver.Err != nil {
		return nil, fmt.Errorf("experiments: workload failed during migration: %w", vm.Driver.Err)
	}
	run.Report = report
	run.Aborted = aborted
	if aborted {
		run.AbortReason = report.Recovery.AbortReason
	}
	run.FaultEvents = inj.Events()

	if aborted && opts.ResumeAfterAbort {
		tok := report.Recovery.Token
		if tok == nil {
			return nil, fmt.Errorf("experiments: abort (%s) minted no resume token", run.AbortReason)
		}
		// Detach the injector everywhere and let the guest run on: the
		// continuation is fault-free and pays only for what the token
		// cannot vouch for.
		src.SetFaults(nil)
		vm.Driver.Run(2 * time.Second)
		if vm.Driver.Err != nil {
			return nil, fmt.Errorf("experiments: workload failed between abort and resume: %w", vm.Driver.Err)
		}
		rrep, rerr := src.Resume(tok)
		if rerr != nil {
			return nil, fmt.Errorf("experiments: resume after abort failed: %w", rerr)
		}
		run.ResumeReport = rrep
		run.ResumeVerifyErr = src.VerifyImage(rrep, nil)
	}

	// An aborted run discarded the destination: there is nothing to verify.
	if !aborted {
		run.VerifyErr = src.VerifyImage(report, nil)
	}
	run.EnforcedGC = vm.EnforcedGC()
	run.WorkloadDowntime = report.WorkloadDowntime(run.EnforcedGC)
	run.Attribution = attrib.Build(report, run.EnforcedGC, nil)
	if err := run.Attribution.Reconcile(report); err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}

	run.LKMBitmapBytes = vm.Guest.LKM.BitmapBytes()
	run.LKMCacheBytes = vm.Guest.LKM.CacheBytes()
	if vm.Agent != nil {
		run.AgentReReports = vm.Agent.ReReports
		run.AgentGrowReports = vm.Agent.GrowReports
	}

	if opts.Cooldown > 0 {
		vm.Driver.Run(opts.Cooldown)
		if vm.Driver.Err != nil {
			return nil, fmt.Errorf("experiments: cooldown failed: %w", vm.Driver.Err)
		}
	}
	run.Samples = vm.Driver.Samples()
	return run, nil
}

// HeapProfile is the no-migration profiling run behind Figure 5 and §4.2.
type HeapProfile struct {
	Workload string

	AvgYoungCommitted uint64 // Figure 5(a), Young bar
	AvgOldUsed        uint64 // Figure 5(a), Old bar

	AvgGarbagePerGC uint64  // Figure 5(b)
	AvgLivePerGC    uint64  // Figure 5(b)
	GarbageFraction float64 // garbage / (garbage+live)

	AvgMinorGCDuration time.Duration // Figure 5(c)
	MinorGCs           int
	GCIntervalSeconds  float64 // mean seconds between minor GCs
}

// ProfileHeap runs a workload for the given duration in a VM (no migration)
// and reduces its heap behaviour, sampling consumption once per virtual
// second as the paper's profiling does.
func ProfileHeap(prof workload.Profile, dur time.Duration, memBytes uint64, seed int64) (*HeapProfile, error) {
	if memBytes == 0 {
		memBytes = 2 << 30
	}
	vm, err := workload.Boot(workload.BootConfig{
		MemBytes: memBytes,
		Profile:  prof,
		Seed:     seed,
	})
	if err != nil {
		return nil, err
	}

	var youngSum, oldSum, n uint64
	for vm.Clock.Now() < dur {
		vm.Driver.Run(time.Second)
		if vm.Driver.Err != nil {
			return nil, fmt.Errorf("experiments: profiling %s: %w", prof.Name, vm.Driver.Err)
		}
		youngSum += vm.Heap.YoungCommitted()
		oldSum += vm.Heap.OldUsed()
		n++
	}

	hp := &HeapProfile{Workload: prof.Name}
	if n > 0 {
		hp.AvgYoungCommitted = youngSum / n
		hp.AvgOldUsed = oldSum / n
	}
	var garbage, live, gcs uint64
	var gcTime time.Duration
	var firstGC, lastGC time.Duration
	for _, st := range vm.Heap.GCHistory() {
		if st.Kind != jvm.MinorGC {
			continue
		}
		garbage += st.Garbage
		live += st.LiveAfter + st.Promoted
		gcTime += st.Duration
		if gcs == 0 {
			firstGC = st.At
		}
		lastGC = st.At
		gcs++
	}
	hp.MinorGCs = int(gcs)
	if gcs > 0 {
		hp.AvgGarbagePerGC = garbage / gcs
		hp.AvgLivePerGC = live / gcs
		hp.AvgMinorGCDuration = gcTime / time.Duration(gcs)
		if total := garbage + live; total > 0 {
			hp.GarbageFraction = float64(garbage) / float64(total)
		}
	}
	if gcs > 1 {
		hp.GCIntervalSeconds = (lastGC - firstGC).Seconds() / float64(gcs-1)
	}
	return hp, nil
}
