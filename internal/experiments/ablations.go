package experiments

import (
	"fmt"
	"time"

	"javmm/internal/cacheapp"
	"javmm/internal/guestos"
	"javmm/internal/hypervisor"
	"javmm/internal/mem"
	"javmm/internal/migration"
	"javmm/internal/netsim"
	"javmm/internal/simclock"
	"javmm/internal/workload"
)

// AblationCompression evaluates the §6 compression extension (X2): compress
// only the pages that are not skipped, trading daemon CPU for bandwidth.
// Four configurations on derby: Xen, Xen+zlib-model, JAVMM, JAVMM+zlib-model.
func AblationCompression(o Options) (*Table, error) {
	o.fillDefaults()
	prof, err := workload.Lookup("derby")
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "X2. Compression extension (derby): compress only unskipped pages",
		Header: []string{"config", "time", "traffic", "downtime", "daemon CPU"},
	}
	configs := []struct {
		name     string
		mode     migration.Mode
		compress bool
		hinted   bool
	}{
		{"xen", migration.ModeVanilla, false, false},
		{"xen+compress", migration.ModeVanilla, true, false},
		{"javmm", migration.ModeAppAssisted, false, false},
		{"javmm+compress", migration.ModeAppAssisted, true, false},
		{"javmm+hints", migration.ModeAppAssisted, true, true},
	}
	for _, c := range configs {
		opts := o.runOpts(prof, c.mode, o.Seeds[0])
		opts.Compress = c.compress
		opts.HintedCompress = c.hinted
		r, err := RunMigration(opts)
		if err != nil {
			return nil, fmt.Errorf("experiments: compression ablation %s: %w", c.name, err)
		}
		if r.VerifyErr != nil {
			return nil, fmt.Errorf("experiments: compression ablation %s verification: %w", c.name, r.VerifyErr)
		}
		t.AddRow(c.name,
			fmtDur(r.Report.TotalTime),
			fmtBytes(r.Report.TotalBytes()),
			fmtDur(r.WorkloadDowntime),
			fmtDur(r.Report.CPUTime))
	}
	t.Notes = append(t.Notes,
		"compression halves wire bytes at a CPU cost; combined with JAVMM it compresses only what JAVMM did not already skip (§6)",
		"javmm+hints: the agent labels the old generation strongly compressible and the code cache lightly (per-page hints, §6)")
	return t, nil
}

// ChooseMode is the §6 "intelligent framework" policy (X4): given a heap
// profile and the migration link, decide whether application assistance is
// worthwhile. JAVMM should be avoided when the workload retains most of its
// young generation (the enforced GC buys nothing and its pause adds
// downtime), when the young generation is small, or when collecting garbage
// would be slower than just transferring it.
func ChooseMode(hp *HeapProfile, bandwidth uint64) migration.Mode {
	if hp.GarbageFraction < 0.5 {
		// High object survival: the enforced GC would not reclaim much
		// (the scimark case, §5.3).
		return migration.ModeVanilla
	}
	if hp.AvgYoungCommitted < 256<<20 {
		// Little skippable memory relative to a 2 GiB VM.
		return migration.ModeVanilla
	}
	// Observation 3 (§4.2): assist only if collecting the young garbage is
	// faster than transferring it.
	transfer := time.Duration(float64(hp.AvgGarbagePerGC) / float64(bandwidth) * float64(time.Second))
	if hp.AvgMinorGCDuration > transfer {
		return migration.ModeVanilla
	}
	return migration.ModeAppAssisted
}

// AblationPolicy runs the policy over derby (favourable) and scimark
// (unfavourable) and compares forced-JAVMM against the policy's choice.
func AblationPolicy(o Options) (*Table, error) {
	o.fillDefaults()
	t := &Table{
		Title:  "X4. Mode policy: turn JAVMM off when workload scenarios are unfavourable (§6)",
		Header: []string{"workload", "garbage %", "young avg", "policy picks", "downtime (forced javmm)", "downtime (policy)"},
	}
	bw := o.Bandwidth
	if bw == 0 {
		bw = netsim.GigabitEffective
	}
	for _, name := range []string{"derby", "scimark"} {
		prof, err := workload.Lookup(name)
		if err != nil {
			return nil, err
		}
		hp, err := ProfileHeap(prof, o.ProfileDur/2, o.MemBytes, o.Seeds[0])
		if err != nil {
			return nil, err
		}
		pick := ChooseMode(hp, bw)

		forced, err := RunMigration(o.runOpts(prof, migration.ModeAppAssisted, o.Seeds[0]))
		if err != nil {
			return nil, err
		}
		chosen := forced
		if pick != migration.ModeAppAssisted {
			chosen, err = RunMigration(o.runOpts(prof, pick, o.Seeds[0]))
			if err != nil {
				return nil, err
			}
		}
		t.AddRow(name,
			fmt.Sprintf("%.0f%%", hp.GarbageFraction*100),
			fmtMiB(hp.AvgYoungCommitted),
			pick.String(),
			fmtDur(forced.WorkloadDowntime),
			fmtDur(chosen.WorkloadDowntime))
	}
	return t, nil
}

// AblationFinalUpdate compares the two final-bitmap-update designs of §3.3.4
// (X5): immediate shrink notifications + delta final update (implemented)
// versus no shrink notifications + full page-table re-walk at the end
// (considered and deferred by the paper because the re-walk slows the final
// update while applications are paused).
func AblationFinalUpdate(o Options) (*Table, error) {
	o.fillDefaults()
	prof, err := workload.Lookup("derby")
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "X5. Final bitmap update strategies (derby, JAVMM)",
		Header: []string{"strategy", "final update", "downtime", "traffic", "time"},
	}
	for _, rewalk := range []bool{false, true} {
		name := "delta + shrink notifications"
		if rewalk {
			name = "full re-walk at end"
		}
		opts := o.runOpts(prof, migration.ModeAppAssisted, o.Seeds[0])
		opts.LKMRewalk = rewalk
		r, err := RunMigration(opts)
		if err != nil {
			return nil, fmt.Errorf("experiments: final-update ablation (rewalk=%v): %w", rewalk, err)
		}
		if r.VerifyErr != nil {
			return nil, fmt.Errorf("experiments: final-update ablation (rewalk=%v) verification: %w", rewalk, r.VerifyErr)
		}
		t.AddRow(name,
			fmtDur(r.Report.FinalUpdate),
			fmtDur(r.WorkloadDowntime),
			fmtBytes(r.Report.TotalBytes()),
			fmtDur(r.Report.TotalTime))
	}
	t.Notes = append(t.Notes,
		"the re-walk variant pairs with the engine's conservative stop-and-copy; its final update walks every skip-over page while the application is paused (§3.3.4)")
	return t, nil
}

// opsInWindow sums operations completed in timeline seconds [from, to).
func opsInWindow(samples []workload.Sample, from, to int) float64 {
	var total float64
	for _, s := range samples {
		if s.Second >= from && s.Second < to {
			total += s.Ops
		}
	}
	return total
}

// AblationALB evaluates the §2 baseline the paper contrasts with:
// Application-Level Ballooning (Salomie et al.), which shrinks the Java heap
// before migration so pre-copy has less dirty memory to chase, at the price
// of more frequent GCs while the balloon is inflated. Three configurations
// on derby: plain Xen, Xen+ALB (young ballooned to 128 MiB), and JAVMM.
func AblationALB(o Options) (*Table, error) {
	o.fillDefaults()
	prof, err := workload.Lookup("derby")
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "X6. Application-Level Ballooning baseline vs JAVMM (derby)",
		Header: []string{"config", "time", "traffic", "downtime", "young at migration", "ops during migration+60s"},
	}
	configs := []struct {
		name string
		mode migration.Mode
		alb  uint64
	}{
		{"xen", migration.ModeVanilla, 0},
		{"xen+ALB(128MiB)", migration.ModeVanilla, 128 << 20},
		{"javmm", migration.ModeAppAssisted, 0},
	}
	for _, c := range configs {
		opts := o.runOpts(prof, c.mode, o.Seeds[0])
		opts.ALBShrinkTo = c.alb
		if opts.Cooldown < 70*time.Second {
			opts.Cooldown = 70 * time.Second
		}
		r, err := RunMigration(opts)
		if err != nil {
			return nil, fmt.Errorf("experiments: ALB ablation %s: %w", c.name, err)
		}
		if r.VerifyErr != nil {
			return nil, fmt.Errorf("experiments: ALB ablation %s verification: %w", c.name, r.VerifyErr)
		}
		ops := opsInWindow(r.Samples, r.MigrationStartSecond, r.MigrationStartSecond+60)
		t.AddRow(c.name,
			fmtDur(r.Report.TotalTime),
			fmtBytes(r.Report.TotalBytes()),
			fmtDur(r.WorkloadDowntime),
			fmtMiB(r.YoungCommittedAtMigration),
			fmt.Sprintf("%.1f", ops))
	}
	t.Notes = append(t.Notes,
		"ALB cuts traffic by shrinking the heap but pays continuous GC overhead while ballooned; JAVMM skips the same memory without shrinking it (§2)")
	return t, nil
}

// AblationScale evaluates the §6 claim that JAVMM's benefits persist for
// larger VMs on faster networks, since footprints and dirtying rates scale
// with the platform: a 2 GiB derby VM on gigabit vs a 4 GiB double-rate
// derby on 10 GbE.
func AblationScale(o Options) (*Table, error) {
	o.fillDefaults()
	base, err := workload.Lookup("derby")
	if err != nil {
		return nil, err
	}
	// The scaled platform (§6): 4x memory and young generation, ~7x
	// allocation rate (keeping dirtying ~2.4x the link, derby's ratio on
	// gigabit), and 4x faster cores, which show up as 4x cheaper GC work
	// per byte.
	scaled := base
	scaled.Name = "derby-scaled"
	scaled.AllocBytesPerSec = 2000 << 20
	scaled.MaxYoungBytes = 4 << 30
	scaled.InitialYoungBytes = 256 << 20
	scaled.MaxOldBytes = 2 << 30
	scaled.OldSeedBytes = 512 << 20
	scaled.OldMutatePagesPerSec *= 4
	scaled.MinorGCBase = 30 * time.Millisecond
	scaled.MinorCopyNsPB = 4
	scaled.MinorScanNsPB = 0.15

	t := &Table{
		Title:  "X7. Scaling: larger VM, faster network (§6)",
		Header: []string{"setup", "xen time", "javmm time", "time cut", "xen traffic", "javmm traffic", "traffic cut"},
	}
	setups := []struct {
		label string
		prof  workload.Profile
		mem   uint64
		bw    uint64
	}{
		{"2GiB VM, 1GbE", base, 2 << 30, netsim.GigabitEffective},
		{"8GiB VM, 10GbE", scaled, 8 << 30, netsim.TenGigabitEffective},
	}
	for _, s := range setups {
		var runs [2]*Run
		for i, mode := range []migration.Mode{migration.ModeVanilla, migration.ModeAppAssisted} {
			opts := o.runOpts(s.prof, mode, o.Seeds[0])
			opts.MemBytes = s.mem
			opts.Bandwidth = s.bw
			r, err := RunMigration(opts)
			if err != nil {
				return nil, fmt.Errorf("experiments: scale ablation %s/%s: %w", s.label, mode, err)
			}
			if r.VerifyErr != nil {
				return nil, fmt.Errorf("experiments: scale ablation %s/%s verification: %w", s.label, mode, r.VerifyErr)
			}
			runs[i] = r
		}
		xen, jav := runs[0], runs[1]
		t.AddRow(s.label,
			fmtDur(xen.Report.TotalTime), fmtDur(jav.Report.TotalTime),
			fmtReduction(xen.Report.TotalTime.Seconds(), jav.Report.TotalTime.Seconds()),
			fmtBytes(xen.Report.TotalBytes()), fmtBytes(jav.Report.TotalBytes()),
			fmtReduction(float64(xen.Report.TotalBytes()), float64(jav.Report.TotalBytes())))
	}
	t.Notes = append(t.Notes,
		"a 10x network alone does not rescue pre-copy when the VM and its dirtying rate scale with it; young-gen skipping keeps its relative advantage")
	return t, nil
}

// AblationPostCopy renders X8: the post-copy and hybrid baselines (§2)
// against pre-copy and JAVMM on derby. Post-copy wins downtime by
// construction but degrades the resumed VM while its working set is
// non-resident; hybrid's warm phase shortens that tail at the cost of some
// pre-copy traffic; JAVMM gets close to post-copy's downtime without any
// degradation tail. One RunMigration loop covers all four engines — the
// staged pipeline dispatches on Mode.
func AblationPostCopy(o Options) (*Table, error) {
	o.fillDefaults()
	prof, err := workload.Lookup("derby")
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "X8. Post-copy baseline vs pre-copy and JAVMM (derby)",
		Header: []string{"strategy", "time", "traffic", "VM downtime", "degradation", "ops during migration+60s"},
	}

	windowOps := func(r *Run) string {
		return fmt.Sprintf("%.1f", opsInWindow(r.Samples, r.MigrationStartSecond, r.MigrationStartSecond+60))
	}

	modes := []migration.Mode{
		migration.ModeVanilla, migration.ModeAppAssisted,
		migration.ModePostCopy, migration.ModeHybrid,
	}
	for _, mode := range modes {
		opts := o.runOpts(prof, mode, o.Seeds[0])
		if opts.Cooldown < 70*time.Second {
			opts.Cooldown = 70 * time.Second
		}
		r, err := RunMigration(opts)
		if err != nil {
			return nil, err
		}
		if r.VerifyErr != nil {
			return nil, fmt.Errorf("experiments: post-copy ablation %s verification: %w", mode, r.VerifyErr)
		}
		// Degradation is the guest-visible slowdown beyond the blackout:
		// for pre-copy engines the paused-thread tail (enforced GC + final
		// update), for post-copy phases the cumulative demand-fault stall.
		degradation := r.WorkloadDowntime - r.Report.VMDowntime
		if pc := r.Report.PostCopy; pc != nil {
			degradation = pc.FaultStall
		}
		t.AddRow(mode.String(),
			fmtDur(r.Report.TotalTime),
			fmtBytes(r.Report.TotalBytes()),
			fmtDur(r.Report.VMDowntime),
			fmtDur(degradation),
			windowOps(r))
		if pc := r.Report.PostCopy; pc != nil {
			switch mode {
			case migration.ModePostCopy:
				t.Notes = append(t.Notes, fmt.Sprintf(
					"post-copy: %d demand faults stalled the guest for %s; memory fully resident after %s (§2)",
					pc.Faults, fmtDur(pc.FaultStall), fmtDur(pc.ResidentAt)))
			case migration.ModeHybrid:
				t.Notes = append(t.Notes, fmt.Sprintf(
					"hybrid: warm phase left %s resident at switchover; %d demand faults stalled the guest for %s; fully resident after %s",
					fmtBytes(pc.WarmPages*mem.PageSize), pc.Faults, fmtDur(pc.FaultStall), fmtDur(pc.ResidentAt)))
			}
		}
	}
	return t, nil
}

// CacheRun is one cache-application migration outcome (X3).
type CacheRun struct {
	Mode       migration.Mode
	Report     *migration.Report
	HitAfter   float64       // hit ratio immediately after resume
	Recovery   time.Duration // time for the cache to refill completely
	VerifyErr  error
	FinalTotal float64 // ops completed in the 30 s after resume
}

// RunCacheMigration migrates a VM running the memcached-like cache app.
func RunCacheMigration(mode migration.Mode, memBytes, cacheBytes, bandwidth uint64, warmup time.Duration) (*CacheRun, error) {
	clock := simclock.New()
	dom := hypervisor.NewDomain("cache-vm", clock, mem.NewVersionStore(memBytes/mem.PageSize), 4)
	g := guestos.NewGuest(dom, guestos.LKMConfig{Clock: clock})
	app, err := cacheapp.Launch(cacheapp.Config{
		Guest:      g,
		Clock:      clock,
		CacheBytes: cacheBytes,
		Assisted:   mode == migration.ModeAppAssisted,
	})
	if err != nil {
		return nil, err
	}
	app.Run(warmup)

	src := migration.NewSource(g, app, netsim.NewLink(clock, bandwidth, 100*time.Microsecond),
		migration.NewDestination(dom.NumPages()), migration.Config{Mode: mode})
	rep, err := src.Migrate()
	if err != nil {
		return nil, err
	}
	out := &CacheRun{Mode: mode, Report: rep, HitAfter: app.HitRatio()}
	// Purged cache pages carry no meaningful content until the app rewrites
	// them — exactly the §6 contract.
	purgedPFNs := make(map[mem.PFN]bool)
	app.Proc().AS.Walk(app.PurgedRegion(), func(va mem.VA, q mem.PFN) { purgedPFNs[q] = true })
	out.VerifyErr = src.VerifyImage(rep, func(p mem.PFN) bool { return !purgedPFNs[p] })

	resumeAt := clock.Now()
	opsAt := app.TotalOps
	for app.HitRatio() < 1.0 && clock.Now()-resumeAt < 5*time.Minute {
		app.Run(time.Second)
	}
	out.Recovery = clock.Now() - resumeAt
	app.Run(30 * time.Second)
	out.FinalTotal = app.TotalOps - opsAt
	return out, nil
}

// AblationCache renders X3: cache-aware app-assisted migration vs vanilla.
func AblationCache(o Options) (*Table, error) {
	o.fillDefaults()
	t := &Table{
		Title:  "X3. Cache-aware application-assisted migration (memcached-like app, 1 GiB cache in a 2 GiB VM)",
		Header: []string{"mode", "time", "traffic", "downtime", "hit ratio after", "cache recovery"},
	}
	bw := o.Bandwidth
	if bw == 0 {
		bw = netsim.GigabitEffective
	}
	for _, mode := range []migration.Mode{migration.ModeVanilla, migration.ModeAppAssisted} {
		r, err := RunCacheMigration(mode, o.MemBytes, 1<<30, bw, 30*time.Second)
		if err != nil {
			return nil, fmt.Errorf("experiments: cache ablation %s: %w", mode, err)
		}
		if r.VerifyErr != nil {
			return nil, fmt.Errorf("experiments: cache ablation %s verification: %w", mode, r.VerifyErr)
		}
		t.AddRow(mode.String(),
			fmtDur(r.Report.TotalTime),
			fmtBytes(r.Report.TotalBytes()),
			fmtDur(r.Report.VMDowntime),
			fmt.Sprintf("%.0f%%", r.HitAfter*100),
			fmtDur(r.Recovery))
	}
	t.Notes = append(t.Notes,
		"assisted migration ships only the hot quarter of the cache; the destination pays cold misses until refill completes (§6)")
	return t, nil
}
