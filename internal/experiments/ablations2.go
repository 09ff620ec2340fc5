package experiments

import (
	"fmt"
	"time"

	"javmm/internal/migration"
	"javmm/internal/netsim"
	"javmm/internal/replication"
	"javmm/internal/workload"
)

// AblationReplication renders X9: RemusDB-style continuous checkpointing of
// a derby VM, with and without memory deprotection through the framework's
// transfer bitmap (paper §2: "the work described in this paper is closest to
// the memory deprotection technique discussed in RemusDB ... data structures
// to be suitably omitted by this technique are yet to be identified" — the
// young generation is that data structure).
func AblationReplication(o Options) (*Table, error) {
	o.fillDefaults()
	prof, err := workload.Lookup("derby")
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "X9. RemusDB-style checkpoint replication of the derby VM (10 s window, 100 ms epochs)",
		Header: []string{"config", "stream", "pages", "deprotected", "avg epoch pause"},
	}
	for _, deprotect := range []bool{false, true} {
		vm, err := workload.Boot(workload.BootConfig{
			MemBytes: o.MemBytes,
			Profile:  prof,
			Assisted: true,
			Seed:     o.Seeds[0],
		})
		if err != nil {
			return nil, err
		}
		vm.Driver.Run(o.Warmup)
		if vm.Driver.Err != nil {
			return nil, vm.Driver.Err
		}
		r := &replication.Replicator{
			Dom:    vm.Dom,
			LKM:    vm.Guest.LKM,
			Link:   netsim.NewLink(vm.Clock, netsim.GigabitEffective, 0),
			Clock:  vm.Clock,
			Exec:   vm.Driver,
			Backup: migration.NewDestination(vm.Dom.NumPages()),
			Cfg:    replication.Config{Deprotect: deprotect},
		}
		rep, err := r.Protect(10 * time.Second)
		if err != nil {
			return nil, fmt.Errorf("experiments: replication ablation (deprotect=%v): %w", deprotect, err)
		}
		name := "remus"
		if deprotect {
			name = "remus+deprotect"
		}
		t.AddRow(name,
			fmtBytes(rep.TotalBytes),
			fmt.Sprintf("%d", rep.TotalPages),
			fmt.Sprintf("%d", rep.Deprotected),
			fmtDur(rep.AvgPause()))
	}
	t.Notes = append(t.Notes,
		"deprotection reuses JAVMM's skip-over areas: young-generation garbage is not replicated, shrinking the checkpoint stream and epoch pauses (§2)")
	return t, nil
}

// AblationDelta renders X13: the delta-compression baseline of Svärd et al.
// (paper §2). XBZRLE-style delta encoding attacks the same resend problem
// JAVMM removes — but by caching a copy of every sent page at the daemon and
// paying CPU per resend, where JAVMM simply never sends the garbage.
func AblationDelta(o Options) (*Table, error) {
	o.fillDefaults()
	prof, err := workload.Lookup("derby")
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "X13. Delta compression (XBZRLE-style, §2) vs JAVMM (derby)",
		Header: []string{"config", "time", "traffic", "downtime", "daemon CPU", "delta resends", "daemon cache"},
	}
	configs := []struct {
		name  string
		mode  migration.Mode
		delta bool
	}{
		{"xen", migration.ModeVanilla, false},
		{"xen+delta", migration.ModeVanilla, true},
		{"javmm", migration.ModeAppAssisted, false},
	}
	for _, c := range configs {
		opts := o.runOpts(prof, c.mode, o.Seeds[0])
		if c.delta {
			opts.EngineConfig = &migration.Config{DeltaCompression: true}
		}
		r, err := RunMigration(opts)
		if err != nil {
			return nil, fmt.Errorf("experiments: delta ablation %s: %w", c.name, err)
		}
		if r.VerifyErr != nil {
			return nil, fmt.Errorf("experiments: delta ablation %s verification: %w", c.name, r.VerifyErr)
		}
		t.AddRow(c.name,
			fmtDur(r.Report.TotalTime),
			fmtBytes(r.Report.TotalBytes()),
			fmtDur(r.WorkloadDowntime),
			fmtDur(r.Report.CPUTime),
			fmt.Sprintf("%d", r.Report.DeltaResends),
			fmtBytes(r.Report.DeltaCacheBytes))
	}
	t.Notes = append(t.Notes,
		"delta encoding shrinks resends to ~15% of a page but caches a full copy of the VM at the daemon and computes on every resend; JAVMM skips the garbage outright (§2/§3)")
	return t, nil
}

// AblationG1 renders X11: JAVMM on the garbage-first-style regional
// collector — the paper's §6 future work ("porting JAVMM to run with
// collectors that use non-contiguous VA ranges for the Young generation").
// Four configurations on derby: vanilla Xen; JAVMM with the agent's per-GC
// skip-area re-reporting OFF (the paper's deferred-expansion design, which
// erodes as regions churn); JAVMM with re-reporting ON; and, for reference,
// JAVMM on the contiguous parallel collector.
func AblationG1(o Options) (*Table, error) {
	o.fillDefaults()
	prof, err := workload.Lookup("derby")
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "X11. JAVMM with a region-based (G1-style) collector (derby)",
		Header: []string{"config", "time", "traffic", "downtime", "re-reports"},
	}
	off, on := false, true
	configs := []struct {
		name      string
		mode      migration.Mode
		collector string
		rereport  *bool
	}{
		{"g1 / xen", migration.ModeVanilla, workload.CollectorG1, nil},
		{"g1 / javmm, no re-report", migration.ModeAppAssisted, workload.CollectorG1, &off},
		{"g1 / javmm, re-report", migration.ModeAppAssisted, workload.CollectorG1, &on},
		{"parallel / javmm", migration.ModeAppAssisted, workload.CollectorParallel, nil},
	}
	for _, c := range configs {
		opts := o.runOpts(prof, c.mode, o.Seeds[0])
		opts.Collector = c.collector
		opts.AgentReReport = c.rereport
		r, err := RunMigration(opts)
		if err != nil {
			return nil, fmt.Errorf("experiments: G1 ablation %q: %w", c.name, err)
		}
		if r.VerifyErr != nil {
			return nil, fmt.Errorf("experiments: G1 ablation %q verification: %w", c.name, r.VerifyErr)
		}
		t.AddRow(c.name,
			fmtDur(r.Report.TotalTime),
			fmtBytes(r.Report.TotalBytes()),
			fmtDur(r.WorkloadDowntime),
			fmt.Sprintf("%d", r.AgentReReports+r.AgentGrowReports))
	}
	t.Notes = append(t.Notes,
		"each G1 minor GC relocates the young generation; without re-reporting, the §3.3.4 deferred-expansion rule leaves the churning regions unprotected and JAVMM degenerates to plain pre-copy (downtime aside)",
		"re-reporting = the agent reports each fresh young region as the heap takes it, plus the full young set at every GC end")
	return t, nil
}

// AblationFreePages renders X12: the OS-assisted baseline the paper's
// introduction weighs and sets aside ("skipping free pages may only benefit
// the migration of lightly-loaded VMs"): the migration daemon consults the
// guest kernel's free list and skips unallocated frames. Compared on a busy
// derby VM and a lightly-loaded one.
func AblationFreePages(o Options) (*Table, error) {
	o.fillDefaults()
	derby, err := workload.Lookup("derby")
	if err != nil {
		return nil, err
	}
	// The lightly-loaded VM: mpeg's modest heap, barely warmed up.
	light, err := workload.Lookup("mpeg")
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title:  "X12. OS-assisted free-page skipping (Koto et al., §1) vs load",
		Header: []string{"VM", "config", "time", "traffic", "free pages skipped"},
	}
	cases := []struct {
		label  string
		prof   workload.Profile
		warmup time.Duration
		skip   bool
	}{
		{"busy (derby)", derby, o.Warmup, false},
		{"busy (derby)", derby, o.Warmup, true},
		{"light (mpeg)", light, 20 * time.Second, false},
		{"light (mpeg)", light, 20 * time.Second, true},
	}
	for _, c := range cases {
		opts := o.runOpts(c.prof, migration.ModeVanilla, o.Seeds[0])
		opts.Warmup = c.warmup
		opts.SkipFreePages = c.skip
		r, err := RunMigration(opts)
		if err != nil {
			return nil, fmt.Errorf("experiments: free-page ablation %s: %w", c.label, err)
		}
		if r.VerifyErr != nil {
			return nil, fmt.Errorf("experiments: free-page ablation %s verification: %w", c.label, r.VerifyErr)
		}
		cfg := "xen"
		if c.skip {
			cfg = "xen+freeskip"
		}
		var freeSkipped uint64
		for _, it := range r.Report.Iterations {
			freeSkipped += it.PagesSkippedFree
		}
		t.AddRow(c.label, cfg,
			fmtDur(r.Report.TotalTime),
			fmtBytes(r.Report.TotalBytes()),
			fmtBytes(freeSkipped*4096))
	}
	t.Notes = append(t.Notes,
		"free pages only pay off once: the busy VM's traffic is dominated by re-dirtied heap, so the saving is a one-iteration constant; the light VM is mostly free pages")
	return t, nil
}

// AblationCongestion renders X10: migration over a link carrying background
// traffic (the §6 "intelligence" discussion: the framework can take current
// network speed into account). The migration path's effective bandwidth
// drops to 40 % halfway through a long Xen migration; JAVMM's short
// migrations mostly dodge the congestion window entirely.
func AblationCongestion(o Options) (*Table, error) {
	o.fillDefaults()
	prof, err := workload.Lookup("derby")
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "X10. Migration under link congestion (derby; bandwidth drops to 40% after 15 s)",
		Header: []string{"mode", "clean link", "congested link", "slowdown"},
	}
	congest := func(start time.Duration) func(time.Duration) float64 {
		return func(now time.Duration) float64 {
			if now >= start+15*time.Second {
				return 0.4
			}
			return 1.0
		}
	}
	for _, mode := range []migration.Mode{migration.ModeVanilla, migration.ModeAppAssisted} {
		var times [2]time.Duration
		for i, congested := range []bool{false, true} {
			vm, err := workload.Boot(workload.BootConfig{
				MemBytes: o.MemBytes,
				Profile:  prof,
				Assisted: mode == migration.ModeAppAssisted,
				Seed:     o.Seeds[0],
			})
			if err != nil {
				return nil, err
			}
			vm.Driver.Run(o.Warmup)
			if vm.Driver.Err != nil {
				return nil, vm.Driver.Err
			}
			link := netsim.NewLink(vm.Clock, netsim.GigabitEffective, 100*time.Microsecond)
			if congested {
				link.Modulator = congest(vm.Clock.Now())
			}
			rep, err := migration.NewSource(vm.Guest, vm.Driver, link,
				migration.NewDestination(vm.Dom.NumPages()), migration.Config{Mode: mode}).Migrate()
			if err != nil {
				return nil, fmt.Errorf("experiments: congestion ablation %s: %w", mode, err)
			}
			times[i] = rep.TotalTime
		}
		t.AddRow(mode.String(),
			fmtDur(times[0]),
			fmtDur(times[1]),
			fmt.Sprintf("%.1fx", times[1].Seconds()/times[0].Seconds()))
	}
	t.Notes = append(t.Notes,
		"long pre-copy migrations are exposed to mid-flight congestion; JAVMM usually finishes before the window opens")
	return t, nil
}
