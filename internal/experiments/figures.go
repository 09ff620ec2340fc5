package experiments

import (
	"fmt"
	"time"

	"javmm/internal/migration"
	"javmm/internal/stats"
	"javmm/internal/workload"
)

// Options tunes the experiment suite. Defaults reproduce the paper's setup:
// 2 GiB VMs, gigabit link, migration halfway through a 10-minute run,
// ≥3 repetitions.
type Options struct {
	MemBytes uint64
	Warmup   time.Duration
	Cooldown time.Duration
	Seeds    []int64
	// ProfileDur is the Figure 5 profiling duration (paper: 10 minutes).
	ProfileDur time.Duration
}

func (o *Options) fillDefaults() {
	if o.MemBytes == 0 {
		o.MemBytes = 2 << 30
	}
	if o.Warmup == 0 {
		o.Warmup = 300 * time.Second
	}
	if o.Cooldown == 0 {
		o.Cooldown = 100 * time.Second
	}
	if len(o.Seeds) == 0 {
		o.Seeds = []int64{1, 2, 3}
	}
	if o.ProfileDur == 0 {
		o.ProfileDur = 600 * time.Second
	}
}

func (o Options) runOpts(prof workload.Profile, mode migration.Mode, seed int64) RunOpts {
	return RunOpts{
		Profile:  prof,
		Mode:     mode,
		Seed:     seed,
		MemBytes: o.MemBytes,
		Warmup:   o.Warmup,
		Cooldown: o.Cooldown,
	}
}

// Table1 renders the paper's Table 1: the workload catalog.
func Table1() *Table {
	t := &Table{
		Title:  "Table 1. SPECjvm2008 workloads (synthetic equivalents)",
		Header: []string{"workload", "category", "description"},
	}
	for _, p := range workload.Catalog() {
		t.AddRow(p.Name, fmt.Sprintf("%d", p.Category), p.Description)
	}
	return t
}

// Figure1 reproduces the motivating experiment: vanilla Xen migration of the
// 2 GiB derby VM, reporting per-iteration duration, transfer rate and
// dirtying rate.
func Figure1(o Options) (*Table, error) {
	o.fillDefaults()
	prof, err := workload.Lookup("derby")
	if err != nil {
		return nil, err
	}
	run, err := RunMigration(o.runOpts(prof, migration.ModeVanilla, o.Seeds[0]))
	if err != nil {
		return nil, err
	}
	if run.VerifyErr != nil {
		return nil, fmt.Errorf("experiments: figure 1 verification: %w", run.VerifyErr)
	}
	t := &Table{
		Title:  "Figure 1. Vanilla Xen migration of a 2GB derby VM (per iteration)",
		Header: []string{"iter", "duration", "sent", "transfer rate", "dirtying rate"},
	}
	for _, it := range run.Report.Iterations {
		t.AddRow(
			fmt.Sprintf("%d%s", it.Index, lastMark(it.Last)),
			fmtDur(it.Duration),
			fmtBytes(it.BytesOnWire),
			fmt.Sprintf("%.0f MB/s", it.TransferRate()/1e6),
			fmt.Sprintf("%.0f MB/s", it.DirtyRate()*4096/1e6),
		)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("total %s in %s, downtime %s",
			fmtBytes(run.Report.TotalBytes()), fmtDur(run.Report.TotalTime), fmtDur(run.WorkloadDowntime)))
	return t, nil
}

func lastMark(last bool) string {
	if last {
		return "*"
	}
	return ""
}

// Figure5 reproduces the heap-usage profiling of §4.2: average young/old
// consumption (5a), garbage vs live per minor GC (5b) and minor GC duration
// (5c) for all nine workloads.
func Figure5(o Options) (*Table, error) {
	o.fillDefaults()
	t := &Table{
		Title: "Figure 5. Java heap usage and GC behaviour (2GB VM, 1GB max young)",
		Header: []string{"workload", "young avg", "old avg",
			"garbage/GC", "live/GC", "garbage %", "minor GC time", "GC interval"},
	}
	for _, prof := range workload.Catalog() {
		hp, err := ProfileHeap(prof, o.ProfileDur, o.MemBytes, o.Seeds[0])
		if err != nil {
			return nil, err
		}
		t.AddRow(
			hp.Workload,
			fmtMiB(hp.AvgYoungCommitted),
			fmtMiB(hp.AvgOldUsed),
			fmtMiB(hp.AvgGarbagePerGC),
			fmtMiB(hp.AvgLivePerGC),
			fmt.Sprintf("%.1f%%", hp.GarbageFraction*100),
			fmtDur(hp.AvgMinorGCDuration),
			fmt.Sprintf("%.1f s", hp.GCIntervalSeconds),
		)
	}
	return t, nil
}

// Figure8and9 reproduces the migration-progress comparison on the compiler
// workload (512 MiB young generation, Table 3 setting): Figure 8's iteration
// timeline and Figure 9's per-iteration memory disposition, for Xen and
// JAVMM.
func Figure8and9(o Options) (fig8, fig9 *Table, err error) {
	o.fillDefaults()
	prof, err := workload.Lookup("compiler")
	if err != nil {
		return nil, nil, err
	}
	runs := make(map[string]*Run, 2)
	for _, mode := range []migration.Mode{migration.ModeVanilla, migration.ModeAppAssisted} {
		opts := o.runOpts(prof, mode, o.Seeds[0])
		opts.MaxYoungOverride = 512 << 20
		r, err := RunMigration(opts)
		if err != nil {
			return nil, nil, err
		}
		if r.VerifyErr != nil {
			return nil, nil, fmt.Errorf("experiments: figure 8 %s verification: %w", mode, r.VerifyErr)
		}
		runs[mode.String()] = r
	}

	fig8 = &Table{
		Title:  "Figure 8. Progress of migrating the compiler VM (one run per mode)",
		Header: []string{"mode", "iter", "start", "duration", "traffic"},
	}
	fig9 = &Table{
		Title:  "Figure 9. Memory processed per iteration (compiler VM)",
		Header: []string{"mode", "iter", "transferred", "skipped (already dirtied)", "skipped (young gen)"},
	}
	for _, mode := range []string{"xen", "javmm"} {
		r := runs[mode]
		for _, it := range r.Report.Iterations {
			fig8.AddRow(mode, fmt.Sprintf("%d%s", it.Index, lastMark(it.Last)),
				fmtDur(it.Start), fmtDur(it.Duration), fmtBytes(it.BytesOnWire))
			fig9.AddRow(mode, fmt.Sprintf("%d%s", it.Index, lastMark(it.Last)),
				fmtBytes(it.PagesSent*4096),
				fmtBytes(it.PagesSkippedDirty*4096),
				fmtBytes(it.PagesSkippedBitmap*4096))
		}
		fig8.Notes = append(fig8.Notes, fmt.Sprintf("%s: %d iterations, %s total, %s traffic",
			mode, len(r.Report.Iterations), fmtDur(r.Report.TotalTime), fmtBytes(r.Report.TotalBytes())))
	}
	return fig8, fig9, nil
}

// Comparison aggregates Xen-vs-JAVMM runs of one workload across seeds.
type Comparison struct {
	Workload string
	Xen      []*Run
	Javmm    []*Run
}

// MaxYoungOverrides carries Table 3's per-workload young-generation caps.
type MaxYoungOverrides map[string]uint64

// CompareWorkloads migrates each profile under both modes for every seed.
func CompareWorkloads(profiles []workload.Profile, o Options, overrides MaxYoungOverrides) ([]Comparison, error) {
	o.fillDefaults()
	var out []Comparison
	for _, prof := range profiles {
		c := Comparison{Workload: prof.Name}
		for _, seed := range o.Seeds {
			for _, mode := range []migration.Mode{migration.ModeVanilla, migration.ModeAppAssisted} {
				opts := o.runOpts(prof, mode, seed)
				if ov, ok := overrides[prof.Name]; ok {
					opts.MaxYoungOverride = ov
				}
				r, err := RunMigration(opts)
				if err != nil {
					return nil, fmt.Errorf("experiments: %s/%s seed %d: %w", prof.Name, mode, seed, err)
				}
				if r.VerifyErr != nil {
					return nil, fmt.Errorf("experiments: %s/%s seed %d verification: %w",
						prof.Name, mode, seed, r.VerifyErr)
				}
				if mode == migration.ModeVanilla {
					c.Xen = append(c.Xen, r)
				} else {
					c.Javmm = append(c.Javmm, r)
				}
			}
		}
		out = append(out, c)
	}
	return out, nil
}

// metric extracts a float from a run.
type metric func(*Run) float64

func collect(runs []*Run, m metric) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = m(r)
	}
	return out
}

// comparisonTable renders a Figure 10/12-style table for one metric.
func comparisonTable(title, unit string, cs []Comparison, m metric) *Table {
	t := &Table{
		Title:  title,
		Header: []string{"workload", "xen (mean ±CI90)", "javmm (mean ±CI90)", "reduction"},
	}
	for _, c := range cs {
		xm, xh := stats.CI90(collect(c.Xen, m))
		jm, jh := stats.CI90(collect(c.Javmm, m))
		t.AddRow(c.Workload,
			fmt.Sprintf("%.2f ±%.2f %s", xm, xh, unit),
			fmt.Sprintf("%.2f ±%.2f %s", jm, jh, unit),
			fmtReduction(xm, jm),
		)
	}
	return t
}

// DowntimeAttribution renders the exact decomposition behind Figure 10(c):
// per workload and mode, the mean seconds of workload downtime charged to
// each component. Every run's components reconcile tick-for-tick with its
// total (RunMigration enforces it), so each row's columns sum to its total
// up to display rounding.
func DowntimeAttribution(cs []Comparison) *Table {
	t := &Table{
		Title: "Figure 10(c) attribution. Workload downtime by component (mean s)",
		Header: []string{"workload", "mode", "enforced-gc", "final-update",
			"stop-and-copy", "resumption", "total"},
	}
	meanDur := func(runs []*Run, f func(*Run) time.Duration) float64 {
		var s float64
		for _, r := range runs {
			s += f(r).Seconds()
		}
		return s / float64(len(runs))
	}
	add := func(wl, mode string, runs []*Run) {
		if len(runs) == 0 {
			return
		}
		t.AddRow(wl, mode,
			fmt.Sprintf("%.3f", meanDur(runs, func(r *Run) time.Duration { return r.Attribution.EnforcedGC })),
			fmt.Sprintf("%.3f", meanDur(runs, func(r *Run) time.Duration { return r.Attribution.FinalUpdate })),
			fmt.Sprintf("%.3f", meanDur(runs, func(r *Run) time.Duration { return r.Attribution.StopAndCopy })),
			fmt.Sprintf("%.3f", meanDur(runs, func(r *Run) time.Duration { return r.Attribution.Resumption })),
			fmt.Sprintf("%.3f", meanDur(runs, func(r *Run) time.Duration { return r.Attribution.WorkloadDowntime })),
		)
	}
	for _, c := range cs {
		add(c.Workload, "xen", c.Xen)
		add(c.Workload, "javmm", c.Javmm)
	}
	return t
}

// Figure10 renders migration time, traffic and workload downtime for the
// three representative workloads (derby, crypto, scimark) plus the §5.3
// extras: the downtime attribution, daemon CPU time and framework memory
// overhead (X1).
func Figure10(cs []Comparison) (timeT, trafficT, downT, attribT, cpuT *Table) {
	timeT = comparisonTable("Figure 10(a). Total migration time", "s", cs,
		func(r *Run) float64 { return r.Report.TotalTime.Seconds() })
	trafficT = comparisonTable("Figure 10(b). Total migration traffic", "GB", cs,
		func(r *Run) float64 { return float64(r.Report.TotalBytes()) / 1e9 })
	downT = comparisonTable("Figure 10(c). Workload downtime", "s", cs,
		func(r *Run) float64 { return r.WorkloadDowntime.Seconds() })
	attribT = DowntimeAttribution(cs)
	cpuT = comparisonTable("X1. Migration daemon CPU time", "s", cs,
		func(r *Run) float64 { return r.Report.CPUTime.Seconds() })
	for _, c := range cs {
		if len(c.Javmm) > 0 {
			r := c.Javmm[0]
			cpuT.Notes = append(cpuT.Notes, fmt.Sprintf(
				"%s: JAVMM memory overhead = %s transfer bitmap + %s PFN cache",
				c.Workload, fmtBytes(r.LKMBitmapBytes), fmtBytes(r.LKMCacheBytes)))
		}
	}
	return timeT, trafficT, downT, attribT, cpuT
}

// Table2 renders the observed heap state at migration time for the Figure 10
// workloads.
func Table2(cs []Comparison) *Table {
	t := &Table{
		Title:  "Table 2. Heap observed when migrated (max young 1 GiB)",
		Header: []string{"workload", "young gen", "old gen"},
	}
	for _, c := range cs {
		if len(c.Xen) == 0 {
			continue
		}
		r := c.Xen[0]
		t.AddRow(c.Workload, fmtMiB(r.YoungCommittedAtMigration), fmtMiB(r.OldUsedAtMigration))
	}
	return t
}

// Table3 renders the Table 3 settings/observations for the young-size sweep.
func Table3(cs []Comparison, overrides MaxYoungOverrides) *Table {
	t := &Table{
		Title:  "Table 3. Category-1 workloads with different max young sizes",
		Header: []string{"workload", "max young", "young observed", "old observed"},
	}
	for _, c := range cs {
		if len(c.Xen) == 0 {
			continue
		}
		r := c.Xen[0]
		t.AddRow(c.Workload, fmtMiB(overrides[c.Workload]),
			fmtMiB(r.YoungCommittedAtMigration), fmtMiB(r.OldUsedAtMigration))
	}
	return t
}

// Figure11 renders the throughput timelines around migration: ops/sec per
// virtual second, for the first seed of each mode.
func Figure11(cs []Comparison, window int) []*Table {
	var out []*Table
	for _, c := range cs {
		if len(c.Xen) == 0 || len(c.Javmm) == 0 {
			continue
		}
		x, j := c.Xen[0], c.Javmm[0]
		t := &Table{
			Title:  fmt.Sprintf("Figure 11. Throughput of %s around migration (begins at %d s)", c.Workload, x.MigrationStartSecond),
			Header: []string{"second", "xen ops/s", "javmm ops/s"},
		}
		start := x.MigrationStartSecond - window/4
		if start < 0 {
			start = 0
		}
		end := x.MigrationStartSecond + window
		xs := indexSamples(x.Samples)
		js := indexSamples(j.Samples)
		for s := start; s <= end; s++ {
			t.AddRow(fmt.Sprintf("%d", s),
				fmt.Sprintf("%.2f", xs[s]),
				fmt.Sprintf("%.2f", js[s]))
		}
		// The observed downtime: the longest run of near-zero seconds.
		thr := 0.05 * stats.Max(collect(c.Xen, func(r *Run) float64 { return r.Opts.Profile.OpsPerSec }))
		t.Notes = append(t.Notes, fmt.Sprintf(
			"observed stalls (seconds with <5%% of nominal throughput): xen %d s, javmm %d s",
			workload.LongestStall(x.Samples, thr),
			workload.LongestStall(j.Samples, thr)))
		out = append(out, t)
	}
	return out
}

func indexSamples(ss []workload.Sample) map[int]float64 {
	out := make(map[int]float64, len(ss))
	for _, s := range ss {
		out[s.Second] = s.Ops
	}
	return out
}

// Figure12 renders the young-generation-size sweep (xml 1.5 GiB, derby
// 1 GiB, compiler 0.5 GiB).
func Figure12(cs []Comparison) (timeT, trafficT, downT *Table) {
	timeT = comparisonTable("Figure 12(a). Migration time vs young size", "s", cs,
		func(r *Run) float64 { return r.Report.TotalTime.Seconds() })
	trafficT = comparisonTable("Figure 12(b). Migration traffic vs young size", "GB", cs,
		func(r *Run) float64 { return float64(r.Report.TotalBytes()) / 1e9 })
	downT = comparisonTable("Figure 12(c). Workload downtime vs young size", "s", cs,
		func(r *Run) float64 { return r.WorkloadDowntime.Seconds() })
	return timeT, trafficT, downT
}

// Table3Overrides returns the paper's Table 3 young-generation caps.
func Table3Overrides() MaxYoungOverrides {
	return MaxYoungOverrides{
		"xml":      1536 << 20,
		"derby":    1024 << 20,
		"compiler": 512 << 20,
	}
}

// Figure10Workloads returns the §5.3 representative profiles.
func Figure10Workloads() ([]workload.Profile, error) {
	var out []workload.Profile
	for _, name := range []string{"derby", "crypto", "scimark"} {
		p, err := workload.Lookup(name)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// Figure12Workloads returns the Table 3 category-1 profiles.
func Figure12Workloads() ([]workload.Profile, error) {
	var out []workload.Profile
	for _, name := range []string{"xml", "derby", "compiler"} {
		p, err := workload.Lookup(name)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}
