// Benchmarks regenerating every table and figure of the paper's evaluation.
// Each benchmark runs the corresponding experiment end-to-end (boot, warm up,
// migrate, reduce) and reports the paper-relevant quantities as custom
// metrics alongside the usual time/allocs. EXPERIMENTS.md records the
// paper-vs-measured comparison; `go run ./cmd/javmm-experiments` prints the
// full tables.
package javmm_test

import (
	"testing"
	"time"

	"javmm/internal/experiments"
	"javmm/internal/migration"
	"javmm/internal/obs/perf"
	"javmm/internal/workload"
)

// benchOpts runs experiments at the paper's full scale with a single seed.
func benchOpts() experiments.Options {
	return experiments.Options{
		Warmup:     300 * time.Second,
		Cooldown:   60 * time.Second,
		Seeds:      []int64{1},
		ProfileDur: 600 * time.Second,
	}
}

// BenchmarkFigure1_XenDerbyIterations regenerates Figure 1: per-iteration
// behaviour of vanilla Xen migrating the 2 GiB derby VM.
func BenchmarkFigure1_XenDerbyIterations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Figure1(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(tab.Rows)), "iterations")
	}
}

// BenchmarkFigure5_HeapProfile regenerates Figure 5: heap usage and GC
// behaviour of all nine workloads over a 10-minute profiling run.
func BenchmarkFigure5_HeapProfile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Figure5(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(tab.Rows)), "workloads")
	}
}

// BenchmarkFigure8_CompilerProgress regenerates Figures 8 and 9: migration
// progress and per-iteration memory disposition for the compiler VM under
// Xen and JAVMM.
func BenchmarkFigure8_CompilerProgress(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig8, fig9, err := experiments.Figure8and9(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(fig8.Rows)), "iterations")
		_ = fig9
	}
}

// compareBench runs a Xen-vs-JAVMM comparison and reports the reductions.
func compareBench(b *testing.B, names []string, overrides experiments.MaxYoungOverrides) []experiments.Comparison {
	b.Helper()
	var profs []workload.Profile
	for _, n := range names {
		p, err := workload.Lookup(n)
		if err != nil {
			b.Fatal(err)
		}
		profs = append(profs, p)
	}
	cs, err := experiments.CompareWorkloads(profs, benchOpts(), overrides)
	if err != nil {
		b.Fatal(err)
	}
	return cs
}

// BenchmarkFigure10_MigrationPerformance regenerates Figure 10 (and Table 2
// and the §5.3 CPU/memory extras): derby, crypto and scimark under both
// migrators.
func BenchmarkFigure10_MigrationPerformance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cs := compareBench(b, []string{"derby", "crypto", "scimark"}, nil)
		timeT, trafficT, downT, attribT, cpuT := experiments.Figure10(cs)
		_ = experiments.Table2(cs)
		for _, tab := range []*experiments.Table{timeT, trafficT, downT, cpuT} {
			if len(tab.Rows) != 3 {
				b.Fatalf("table %q rows = %d", tab.Title, len(tab.Rows))
			}
		}
		if len(attribT.Rows) != 6 {
			b.Fatalf("attribution table rows = %d, want 6", len(attribT.Rows))
		}
		// Headline metric: derby migration-time reduction (paper: 82 %).
		derby := cs[0]
		x := derby.Xen[0].Report.TotalTime.Seconds()
		j := derby.Javmm[0].Report.TotalTime.Seconds()
		b.ReportMetric((x-j)/x*100, "%time-reduction-derby")
	}
}

// BenchmarkFigure11_Throughput regenerates Figure 11: throughput timelines
// around migration for derby, crypto and scimark.
func BenchmarkFigure11_Throughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cs := compareBench(b, []string{"derby", "crypto", "scimark"}, nil)
		tabs := experiments.Figure11(cs, 80)
		if len(tabs) != 3 {
			b.Fatalf("timelines = %d", len(tabs))
		}
	}
}

// BenchmarkFigure12_YoungGenSweep regenerates Figure 12 and Table 3: the
// category-1 young-generation size sweep (xml 1.5 GiB, derby 1 GiB,
// compiler 0.5 GiB).
func BenchmarkFigure12_YoungGenSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		overrides := experiments.Table3Overrides()
		cs := compareBench(b, []string{"xml", "derby", "compiler"}, overrides)
		timeT, trafficT, downT := experiments.Figure12(cs)
		_ = experiments.Table3(cs, overrides)
		for _, tab := range []*experiments.Table{timeT, trafficT, downT} {
			if len(tab.Rows) != 3 {
				b.Fatalf("table %q rows = %d", tab.Title, len(tab.Rows))
			}
		}
		// Headline: xml traffic reduction (paper: 93 %).
		xml := cs[0]
		x := float64(xml.Xen[0].Report.TotalBytes())
		j := float64(xml.Javmm[0].Report.TotalBytes())
		b.ReportMetric((x-j)/x*100, "%traffic-reduction-xml")
	}
}

// BenchmarkAblation_Compression regenerates X2: the §6 compress-unskipped
// extension on derby.
func BenchmarkAblation_Compression(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationCompression(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_CacheAware regenerates X3: the memcached-like cache
// application under vanilla and assisted migration.
func BenchmarkAblation_CacheAware(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationCache(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_Policy regenerates X4: the §6 intelligent-mode policy on
// derby (favourable) and scimark (unfavourable).
func BenchmarkAblation_Policy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationPolicy(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_FinalUpdate regenerates X5: the two §3.3.4 final-update
// designs.
func BenchmarkAblation_FinalUpdate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationFinalUpdate(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_ALB regenerates X6: the Application-Level Ballooning
// baseline (§2) against JAVMM on derby.
func BenchmarkAblation_ALB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationALB(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_Scale regenerates X7: the §6 scaling claim (8 GiB VM on
// 10 GbE keeps JAVMM's relative advantage).
func BenchmarkAblation_Scale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationScale(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_PostCopy regenerates X8: the post-copy baseline (§2)
// against pre-copy and JAVMM.
func BenchmarkAblation_PostCopy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationPostCopy(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_Replication regenerates X9: RemusDB-style checkpoint
// replication with memory deprotection through the framework.
func BenchmarkAblation_Replication(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationReplication(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_Congestion regenerates X10: migration under mid-flight
// link congestion.
func BenchmarkAblation_Congestion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationCongestion(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_G1 regenerates X11: JAVMM with the region-based
// collector (§6 future work).
func BenchmarkAblation_G1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationG1(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_FreePages regenerates X12: OS-assisted free-page
// skipping under heavy and light load.
func BenchmarkAblation_FreePages(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationFreePages(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_Delta regenerates X13: the XBZRLE-style delta
// compression baseline (§2).
func BenchmarkAblation_Delta(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationDelta(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngine_XenDerby measures one full vanilla migration (the paper's
// baseline path) as a single unit of work.
func BenchmarkEngine_XenDerby(b *testing.B) {
	prof, err := workload.Lookup("derby")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunMigration(experiments.RunOpts{
			Profile: prof, Mode: migration.ModeVanilla, Seed: int64(i), Warmup: 300 * time.Second,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Report.TotalTime.Seconds(), "virtual-s")
		b.ReportMetric(float64(r.Report.TotalBytes())/1e9, "virtual-GB")
	}
}

// BenchmarkEngine_PostCopyDerby measures one full post-copy migration, the
// lazy engine whose demand fetches the guest's write runs drive.
func BenchmarkEngine_PostCopyDerby(b *testing.B) {
	prof, err := workload.Lookup("derby")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunMigration(experiments.RunOpts{
			Profile: prof, Mode: migration.ModePostCopy, Seed: int64(i), Warmup: 300 * time.Second,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Report.TotalTime.Seconds(), "virtual-s")
		b.ReportMetric(float64(r.Report.PostCopy.Faults), "faults")
	}
}

// BenchmarkEngine_JavmmDerby measures one full app-assisted migration.
func BenchmarkEngine_JavmmDerby(b *testing.B) {
	prof, err := workload.Lookup("derby")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunMigration(experiments.RunOpts{
			Profile: prof, Mode: migration.ModeAppAssisted, Seed: int64(i), Warmup: 300 * time.Second,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Report.TotalTime.Seconds(), "virtual-s")
		b.ReportMetric(r.WorkloadDowntime.Seconds(), "virtual-downtime-s")
	}
}

// BenchmarkEngine_JavmmDerbyStageProfile is BenchmarkEngine_JavmmDerby with
// the real-clock stage profiler attached, reporting where the simulator's own
// CPU time goes as stage-share custom metrics. Comparing its ns/op against
// the unprofiled benchmark bounds the profiler's overhead; the engine's
// transparency contract (TestPerfProfilerTransparent) guarantees the virtual
// results are unchanged.
func BenchmarkEngine_JavmmDerbyStageProfile(b *testing.B) {
	prof, err := workload.Lookup("derby")
	if err != nil {
		b.Fatal(err)
	}
	stages := perf.NewProfiler(perf.WithAllocs())
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunMigration(experiments.RunOpts{
			Profile: prof, Mode: migration.ModeAppAssisted, Seed: int64(i),
			Warmup: 300 * time.Second,
			Engine: migration.Config{Perf: stages},
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Report.TotalTime.Seconds(), "virtual-s")
	}
	var total int64
	snap := stages.Snapshot()
	for _, st := range snap {
		total += st.SelfNs
	}
	for _, st := range snap {
		if total > 0 {
			b.ReportMetric(float64(st.SelfNs)/float64(total)*100, st.Stage+"-share-%")
		}
	}
}
