// Command perfbench measures the simulator's own cost on four closed-loop
// workloads: a fresh scenario per op, repeated until the run's time budget is
// spent. See README.md for the workloads, the metrics and how
// to run it.
//
// Usage:
//
//	sh perfbench/run.sh --workload precopy-xen --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end set; with --trace 1 they are the per-layer set.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"

	"javmm/internal/obs/perf"
)

func main() {
	var c config
	var trace int
	flag.StringVar(&c.workload, "workload", "", "workload to run: precopy-xen, assisted-javmm, postcopy or fleet-evacuate")
	flag.Int64Var(&c.seed, "seed", 1, "benchmark seed; it fixes the scenario seeds the ops run")
	flag.Float64Var(&c.seconds, "seconds", 30, "how long the timed ops run, in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced passes and reports per-layer metrics")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	c.trace = trace == 1
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	if err := run(c, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// config is one run's parameters.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects metrics in print order.
type report struct {
	names []string
	res   result
}

func (r *report) add(name string, value float64, unit string) {
	r.names = append(r.names, name)
	r.res.Metrics[name] = metric{value, unit}
}

// run executes one workload for the configured time and writes the metrics,
// one "name value unit" line each, then the JSON result line. Failed ops are
// counted and reported on errOut; they do not stop the run.
func run(c config, out, errOut io.Writer) error {
	w, err := lookupWorkload(c.workload)
	if err != nil {
		return err
	}
	if c.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	rep := &report{res: result{Metrics: map[string]metric{}}}
	var info []string
	if c.trace {
		runTraced(w, c, rep, errOut)
	} else {
		info = runPlain(w, c, rep, errOut)
	}
	rep.res.Correct = rep.res.Failed == 0

	for _, name := range rep.names {
		m := rep.res.Metrics[name]
		fmt.Fprintf(out, "%s %s %s\n", name, fmtFloat(m.Value), m.Unit)
	}
	for _, line := range info {
		fmt.Fprintln(out, line)
	}
	fmt.Fprintf(out, "ops %d\nfailed_ops %d\n", rep.res.Attempted, rep.res.Failed)
	line, err := json.Marshal(rep.res)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", line)
	return nil
}

// checker runs ops and counts failures. The first op that succeeds at a
// scenario seed pins the deterministic block every later op at that seed
// must reproduce.
type checker struct {
	w      spec
	rep    *report
	errOut io.Writer
	refs   map[int64]string
	ops    int
}

func newChecker(w spec, rep *report, errOut io.Writer) *checker {
	return &checker{w: w, rep: rep, errOut: errOut, refs: map[int64]string{}}
}

// do runs one op at seed through every pass in passes; it returns nil when
// any pass failed or diverged from the reference block.
func (k *checker) do(seed int64, passes ...pass) []*opResult {
	i := k.ops
	k.ops++
	k.rep.res.Attempted++
	var out []*opResult
	for _, p := range passes {
		// Collect the previous scenario's garbage outside the timed window,
		// so every op starts from the same heap.
		runtime.GC()
		r, err := scenario(k.w, seed, p)
		if err == nil {
			if ref, ok := k.refs[seed]; !ok {
				k.refs[seed] = r.det
			} else if r.det != ref {
				err = fmt.Errorf("deterministic block differs from the first op's at seed %d:\nfirst: %s\nthis:  %s", seed, ref, r.det)
			}
		}
		if err != nil {
			k.rep.res.Failed++
			fmt.Fprintf(k.errOut, "op %d (seed %d, pass %d) failed: %v\n", i, seed, p, err)
			return nil
		}
		out = append(out, r)
	}
	return out
}

// scenarioSeeds derives a run's n scenario seeds from the benchmark seed:
// seed s covers (s-1)·n+1 … s·n, so seed 1 starts at scenario seed 1 and two
// benchmark seeds never share a scenario.
func scenarioSeeds(seed int64, n int) []int64 {
	out := make([]int64, n)
	for j := range out {
		out[j] = (seed-1)*int64(n) + 1 + int64(j)
	}
	return out
}

// loop runs op 0 untimed, then ops 1, 2, … until the budget is spent: a new
// op starts only if the previous op's duration still fits. At least one
// timed op runs.
func loop(seconds float64, op func(i int)) {
	op(0)
	budget := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	for i := 1; ; i++ {
		t := time.Now()
		op(i)
		if time.Since(start)+time.Since(t) > budget {
			return
		}
	}
}

// bySeed holds one metric's samples from the timed ops, grouped by
// scenario seed.
type bySeed map[int64][]float64

// value is the mean over seeds of each seed's median, which weights every
// scenario equally however often it ran. Seeds are summed in order, so equal
// samples give a bit-identical value.
func (b bySeed) value() float64 {
	if len(b) == 0 {
		return 0
	}
	seeds := make([]int64, 0, len(b))
	for s := range b {
		seeds = append(seeds, s)
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	var sum float64
	for _, s := range seeds {
		sum += median(b[s])
	}
	return sum / float64(len(seeds))
}

// e2eMetric is one end-to-end metric computed from each timed op. Host
// times are noisy and take the median over ops; the rest hardly vary
// between ops at one seed but do between seeds, so they take bySeed.value.
type e2eMetric struct {
	name, unit string
	hostTime   bool
	of         func(*opResult) float64
}

// endToEnd lists the per-op end-to-end metrics in print order.
var endToEnd = []e2eMetric{
	{"setup_s", "s", true, func(r *opResult) float64 { return scaled(r.setup, r.cal) }},
	{"migrate_s", "s", true, func(r *opResult) float64 { return scaled(r.migrate, r.cal) }},
	{"sim_speed", "sim-s/s", true, func(r *opResult) float64 { return r.sim.virtualS / scaled(r.setup+r.migrate, r.cal) }},
	{"alloc_mib_per_op", "MiB", false, func(r *opResult) float64 { return float64(r.allocs.bytes) / (1 << 20) }},
	{"allocs_per_op", "objects", false, func(r *opResult) float64 { return float64(r.allocs.objects) }},
	{"sim_total_s", "sim-s", false, func(r *opResult) float64 { return r.sim.totalS }},
	{"sim_downtime_ms", "sim-ms", false, func(r *opResult) float64 { return r.sim.downtimeMs }},
	{"sim_wire_mib", "MiB", false, func(r *opResult) float64 { return r.sim.wireMiB }},
	{"sim_sla_cost", "cost", false, func(r *opResult) float64 { return r.sim.slaCost }},
}

// runPlain is the end-to-end run: untraced ops cycling through the run's
// scenario seeds. Each op's host times are scaled by the mean of the
// calibration loops timed just before and just after it. It returns
// informational lines that are not metrics: the unscaled host times, the
// calibration time and the tail of migrate_s.
func runPlain(w spec, c config, rep *report, errOut io.Writer) []string {
	k := newChecker(w, rep, errOut)
	seeds := scenarioSeeds(c.seed, w.seeds)
	var ops []*opResult
	var opSeeds []int64
	var before, after []time.Duration // calibration around each timed op
	calibrateNow := func() time.Duration {
		runtime.GC() // calibrate on a heap without the previous op's garbage
		return calibrate()
	}
	loop(c.seconds, func(i int) {
		// The untimed op and the first timed op share a seed, so even the
		// shortest run replays one scenario and checks it.
		seed := seeds[max(i-1, 0)%len(seeds)]
		d := calibrateNow()
		if len(after) < len(before) {
			after = append(after, d)
		}
		rs := k.do(seed, passPlain)
		if rs == nil || i == 0 {
			return
		}
		ops = append(ops, rs[0])
		opSeeds = append(opSeeds, seed)
		before = append(before, d)
	})
	if len(after) < len(before) {
		after = append(after, calibrateNow())
	}

	var rawSetup, rawMigrate, calMs []float64
	for i, r := range ops {
		r.cal = (before[i] + after[i]) / 2
		rawSetup = append(rawSetup, r.setup.Seconds())
		rawMigrate = append(rawMigrate, r.migrate.Seconds())
		calMs = append(calMs, r.cal.Seconds()*1000)
	}
	var migrate []float64
	for _, m := range endToEnd {
		var xs []float64
		per := bySeed{}
		for i, r := range ops {
			v := m.of(r)
			xs = append(xs, v)
			per[opSeeds[i]] = append(per[opSeeds[i]], v)
		}
		if m.hostTime {
			rep.add(m.name, median(xs), m.unit)
		} else {
			rep.add(m.name, per.value(), m.unit)
		}
		if m.name == "migrate_s" {
			migrate = xs
		}
	}
	rep.add("peak_rss_mib", peakRSSMiB(), "MiB")

	distinct := map[int64]bool{}
	for _, s := range opSeeds {
		distinct[s] = true
	}
	info := []string{
		fmt.Sprintf("scenario_seeds %d of %d..%d", len(distinct), seeds[0], seeds[len(seeds)-1]),
		fmt.Sprintf("unscaled setup_s %s s, migrate_s %s s (medians over ops)", fmtFloat(median(rawSetup)), fmtFloat(median(rawMigrate))),
		fmt.Sprintf("calibration %s ms (median; %s ms nominal)", fmtFloat(median(calMs)), fmtFloat(calibrationNominal.Seconds()*1000)),
	}
	if p, v, ok := tailPercentile(migrate); ok {
		info = append(info, fmt.Sprintf("migrate_s.p%d %s s n=%d", p, fmtFloat(v), len(migrate)))
	} else {
		info = append(info, fmt.Sprintf("migrate_s.tail n/a n=%d (too few ops for a percentile with ten beyond it)", len(migrate)))
	}
	return info
}

// fmtFloat prints v with every digit it has.
func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// peakRSSMiB is the process's maximum resident set size so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// layerValue is one per-layer metric of one op.
type layerValue struct {
	name  string
	value float64
	unit  string
}

// runTraced is the per-layer run. Every op runs the run's first scenario
// seed and makes three passes over the same deterministic work (see pass);
// every pass must reproduce the untimed untraced op's deterministic block.
// The profiler's probe cost is timed again before each op, so the stage
// correction follows the host's speed. Per-op values are reported as
// medians.
func runTraced(w spec, c config, rep *report, errOut io.Writer) {
	ks := kernels(c.seed)
	kernelNs := make([]float64, len(ks))
	for i, kn := range ks {
		kernelNs[i] = nsPerOp(kn.op)
	}

	k := newChecker(w, rep, errOut)
	seed := scenarioSeeds(c.seed, w.seeds)[0]
	var ops [][]layerValue
	loop(c.seconds, func(i int) {
		if i == 0 {
			k.do(seed, passPlain)
			return
		}
		pc := probe()
		if rs := k.do(seed, passA, passB, passC); rs != nil {
			ops = append(ops, layers(rs[0], rs[1], rs[2], pc))
		}
	})
	// An empty op supplies the names, so a run whose ops all failed still
	// reports every metric (at zero).
	for j, lv := range layers(&opResult{}, &opResult{}, &opResult{}, probeCost{}) {
		xs := make([]float64, len(ops))
		for i, op := range ops {
			xs[i] = op[j].value
		}
		rep.add(lv.name, median(xs), lv.unit)
	}
	for i, kn := range ks {
		rep.add(kn.name, kernelNs[i], "ns")
	}
}

// layers derives one op's per-layer metrics from its three passes. Stage
// self times are corrected by pc.selfNs per call, the self time the profiler
// books for an empty stage.
func layers(a, b, c *opResult, pc probeCost) []layerValue {
	var out []layerValue
	add := func(name string, v float64, unit string) {
		out = append(out, layerValue{name, v, unit})
	}
	add("workload.boot_s", a.boot.Seconds(), "s")
	add("workload.warmup_s", a.warmup.Seconds(), "s")
	add("workload.guest_s", a.guest.Seconds(), "s")
	add("workload.guest_calls", float64(a.guestCalls), "count")
	add("migration.verify_s", a.verify.Seconds(), "s")
	engine := (a.migrate - a.guest - a.verify).Seconds()
	add("migration.engine_s", engine, "s")

	stats := map[string]perf.StageStats{}
	for _, st := range b.stages {
		stats[st.Stage] = st
	}
	alloc := map[string]uint64{}
	for _, st := range c.stages {
		alloc[st.Stage] = st.SelfAllocBytes
	}
	var selfSum float64
	for _, s := range perf.Stages() {
		n := s.String()
		st := stats[n]
		self := (float64(st.SelfNs) - float64(st.Calls)*pc.selfNs) / 1e9
		selfSum += self
		add("migration."+n+".calls", float64(st.Calls), "count")
		add("migration."+n+".self_s", self, "s")
		add("migration."+n+".alloc_mib", float64(alloc[n])/(1<<20), "MiB")
	}
	// Stage time booked while the guest executor ran (post-copy demand
	// fetches) is part of guest time, not engine time.
	add("migration.outside-stages_s", engine-(selfSum-b.nested.Seconds()), "s")
	ratio := 0.0
	if a.migrate > 0 {
		ratio = b.migrate.Seconds() / a.migrate.Seconds()
	}
	add("migration.traced_ratio", ratio, "ratio")
	add("migration.probe_ns", pc.pairNs, "ns")
	add("migration.probe_self_ns", pc.selfNs, "ns")
	add("runtime.gc_cpu_s", a.gc.cpuSeconds, "s")
	add("runtime.gc_cycles", float64(a.gc.cycles), "count")

	f := a.fleet
	add("fleet.deferrals", float64(f.deferrals), "count")
	add("fleet.quiet_launches", float64(f.quietLaunches), "count")
	add("fleet.backbone_transfers", float64(f.backboneTransfers), "count")
	add("fleet.backbone_max_concurrent", float64(f.backboneMaxConcurrent), "count")
	add("fleet.progress_events", float64(f.progressEvents), "count")
	return out
}
