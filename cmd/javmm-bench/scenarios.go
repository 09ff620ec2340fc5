package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"javmm"
	"javmm/internal/obs/perf"
)

// scenarioSpec names one cell of the end-to-end matrix.
type scenarioSpec struct {
	workload string
	mode     string // xen | javmm | post-copy | hybrid
	codec    string // raw | compress | delta
}

func (s scenarioSpec) name() string {
	return fmt.Sprintf("e2e/%s/%s/%s", s.workload, s.mode, s.codec)
}

// scenarioMatrix is the fixed matrix every snapshot covers: all four modes
// over two workloads with opposite heap profiles (derby: huge young
// generation, the paper's best case; crypto: small young generation, the
// worst), plus the compression and delta codec chains on the flagship
// javmm/derby cell. Quick mode keeps one cell per distinct engine path so
// smoke tests stay fast.
func scenarioMatrix(quick bool) []scenarioSpec {
	if quick {
		return []scenarioSpec{
			{"derby", "xen", "raw"},
			{"derby", "javmm", "raw"},
			{"derby", "javmm", "compress"},
		}
	}
	var specs []scenarioSpec
	for _, mode := range []string{"xen", "javmm", "post-copy", "hybrid"} {
		for _, wl := range []string{"derby", "crypto"} {
			specs = append(specs, scenarioSpec{wl, mode, "raw"})
		}
	}
	specs = append(specs,
		scenarioSpec{"derby", "javmm", "compress"},
		scenarioSpec{"derby", "javmm", "delta"},
	)
	return specs
}

// fleetSpec names one multi-VM contention cell: N VMs of one workload
// migrating concurrently over a shared gigabit backbone. With collect set the
// full fleet observability plane rides along (per-VM tracers, metrics,
// ledgers, the fabric lane, progress capture, SLA pricing) — the cell's
// timing delta against its bare twin is the obs plane's overhead.
type fleetSpec struct {
	workload string
	mode     string
	vms      int
	collect  bool
}

func (s fleetSpec) name(vm int) string {
	kind := "fleet"
	if s.collect {
		kind = "fleetobs"
	}
	return fmt.Sprintf("%s/%s/%s/%dvm/vm%d", kind, s.workload, s.mode, s.vms, vm)
}

// fleetMatrix is the contention coverage: the flagship javmm/derby cell at
// the acceptance scale of four VMs on one link, bare and with the full obs
// plane attached (the fleet-obs-overhead pair). Quick mode halves the fleet.
// The xen fleet is deliberately absent — vanilla pre-copy under 4-way
// contention runs minutes of virtual time per repetition, and X15 already
// covers its shape.
func fleetMatrix(quick bool) []fleetSpec {
	if quick {
		return []fleetSpec{
			{"derby", "javmm", 2, false},
			{"derby", "javmm", 2, true},
		}
	}
	return []fleetSpec{
		{"derby", "javmm", 4, false},
		{"derby", "javmm", 4, true},
	}
}

// orchSpec names one orchestrator cell: an "evacuate host src" batch plan
// executed under one launch ordering. The naive/cycle-aware pair prices the
// scheduler itself — same cluster, same plan, same seed, the only delta is
// the launch policy (and the deterministic blocks it produces).
type orchSpec struct {
	ordering javmm.Ordering
	vms      int
}

func (s orchSpec) name(vm int) string {
	return fmt.Sprintf("orch/evacuate/%s/%dvm/vm%d", s.ordering, s.vms, vm)
}

// orchMatrix is the orchestrator coverage: the evacuation plan at the
// acceptance scale of four VMs, naive vs cycle-aware. Quick mode halves the
// fleet.
func orchMatrix(quick bool) []orchSpec {
	n := 4
	if quick {
		n = 2
	}
	return []orchSpec{
		{javmm.OrderNaive, n},
		{javmm.OrderCycleAware, n},
	}
}

// orchCluster is the fixed topology the orchestrator cells evacuate: n phased
// mpeg VMs on one source, two destinations, the default gigabit backbone.
func orchCluster(n int) *javmm.Cluster {
	c := &javmm.Cluster{Hosts: []javmm.HostSpec{
		{Name: "src", RAMBytes: 64 << 30},
		{Name: "d1", RAMBytes: 64 << 30},
		{Name: "d2", RAMBytes: 64 << 30},
	}}
	for i := 0; i < n; i++ {
		c.VMs = append(c.VMs, javmm.VMSpec{
			Name: fmt.Sprintf("vm%d", i), Host: "src",
			Workload: "mpeg", MemBytes: 512 << 20,
			Cycle: javmm.CycleSpec{
				Period: 30 * time.Second, QuietStart: 10 * time.Second,
				QuietLen: 15 * time.Second, QuietFactor: 0.1,
				Phase: time.Duration(i%2) * 15 * time.Second,
			},
		})
	}
	return c
}

// runOrchScenario measures one orchestrator cell under the fleet protocol:
// an accounting run pins each move's deterministic block, then o.Runs
// uninstrumented timing runs must reproduce every block exactly while their
// wall-clock medians become the shared timing block.
func runOrchScenario(spec orchSpec, o options) ([]perf.Scenario, error) {
	prof := javmm.NewStageProfiler()
	dets, awall, _, err := orchOnce(spec, o, prof)
	if err != nil {
		return nil, err
	}
	var stages []perf.StageShare
	for _, st := range prof.Snapshot() {
		share := 0.0
		if awall > 0 {
			share = float64(st.SelfNs) / float64(awall)
		}
		stages = append(stages, perf.StageShare{
			Stage:      st.Stage,
			Calls:      st.Calls,
			SelfNs:     st.SelfNs,
			TotalNs:    st.TotalNs,
			AllocBytes: st.SelfAllocBytes,
			Share:      share,
		})
	}
	scs := make([]perf.Scenario, len(dets))
	for i, det := range dets {
		scs[i] = perf.Scenario{Name: spec.name(i), Deterministic: det, Stages: stages}
	}

	ns := make([]int64, 0, o.Runs)
	allocB := make([]int64, 0, o.Runs)
	allocN := make([]int64, 0, o.Runs)
	for r := 0; r < o.Runs; r++ {
		tdets, wall, ad, err := orchOnce(spec, o, nil)
		if err != nil {
			return nil, fmt.Errorf("timing run %d: %w", r+1, err)
		}
		for i := range dets {
			if tdets[i] != dets[i] {
				return nil, fmt.Errorf("timing run %d vm%d diverged from accounting run:\naccounting: %+v\ntiming:     %+v",
					r+1, i, dets[i], tdets[i])
			}
		}
		ns = append(ns, int64(wall))
		allocB = append(allocB, ad.bytes)
		allocN = append(allocN, ad.objects)
	}
	timing := perf.Timing{
		Runs:            o.Runs,
		NsPerOp:         median(ns),
		AllocBytesPerOp: median(allocB),
		AllocsPerOp:     median(allocN),
	}
	for i := range scs {
		t := timing
		if t.NsPerOp > 0 && scs[i].Deterministic.PagesSent > 0 {
			t.PagesPerSec = float64(scs[i].Deterministic.PagesSent) / (float64(t.NsPerOp) / 1e9)
		}
		scs[i].Timing = t
	}
	return scs, nil
}

// orchOnce executes the evacuation plan once, re-verifies the admission caps
// (except under the naive ordering, which ignores them by design) and
// checks and projects each move's outcome onto the deterministic block.
func orchOnce(spec orchSpec, o options, prof *javmm.StageProfiler) ([]perf.Deterministic, time.Duration, allocDelta, error) {
	plan, err := javmm.ParseMigrationPlan("evacuate host src")
	if err != nil {
		return nil, 0, allocDelta{}, err
	}
	oo := javmm.OrchestratorOptions{
		Cluster:   orchCluster(spec.vms),
		Plan:      plan,
		Mode:      javmm.ModeJAVMM,
		Seed:      o.Seed,
		Ordering:  spec.ordering,
		Admission: javmm.AdmissionPolicy{MaxPerLink: 2, MaxPerHost: 2},
		Warmup:    o.Warmup,
		Engine:    javmm.EngineConfig{Perf: prof},
	}
	before := readAllocs()
	start := time.Now()
	res, err := javmm.Orchestrate(oo)
	wall := time.Since(start)
	delta := readAllocs().sub(before)
	if err != nil {
		return nil, 0, allocDelta{}, err
	}
	if spec.ordering != javmm.OrderNaive {
		// The naive ordering ignores the admission caps by design.
		if err := javmm.VerifyAdmission(res.Moves, oo.Admission); err != nil {
			return nil, 0, allocDelta{}, err
		}
	}
	dets, err := moveBlocks(res.Moves, func(int) string { return "mpeg" })
	return dets, wall, delta, err
}

// healSpec names one self-healing cell: a 2-VM "evacuate host src" plan
// executed with the retry layer armed. The clean/relocate pair prices the
// healing machinery itself — clean measures the layer's overhead on an
// unfaulted run, relocate measures a full heal (permanent failure into a
// crashed destination, dead-host exclusion, re-placement, token
// degradation to a first copy on the survivor).
type healSpec struct {
	arm string // clean | relocate
}

func (s healSpec) name(vm int) string {
	return fmt.Sprintf("heal/evacuate/%s/vm%d", s.arm, vm)
}

// healMatrix is the self-healing coverage. Quick mode keeps only the
// relocate cell — the one that exercises every healing code path.
func healMatrix(quick bool) []healSpec {
	if quick {
		return []healSpec{{"relocate"}}
	}
	return []healSpec{{"clean"}, {"relocate"}}
}

// healWorkloads maps the heal cells' move index to its workload (the same
// two-VM shape X17 uses).
var healWorkloads = []string{"mpeg", "compress"}

// healCluster is the fixed topology the heal cells evacuate: two VMs on one
// source, two destinations, the synthesized gigabit backbone.
func healCluster() *javmm.Cluster {
	c := &javmm.Cluster{Hosts: []javmm.HostSpec{
		{Name: "src", RAMBytes: 64 << 30},
		{Name: "d1", RAMBytes: 64 << 30},
		{Name: "d2", RAMBytes: 64 << 30},
	}}
	for i, wl := range healWorkloads {
		c.VMs = append(c.VMs, javmm.VMSpec{
			Name: fmt.Sprintf("vm%d", i), Host: "src",
			Workload: wl, MemBytes: 2 << 30,
		})
	}
	return c
}

// runHealScenario measures one self-healing cell under the fleet protocol:
// an accounting run pins each move's deterministic block (attempts,
// relocations and backoffs included — the healed schedule is part of what
// must replay), then o.Runs uninstrumented timing runs must reproduce every
// block exactly.
func runHealScenario(spec healSpec, o options) ([]perf.Scenario, error) {
	prof := javmm.NewStageProfiler()
	dets, awall, _, err := healOnce(spec, o, prof)
	if err != nil {
		return nil, err
	}
	var stages []perf.StageShare
	for _, st := range prof.Snapshot() {
		share := 0.0
		if awall > 0 {
			share = float64(st.SelfNs) / float64(awall)
		}
		stages = append(stages, perf.StageShare{
			Stage:      st.Stage,
			Calls:      st.Calls,
			SelfNs:     st.SelfNs,
			TotalNs:    st.TotalNs,
			AllocBytes: st.SelfAllocBytes,
			Share:      share,
		})
	}
	scs := make([]perf.Scenario, len(dets))
	for i, det := range dets {
		scs[i] = perf.Scenario{Name: spec.name(i), Deterministic: det, Stages: stages}
	}

	ns := make([]int64, 0, o.Runs)
	allocB := make([]int64, 0, o.Runs)
	allocN := make([]int64, 0, o.Runs)
	for r := 0; r < o.Runs; r++ {
		tdets, wall, ad, err := healOnce(spec, o, nil)
		if err != nil {
			return nil, fmt.Errorf("timing run %d: %w", r+1, err)
		}
		for i := range dets {
			if tdets[i] != dets[i] {
				return nil, fmt.Errorf("timing run %d vm%d diverged from accounting run:\naccounting: %+v\ntiming:     %+v",
					r+1, i, dets[i], tdets[i])
			}
		}
		ns = append(ns, int64(wall))
		allocB = append(allocB, ad.bytes)
		allocN = append(allocN, ad.objects)
	}
	timing := perf.Timing{
		Runs:            o.Runs,
		NsPerOp:         median(ns),
		AllocBytesPerOp: median(allocB),
		AllocsPerOp:     median(allocN),
	}
	for i := range scs {
		t := timing
		if t.NsPerOp > 0 && scs[i].Deterministic.PagesSent > 0 {
			t.PagesPerSec = float64(scs[i].Deterministic.PagesSent) / (float64(t.NsPerOp) / 1e9)
		}
		scs[i].Timing = t
	}
	return scs, nil
}

// healOnce executes the evacuation once under the cell's healing policy,
// re-verifies the admission caps, and checks and projects each move's
// outcome onto the deterministic block. Every move must complete: the
// relocate cell's crashed destination is healed around, not tolerated as a
// failure.
func healOnce(spec healSpec, o options, prof *javmm.StageProfiler) ([]perf.Deterministic, time.Duration, allocDelta, error) {
	plan, err := javmm.ParseMigrationPlan("evacuate host src")
	if err != nil {
		return nil, 0, allocDelta{}, err
	}
	oo := javmm.OrchestratorOptions{
		Cluster:   healCluster(),
		Plan:      plan,
		Mode:      javmm.ModeJAVMM,
		Seed:      o.Seed,
		Ordering:  javmm.OrderAdmission,
		Admission: javmm.AdmissionPolicy{MaxPerLink: 1, MaxPerHost: 1},
		Warmup:    o.Warmup,
		Engine:    javmm.EngineConfig{Perf: prof},
		Retry:     javmm.RetryPolicy{Enabled: true, Seed: o.Seed},
	}
	if spec.arm == "relocate" {
		oo.FaultPlan = javmm.FaultPlan{
			{Site: javmm.FaultHostCrash, For: time.Hour, Host: "d1"},
		}
	}
	before := readAllocs()
	start := time.Now()
	res, err := javmm.Orchestrate(oo)
	wall := time.Since(start)
	delta := readAllocs().sub(before)
	if err != nil {
		return nil, 0, allocDelta{}, err
	}
	if err := javmm.VerifyAdmission(res.Moves, oo.Admission); err != nil {
		return nil, 0, allocDelta{}, err
	}
	dets, err := moveBlocks(res.Moves, func(i int) string { return healWorkloads[i%len(healWorkloads)] })
	return dets, wall, delta, err
}

// runFleetScenario measures one contention cell under the same protocol as
// runScenario: an accounting run (stage profiler attached) pins each VM's
// deterministic block, then o.Runs uninstrumented timing runs must reproduce
// every one of them exactly while their fleet wall-clock medians become the
// (shared) timing block. One scenario is emitted per VM so per-VM drift
// stays visible in the comparator. All engines share one profiler — stage
// calls never span a cooperative yield, so the stack stays consistent — and
// the resulting fleet-wide breakdown is attached to every VM's scenario,
// matching the shared timing.
func runFleetScenario(spec fleetSpec, o options) ([]perf.Scenario, error) {
	prof := javmm.NewStageProfiler()
	dets, awall, _, err := fleetOnce(spec, o, prof)
	if err != nil {
		return nil, err
	}
	var stages []perf.StageShare
	for _, st := range prof.Snapshot() {
		share := 0.0
		if awall > 0 {
			share = float64(st.SelfNs) / float64(awall)
		}
		stages = append(stages, perf.StageShare{
			Stage:      st.Stage,
			Calls:      st.Calls,
			SelfNs:     st.SelfNs,
			TotalNs:    st.TotalNs,
			AllocBytes: st.SelfAllocBytes,
			Share:      share,
		})
	}
	scs := make([]perf.Scenario, len(dets))
	for i, det := range dets {
		scs[i] = perf.Scenario{Name: spec.name(i), Deterministic: det, Stages: stages}
	}

	ns := make([]int64, 0, o.Runs)
	allocB := make([]int64, 0, o.Runs)
	allocN := make([]int64, 0, o.Runs)
	for r := 0; r < o.Runs; r++ {
		tdets, wall, ad, err := fleetOnce(spec, o, nil)
		if err != nil {
			return nil, fmt.Errorf("timing run %d: %w", r+1, err)
		}
		for i := range dets {
			if tdets[i] != dets[i] {
				return nil, fmt.Errorf("timing run %d vm%d diverged from accounting run:\naccounting: %+v\ntiming:     %+v",
					r+1, i, dets[i], tdets[i])
			}
		}
		ns = append(ns, int64(wall))
		allocB = append(allocB, ad.bytes)
		allocN = append(allocN, ad.objects)
	}
	// The fleet migrates as one unit, so every VM's scenario carries the
	// whole fleet's wall time and allocation; PagesPerSec is still per-VM.
	timing := perf.Timing{
		Runs:            o.Runs,
		NsPerOp:         median(ns),
		AllocBytesPerOp: median(allocB),
		AllocsPerOp:     median(allocN),
	}
	for i := range scs {
		t := timing
		if t.NsPerOp > 0 && scs[i].Deterministic.PagesSent > 0 {
			t.PagesPerSec = float64(scs[i].Deterministic.PagesSent) / (float64(t.NsPerOp) / 1e9)
		}
		scs[i].Timing = t
	}
	return scs, nil
}

// fleetOnce runs the whole fleet once and checks and projects each VM's
// outcome onto the deterministic block. prof, when non-nil, is attached to
// every engine as EngineConfig.Perf (safe: the cooperative scheduler runs
// one process at a time and no instrumented stage advances the clock).
func fleetOnce(spec fleetSpec, o options, prof *javmm.StageProfiler) ([]perf.Deterministic, time.Duration, allocDelta, error) {
	mode, err := javmm.ParseMode(spec.mode)
	if err != nil {
		return nil, 0, allocDelta{}, err
	}
	wl, err := javmm.Workload(spec.workload)
	if err != nil {
		return nil, 0, allocDelta{}, err
	}
	profiles := make([]javmm.Profile, spec.vms)
	for i := range profiles {
		profiles[i] = wl
	}
	cluster, moves := javmm.Backbone(profiles, o.MemMiB<<20, 0)
	fopts := javmm.OrchestratorOptions{
		Cluster: cluster,
		Moves:   moves,
		Mode:    mode,
		Seed:    o.Seed,
		Warmup:  o.Warmup,
		Stagger: 500 * time.Millisecond,
		Engine:  javmm.EngineConfig{Perf: prof},
	}
	if spec.collect {
		// The full observability plane, priced: the cell measures what
		// tracing + metrics + ledgers + progress + SLA accounting cost.
		fopts.Collect = true
		m := javmm.DefaultSLA()
		fopts.SLA = &m
	}
	before := readAllocs()
	start := time.Now()
	res, err := javmm.Orchestrate(fopts)
	wall := time.Since(start)
	delta := readAllocs().sub(before)
	if err != nil {
		return nil, 0, allocDelta{}, err
	}
	dets, err := moveBlocks(res.Moves, func(int) string { return spec.workload })
	return dets, wall, delta, err
}

// moveBlocks checks every executed move of a plan and projects it onto the
// deterministic block, labelled with workload(i) and the raw codec. A move
// fails the cell when its engine erred, its destination image diverged, or
// its attribution does not reconcile with its Report.
func moveBlocks(moves []javmm.PlanMoveResult, workload func(i int) string) ([]perf.Deterministic, error) {
	dets := make([]perf.Deterministic, len(moves))
	for i := range moves {
		m := &moves[i]
		if m.Err != nil {
			return nil, fmt.Errorf("%s: %w", m.Name, m.Err)
		}
		if m.VerifyErr != nil {
			return nil, fmt.Errorf("%s: destination verification failed: %w", m.Name, m.VerifyErr)
		}
		res := &javmm.Result{
			Report:           m.Report,
			WorkloadDowntime: m.WorkloadDowntime,
			EnforcedGC:       m.EnforcedGC,
		}
		if _, err := javmm.Attribute(res, nil); err != nil {
			return nil, fmt.Errorf("%s: %w", m.Name, err)
		}
		det := javmm.BenchDeterministic(res)
		det.Workload = workload(i)
		det.Codec = "raw"
		dets[i] = det
	}
	return dets, nil
}

// runScenario measures one matrix cell: first an instrumented accounting run
// (stage profiler attached) that yields the deterministic block and the
// per-stage breakdown, then o.Runs uninstrumented timing runs whose medians
// become the timing block. Every timing run's deterministic block must equal
// the accounting run's — one half of that equation has a profiler attached,
// so the check asserts seed-determinism and profiler transparency at once.
func runScenario(spec scenarioSpec, o options) (perf.Scenario, error) {
	sc := perf.Scenario{Name: spec.name()}

	// Accounting run.
	prof := javmm.NewStageProfiler()
	res, wall, _, err := migrateOnce(spec, o, prof)
	if err != nil {
		return sc, err
	}
	det := javmm.BenchDeterministic(res)
	det.Workload = spec.workload
	det.Codec = spec.codec
	sc.Deterministic = det
	for _, st := range prof.Snapshot() {
		share := 0.0
		if wall > 0 {
			share = float64(st.SelfNs) / float64(wall)
		}
		sc.Stages = append(sc.Stages, perf.StageShare{
			Stage:      st.Stage,
			Calls:      st.Calls,
			SelfNs:     st.SelfNs,
			TotalNs:    st.TotalNs,
			AllocBytes: st.SelfAllocBytes,
			Share:      share,
		})
	}

	// Timing runs, no instrumentation attached.
	ns := make([]int64, 0, o.Runs)
	allocB := make([]int64, 0, o.Runs)
	allocN := make([]int64, 0, o.Runs)
	for i := 0; i < o.Runs; i++ {
		tres, twall, ad, err := migrateOnce(spec, o, nil)
		if err != nil {
			return sc, fmt.Errorf("timing run %d: %w", i+1, err)
		}
		tdet := javmm.BenchDeterministic(tres)
		tdet.Workload = spec.workload
		tdet.Codec = spec.codec
		if tdet != det {
			return sc, fmt.Errorf("timing run %d diverged from accounting run:\naccounting: %+v\ntiming:     %+v",
				i+1, det, tdet)
		}
		ns = append(ns, int64(twall))
		allocB = append(allocB, ad.bytes)
		allocN = append(allocN, ad.objects)
	}
	sc.Timing = perf.Timing{
		Runs:            o.Runs,
		NsPerOp:         median(ns),
		AllocBytesPerOp: median(allocB),
		AllocsPerOp:     median(allocN),
	}
	if n := median(ns); n > 0 && det.PagesSent > 0 {
		sc.Timing.PagesPerSec = float64(det.PagesSent) / (float64(n) / 1e9)
	}
	return sc, nil
}

// migrateOnce boots a fresh VM for the cell, warms it up, and migrates it,
// measuring only the Migrate call itself (wall clock plus heap-allocation
// deltas from runtime.MemStats). After the timed region the run must pass
// destination verification and reconcile its attribution with the Report.
// prof, when non-nil, is attached as EngineConfig.Perf.
func migrateOnce(spec scenarioSpec, o options, prof *javmm.StageProfiler) (*javmm.Result, time.Duration, allocDelta, error) {
	mode, err := javmm.ParseMode(spec.mode)
	if err != nil {
		return nil, 0, allocDelta{}, err
	}
	wl, err := javmm.Workload(spec.workload)
	if err != nil {
		return nil, 0, allocDelta{}, err
	}
	vm, err := javmm.BootVM(javmm.BootConfig{
		MemBytes: o.MemMiB << 20,
		VCPUs:    4,
		Profile:  wl,
		Assisted: mode == javmm.ModeJAVMM,
		Seed:     o.Seed,
	})
	if err != nil {
		return nil, 0, allocDelta{}, err
	}
	vm.Driver.Run(o.Warmup)
	if vm.Driver.Err != nil {
		return nil, 0, allocDelta{}, vm.Driver.Err
	}

	engine := javmm.EngineConfig{Perf: prof}
	switch spec.codec {
	case "raw":
	case "compress":
		engine.Compress = true
	case "delta":
		engine.Compress = true
		engine.DeltaCompression = true
	default:
		return nil, 0, allocDelta{}, fmt.Errorf("unknown codec %q", spec.codec)
	}

	before := readAllocs()
	start := time.Now()
	res, err := javmm.Migrate(vm, javmm.MigrateOptions{Mode: mode, Engine: engine})
	wall := time.Since(start)
	delta := readAllocs().sub(before)
	if err != nil {
		return nil, 0, allocDelta{}, err
	}
	if res.VerifyErr != nil {
		return nil, 0, allocDelta{}, fmt.Errorf("destination verification failed: %w", res.VerifyErr)
	}
	if _, err := javmm.Attribute(res, nil); err != nil {
		return nil, 0, allocDelta{}, err
	}
	return res, wall, delta, nil
}

// allocDelta is a heap-allocation reading (monotonic totals or a difference
// of two readings) from runtime.MemStats.
type allocDelta struct {
	bytes   int64
	objects int64
}

// readAllocs reads the monotonic heap-allocation totals. ReadMemStats stops
// the world and flushes every P's cached span first, so the count is exact:
// each small object is booked when it is allocated, not when its span is
// flushed later (the runtime/metrics counters lag by up to a span per P).
// The totals only grow, so a before/after difference is valid across
// intervening GCs. The stop-the-world costs microseconds; callers read
// outside their timed region.
func readAllocs() allocDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocDelta{bytes: int64(ms.TotalAlloc), objects: int64(ms.Mallocs)}
}

func (a allocDelta) sub(b allocDelta) allocDelta {
	return allocDelta{bytes: a.bytes - b.bytes, objects: a.objects - b.objects}
}

// median returns the middle value of xs (the lower of the two middles for
// even lengths); 0 for an empty slice.
func median(xs []int64) int64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[(len(s)-1)/2]
}
