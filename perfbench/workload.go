package main

import (
	"fmt"
	"runtime/metrics"
	"time"

	"javmm"
	"javmm/internal/migration"
	"javmm/internal/obs/perf"
)

// warmup is the virtual warmup every scenario runs before it migrates.
const warmup = 60 * time.Second

// spec is one benchmark workload. Single-VM workloads boot derby in a 2 GiB
// VM and migrate it with one mode over the raw codec; the fleet workload
// runs the X16 evacuation through Orchestrate.
type spec struct {
	name  string
	mode  javmm.Mode
	fleet bool
	// seeds is how many scenario seeds an end-to-end run cycles through.
	seeds int
}

// workloads is the fixed workload set, in the order BENCHMARK.json lists it.
var workloads = []spec{
	{name: "precopy-xen", mode: javmm.ModeXen, seeds: 16},
	{name: "assisted-javmm", mode: javmm.ModeJAVMM, seeds: 16},
	{name: "postcopy", mode: javmm.ModePostCopy, seeds: 16},
	{name: "fleet-evacuate", mode: javmm.ModeJAVMM, fleet: true, seeds: 4},
}

func lookupWorkload(name string) (spec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// pass selects what one execution of a scenario attaches. passPlain is the
// untraced end-to-end op; passA, passB and passC are the traced run's three
// passes over the same deterministic work.
type pass int

const (
	passPlain pass = iota
	passA          // executor wrapper, verification timed separately, no profiler
	passB          // plain stage profiler
	passC          // stage profiler with allocation accounting, plus ledger
)

// sim is the simulated outcome of one op: the paper's metrics, pinned by
// the seed.
type sim struct {
	totalS     float64 // virtual migration time (fleet: makespan)
	downtimeMs float64 // workload downtime (fleet: worst VM)
	wireMiB    float64 // bytes on the wire (fleet: sum over VMs)
	slaCost    float64 // default-SLA cost (fleet: aggregate)
	virtualS   float64 // virtual seconds simulated, warmup included
}

// fleetCounts are the orchestrator's decisions and the fabric's accounting
// for one fleet op.
type fleetCounts struct {
	deferrals, quietLaunches, progressEvents int
	backboneTransfers                        uint64
	backboneMaxConcurrent                    int
}

// opResult is everything one execution of a scenario measured.
type opResult struct {
	det string // deterministic block; equal across ops at one seed
	sim sim

	boot, warmup time.Duration // single-VM set-up split
	setup        time.Duration // boot + warmup (fleet: call start to first progress)
	migrate      time.Duration // migrate call, verification included
	allocs       allocDelta    // heap allocation during the migrate call
	cal          time.Duration // calibration loop time around the op (end-to-end run)

	// Pass A: time spent in guest execution and in verification, and the
	// runtime's GC work over the whole op.
	guest      time.Duration
	guestCalls int
	verify     time.Duration
	gc         gcDelta

	// Passes B and C: the stage profile. nested is stage self time recorded
	// while the guest executor was running (post-copy demand fetches).
	stages []perf.StageStats
	nested time.Duration

	fleet fleetCounts
}

// scenario runs one op of w at seed under pass p. Any failed check — an
// engine or move error, a destination verification error, an admission or
// SLA or attribution reconcile failure — is returned as the error.
func scenario(w spec, seed int64, p pass) (*opResult, error) {
	if w.fleet {
		return fleetOp(seed, p)
	}
	return singleOp(w, seed, p)
}

// timedExec wraps the guest executor and accumulates the wall time spent
// inside it. With prof set it also accumulates the stage self time recorded
// while the guest ran, so nested demand fetches are not counted twice.
type timedExec struct {
	inner  javmm.GuestExecutor
	prof   *perf.Profiler
	total  time.Duration
	calls  int
	nested time.Duration
}

func (e *timedExec) Run(d time.Duration) {
	var self time.Duration
	if e.prof != nil {
		self = e.prof.SelfTotal()
	}
	start := time.Now()
	e.inner.Run(d)
	e.total += time.Since(start)
	e.calls++
	if e.prof != nil {
		e.nested += e.prof.SelfTotal() - self
	}
}

// singleOp boots derby, warms it up and migrates it once.
func singleOp(w spec, seed int64, p pass) (*opResult, error) {
	prof, err := javmm.Workload("derby")
	if err != nil {
		return nil, err
	}
	r := &opResult{}
	var gc0 gcDelta
	if p == passA {
		gc0 = readGC()
	}
	t0 := time.Now()
	vm, err := javmm.BootVM(javmm.BootConfig{
		MemBytes: 2 << 30,
		VCPUs:    4,
		Profile:  prof,
		Assisted: w.mode == javmm.ModeJAVMM,
		Seed:     seed,
	})
	if err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	t1 := time.Now()
	vm.Driver.Run(warmup)
	if vm.Driver.Err != nil {
		return nil, fmt.Errorf("warmup: %w", vm.Driver.Err)
	}
	t2 := time.Now()
	r.boot, r.warmup, r.setup = t1.Sub(t0), t2.Sub(t1), t2.Sub(t0)

	opts := javmm.MigrateOptions{Mode: w.mode}
	var exec *timedExec
	var led *javmm.Ledger
	switch p {
	case passA:
		exec = &timedExec{inner: vm.Driver}
		opts.Executor = exec
		opts.SkipVerify = true
	case passB:
		opts.Engine.Perf = perf.NewProfiler()
		exec = &timedExec{inner: vm.Driver, prof: opts.Engine.Perf}
		opts.Executor = exec
	case passC:
		opts.Engine.Perf = perf.NewProfiler(perf.WithAllocs())
		led = javmm.NewLedger()
		opts.Ledger = led
	}

	a0 := readAllocs()
	start := time.Now()
	res, err := javmm.Migrate(vm, opts)
	if err == nil && p == passA && res.PostCopy == nil {
		// The same check Migrate runs unless SkipVerify, timed on its own.
		tv := time.Now()
		res.VerifyErr = migration.VerifyMigration(
			vm.Dom.Store(), res.Destination.Store, res.FinalTransfer,
			func(p javmm.PFN) bool { return vm.Guest.Frames.Allocated(p) })
		r.verify = time.Since(tv)
	}
	r.migrate = time.Since(start)
	r.allocs = readAllocs().sub(a0)
	if p == passA {
		r.gc = readGC().sub(gc0)
	}
	if err != nil {
		return nil, fmt.Errorf("migrate: %w", err)
	}
	if res.VerifyErr != nil {
		return nil, fmt.Errorf("destination verification: %w", res.VerifyErr)
	}
	if exec != nil {
		r.guest, r.guestCalls, r.nested = exec.total, exec.calls, exec.nested
	}
	r.stages = opts.Engine.Perf.Snapshot()

	attr, err := javmm.Attribute(res, led)
	if err != nil {
		return nil, fmt.Errorf("attribution: %w", err)
	}
	model := javmm.DefaultSLA()
	cost := javmm.BuildSLACost(vm.Dom.Name(), model, attr, vm.Driver.Samples())
	if err := cost.Reconcile(model, attr, vm.Driver.Samples()); err != nil {
		return nil, fmt.Errorf("sla: %w", err)
	}

	det := javmm.BenchDeterministic(res)
	det.Workload = "derby"
	det.Codec = "raw"
	r.det = fmt.Sprintf("%+v sla=%v", det, cost.Total)
	r.sim = sim{
		totalS:     res.TotalTime.Seconds(),
		downtimeMs: float64(res.WorkloadDowntime) / float64(time.Millisecond),
		wireMiB:    float64(res.TotalBytes()) / (1 << 20),
		slaCost:    cost.Total,
		virtualS:   vm.Clock.Now().Seconds(),
	}
	return r, nil
}

// fleetWorkloads are the four X16 guests, one per quiet-window phase.
var fleetWorkloads = []string{"compress", "crypto", "mpeg", "serial"}

// fleetCluster is the X16 topology: four cyclic 2 GiB VMs on one source, two
// destinations, one gigabit backbone.
func fleetCluster() *javmm.Cluster {
	c := &javmm.Cluster{
		Hosts: []javmm.HostSpec{
			{Name: "src", Rack: "a", RAMBytes: 64 << 30},
			{Name: "d1", Rack: "b", RAMBytes: 64 << 30},
			{Name: "d2", Rack: "b", RAMBytes: 64 << 30},
		},
		Links: []javmm.ClusterLinkSpec{{
			Name:      "backbone",
			Bandwidth: javmm.GigabitEthernet,
			Latency:   100 * time.Microsecond,
			Hosts:     []string{"src", "d1", "d2"},
		}},
	}
	for i, wl := range fleetWorkloads {
		c.VMs = append(c.VMs, javmm.VMSpec{
			Name:     fmt.Sprintf("vm%d", i),
			Host:     "src",
			Workload: wl,
			MemBytes: 2 << 30,
			Cycle: javmm.CycleSpec{
				Period:      120 * time.Second,
				QuietStart:  60 * time.Second,
				QuietLen:    30 * time.Second,
				QuietFactor: 0.1,
				Phase:       time.Duration(i) * 30 * time.Second,
			},
		})
	}
	return c
}

// fleetOp runs the evacuation plan once. Set-up (boot and warmup of every
// guest) happens inside Orchestrate, so the first progress point splits the
// call into set-up and migration.
func fleetOp(seed int64, p pass) (*opResult, error) {
	plan, err := javmm.ParseMigrationPlan("evacuate host src")
	if err != nil {
		return nil, err
	}
	model := javmm.DefaultSLA()
	r := &opResult{}
	var first time.Time
	var a0 allocDelta
	oo := javmm.OrchestratorOptions{
		Cluster:         fleetCluster(),
		Plan:            plan,
		Mode:            javmm.ModeJAVMM,
		Seed:            seed,
		Ordering:        javmm.OrderCycleAware,
		Admission:       javmm.AdmissionPolicy{MaxPerLink: 2, MaxPerHost: 2},
		Warmup:          warmup,
		DecisionQuantum: 250 * time.Millisecond,
		QuietHorizon:    4 * time.Minute,
		SLA:             &model,
		// The scheduler hands one baton between its goroutines, so the
		// callbacks never run concurrently.
		OnProgress: func(string, javmm.Progress) {
			if r.fleet.progressEvents == 0 {
				first = time.Now()
				a0 = readAllocs()
			}
			r.fleet.progressEvents++
		},
	}
	switch p {
	case passB:
		oo.Engine.Perf = perf.NewProfiler()
	case passC:
		oo.Engine.Perf = perf.NewProfiler(perf.WithAllocs())
		oo.Collect = true
	}

	var gc0 gcDelta
	if p == passA {
		gc0 = readGC()
	}
	start := time.Now()
	res, err := javmm.Orchestrate(oo)
	end := time.Now()
	allocs := readAllocs()
	if p == passA {
		r.gc = readGC().sub(gc0)
	}
	if err != nil {
		return nil, fmt.Errorf("orchestrate: %w", err)
	}
	if r.fleet.progressEvents == 0 {
		return nil, fmt.Errorf("orchestrate: no progress reported")
	}
	r.setup, r.migrate = first.Sub(start), end.Sub(first)
	r.allocs = allocs.sub(a0)
	r.stages = oo.Engine.Perf.Snapshot()

	if err := javmm.VerifyAdmission(res.Moves, oo.Admission); err != nil {
		return nil, fmt.Errorf("admission: %w", err)
	}
	if res.SLA == nil {
		return nil, fmt.Errorf("no SLA aggregate")
	}
	if err := res.SLA.Reconcile(); err != nil {
		return nil, fmt.Errorf("sla: %w", err)
	}
	det := fmt.Sprintf("makespan=%d sla=%v", res.MakeSpan, res.SLA.Total)
	var worst, virtual time.Duration
	var wire uint64
	for i := range res.Moves {
		m := &res.Moves[i]
		if m.Err != nil {
			return nil, fmt.Errorf("%s: %w", m.Name, m.Err)
		}
		if m.VerifyErr != nil {
			return nil, fmt.Errorf("%s: destination verification: %w", m.Name, m.VerifyErr)
		}
		if p == passC {
			led := res.Obs.VMs()[i].Ledger
			if _, err := javmm.Attribute(&javmm.Result{Report: m.Report, EnforcedGC: m.EnforcedGC}, led); err != nil {
				return nil, fmt.Errorf("%s: attribution: %w", m.Name, err)
			}
		}
		bd := javmm.BenchDeterministic(&javmm.Result{
			Report:           m.Report,
			WorkloadDowntime: m.WorkloadDowntime,
			EnforcedGC:       m.EnforcedGC,
		})
		bd.Workload = fleetWorkloads[i]
		bd.Codec = "raw"
		det += fmt.Sprintf("\n%s %s->%s launched=%d deferrals=%d quiet=%v forced=%v %+v",
			m.Name, m.From, m.To, m.LaunchedAt, m.Deferrals, m.QuietLaunch, m.Forced, bd)
		if m.WorkloadDowntime > worst {
			worst = m.WorkloadDowntime
		}
		if m.EndAt > virtual {
			virtual = m.EndAt
		}
		wire += m.Report.TotalBytes()
		r.fleet.deferrals += m.Deferrals
		if m.QuietLaunch {
			r.fleet.quietLaunches++
		}
	}
	for _, l := range res.Fabric.Links {
		if l.Name == "backbone" {
			r.fleet.backboneTransfers = l.Transfers
			r.fleet.backboneMaxConcurrent = l.MaxConcurrent
		}
	}
	r.det = det
	r.sim = sim{
		totalS:     res.MakeSpan.Seconds(),
		downtimeMs: float64(worst) / float64(time.Millisecond),
		wireMiB:    float64(wire) / (1 << 20),
		slaCost:    res.SLA.Total,
		virtualS:   virtual.Seconds(),
	}
	return r, nil
}

// allocDelta is a heap-allocation reading from runtime/metrics, or the
// difference of two.
type allocDelta struct {
	bytes, objects uint64
}

var allocSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
}

// readAllocs samples the monotonic heap-allocation counters.
func readAllocs() allocDelta {
	metrics.Read(allocSamples)
	return allocDelta{allocSamples[0].Value.Uint64(), allocSamples[1].Value.Uint64()}
}

func (a allocDelta) sub(b allocDelta) allocDelta {
	return allocDelta{a.bytes - b.bytes, a.objects - b.objects}
}

// gcDelta is the runtime's garbage-collection work, or the difference of two
// readings.
type gcDelta struct {
	cpuSeconds float64
	cycles     uint64
}

var gcSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readGC() gcDelta {
	metrics.Read(gcSamples)
	return gcDelta{gcSamples[0].Value.Float64(), gcSamples[1].Value.Uint64()}
}

func (g gcDelta) sub(h gcDelta) gcDelta {
	return gcDelta{g.cpuSeconds - h.cpuSeconds, g.cycles - h.cycles}
}
