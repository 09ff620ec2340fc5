package workload

import (
	"fmt"
	"math/rand"
	"time"

	"javmm/internal/guestos"
	"javmm/internal/hypervisor"
	"javmm/internal/javmm"
	"javmm/internal/jvm"
	"javmm/internal/mem"
	"javmm/internal/obs"
	"javmm/internal/simclock"
)

// Sample is one per-second throughput observation taken by the external
// analyzer (paper §5.1: "a custom analyzer that sends out the number of
// operations completed by the workload once every second", observed with a
// time source unaffected by VM suspension).
type Sample struct {
	Second int     // virtual seconds since the driver started
	Ops    float64 // operations completed during that second
}

// HeapRuntime is the collector surface the driver executes against. Both
// the contiguous parallel-scavenge heap (*jvm.JVM) and the garbage-first-
// style regional heap (*jvm.RegionalHeap) implement it.
type HeapRuntime interface {
	Allocate(uint64) uint64
	NeedsMinorGC() bool
	NeedsFullGC() bool
	BeginMinorGC(enforced bool) time.Duration
	CompleteMinorGC() (jvm.GCStats, error)
	BeginFullGC() time.Duration
	CompleteFullGC() jvm.GCStats
	HeldAtSafepoint() bool
	EnforcePending() bool
	SafepointDelay() time.Duration
	MutateOld(n int)
	JITChurn(n int)
	SeedOld(bytes uint64) error
	YoungCommitted() uint64
	OldUsed() uint64
	GCHistory() []jvm.GCStats
	CheckConservation() error
}

// gcIncremental is optionally implemented by collectors that spread their
// copy writes across the pause (the parallel scavenger does; the regional
// collector writes at evacuation end).
type gcIncremental interface {
	GCCopyTick(adv time.Duration)
}

// Driver executes a workload profile against a simulated JVM under virtual
// time. It implements migration.GuestExecutor: the migration engine hands it
// slices of virtual time during which the guest runs, allocates (dirtying
// young-generation pages), completes operations, performs GCs and reacts to
// the JAVMM agent's enforced-GC requests.
type Driver struct {
	Clock   *simclock.Clock
	Guest   *guestos.Guest
	Proc    *guestos.Process
	Heap    HeapRuntime
	Profile Profile

	throttle float64

	// GC execution state.
	gcRemaining time.Duration
	gcIsFull    bool
	// Safepoint walk toward an enforced GC.
	safepointArmed     bool
	safepointRemaining time.Duration

	// Fractional-rate accumulators.
	allocCarry, oldCarry, jitCarry, kernCarry float64
	kernelCursor                              uint64

	// Throughput accounting.
	TotalOps       float64
	samples        []Sample
	nextSampleAt   time.Duration
	startAt        time.Duration
	sampleOpsBase  float64
	lastDirtyEvent uint64

	// Fatal workload errors (heap exhaustion) surface here; the driver
	// stops executing once set.
	Err error

	tracer  *obs.Tracer
	metrics *obs.Metrics
}

// SetObs attaches a tracer and metrics registry: each per-second analyzer
// sample becomes a workload.sample instant on the workload track and updates
// the workload.ops_per_sec gauge. Either argument may be nil.
func (d *Driver) SetObs(t *obs.Tracer, m *obs.Metrics) {
	d.tracer = t
	d.metrics = m
}

// step is the driver's execution quantum.
const step = time.Millisecond

// NewDriver wires a driver for the given components. The heap must belong to
// proc.
func NewDriver(clock *simclock.Clock, g *guestos.Guest, proc *guestos.Process, h HeapRuntime, prof Profile) *Driver {
	d := &Driver{
		Clock:    clock,
		Guest:    g,
		Proc:     proc,
		Heap:     h,
		Profile:  prof,
		throttle: 1.0,
		startAt:  clock.Now(),
	}
	d.nextSampleAt = d.startAt + time.Second
	d.lastDirtyEvent = g.Dom.DirtyEvents()
	return d
}

// SetThrottle implements migration.Throttleable (Clark-style write
// throttling).
func (d *Driver) SetThrottle(f float64) {
	if f <= 0 || f > 1 {
		panic(fmt.Sprintf("workload: throttle factor %v out of (0,1]", f))
	}
	d.throttle = f
}

// Samples returns the per-second throughput series collected so far.
func (d *Driver) Samples() []Sample { return d.samples }

// Run implements migration.GuestExecutor: execute the guest for exactly dur
// of virtual time.
func (d *Driver) Run(dur time.Duration) {
	end := d.Clock.Now() + dur
	for d.Clock.Now() < end {
		q := step
		if rem := end - d.Clock.Now(); rem < q {
			q = rem
		}
		d.tick(q)
		d.takeSamples()
	}
}

// tick advances one quantum of guest execution.
func (d *Driver) tick(q time.Duration) {
	switch {
	case d.Err != nil:
		// Workload crashed (OutOfMemory): the guest idles.
		d.Clock.Advance(q)

	case d.gcRemaining > 0:
		// Stop-the-world collection in progress: no ops, no allocation —
		// but the collector itself keeps writing (copying live data), so
		// a concurrent migration still observes dirtying.
		adv := q
		if d.gcRemaining < adv {
			adv = d.gcRemaining
		}
		if inc, ok := d.Heap.(gcIncremental); ok {
			inc.GCCopyTick(adv)
		}
		d.Clock.Advance(adv)
		d.gcRemaining -= adv
		if d.gcRemaining == 0 {
			d.completeGC()
		}

	case d.Heap.HeldAtSafepoint():
		// Post-enforced-GC: Java threads held until the VM resumes at the
		// destination. Only background kernel activity continues.
		d.backgroundKernel(q)
		d.Clock.Advance(q)

	default:
		if d.Heap.EnforcePending() && !d.safepointArmed {
			d.safepointArmed = true
			d.safepointRemaining = d.Heap.SafepointDelay()
		}
		d.execute(q)
		if d.safepointArmed {
			d.safepointRemaining -= q
			if d.safepointRemaining <= 0 {
				d.safepointArmed = false
				d.startMinorGC(true)
				return
			}
		}
		if d.Heap.NeedsFullGC() {
			d.startFullGC()
			return
		}
		if d.Heap.NeedsMinorGC() {
			d.startMinorGC(false)
		}
	}
}

// cpuShare models the guest-side overhead of log-dirty write faults while
// migration is tracking dirty pages: each first-write-per-round traps into
// the hypervisor, stealing mutator CPU. Without log-dirty mode the share
// is 1.
func (d *Driver) cpuShare(q time.Duration) float64 {
	traps := d.Guest.Dom.DirtyEvents() - d.lastDirtyEvent
	d.lastDirtyEvent = d.Guest.Dom.DirtyEvents()
	if !d.Guest.Dom.LogDirtyEnabled() || d.Profile.WriteTrapCost == 0 {
		return 1
	}
	overhead := time.Duration(traps) * d.Profile.WriteTrapCost
	share := 1 - float64(overhead)/float64(q)
	if share < 0.5 {
		share = 0.5
	}
	if share > 1 {
		share = 1
	}
	return share
}

// execute runs the mutator for q: allocation, operations and background
// dirtying.
func (d *Driver) execute(q time.Duration) {
	// The activity cycle scales every mutator rate: inside the quiet
	// window the workload allocates, completes ops and dirties at
	// QuietFactor of its calibrated rates. Flat profiles get factor 1.
	share := d.cpuShare(q) * d.throttle * d.Profile.Cycle.ActivityAt(d.Clock.Now())
	secs := q.Seconds()

	// Object allocation (bump pointer in Eden; dirties pages).
	alloc := float64(d.Profile.AllocBytesPerSec)*share*secs + d.allocCarry
	if alloc >= 1 {
		want := uint64(alloc)
		got := d.Heap.Allocate(want)
		d.allocCarry = alloc - float64(got)
		// Cap the carry at Eden capacity: allocation stalls, it does not
		// accumulate unboundedly while a GC is pending.
		if max := float64(d.Profile.MaxYoungBytes); d.allocCarry > max {
			d.allocCarry = max
		}
	} else {
		d.allocCarry = alloc
	}

	// Operations complete in proportion to mutator CPU.
	d.TotalOps += d.Profile.OpsPerSec * share * secs

	// Old-generation in-place mutation.
	old := d.Profile.OldMutatePagesPerSec*share*secs + d.oldCarry
	if n := int(old); n > 0 {
		d.Heap.MutateOld(n)
	}
	d.oldCarry = old - float64(int(old))

	// JIT churn.
	jit := d.Profile.JITPagesPerSec*share*secs + d.jitCarry
	if n := int(jit); n > 0 {
		d.Heap.JITChurn(n)
	}
	d.jitCarry = jit - float64(int(jit))

	d.backgroundKernel(q)
	d.Clock.Advance(q)
}

// backgroundKernel dirties guest-kernel pages: timers, slab churn, network
// buffers. It runs even while Java threads are held.
func (d *Driver) backgroundKernel(q time.Duration) {
	kern := d.Profile.KernelPagesPerSec*q.Seconds() + d.kernCarry
	n := int(kern)
	d.kernCarry = kern - float64(n)
	limit := uint64(guestos.KernelReservedPages)
	if dp := d.Guest.Dom.NumPages(); dp < limit {
		limit = dp
	}
	for i := 0; i < n; i++ {
		d.Guest.DirtyKernelPage(d.kernelCursor % limit)
		d.kernelCursor++
	}
}

func (d *Driver) startMinorGC(enforced bool) {
	d.gcRemaining = d.Heap.BeginMinorGC(enforced)
	d.gcIsFull = false
}

func (d *Driver) startFullGC() {
	d.gcRemaining = d.Heap.BeginFullGC()
	d.gcIsFull = true
}

func (d *Driver) completeGC() {
	if d.gcIsFull {
		d.Heap.CompleteFullGC()
		return
	}
	if _, err := d.Heap.CompleteMinorGC(); err != nil {
		d.Err = fmt.Errorf("workload %s: %w", d.Profile.Name, err)
	}
}

// takeSamples records per-second throughput at each virtual-second boundary
// the clock has crossed. The analyzer's clock keeps running during VM
// suspension, so suspended seconds appear as zero-op samples.
func (d *Driver) takeSamples() {
	for d.Clock.Now() >= d.nextSampleAt {
		// Second is the 0-based index of the interval the sample covers.
		sec := int((d.nextSampleAt-d.startAt)/time.Second) - 1
		s := Sample{Second: sec, Ops: d.TotalOps - d.sampleOpsBase}
		d.samples = append(d.samples, s)
		if d.tracer != nil {
			d.tracer.Emit(obs.TrackWorkload, obs.KindSample, "sample", s,
				obs.Int("second", s.Second), obs.Float("ops", s.Ops))
		}
		d.metrics.Gauge("workload.ops_per_sec").Set(s.Ops)
		d.sampleOpsBase = d.TotalOps
		d.nextSampleAt += time.Second
	}
}

// LongestStall returns the longest run of consecutive seconds in which the
// workload completed fewer than threshold operations — how an external
// observer of the Figure 11 timelines reads off downtime.
func LongestStall(samples []Sample, threshold float64) int {
	bySec := make(map[int]float64, len(samples))
	minSec, maxSec := 0, 0
	for i, s := range samples {
		bySec[s.Second] = s.Ops
		if i == 0 || s.Second < minSec {
			minSec = s.Second
		}
		if s.Second > maxSec {
			maxSec = s.Second
		}
	}
	longest, cur := 0, 0
	for sec := minSec; sec <= maxSec; sec++ {
		if bySec[sec] < threshold {
			cur++
			if cur > longest {
				longest = cur
			}
		} else {
			cur = 0
		}
	}
	return longest
}

// VM bundles a fully assembled guest: domain, guest OS, JVM, optional JAVMM
// agent and the workload driver. It is the unit the experiments (and the
// public API) migrate.
type VM struct {
	Clock *simclock.Clock
	Dom   *hypervisor.Domain
	Guest *guestos.Guest
	Proc  *guestos.Process
	// Heap is the collector the workload runs against; JVM additionally
	// holds the concrete parallel-scavenge instance when the default
	// collector is in use (nil under CollectorG1), and Regional the
	// region-based instance when it is.
	Heap     HeapRuntime
	JVM      *jvm.JVM
	Regional *jvm.RegionalHeap
	Agent    *javmm.Agent // nil unless assisted
	Driver   *Driver
}

// AttachObs threads a tracer and metrics registry through every instrumented
// guest-side layer of the VM: the LKM workflow (state transitions, final
// updates), the netlink bus, the collector (GC spans, Safepoint events) and
// the workload driver (per-second throughput samples). Callers migrating the
// VM should also pass the same pair via migration.Config so the engine's
// iteration spans land in the same trace. Nil arguments detach.
func (vm *VM) AttachObs(t *obs.Tracer, m *obs.Metrics) {
	vm.Guest.LKM.SetObs(t, m)
	vm.Guest.Bus.SetTracer(t)
	if vm.JVM != nil {
		vm.JVM.SetObs(t, m)
	}
	if vm.Regional != nil {
		vm.Regional.SetObs(t, m)
	}
	vm.Driver.SetObs(t, m)
}

// EnforcedGC returns the duration of the most recent enforced collection —
// the pre-suspension GC of an app-assisted migration — or zero when none
// has run.
func (vm *VM) EnforcedGC() time.Duration {
	hist := vm.Heap.GCHistory()
	for i := len(hist) - 1; i >= 0; i-- {
		if hist[i].Enforced {
			return hist[i].Duration
		}
	}
	return 0
}

// BootConfig parameterizes VM assembly.
type BootConfig struct {
	Name     string
	MemBytes uint64 // VM memory (paper: 2 GiB)
	// VCPUs is not modelled: nothing reads it, and the guest runs the
	// same whatever it is set to.
	VCPUs   int
	Profile Profile
	// Assisted loads the JAVMM TI agent so the VM can be migrated in
	// app-assisted mode. A VM booted without the agent can still be
	// migrated by vanilla pre-copy.
	Assisted bool
	Seed     int64
	// LKMRewalk selects the LKM's alternative full-rewalk final update
	// (ablation X5; see guestos.LKMConfig.FinalUpdateRewalk).
	LKMRewalk bool
	// Collector selects the garbage collector: CollectorParallel (default)
	// or CollectorG1.
	Collector string
	// AgentReReport forces the agent's per-GC area re-reporting on or off;
	// nil uses the collector's default (off for parallel, on for G1) —
	// the knob experiment X11 sweeps.
	AgentReReport *bool
	// AgentHints makes the agent label the old generation and code cache
	// with compression hints (§6 hinted-compression extension, X2).
	AgentHints bool
	// Clock, when non-nil, is the virtual clock the VM runs on. Fleets boot
	// N VMs onto one shared clock (with a simclock.Scheduler) so their
	// migrations interleave deterministically; nil boots a private clock,
	// the single-VM default.
	Clock *simclock.Clock
}

// Collector names for BootConfig.Collector.
const (
	// CollectorParallel is the contiguous-young-generation parallel
	// scavenger the paper prototypes against (§4.1).
	CollectorParallel = "parallel"
	// CollectorG1 is the garbage-first-style regional collector of the
	// paper's §6 future work.
	CollectorG1 = "g1"
)

// Boot assembles a VM: domain, guest OS with LKM, the JVM process with the
// profile's heap settings, seeded old-generation data, and (optionally) the
// JAVMM agent.
func Boot(cfg BootConfig) (*VM, error) {
	if cfg.MemBytes == 0 {
		cfg.MemBytes = 2 << 30
	}
	if cfg.Name == "" {
		cfg.Name = cfg.Profile.Name + "-vm"
	}
	// Upfront memory budget: the boot-time footprint must fit, or the
	// frame allocator would fail deep inside heap mapping with a less
	// helpful error.
	const codeCache = 48 << 20
	kernel := uint64(0)
	if cfg.MemBytes/mem.PageSize > guestos.KernelReservedPages {
		kernel = guestos.KernelReservedPages * mem.PageSize
	}
	boot := cfg.Profile.InitialYoungBytes + cfg.Profile.OldSeedBytes + codeCache + kernel
	if boot > cfg.MemBytes {
		return nil, fmt.Errorf("workload: %s boot footprint %d MiB exceeds VM memory %d MiB",
			cfg.Profile.Name, boot>>20, cfg.MemBytes>>20)
	}
	if err := cfg.Profile.Cycle.Validate(); err != nil {
		return nil, fmt.Errorf("workload: booting %s: %w", cfg.Profile.Name, err)
	}

	clock := cfg.Clock
	if clock == nil {
		clock = simclock.New()
	}
	dom := hypervisor.NewDomain(cfg.Name, clock, mem.NewVersionStore(cfg.MemBytes/mem.PageSize))
	g := guestos.NewGuest(dom, guestos.LKMConfig{Clock: clock, FinalUpdateRewalk: cfg.LKMRewalk})
	proc := g.NewProcess("java-" + cfg.Profile.Name)

	p := cfg.Profile
	vm := &VM{
		Clock: clock,
		Dom:   dom,
		Guest: g,
		Proc:  proc,
	}

	var agentHeap javmm.Heap
	reReport := false
	switch cfg.Collector {
	case "", CollectorParallel:
		j, err := jvm.New(jvm.Config{
			Proc:              proc,
			Clock:             clock,
			Rand:              rand.New(rand.NewSource(cfg.Seed + 1)),
			InitialYoungBytes: p.InitialYoungBytes,
			MaxYoungBytes:     p.MaxYoungBytes,
			MaxOldBytes:       p.MaxOldBytes,
			TenureThreshold:   p.TenureThreshold,
			EdenSurvival:      p.EdenSurvival,
			SurvivorSurvival:  p.SurvivorSurvival,
			SafepointDelay:    p.SafepointDelay,
			MinorGCBase:       p.MinorGCBase,
			MinorCopyNsPB:     p.MinorCopyNsPB,
			MinorScanNsPB:     p.MinorScanNsPB,
			OldHotBytes:       p.OldHotBytes,
		})
		if err != nil {
			return nil, fmt.Errorf("workload: booting %s: %w", cfg.Profile.Name, err)
		}
		vm.JVM = j
		vm.Heap = j
		agentHeap = j
	case CollectorG1:
		const regionBytes = 32 << 20
		h, err := jvm.NewRegional(jvm.RegionalConfig{
			Proc:             proc,
			Clock:            clock,
			Rand:             rand.New(rand.NewSource(cfg.Seed + 1)),
			RegionBytes:      regionBytes,
			HeapBytes:        p.MaxYoungBytes + p.MaxOldBytes,
			MaxYoungRegions:  int(p.MaxYoungBytes / regionBytes),
			TenureThreshold:  p.TenureThreshold,
			EdenSurvival:     p.EdenSurvival,
			SurvivorSurvival: p.SurvivorSurvival,
			SafepointDelay:   p.SafepointDelay,
			MinorGCBase:      p.MinorGCBase,
			MinorCopyNsPB:    p.MinorCopyNsPB,
			MinorScanNsPB:    p.MinorScanNsPB,
		})
		if err != nil {
			return nil, fmt.Errorf("workload: booting %s (g1): %w", cfg.Profile.Name, err)
		}
		vm.Regional = h
		vm.Heap = h
		agentHeap = h
		reReport = true // region churn demands re-reporting by default
	default:
		return nil, fmt.Errorf("workload: unknown collector %q", cfg.Collector)
	}

	if p.OldSeedBytes > 0 {
		if err := vm.Heap.SeedOld(p.OldSeedBytes); err != nil {
			return nil, fmt.Errorf("workload: seeding %s: %w", cfg.Profile.Name, err)
		}
	}
	if cfg.AgentReReport != nil {
		reReport = *cfg.AgentReReport
	}
	if cfg.Assisted {
		vm.Agent = javmm.AttachHeap(agentHeap, g, proc, javmm.Options{
			ReReportOnGC: reReport,
			SendHints:    cfg.AgentHints,
		})
	}
	vm.Driver = NewDriver(clock, g, proc, vm.Heap, p)
	return vm, nil
}
