// Package perf is the real-clock performance-observability plane. It
// complements the virtual-clock tracer/metrics/ledger stack of package obs:
// those answer "where did the simulated time and bytes go", this package
// answers "where does the *wall* time and memory of the simulator itself go"
// — the question every raw-speed optimization must be judged by.
//
// The central type is Profiler, a per-run accumulator of wall time and
// allocation bytes attributed to named engine stages (the five stages of
// the migration engine, plus the lazy/post-copy fetch path and the
// digest/audit loops). Attribution is self-time based: a stage's SelfNs
// excludes the time spent in stages nested inside it, so shares are additive
// and sum to at most the run's wall time. The profiler is single-threaded by
// design, exactly like the engine it instruments, and a nil *Profiler is a
// valid no-op — the engine pays nothing when profiling is off.
//
// With pprof labels enabled, entering a stage also tags the goroutine with a
// {"stage": name} pprof label, so CPU and heap profiles collected via the
// -cpuprofile/-memprofile flags of javmm-migrate and javmm-bench attribute
// their samples to the same stage taxonomy.
package perf

import (
	"context"
	"runtime/metrics"
	"runtime/pprof"
	"time"
)

// Stage identifies one instrumented section of the migration data path.
type Stage uint8

const (
	// StageSkipPolicy is the "may these pages stay behind" decision
	// (transfer bitmap, free list), one call per 64-page bitmap word of the
	// to-send set.
	StageSkipPolicy Stage = iota
	// StageWireCodec is per-page wire encoding (compress, hints, delta).
	StageWireCodec
	// StageStopPolicy is the per-iteration convergence decision.
	StageStopPolicy
	// StageSuspension is the guest-side suspension protocol (LKM handshake:
	// Begin, EnterLastIter, Ready polling, Outcome, Resumed, Aborted).
	StageSuspension
	// StagePageSink is page delivery into the destination (including the
	// destination's digest recompute), one call per run of pages: a
	// pre-copy chunk, a demand-fetch run, or a single page.
	StagePageSink
	// StageLazyFetch is the post-copy engine's demand-fetch and prefetch
	// path (link send, delivery, inline verification).
	StageLazyFetch
	// StageDigestAudit is the integrity plane's switchover audit and
	// per-fetch digest verification loops.
	StageDigestAudit

	numStages
)

var stageNames = [numStages]string{
	"skip-policy",
	"wire-codec",
	"stop-policy",
	"suspension-protocol",
	"page-sink",
	"lazy-fetch",
	"digest-audit",
}

// String returns the stage's stable snake-ish name, used in snapshots and
// pprof labels.
func (s Stage) String() string {
	if s < numStages {
		return stageNames[s]
	}
	return "unknown"
}

// Stages returns every instrumented stage in canonical order.
func Stages() []Stage {
	out := make([]Stage, numStages)
	for i := range out {
		out[i] = Stage(i)
	}
	return out
}

// heapAllocsMetric is the runtime/metrics cumulative allocation counter the
// profiler samples for per-stage allocation attribution. It only ever grows,
// so deltas are valid even across garbage collections.
const heapAllocsMetric = "/gc/heap/allocs:bytes"

// frame is one open stage on the profiler's stack.
type frame struct {
	stage      Stage
	start      time.Time
	childDur   time.Duration
	startAlloc uint64
	childAlloc uint64
}

// stageAcc accumulates one stage's totals.
type stageAcc struct {
	calls      uint64
	self       time.Duration
	total      time.Duration
	selfAllocB uint64
}

// Profiler attributes wall time and allocation bytes to stages. Create one
// with NewProfiler and hand it to the engine (migration.Config.Perf); read
// it back with Snapshot after the run. Not safe for concurrent use — one
// profiler per single-threaded run.
type Profiler struct {
	allocs bool
	labels bool
	sample []metrics.Sample
	stack  []frame
	acc    [numStages]stageAcc
	ctxs   [numStages]context.Context
	base   context.Context
}

// Option configures a Profiler.
type Option func(*Profiler)

// WithAllocs enables per-stage allocation accounting. Each stage entry and
// exit samples the runtime's cumulative heap-allocation counter; the deltas
// are attributed like wall time (self excludes nested stages). Costs one
// runtime/metrics read per boundary, so leave it off for timing-sensitive
// runs and on for the instrumented accounting run.
//
// The counter (/gc/heap/allocs:bytes) lags for small objects: the runtime
// books the bytes of an object of at most 32 KiB only when its span leaves
// the P's cache, so up to one span of a stage's small allocations can land
// in a later stage. Objects above 32 KiB are booked when allocated.
func WithAllocs() Option { return func(p *Profiler) { p.allocs = true } }

// WithPprofLabels tags the goroutine with a {"stage": name} pprof label
// while a stage is open, so -cpuprofile/-memprofile samples attribute to
// stages. Label sets are precomputed once; switching costs an atomic store.
func WithPprofLabels() Option { return func(p *Profiler) { p.labels = true } }

// NewProfiler returns an empty profiler. A nil *Profiler is also valid:
// every method no-ops.
func NewProfiler(opts ...Option) *Profiler {
	p := &Profiler{stack: make([]frame, 0, 8)}
	for _, o := range opts {
		o(p)
	}
	if p.allocs {
		p.sample = []metrics.Sample{{Name: heapAllocsMetric}}
	}
	if p.labels {
		p.base = context.Background()
		for i := Stage(0); i < numStages; i++ {
			p.ctxs[i] = pprof.WithLabels(p.base, pprof.Labels("stage", i.String()))
		}
	}
	return p
}

// readAlloc samples the cumulative heap-allocation counter.
func (p *Profiler) readAlloc() uint64 {
	metrics.Read(p.sample)
	return p.sample[0].Value.Uint64()
}

// Enter opens stage s. Every Enter must be paired with exactly one Exit;
// stages may nest arbitrarily (the engine's audit loop re-enters the codec
// and sink stages) and self-time attribution untangles the nesting. Enter
// and Exit inline to a nil check, so the engine's per-page and per-word
// brackets cost nothing when profiling is off.
func (p *Profiler) Enter(s Stage) {
	if p != nil {
		p.enter(s)
	}
}

// Exit closes the innermost open stage, attributing its elapsed wall time
// (and allocation bytes, when enabled) minus whatever nested stages already
// claimed. Exit on an empty stack is a no-op rather than a panic: a profiler
// must never take the engine down.
func (p *Profiler) Exit() {
	if p != nil {
		p.exit()
	}
}

func (p *Profiler) enter(s Stage) {
	f := frame{stage: s, start: time.Now()}
	if p.allocs {
		f.startAlloc = p.readAlloc()
	}
	p.stack = append(p.stack, f)
	if p.labels {
		pprof.SetGoroutineLabels(p.ctxs[s])
	}
}

func (p *Profiler) exit() {
	if len(p.stack) == 0 {
		return
	}
	f := p.stack[len(p.stack)-1]
	p.stack = p.stack[:len(p.stack)-1]
	el := time.Since(f.start)
	a := &p.acc[f.stage]
	a.calls++
	a.total += el
	a.self += el - f.childDur
	if p.allocs {
		alloc := p.readAlloc() - f.startAlloc
		a.selfAllocB += alloc - f.childAlloc
	}
	if len(p.stack) > 0 {
		parent := &p.stack[len(p.stack)-1]
		parent.childDur += el
		if p.allocs {
			parent.childAlloc += p.readAlloc() - f.startAlloc
		}
		if p.labels {
			pprof.SetGoroutineLabels(p.ctxs[parent.stage])
		}
	} else if p.labels {
		pprof.SetGoroutineLabels(p.base)
	}
}

// StageStats is one stage's accumulated account.
type StageStats struct {
	// Stage is the stable stage name.
	Stage string `json:"stage"`
	// Calls is the number of Enter/Exit pairs.
	Calls uint64 `json:"calls"`
	// SelfNs is wall time spent in the stage excluding nested stages —
	// the additive quantity shares are computed from.
	SelfNs int64 `json:"self_ns"`
	// TotalNs is wall time including nested stages.
	TotalNs int64 `json:"total_ns"`
	// SelfAllocBytes is heap allocation attributed to the stage (0 unless
	// the profiler was built WithAllocs).
	SelfAllocBytes uint64 `json:"self_alloc_bytes,omitempty"`
}

// Snapshot returns the per-stage accounts in canonical stage order, omitting
// stages that were never entered. A nil profiler returns nil.
func (p *Profiler) Snapshot() []StageStats {
	if p == nil {
		return nil
	}
	var out []StageStats
	for i := Stage(0); i < numStages; i++ {
		a := p.acc[i]
		if a.calls == 0 {
			continue
		}
		out = append(out, StageStats{
			Stage:          i.String(),
			Calls:          a.calls,
			SelfNs:         a.self.Nanoseconds(),
			TotalNs:        a.total.Nanoseconds(),
			SelfAllocBytes: a.selfAllocB,
		})
	}
	return out
}

// SelfTotal returns the sum of every stage's self time — the portion of the
// run's wall clock the instrumented stages account for.
func (p *Profiler) SelfTotal() time.Duration {
	if p == nil {
		return 0
	}
	var t time.Duration
	for i := range p.acc {
		t += p.acc[i].self
	}
	return t
}
