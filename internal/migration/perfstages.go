package migration

import (
	"time"

	"javmm/internal/mem"
	"javmm/internal/obs/perf"
)

// Real-clock stage decorators. When Config.Perf is set, bindStages wraps
// every bound stage in one of these so each call is bracketed by
// perf.Profiler Enter/Exit — attributing the simulator's own wall time and
// allocations to the stage taxonomy. With Perf nil nothing is wrapped and
// the engine runs exactly as before; the profiler's deterministic
// transparency (identical reports with and without it) is asserted by
// TestPerfProfilerTransparent and by the bench harness on every run.

type profiledSkip struct {
	next SkipPolicy
	p    *perf.Profiler
}

func (w profiledSkip) Skip(wi int, pending uint64) (uint64, uint64) {
	w.p.Enter(perf.StageSkipPolicy)
	bm, free := w.next.Skip(wi, pending)
	w.p.Exit()
	return bm, free
}

func (w profiledSkip) FinalTransfer(n uint64) *mem.Bitmap {
	w.p.Enter(perf.StageSkipPolicy)
	bm := w.next.FinalTransfer(n)
	w.p.Exit()
	return bm
}

// profileSkip wraps a skip policy when a profiler is present.
func profileSkip(next SkipPolicy, p *perf.Profiler) SkipPolicy {
	if p == nil {
		return next
	}
	return profiledSkip{next: next, p: p}
}

type profiledCodec struct {
	next WireCodec
	p    *perf.Profiler
}

func (w profiledCodec) Encode(pfn mem.PFN, raw uint64) (uint64, time.Duration) {
	w.p.Enter(perf.StageWireCodec)
	wire, cpu := w.next.Encode(pfn, raw)
	w.p.Exit()
	return wire, cpu
}

type profiledStop struct {
	next StopPolicy
	p    *perf.Profiler
}

func (w profiledStop) Stop(iter int, st IterationStats, sentBytes, memoryBytes uint64) bool {
	w.p.Enter(perf.StageStopPolicy)
	stop := w.next.Stop(iter, st, sentBytes, memoryBytes)
	w.p.Exit()
	return stop
}

type profiledProto struct {
	next SuspensionProtocol
	p    *perf.Profiler
}

func (w profiledProto) Begin() *mem.Bitmap {
	w.p.Enter(perf.StageSuspension)
	bm := w.next.Begin()
	w.p.Exit()
	return bm
}

func (w profiledProto) EnterLastIter() {
	w.p.Enter(perf.StageSuspension)
	w.next.EnterLastIter()
	w.p.Exit()
}

func (w profiledProto) Ready() bool {
	w.p.Enter(perf.StageSuspension)
	r := w.next.Ready()
	w.p.Exit()
	return r
}

func (w profiledProto) Outcome() (time.Duration, int) {
	w.p.Enter(perf.StageSuspension)
	d, f := w.next.Outcome()
	w.p.Exit()
	return d, f
}

func (w profiledProto) Resumed() {
	w.p.Enter(perf.StageSuspension)
	w.next.Resumed()
	w.p.Exit()
}

func (w profiledProto) Aborted() {
	w.p.Enter(perf.StageSuspension)
	w.next.Aborted()
	w.p.Exit()
}

// profileProto wraps a suspension protocol when a profiler is present.
func profileProto(next SuspensionProtocol, p *perf.Profiler) SuspensionProtocol {
	if p == nil || next == nil {
		return next
	}
	return profiledProto{next: next, p: p}
}

type profiledSink struct {
	next PageSink
	p    *perf.Profiler
}

func (w profiledSink) ReceivePages(pfns []mem.PFN, payloads []byte) (int, error) {
	w.p.Enter(perf.StagePageSink)
	landed, err := w.next.ReceivePages(pfns, payloads)
	w.p.Exit()
	return landed, err
}

// profileSink wraps a page sink when a profiler is present.
func profileSink(next PageSink, p *perf.Profiler) PageSink {
	if p == nil {
		return next
	}
	return profiledSink{next: next, p: p}
}
