// Package obs is the observability substrate of the simulator: structured
// tracing and metrics keyed to the virtual clock.
//
// Everything the paper's evaluation needs to *see* — per-iteration pages
// sent/skipped, dirty rates, LKM state transitions, GC pauses, link
// utilization — flows through one Tracer (nestable spans and typed instant
// events) and one Metrics registry (counters, gauges, time-weighted
// histograms). Both are driven exclusively by simclock virtual time, so a
// trace of a migration is exactly reproducible: two runs with the same seed
// produce byte-identical exports.
//
// Producers (the migration engine, the LKM, the JVM, the workload driver,
// the network link) emit through nil-safe methods, so instrumented code
// needs no guards: a nil *Tracer or *Metrics swallows every call. Consumers
// either subscribe in-process (Tracer.Subscribe — the only way the engine
// streams per-iteration statistics) or export the recorded events with
// WriteJSONL / WriteChromeTrace after the run.
package obs

import (
	"fmt"
	"time"

	"javmm/internal/simclock"
)

// Kind classifies an event. Kinds are dot-namespaced by emitting component;
// consumers filter on them.
type Kind string

// Event kinds emitted by the instrumented components.
const (
	// KindMigration spans one whole migration run.
	KindMigration Kind = "migration.run"
	// KindIteration spans one pre-copy iteration (or stop-and-copy).
	KindIteration Kind = "migration.iteration"
	// KindIterationStats is the instant event carrying a completed
	// iteration's statistics; its Data payload is the engine's
	// IterationStats value.
	KindIterationStats Kind = "migration.iteration.stats"
	// KindChunk spans one page-chunk push through the link.
	KindChunk Kind = "migration.chunk"
	// KindPrepare spans the pre-suspension handshake (paper Figure 8(b)).
	KindPrepare Kind = "migration.prepare"
	// KindFinalUpdate spans the LKM's final transfer bitmap update charged
	// to downtime.
	KindFinalUpdate Kind = "migration.final_update"
	// KindVMPaused spans the VM's stop-and-copy suspension.
	KindVMPaused Kind = "migration.vm_paused"
	// KindResumption spans device reconnection at the destination.
	KindResumption Kind = "migration.resumption"
	// KindSuspend and KindResume mark the suspension/resumption instants.
	KindSuspend Kind = "migration.suspend"
	KindResume  Kind = "migration.resume"
	// KindThrottle marks a Clark-style write-throttle change.
	KindThrottle Kind = "migration.throttle"

	// KindLKMState marks an LKM workflow state transition (Figure 4).
	KindLKMState Kind = "lkm.state"
	// KindLKMAbort marks a migration abort observed by the LKM.
	KindLKMAbort Kind = "lkm.abort"
	// KindNetlink marks a netlink message between LKM and applications.
	KindNetlink Kind = "netlink.msg"

	// KindGC spans one stop-the-world collection (minor, enforced, full).
	KindGC Kind = "jvm.gc"
	// KindSafepoint marks Safepoint holds/releases around an enforced GC.
	KindSafepoint Kind = "jvm.safepoint"

	// KindSample is the workload analyzer's per-second throughput sample.
	KindSample Kind = "workload.sample"

	// KindFault marks an injected fault (site + occurrence) on the faults
	// track.
	KindFault Kind = "fault.injected"
	// KindRetry marks one recovery retry: the engine backed off and will
	// re-attempt a failed stage operation.
	KindRetry Kind = "migration.retry"
	// KindDegrade marks a mid-flight mode downgrade (assisted pre-copy
	// falling back to vanilla semantics after a failed handshake, §4.2).
	KindDegrade Kind = "migration.degrade"
	// KindAbort marks a failed migration's clean abort: source resumed,
	// destination discarded.
	KindAbort Kind = "migration.abort"
	// KindIntegrityAudit spans the switchover digest audit (and marks
	// per-fetch digest mismatches detected in the lazy engine).
	KindIntegrityAudit Kind = "migration.integrity_audit"
	// KindResumePlan marks a resumed run's trust decision: how much of the
	// ResumeToken's destination state was kept and why.
	KindResumePlan Kind = "migration.resume_plan"

	// KindSpanError marks a span misuse the tracer detected and refused: a
	// double close, or a close that would interleave with a more deeply
	// nested open span on the same track. The offending end event is not
	// recorded — nesting stays intact — and the error event documents the
	// instrumentation bug instead.
	KindSpanError Kind = "obs.span_error"

	// KindProgress is the live progress stream: an instant event per
	// lifecycle transition and per completed iteration, carrying the
	// engine's typed Progress value as its Data payload (pages/bytes
	// remaining, observed dirty/transfer rates, ETA).
	KindProgress Kind = "migration.progress"

	// KindTransfer spans one arbitrated fabric transfer on its flow's track
	// ("fabric/<src>-><dst>"): begin at admission, end at completion with the
	// contended duration, queueing and stall attached.
	KindTransfer Kind = "fabric.transfer"
	// KindContention marks a change in a shared trunk's concurrent-transfer
	// count, emitted on the trunk's own fabric track ("fabric/<link>").
	KindContention Kind = "fabric.contention"
)

// Track names group events onto separate timelines (Chrome trace threads).
// Span begin/end pairs nest within their track.
const (
	TrackMigration = "migration"
	TrackLKM       = "lkm"
	TrackNetlink   = "netlink"
	TrackJVM       = "jvm"
	TrackWorkload  = "workload"
	TrackFaults    = "faults"
	// TrackFabric prefixes the shared-fabric timelines: per-flow transfer
	// spans live on TrackFabric + "/<src>-><dst>" and per-link contention
	// instants on TrackFabric + "/<link>".
	TrackFabric = "fabric"
)

// Phase distinguishes instant events from span boundaries.
type Phase string

// Event phases.
const (
	PhaseInstant Phase = "instant"
	PhaseBegin   Phase = "begin"
	PhaseEnd     Phase = "end"
)

// Attr is one key/value attribute on an event. Values are restricted to
// bool, string, signed/unsigned integers, float64 and time.Duration; the
// exporters render anything else with %v.
type Attr struct {
	Key string
	Val any
}

// Str returns a string attribute.
func Str(k, v string) Attr { return Attr{Key: k, Val: v} }

// Int returns an integer attribute.
func Int(k string, v int) Attr { return Attr{Key: k, Val: int64(v)} }

// Int64 returns an int64 attribute.
func Int64(k string, v int64) Attr { return Attr{Key: k, Val: v} }

// Uint64 returns a uint64 attribute.
func Uint64(k string, v uint64) Attr { return Attr{Key: k, Val: v} }

// Float returns a float64 attribute.
func Float(k string, v float64) Attr { return Attr{Key: k, Val: v} }

// Bool returns a boolean attribute.
func Bool(k string, v bool) Attr { return Attr{Key: k, Val: v} }

// Dur returns a duration attribute (exported as integer nanoseconds).
func Dur(k string, v time.Duration) Attr { return Attr{Key: k, Val: v} }

// Event is one recorded trace event. At is virtual time; Seq is the
// emission order (total within a Tracer), which breaks ties between events
// at the same virtual instant.
type Event struct {
	Seq   int
	At    time.Duration
	Track string
	Kind  Kind
	Name  string
	Phase Phase
	Attrs []Attr

	// Data optionally carries the producer's typed payload for in-process
	// subscribers (e.g. the engine's IterationStats). It is not exported
	// to JSONL/Chrome output; everything export-worthy goes in Attrs.
	Data any
}

// Tracer records events against a virtual clock and fans them out to
// subscribers. The zero of *Tracer (nil) is a valid no-op sink. Tracer is
// not safe for concurrent use: the simulator is single-threaded by design.
type Tracer struct {
	clock  *simclock.Clock
	events []Event
	subs   []*subscriber
	seq    int
	// open is the per-track stack of not-yet-ended spans, used to detect
	// closes that would corrupt the nesting the exporters rely on.
	open map[string][]*Span
}

type subscriber struct{ fn func(Event) }

// New returns a tracer recording against clock.
func New(clock *simclock.Clock) *Tracer {
	if clock == nil {
		panic("obs: New requires a clock")
	}
	return &Tracer{clock: clock}
}

// Events returns the events recorded so far, in emission order. The slice
// is the tracer's own backing store; treat it as read-only.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	return t.events
}

// Len returns the number of recorded events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.events)
}

// Subscribe registers fn to receive every subsequent event as it is
// emitted, and returns a cancel function that removes the subscription.
// Subscribers run synchronously in registration order.
func (t *Tracer) Subscribe(fn func(Event)) (cancel func()) {
	if t == nil {
		return func() {}
	}
	s := &subscriber{fn: fn}
	t.subs = append(t.subs, s)
	return func() {
		for i, x := range t.subs {
			if x == s {
				t.subs = append(t.subs[:i], t.subs[i+1:]...)
				return
			}
		}
	}
}

// record stamps, stores and fans out one event.
func (t *Tracer) record(track string, kind Kind, name string, phase Phase, data any, attrs []Attr) {
	e := Event{
		Seq:   t.seq,
		At:    t.clock.Now(),
		Track: track,
		Kind:  kind,
		Name:  name,
		Phase: phase,
		Attrs: attrs,
		Data:  data,
	}
	t.seq++
	t.events = append(t.events, e)
	for _, s := range t.subs {
		s.fn(e)
	}
}

// Emit records an instant event. data may carry a typed payload for
// subscribers (nil for none).
func (t *Tracer) Emit(track string, kind Kind, name string, data any, attrs ...Attr) {
	if t == nil {
		return
	}
	t.record(track, kind, name, PhaseInstant, data, attrs)
}

// Begin opens a span: a begin event now, and an end event when the returned
// span's End is called. Spans on the same track must close in LIFO order
// (they nest); spans on different tracks are independent. The tracer
// enforces the nesting: a misplaced End is refused and recorded as a
// KindSpanError event (see Span.End).
func (t *Tracer) Begin(track string, kind Kind, name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	t.record(track, kind, name, PhaseBegin, nil, attrs)
	sp := &Span{t: t, track: track, kind: kind, name: name}
	if t.open == nil {
		t.open = make(map[string][]*Span)
	}
	t.open[track] = append(t.open[track], sp)
	return sp
}

// Span is an open interval on one track. End is nil-safe.
type Span struct {
	t     *Tracer
	track string
	kind  Kind
	name  string
	ended bool
}

// End closes the span at the current virtual time, attaching any final
// attributes to the end event.
//
// A span may be ended exactly once, and only while it is the innermost open
// span on its track. A violating End — double close, or out-of-order close
// — would silently corrupt the begin/end nesting every trace consumer
// assumes, so the tracer refuses it: no end event is recorded, a
// KindSpanError event marks the bug in the trace, and the error describes
// it. An out-of-order close leaves the span open; it may still be ended
// legitimately once the spans nested inside it have closed.
func (s *Span) End(attrs ...Attr) error {
	if s == nil {
		return nil
	}
	if s.ended {
		err := fmt.Errorf("obs: span %q on track %q closed twice", s.name, s.track)
		s.t.Emit(s.track, KindSpanError, "double-close", nil, Str("span", s.name))
		return err
	}
	stack := s.t.open[s.track]
	if n := len(stack); n == 0 || stack[n-1] != s {
		innermost := "<none>"
		if n > 0 {
			innermost = stack[n-1].name
		}
		err := fmt.Errorf("obs: span %q on track %q closed out of order (innermost open span is %q)",
			s.name, s.track, innermost)
		s.t.Emit(s.track, KindSpanError, "out-of-order-close", nil,
			Str("span", s.name), Str("innermost", innermost))
		return err
	}
	s.t.open[s.track] = stack[:len(stack)-1]
	s.ended = true
	s.t.record(s.track, s.kind, s.name, PhaseEnd, nil, attrs)
	return nil
}
