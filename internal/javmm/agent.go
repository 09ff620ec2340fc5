// Package javmm implements the JVM Tool Interface agent that makes a HotSpot
// instance participate in application-assisted live migration (paper §4.3).
//
// The agent is loaded as the Java application starts. It creates a netlink
// socket to the LKM and, on the LKM's behalf-of-migration queries:
//
//   - reports the young generation's VA ranges as the skip-over areas,
//   - notifies the LKM when pages leave the young generation (adaptive
//     shrink or region frees at GC end),
//   - enforces a minor GC when asked to prepare for suspension, holds Java
//     threads at the Safepoint once it completes, and reports the post-GC
//     skip-over areas — the young generation minus live survivor data — so
//     the surviving objects are transferred in the last iteration,
//   - releases the threads when the VM has resumed at the destination.
//
// No modification to the Java application is required (paper §4.3.1).
//
// The agent drives collectors through the Heap interface, so both the
// contiguous parallel-scavenge heap (jvm.JVM) and the garbage-first-style
// regional heap (jvm.RegionalHeap, the paper's §6 future work) plug in. For
// region-churning collectors the agent can re-report its skip-over areas
// after every collection (Options.ReReportOnGC): without that, each minor GC
// moves the young generation out from under the transfer bitmap and JAVMM's
// benefit erodes — the effect experiment X11 measures.
package javmm

import (
	"javmm/internal/guestos"
	"javmm/internal/jvm"
	"javmm/internal/mem"
)

// Heap is the collector surface the agent needs (paper §6: "only the
// application runtime, not every individual application, needs to be
// modified to run in our framework").
type Heap interface {
	// YoungAreas returns the young generation's current VA ranges.
	YoungAreas() []mem.VARange
	// ReadyAreas returns the skip-over areas after the enforced GC, with
	// live survivor data excluded; valid while threads are held.
	ReadyAreas() []mem.VARange
	// RequestEnforcedGC schedules a collection that must not be ignored;
	// the enforced-done callback fires when it completes with threads held.
	RequestEnforcedGC()
	// ReleaseFromSafepoint releases threads held after the enforced GC.
	ReleaseFromSafepoint()
	// SetTICallbacks installs the agent's hooks: young-gen shrink events,
	// GC completions, and enforced-GC completion.
	SetTICallbacks(onShrink func(mem.VARange), onGCEnd func(jvm.GCStats), onEnforcedDone func())
}

// Options tunes agent behaviour per collector.
type Options struct {
	// ReReportOnGC re-sends the skip-over areas after every collection
	// while migration is in its live phase. Required for collectors whose
	// young generation churns through different VA ranges (RegionalHeap);
	// unnecessary for contiguous collectors, where expansion handling is
	// deferred to the final update exactly as §3.3.4 prescribes.
	ReReportOnGC bool
	// SendHints labels the old generation and code cache with compression
	// hints at migration begin (the §6 hinted-compression extension).
	SendHints bool
}

// hintProvider is optionally implemented by collectors that can classify
// their memory's compressibility.
type hintProvider interface {
	HintAreas() (strong, fast []mem.VARange)
}

// Agent is one loaded TI agent instance.
type Agent struct {
	heap Heap
	sock *guestos.Socket
	opts Options

	migrating   bool // between the begin query and VM resumption
	readySent   bool // suspension-ready already reported this migration
	prepareSeen bool // prepare-for-suspension received this migration

	// Statistics.
	Queries      int // skip-over queries answered
	ReReports    int // mid-migration area re-reports sent
	GrowReports  int // immediate young-growth reports sent
	HintsSent    int // compression-hint messages sent
	ShrinkSent   int // young-gen shrink notifications sent
	EnforcedGCs  int // enforced collections triggered
	ReadySent    int // suspension-ready notifications sent
	ResumeEvents int // VM-resumed notifications received
}

// Attach loads the agent for the standard contiguous-young-generation
// collector.
func Attach(j *jvm.JVM, g *guestos.Guest, proc *guestos.Process) *Agent {
	return AttachHeap(j, g, proc, Options{})
}

// growNotifier is optionally implemented by collectors whose young
// generation expands region-by-region between collections.
type growNotifier interface {
	SetYoungGrowCallback(func(mem.VARange))
}

// AttachHeap loads the agent for any collector: subscribes to the LKM's
// multicast group on behalf of proc (the JVM's OS process) and hooks the
// heap's TI callbacks.
func AttachHeap(h Heap, g *guestos.Guest, proc *guestos.Process, opts Options) *Agent {
	a := &Agent{heap: h, opts: opts}
	a.sock = g.LKM.RegisterApp(proc, a.onNetlink)
	h.SetTICallbacks(a.onYoungShrink, a.onGCEnd, a.onEnforcedDone)
	if gn, ok := h.(growNotifier); ok && opts.ReReportOnGC {
		gn.SetYoungGrowCallback(a.onYoungGrow)
	}
	return a
}

// Detach closes the agent's socket; the application stops participating in
// migrations (the LKM will no longer query it).
func (a *Agent) Detach() { a.sock.Close() }

// onNetlink handles the LKM's multicasts.
func (a *Agent) onNetlink(msg any) {
	switch msg.(type) {
	case guestos.MsgQuerySkipAreas:
		a.migrating = true
		a.readySent = false
		a.prepareSeen = false
		a.Queries++
		a.sock.Send(guestos.MsgReportAreas{
			App:   a.sock.App(),
			Areas: a.heap.YoungAreas(),
		})
		if hp, ok := a.heap.(hintProvider); ok && a.opts.SendHints {
			strong, fast := hp.HintAreas()
			if len(strong) > 0 {
				a.sock.Send(guestos.MsgCompressionHints{
					App: a.sock.App(), Areas: strong, Level: guestos.HintStrong,
				})
			}
			if len(fast) > 0 {
				a.sock.Send(guestos.MsgCompressionHints{
					App: a.sock.App(), Areas: fast, Level: guestos.HintFast,
				})
			}
			a.HintsSent++
		}
	case guestos.MsgPrepareSuspension:
		if !a.migrating || a.prepareSeen {
			return
		}
		a.prepareSeen = true
		a.EnforcedGCs++
		// Enforce a minor GC; the workload driver walks the threads to a
		// Safepoint and runs the collection. onEnforcedDone fires when it
		// completes with the threads still held.
		a.heap.RequestEnforcedGC()
	case guestos.MsgVMResumed:
		if !a.migrating {
			return
		}
		a.ResumeEvents++
		a.migrating = false
		// The Java application resumes execution with all live data
		// available in the destination (paper §4.3.2).
		a.heap.ReleaseFromSafepoint()
	}
}

// onYoungShrink relays pages freed from the young generation so the LKM can
// set their transfer bits immediately (paper §3.3.4 / §4.3.2).
func (a *Agent) onYoungShrink(freed mem.VARange) {
	if !a.migrating || a.readySent {
		return
	}
	a.ShrinkSent++
	a.sock.Send(guestos.MsgAreaShrunk{
		App:  a.sock.App(),
		Left: []mem.VARange{freed},
	})
}

// onYoungGrow reports a fresh young region the moment the heap expands into
// it, so its (continuously dirtied) pages become skippable immediately
// rather than at the next GC-end re-report.
func (a *Agent) onYoungGrow(grown mem.VARange) {
	if !a.migrating || a.prepareSeen || a.readySent {
		return
	}
	a.GrowReports++
	a.sock.Send(guestos.MsgReportAreas{
		App:   a.sock.App(),
		Areas: []mem.VARange{grown},
	})
}

// onGCEnd re-reports the (possibly relocated) young generation after a
// collection, for collectors whose regions churn.
func (a *Agent) onGCEnd(jvm.GCStats) {
	if !a.opts.ReReportOnGC || !a.migrating || a.prepareSeen || a.readySent {
		return
	}
	a.ReReports++
	a.sock.Send(guestos.MsgReportAreas{
		App:   a.sock.App(),
		Areas: a.heap.YoungAreas(),
	})
}

// onEnforcedDone runs when the enforced GC finishes, with Java threads still
// paused at the Safepoint. It reports the final skip-over areas so the LKM's
// final bitmap update marks the surviving objects for transfer in the last
// iteration (paper §4.3.2).
func (a *Agent) onEnforcedDone() {
	if !a.migrating || a.readySent {
		return
	}
	a.readySent = true
	a.ReadySent++
	a.sock.Send(guestos.MsgSuspensionReady{
		App:   a.sock.App(),
		Areas: a.heap.ReadyAreas(),
	})
}
