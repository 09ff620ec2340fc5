package migration

import (
	"time"

	"javmm/internal/obs"
)

// The live progress stream: typed lifecycle events the engine emits as a
// migration moves through its phases, riding the same event bus as every
// other obs consumer (obs.KindProgress instants with a Progress Data
// payload). The fleet orchestrator fans these out per VM and
// `javmm-migrate -peers -progress` renders them as a fleet status line;
// because they are ordinary virtual-clock events, the stream is as
// deterministic as the migration itself.

// ProgressPhase names a migration lifecycle phase in the progress stream.
type ProgressPhase string

// Progress phases, in the order a run moves through them. Pre-copy runs go
// start → pre-copy* → [prepare] → stop-and-copy → done; lazy runs go
// start → [pre-copy* warm rounds] → post-copy → done; any run may end in
// aborted instead.
const (
	ProgressStart       ProgressPhase = "start"
	ProgressPreCopy     ProgressPhase = "pre-copy"
	ProgressPrepare     ProgressPhase = "prepare"
	ProgressStopAndCopy ProgressPhase = "stop-and-copy"
	ProgressPostCopy    ProgressPhase = "post-copy"
	ProgressDone        ProgressPhase = "done"
	ProgressAborted     ProgressPhase = "aborted"
)

// Progress is one point of the live progress stream.
type Progress struct {
	// VM is the source domain's name.
	VM string
	// Phase is the lifecycle phase this point belongs to.
	Phase ProgressPhase
	// At is the virtual time of the emission.
	At time.Duration
	// Iteration is the current iteration index (0 for the start marker).
	Iteration int

	// PagesSent/BytesSent are cumulative over the run so far.
	PagesSent uint64
	BytesSent uint64
	// PagesRemaining/BytesRemaining estimate the outstanding work: for a
	// live pre-copy round, the pages dirtied while it ran (the next round's
	// workload); for a post-copy phase, the non-resident pages.
	PagesRemaining uint64
	BytesRemaining uint64

	// DirtyRate (pages/sec) and TransferRate (bytes/sec) are the rates
	// observed over the most recent iteration; zero on pure lifecycle
	// markers.
	DirtyRate    float64
	TransferRate float64

	// ETA estimates the remaining transfer time from the observed rates
	// (see EstimateETA). Converging is false when the dirty rate matches or
	// outruns the transfer rate: pre-copy cannot finish at these rates and
	// ETA is clamped to MaxETA rather than negative or overflowed.
	ETA        time.Duration
	Converging bool
}

// MaxETA is the ETA clamp: estimates at or beyond it (including the
// non-converging case, where the naive formula goes negative or infinite)
// are pinned here.
const MaxETA = time.Hour

// EstimateETA estimates the time to move bytesRemaining at the observed
// transferRate while the guest re-dirties at dirtyByteRate (both bytes/sec).
// The estimate models the pre-copy race: the net drain rate is transfer
// minus dirtying. When the drain rate is non-positive — the dirty rate
// matches or exceeds the transfer rate — the migration does not converge at
// these rates: EstimateETA returns (MaxETA, false) instead of a negative or
// overflowing duration. Converging-but-slow estimates are clamped to MaxETA
// with converging still true.
func EstimateETA(bytesRemaining uint64, transferRate, dirtyByteRate float64) (eta time.Duration, converging bool) {
	if bytesRemaining == 0 {
		return 0, true
	}
	if transferRate <= 0 {
		return MaxETA, false
	}
	net := transferRate - dirtyByteRate
	if net <= 0 {
		return MaxETA, false
	}
	secs := float64(bytesRemaining) / net
	if secs >= MaxETA.Seconds() {
		return MaxETA, true
	}
	return time.Duration(secs * float64(time.Second)), true
}

// emitProgress publishes one progress point. With a tracer configured it is
// an obs.KindProgress instant (Data carries the typed Progress; attrs carry
// the exportable view) and OnProgress rides the bus via its subscription;
// with only OnProgress configured the callback is invoked directly.
func (s *Source) emitProgress(phase ProgressPhase, iter int, pagesRemaining uint64, dirtyRate, transferRate float64) {
	if s.Cfg.Tracer == nil && s.Cfg.OnProgress == nil {
		return
	}
	wire := s.Dom.Store().WireSize()
	p := Progress{
		VM:             s.Dom.Name(),
		Phase:          phase,
		At:             s.Clock.Now(),
		Iteration:      iter,
		PagesSent:      s.report.TotalPagesSent,
		BytesSent:      s.report.TotalBytes(),
		PagesRemaining: pagesRemaining,
		BytesRemaining: pagesRemaining * wire,
		DirtyRate:      dirtyRate,
		TransferRate:   transferRate,
	}
	p.ETA, p.Converging = EstimateETA(p.BytesRemaining, transferRate, dirtyRate*float64(wire))
	if t := s.Cfg.Tracer; t != nil {
		t.Emit(obs.TrackMigration, obs.KindProgress, string(phase), p,
			obs.Str("phase", string(phase)),
			obs.Int("iteration", iter),
			obs.Uint64("pages_sent", p.PagesSent),
			obs.Uint64("bytes_sent", p.BytesSent),
			obs.Uint64("pages_remaining", p.PagesRemaining),
			obs.Uint64("bytes_remaining", p.BytesRemaining),
			obs.Float("dirty_rate", p.DirtyRate),
			obs.Float("transfer_rate", p.TransferRate),
			obs.Dur("eta", p.ETA),
			obs.Bool("converging", p.Converging))
		return
	}
	s.Cfg.OnProgress(p)
}

// subscribeProgress wires Cfg.OnProgress onto the event bus when a tracer is
// configured: the callback sees the same typed payloads every other
// subscriber sees. The returned cancel
// is a no-op when no subscription was needed.
func (s *Source) subscribeProgress() (cancel func()) {
	if s.Cfg.OnProgress == nil || s.Cfg.Tracer == nil {
		return func() {}
	}
	return s.Cfg.Tracer.Subscribe(func(e obs.Event) {
		if p, ok := e.Data.(Progress); ok {
			s.Cfg.OnProgress(p)
		}
	})
}
