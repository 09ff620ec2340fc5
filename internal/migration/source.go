package migration

import (
	"time"

	"javmm/internal/faults"
	"javmm/internal/guestos"
	"javmm/internal/mem"
	"javmm/internal/netsim"
)

// NewSource wires one migration run of guest g: the source domain, its LKM
// and clock come from g, exec runs the guest while the engine works (nil for
// an idle guest, or one whose own process runs it), link carries the pages
// and dest receives them. g, link and dest must be non-nil.
//
// The link and the destination account into cfg.Metrics. The guest's
// free-list and hint lookups are bound only when cfg.SkipFreePages or
// cfg.HintedCompression reads them: binding allocates, and most runs read
// neither. cfg.Faults reaches every layer through SetFaults.
func NewSource(g *guestos.Guest, exec GuestExecutor, link *netsim.Link, dest *Destination, cfg Config) *Source {
	s := &Source{
		Dom:   g.Dom,
		LKM:   g.LKM,
		Link:  link,
		Clock: g.Dom.Clock(),
		Exec:  exec,
		Dest:  dest,
		Cfg:   cfg,
		guest: g,
	}
	link.SetMetrics(cfg.Metrics)
	dest.SetMetrics(cfg.Metrics)
	if cfg.SkipFreePages {
		s.GuestFree = func(p mem.PFN) bool { return !g.Frames.Allocated(p) }
	}
	if cfg.HintedCompression {
		s.HintFor = g.LKM.HintFor
	}
	s.SetFaults(cfg.Faults)
	return s
}

// SetFaults attaches inj to the run's engine, destination, LKM handshake and
// netlink bus, and to its link unless the link is a fabric port: the fabric
// scopes partitions and host crashes per shared link and host itself, and an
// injector on the port would turn a partition's stall into admission
// failures. A nil inj detaches every one of these layers.
func (s *Source) SetFaults(inj *faults.Injector) {
	s.Cfg.Faults = inj
	s.Dest.SetFaults(inj)
	s.LKM.SetFaults(inj)
	s.guest.Bus.SetFaults(inj)
	if !s.Link.Arbitrated() {
		s.Link.SetFaults(inj)
	}
}

// VerifyImage checks rep's destination image against the source: every page
// of the final transfer set still allocated in the guest, and for which
// required holds (nil means all), must match. A run with a post-copy phase
// returns nil: after switchover the guest keeps writing the source store
// while the destination holds the fetched versions, so the engine's
// demand-fetch checks stand in for store equality.
func (s *Source) VerifyImage(rep *Report, required func(mem.PFN) bool) error {
	if rep.PostCopy != nil {
		return nil
	}
	return VerifyMigration(s.Dom.Store(), s.Dest.Store, rep.FinalTransfer, func(p mem.PFN) bool {
		return s.guest.Frames.Allocated(p) && (required == nil || required(p))
	})
}

// WorkloadDowntime is the application-visible downtime of paper §5.3: the
// VM-paused window (stop-and-copy and resumption), plus, for a run that
// completed with app-assisted semantics, the enforced GC and the final
// bitmap update, during which the applications are held. It is keyed on
// the effective mode: a run degraded to vanilla pre-copy never performed
// the final update and charges neither.
func (r *Report) WorkloadDowntime(enforcedGC time.Duration) time.Duration {
	d := r.VMDowntime
	if r.EffectiveMode() == ModeAppAssisted {
		d += enforcedGC + r.FinalUpdate
	}
	return d
}
