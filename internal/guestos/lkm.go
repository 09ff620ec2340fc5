package guestos

import (
	"fmt"
	"time"

	"javmm/internal/faults"
	"javmm/internal/hypervisor"
	"javmm/internal/mem"
	"javmm/internal/obs"
	"javmm/internal/simclock"
)

// State is the LKM's workflow state (paper §3.3.5 and Figure 4). The LKM
// transitions between states based on messages exchanged with the migration
// daemon and the applications.
type State int

// LKM workflow states.
const (
	StateInitialized State = iota
	StateMigrationStarted
	StateEnteringLastIter
	StateSuspensionReady
	StateResumed
)

// String renders the state name as in the paper's Figure 4.
func (s State) String() string {
	switch s {
	case StateInitialized:
		return "INITIALIZED"
	case StateMigrationStarted:
		return "MIGRATION_STARTED"
	case StateEnteringLastIter:
		return "ENTERING_LAST_ITER"
	case StateSuspensionReady:
		return "SUSPENSION_READY"
	case StateResumed:
		return "RESUMED"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Event-channel messages between the migration daemon and the LKM.
type (
	// EvMigrationBegin is sent by the daemon when migration starts.
	EvMigrationBegin struct{}
	// EvEnteringLastIter is sent before the daemon wants to pause the VM.
	EvEnteringLastIter struct{}
	// EvVMResumed is sent after the VM resumes at the destination.
	EvVMResumed struct{}
	// EvMigrationAborted is sent when a migration is cancelled mid-flight:
	// the VM keeps running at the source. The LKM releases applications
	// exactly as on resumption and resets for the next migration.
	EvMigrationAborted struct{}
	// EvSuspensionReady is sent by the LKM once the final transfer bitmap
	// update is done: "ask migration to pause VM". FinalUpdate is the
	// virtual time the update took (paper §5.3 reports <300 µs); Fallbacks
	// counts applications that timed out and had their skip-over areas
	// restored to full transfer (paper §6, security discussion).
	EvSuspensionReady struct {
		FinalUpdate time.Duration
		Fallbacks   int
	}
)

// LKMConfig tunes the LKM.
type LKMConfig struct {
	// Clock is the virtual clock (required).
	Clock *simclock.Clock
	// WalkCostPerPage is the virtual cost of one page-table-walk step in
	// the final bitmap update. Default 100 ns.
	WalkCostPerPage time.Duration
	// CacheCostPerPage is the virtual cost of one PFN-cache operation in
	// the final bitmap update. Default 100 ns.
	CacheCostPerPage time.Duration
	// PrepareTimeout bounds how long the LKM waits for applications to
	// become suspension-ready before falling back to transferring their
	// skip-over areas in full. Zero means the 10 s default; a negative
	// value disables the timeout entirely, recreating the unbounded-delay
	// hazard the paper's §6 warns about (tests use this).
	PrepareTimeout time.Duration

	// FinalUpdateRewalk selects the alternative final-update design the
	// paper considered and deferred (§3.3.4): applications do not notify
	// shrinkage; instead the final update re-walks the page tables of ALL
	// skip-over areas and diffs against the PFNs found in the first
	// update. Slower final update, no mid-migration shrink traffic. The
	// migration engine must then run its conservative last iteration
	// (migration.Config.ConservativeLastIter) to stay correct.
	FinalUpdateRewalk bool
}

func (c *LKMConfig) fillDefaults() {
	if c.WalkCostPerPage == 0 {
		c.WalkCostPerPage = 100 * time.Nanosecond
	}
	if c.CacheCostPerPage == 0 {
		c.CacheCostPerPage = 100 * time.Nanosecond
	}
	if c.PrepareTimeout == 0 {
		c.PrepareTimeout = 10 * time.Second
	}
}

// appState is the LKM's memory of one application's skip-over areas
// (paper §3.3.4: "it remembers the VA range" and "caches PFNs as they are
// found in a skip-over area").
type appState struct {
	proc     *Process
	areas    []mem.VARange // page-aligned remembered areas
	cache    pfnCache      // PFN cache: skip-page VA -> PFN
	ready    bool          // responded suspension-ready this migration
	hasAreas bool          // reported at least one non-empty area
}

// LKM is the loadable kernel module of the framework: communication proxy,
// semantic-gap bridge and transfer-bitmap owner (paper Figure 2).
type LKM struct {
	guest *Guest
	cfg   LKMConfig
	ec    *hypervisor.EventChannel
	state State

	transfer *mem.Bitmap // set = transfer if dirty; cleared = skip

	apps map[AppID]*appState

	prepareTimer *simclock.Timer

	// Statistics for experiment reporting and tests.
	CacheHighWater  int           // max live PFN-cache entries
	FinalUpdates    int           // final bitmap updates performed
	LastFinalUpdate time.Duration // duration of the most recent final update
	FallbackApps    int           // apps that timed out during prepare (total)
	InvalidMsgs     int           // messages dropped for wrong state/app
	ShrinkEvents    int           // MsgAreaShrunk handled
	IgnoredShrinks  int           // MsgAreaShrunk ignored in rewalk mode
	HintedPages     int           // pages carrying a non-default compression hint
	LostHandshakes  int           // suspension-ready notifications swallowed by fault injection

	hints         []uint8 // per-page compression hints (§6 extension)
	lastFallbacks int     // stragglers in the current prepare window

	tracer  *obs.Tracer
	metrics *obs.Metrics
	faults  *faults.Injector
}

// SetFaults attaches a fault injector: an lkm.handshake rule swallows the
// suspension-ready notification on its way to the migration daemon, so the
// engine's handshake wait times out and the run degrades to vanilla
// pre-copy. A nil injector changes nothing.
func (l *LKM) SetFaults(inj *faults.Injector) { l.faults = inj }

// SetObs attaches a tracer and metrics registry. State transitions are
// emitted as lkm.state events on the LKM track (named after the state being
// entered, as in the paper's Figure 4); final updates, fallbacks and the
// PFN-cache size are recorded as metrics. Either argument may be nil.
func (l *LKM) SetObs(t *obs.Tracer, m *obs.Metrics) {
	l.tracer = t
	l.metrics = m
}

// setState performs a workflow transition and traces it.
func (l *LKM) setState(next State) {
	prev := l.state
	l.state = next
	if l.tracer != nil {
		l.tracer.Emit(obs.TrackLKM, obs.KindLKMState, next.String(), nil,
			obs.Str("from", prev.String()), obs.Str("to", next.String()))
	}
}

// loadLKM is called by NewGuest: the LKM is loaded when the guest is created,
// in preparation for possible migration (paper §3.3.5, "Before migration").
func loadLKM(g *Guest, cfg LKMConfig) *LKM {
	if cfg.Clock == nil {
		panic("guestos: LKMConfig.Clock is required")
	}
	cfg.fillDefaults()
	l := &LKM{
		guest:    g,
		cfg:      cfg,
		ec:       hypervisor.NewEventChannel(),
		state:    StateInitialized,
		transfer: mem.NewBitmap(g.Dom.NumPages()),
		apps:     make(map[AppID]*appState),
	}
	l.transfer.SetAll() // default: transfer every dirty page (§3.3.4)
	l.ec.Guest().Bind(l.onDaemonEvent)
	g.Bus.BindKernel(l.onAppMessage)
	return l
}

// DaemonEndpoint returns the dom0 side of the LKM's event channel. The
// migration daemon binds its handler here and notifies the LKM through it.
func (l *LKM) DaemonEndpoint() *hypervisor.Endpoint { return l.ec.Daemon() }

// DaemonProtocol adapts the LKM's five-state workflow (Figure 4) to the
// migration engine's SuspensionProtocol stage: the daemon-side half of the
// event-channel handshake, packaged so the engine needs no knowledge of the
// LKM's event types. One value serves one migration; Protocol() returns a
// fresh adapter each time.
type DaemonProtocol struct {
	lkm   *LKM
	ep    *hypervisor.Endpoint
	ready bool
	ev    EvSuspensionReady
}

// Protocol returns the LKM's suspension protocol for one migration. The
// returned value structurally satisfies migration.SuspensionProtocol.
func (l *LKM) Protocol() *DaemonProtocol {
	return &DaemonProtocol{lkm: l, ep: l.DaemonEndpoint()}
}

// Begin binds the daemon-side readiness handler, shares the transfer bitmap
// and notifies the LKM that migration has started.
func (p *DaemonProtocol) Begin() *mem.Bitmap {
	p.ready = false
	p.ev = EvSuspensionReady{}
	p.ep.Bind(func(msg any) {
		if ev, ok := msg.(EvSuspensionReady); ok {
			// The handshake fault models a wedged daemon-side notification
			// path (§4.2's non-responsive contingency): the LKM believes it
			// reported readiness, but the engine never hears it.
			if p.lkm.faults.Fire(faults.SiteLKMHandshake) {
				p.lkm.LostHandshakes++
				return
			}
			p.ready = true
			p.ev = ev
		}
	})
	transfer := p.lkm.TransferBitmap()
	p.ep.Notify(EvMigrationBegin{})
	return transfer
}

// EnterLastIter tells the LKM pre-copy has converged: applications should
// prepare for suspension (enforced GC, final skip-area reports).
func (p *DaemonProtocol) EnterLastIter() { p.ep.Notify(EvEnteringLastIter{}) }

// Ready reports whether the LKM has signalled suspension-readiness (the
// final bitmap update is done).
func (p *DaemonProtocol) Ready() bool { return p.ready }

// Outcome returns the final bitmap update's duration and the number of
// applications that timed out during prepare. Valid once Ready is true.
func (p *DaemonProtocol) Outcome() (time.Duration, int) {
	return p.ev.FinalUpdate, p.ev.Fallbacks
}

// Resumed tells the LKM the VM is active at the destination: release the
// held applications and reset for the next migration.
func (p *DaemonProtocol) Resumed() { p.ep.Notify(EvVMResumed{}) }

// Aborted tells the LKM the migration was cancelled: release applications
// exactly as on resumption and reset.
func (p *DaemonProtocol) Aborted() { p.ep.Notify(EvMigrationAborted{}) }

// State returns the current workflow state.
func (l *LKM) State() State { return l.state }

// TransferBitmap exposes the transfer bitmap to the migration daemon (shared
// when migration begins, paper §3.3.3). The daemon must treat it as
// read-only.
func (l *LKM) TransferBitmap() *mem.Bitmap { return l.transfer }

// BitmapBytes returns the transfer bitmap's memory cost: one bit per page.
func (l *LKM) BitmapBytes() uint64 { return (l.guest.Dom.NumPages() + 7) / 8 }

// ArmDirtyEpoch starts a new dirty epoch in the hypervisor on the daemon's
// behalf and returns its number. abortRun calls this at the instant the
// source VM resumes, so a later Resume can ask exactly which pages the guest
// wrote while the migration was interrupted.
func (l *LKM) ArmDirtyEpoch() uint64 { return l.guest.Dom.BeginDirtyEpoch() }

// DirtySince returns the pages the guest dirtied since epoch was armed, or
// ok=false when the epoch is stale (a different migration armed a newer one)
// or was never armed — in which case the resuming daemon must distrust every
// page.
func (l *LKM) DirtySince(epoch uint64) (*mem.Bitmap, bool) {
	return l.guest.Dom.DirtySince(epoch)
}

// CacheBytes returns the PFN cache's peak memory cost at 4 bytes per entry
// (paper §3.3.4: "1 MB per GB of skip-over area with 4-byte entries").
func (l *LKM) CacheBytes() uint64 { return uint64(l.CacheHighWater) * 4 }

// CacheEntries returns the current number of live PFN-cache entries across
// all applications. The LKM maintains the invariant that every cleared
// transfer bit has exactly one cache entry (and vice versa); tests verify it.
func (l *LKM) CacheEntries() int {
	var total int
	for _, st := range l.apps {
		total += st.cache.count()
	}
	return total
}

// RegisterApp subscribes an application to the migration multicast group,
// associating its process (whose page tables the LKM will walk) with the
// socket. handler receives the LKM's multicasts.
func (l *LKM) RegisterApp(proc *Process, handler func(msg any)) *Socket {
	sock := l.guest.Bus.Subscribe(handler)
	l.apps[sock.App()] = &appState{proc: proc}
	return sock
}

// --- daemon-side events -----------------------------------------------

func (l *LKM) onDaemonEvent(msg any) {
	switch msg.(type) {
	case EvMigrationBegin:
		l.onMigrationBegin()
	case EvEnteringLastIter:
		l.onEnteringLastIter()
	case EvVMResumed:
		l.onVMResumed()
	case EvMigrationAborted:
		l.onAborted()
	default:
		l.InvalidMsgs++
	}
}

// onAborted resets the LKM after a cancelled migration. Applications receive
// the same "migration over" multicast as on resumption: whatever preparation
// they performed (purges, enforced GCs) stands, and execution continues at
// the source.
func (l *LKM) onAborted() {
	if l.state == StateInitialized {
		l.InvalidMsgs++
		return
	}
	if l.prepareTimer != nil {
		l.prepareTimer.Stop()
		l.prepareTimer = nil
	}
	l.tracer.Emit(obs.TrackLKM, obs.KindLKMAbort, "migration-aborted", nil,
		obs.Str("state", l.state.String()))
	l.state = StateSuspensionReady // satisfy onVMResumed's precondition (not a real transition, untraced)
	l.onVMResumed()
}

func (l *LKM) onMigrationBegin() {
	if l.state != StateInitialized {
		l.InvalidMsgs++
		return
	}
	l.setState(StateMigrationStarted)
	// Query running applications for skip-over areas; responses arrive as
	// MsgReportAreas and trigger the first transfer bitmap update.
	l.guest.Bus.Multicast(MsgQuerySkipAreas{})
}

func (l *LKM) onEnteringLastIter() {
	if l.state != StateMigrationStarted {
		l.InvalidMsgs++
		return
	}
	l.setState(StateEnteringLastIter)
	l.LastFinalUpdate = 0
	l.lastFallbacks = 0
	l.guest.Bus.Multicast(MsgPrepareSuspension{})
	if l.state != StateEnteringLastIter {
		// Applications that responded synchronously during the multicast
		// already completed the prepare stage.
		return
	}
	if l.allReady() {
		l.completePrepare()
		return
	}
	if l.cfg.PrepareTimeout > 0 {
		l.prepareTimer = l.cfg.Clock.AfterFunc(l.cfg.PrepareTimeout, func(time.Duration) {
			l.onPrepareTimeout()
		})
	}
}

func (l *LKM) onVMResumed() {
	if l.state != StateSuspensionReady {
		l.InvalidMsgs++
		return
	}
	l.setState(StateResumed)
	l.guest.Bus.Multicast(MsgVMResumed{})
	// Go back to INITIALIZED in preparation for the next migration
	// (paper Figure 4): forget areas, drop caches, reset the bitmap.
	for _, st := range l.apps {
		st.areas = nil
		st.cache.reset()
		st.ready = false
		st.hasAreas = false
	}
	l.transfer.SetAll()
	l.resetHints()
	l.setState(StateInitialized)
}

// --- application-side messages ------------------------------------------

func (l *LKM) onAppMessage(from AppID, msg any) {
	st, ok := l.apps[from]
	if !ok {
		l.InvalidMsgs++
		return
	}
	switch m := msg.(type) {
	case MsgReportAreas:
		if l.state != StateMigrationStarted {
			l.InvalidMsgs++
			return
		}
		l.firstUpdate(st, m.Areas)
	case MsgAreaShrunk:
		if l.cfg.FinalUpdateRewalk {
			// Alternative design: shrink is discovered by the final
			// re-walk instead (paper §3.3.4).
			l.IgnoredShrinks++
			return
		}
		// Shrink notifications are honoured while migration is under way.
		// Once the app is suspension-ready its areas must not shrink
		// (paper §3.3.4); such a message indicates a misbehaving app and
		// is dropped — the pages would already be protected by timeouts.
		if (l.state != StateMigrationStarted && l.state != StateEnteringLastIter) || st.ready {
			l.InvalidMsgs++
			return
		}
		l.ShrinkEvents++
		l.shrink(st, m.Left)
	case MsgCompressionHints:
		// Hints are advisory metadata and accepted during live migration
		// stages (§6 extension).
		if l.state != StateMigrationStarted && l.state != StateEnteringLastIter {
			l.InvalidMsgs++
			return
		}
		l.applyHints(st, m.Areas, m.Level)
	case MsgSuspensionReady:
		if l.state != StateEnteringLastIter || st.ready {
			l.InvalidMsgs++
			return
		}
		st.ready = true
		l.finalUpdateForApp(st, m.Areas)
		if l.allReady() {
			l.completePrepare()
		}
	default:
		l.InvalidMsgs++
	}
}

// allReady reports whether every application that contributed skip-over
// areas has responded suspension-ready.
func (l *LKM) allReady() bool {
	for _, st := range l.apps {
		if st.hasAreas && !st.ready {
			return false
		}
	}
	return true
}

// completePrepare finishes the ENTERING_LAST_ITER stage: the final transfer
// bitmap update is complete, so ask the migration daemon to pause the VM.
func (l *LKM) completePrepare() {
	if l.prepareTimer != nil {
		l.prepareTimer.Stop()
		l.prepareTimer = nil
	}
	l.setState(StateSuspensionReady)
	l.FinalUpdates++
	if m := l.metrics; m != nil {
		m.Counter("lkm.final_updates").Inc()
		m.Counter("lkm.fallback_apps").Add(int64(l.lastFallbacks))
		m.Counter("lkm.final_update_total_ns").AddDuration(l.LastFinalUpdate)
		m.Histogram("lkm.final_update_ns").Observe(float64(l.LastFinalUpdate))
	}
	l.ec.Guest().Notify(EvSuspensionReady{
		FinalUpdate: l.LastFinalUpdate,
		Fallbacks:   l.lastFallbacks,
	})
}

// onPrepareTimeout handles applications that never became suspension-ready:
// their skip-over areas are restored to full transfer so migration stays
// correct, and migration proceeds without them (paper §6 recommends exactly
// this timeout discipline).
func (l *LKM) onPrepareTimeout() {
	if l.state != StateEnteringLastIter {
		return
	}
	for _, st := range l.apps {
		if st.hasAreas && !st.ready {
			l.restoreAll(st)
			st.ready = true
			l.FallbackApps++
			l.lastFallbacks++
		}
	}
	l.completePrepare()
}

// --- transfer bitmap updates ---------------------------------------------

// firstUpdate performs the first transfer bitmap update for one application
// (paper §3.3.4): align each reported area inward to page boundaries, find
// its PFNs by page-table walks, clear their transfer bits, and cache the
// PFNs for later shrink handling.
func (l *LKM) firstUpdate(st *appState, areas []mem.VARange) {
	for _, a := range areas {
		aligned := a.PageAlignInward()
		if aligned.Empty() {
			continue
		}
		st.areas = append(st.areas, aligned)
		st.hasAreas = true
		st.proc.AS.Walk(aligned, func(va mem.VA, p mem.PFN) {
			l.transfer.Clear(p)
			st.cache.put(va, p)
		})
	}
	l.noteCacheSize(st)
}

// shrink handles VA ranges leaving a skip-over area: set the transfer bits
// of the departing pages immediately, using the PFN cache rather than the
// page tables (the frames may already be freed), and forget them.
func (l *LKM) shrink(st *appState, left []mem.VARange) {
	for _, r := range left {
		// Align outward: if any byte of a page left the area, the page can
		// no longer be skipped in its entirety.
		start := r.Start.PageBase()
		end := (r.End + mem.PageMask).PageBase()
		for va := start; va < end; va += mem.PageSize {
			if p, ok := st.cache.del(va); ok {
				l.transfer.Set(p)
			}
		}
		// Update the remembered areas.
		var next []mem.VARange
		for _, a := range st.areas {
			next = append(next, a.Subtract(mem.VARange{Start: start, End: end})...)
		}
		st.areas = next
	}
}

// finalUpdateForApp performs this application's share of the final transfer
// bitmap update (paper §3.3.4): expanded space is walked and cleared;
// shrunk space is restored from the PFN cache. The virtual cost of the walk
// and cache operations is accumulated into LastFinalUpdate; the migration
// daemon charges it to downtime.
func (l *LKM) finalUpdateForApp(st *appState, areas []mem.VARange) {
	var final []mem.VARange
	for _, a := range areas {
		if aligned := a.PageAlignInward(); !aligned.Empty() {
			final = append(final, aligned)
		}
	}

	var walked, cacheOps int

	if l.cfg.FinalUpdateRewalk {
		// Re-walk every final area from scratch and diff against the PFNs
		// remembered since the first update.
		var fresh pfnCache
		for _, a := range final {
			st.proc.AS.Walk(a, func(va mem.VA, pfn mem.PFN) {
				fresh.put(va, pfn)
				l.transfer.Clear(pfn)
				walked++
			})
		}
		st.cache.each(func(va mem.VA, pfn mem.PFN) {
			cacheOps++
			if _, still := fresh.get(va); !still {
				l.transfer.Set(pfn)
			}
		})
		st.cache = fresh
		st.areas = final
		l.noteCacheSize(st)
		const baseCompareCost = 2 * time.Microsecond
		l.LastFinalUpdate += baseCompareCost +
			time.Duration(walked)*l.cfg.WalkCostPerPage +
			time.Duration(cacheOps)*l.cfg.CacheCostPerPage
		return
	}

	// Expanded space: pages in the new areas not remembered from before.
	for _, n := range final {
		pieces := []mem.VARange{n}
		for _, o := range st.areas {
			var next []mem.VARange
			for _, p := range pieces {
				next = append(next, p.Subtract(o)...)
			}
			pieces = next
		}
		for _, p := range pieces {
			st.proc.AS.Walk(p, func(va mem.VA, pfn mem.PFN) {
				l.transfer.Clear(pfn)
				st.cache.put(va, pfn)
				walked++
			})
		}
	}

	// Shrunk space: remembered pages no longer in the new areas.
	for _, o := range st.areas {
		pieces := []mem.VARange{o}
		for _, n := range final {
			var next []mem.VARange
			for _, p := range pieces {
				next = append(next, p.Subtract(n)...)
			}
			pieces = next
		}
		for _, p := range pieces {
			for va := p.Start; va < p.End; va += mem.PageSize {
				if pfn, ok := st.cache.del(va); ok {
					l.transfer.Set(pfn)
					cacheOps++
				}
			}
		}
	}

	st.areas = final
	l.noteCacheSize(st)
	// Each app's share costs a fixed comparison overhead (querying and
	// diffing the reported ranges) plus per-page walk and cache work. The
	// paper reports the final update completing within 300 µs (§5.3).
	const baseCompareCost = 2 * time.Microsecond
	l.LastFinalUpdate += baseCompareCost +
		time.Duration(walked)*l.cfg.WalkCostPerPage +
		time.Duration(cacheOps)*l.cfg.CacheCostPerPage
}

// restoreAll restores full transfer for an application's entire skip-over
// set — the straggler fallback.
func (l *LKM) restoreAll(st *appState) {
	st.cache.each(func(_ mem.VA, p mem.PFN) { l.transfer.Set(p) })
	st.cache.reset()
	st.areas = nil
}

func (l *LKM) noteCacheSize(st *appState) {
	var total int
	for _, s := range l.apps {
		total += s.cache.count()
	}
	_ = st
	if total > l.CacheHighWater {
		l.CacheHighWater = total
	}
	l.metrics.Gauge("lkm.cache_entries").Set(float64(total))
}
