// Package migration implements the live-migration engines: Xen's iterative
// pre-copy dirty-page transfer loop, extended with the transfer-bitmap
// consultation that makes it application-assisted (paper §3.3.3), the
// post-copy baseline of paper §2, and a hybrid of the two.
//
// The pre-copy engine reproduces xc_domain_save's structure:
//
//   - Iteration 1 sends every page of the VM.
//   - Each following iteration sends the pages dirtied during the previous
//     iteration (read-and-clear of the hypervisor's log-dirty bitmap).
//   - Within an iteration, a page that has already been re-dirtied in the
//     current round is skipped — it would be resent anyway (the
//     "skipped (already dirtied)" series of Figure 9).
//   - Migration enters the stop-and-copy phase when the pending dirty set is
//     small, when the iteration cap (Xen default: 30) is reached, or when a
//     configured traffic cap is exceeded.
//
// In application-assisted mode the engine additionally skips any page whose
// transfer bit is cleared, coordinates the pre-suspension handshake with the
// in-guest LKM, and charges the final bitmap update to downtime.
//
// The engine itself is a thin orchestrator over the five stages of
// stages.go: page skipping, wire encoding, the stop decision, the guest's
// suspension protocol and the page sink. Every Mode is a composition of
// them, and every stage call is bracketed with Cfg.Perf.Enter/Exit so the
// real-clock profiler attributes the simulator's own time per stage.
package migration

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"time"

	"javmm/internal/guestos"
	"javmm/internal/hypervisor"
	"javmm/internal/mem"
	"javmm/internal/netsim"
	"javmm/internal/obs"
	"javmm/internal/obs/ledger"
	"javmm/internal/obs/perf"
	"javmm/internal/simclock"
)

// Source drives a migration from the source host.
type Source struct {
	Dom   *hypervisor.Domain
	LKM   *guestos.LKM // required in ModeAppAssisted
	Link  *netsim.Link
	Clock *simclock.Clock
	Exec  GuestExecutor // may be nil for an idle guest
	Dest  *Destination
	Cfg   Config
	// GuestFree reports whether a frame is on the guest kernel's free list;
	// required when Cfg.SkipFreePages is set (NewSource binds the guest's
	// frame allocator, negated).
	GuestFree func(p mem.PFN) bool
	// HintFor returns a page's compression hint (guestos.Hint*); required
	// when Cfg.HintedCompression is set (NewSource binds the LKM's HintFor).
	HintFor func(p mem.PFN) uint8
	// guest is the guest NewSource wired the run from (nil for a Source
	// built field by field): SetFaults reaches its netlink bus through it,
	// and VerifyImage its frame allocator.
	guest *guestos.Guest

	// mutable state during one migration
	report    *Report
	sentBytes uint64
	startedAt time.Duration
	aborted   bool
	// failure is the permanent error that aborted the run (nil for a plain
	// cancel); rng drives the retry jitter (seeded, deterministic).
	failure error
	rng     *rand.Rand
	// skippedEver accumulates every page skipped by application consent,
	// maintained only while a degradation to vanilla is still possible;
	// degradePending is its snapshot after a downgrade — pages that must be
	// transferred after all, cleared as they are sent.
	skippedEver    *mem.Bitmap
	degradePending *mem.Bitmap

	// stages bound for the current run; proto is nil without a suspension
	// protocol (vanilla runs, and assisted runs once degraded)
	skip  pageSkip
	codec WireCodec
	stop  xenStop
	proto *guestos.DaemonProtocol
	sink  PageSink
	// residentTrack, when non-nil, records every page the sink receives —
	// the hybrid engine's warm phase uses it to seed post-copy residency.
	residentTrack *mem.Bitmap
	// integ is the run's integrity-plane state (nil when the sink carries no
	// digests); pendingResume is the token a Source.Resume call is honouring;
	// resumeRefetch marks pages whose next send the ledger tags
	// resume-refetch.
	integ         *integrityState
	pendingResume *ResumeToken
	resumeRefetch *mem.Bitmap

	// Page-export buffers, reused across chunks, iterations and runs so the
	// steady-state send path allocates nothing. chunk is the pre-copy chunk
	// being built; exportBuf holds the single payload of a lazy-engine
	// delivery or an integrity repair, and one its PFN, so a one-page run
	// reaches the sink without allocating.
	chunk     chunk
	exportBuf []byte
	one       [1]mem.PFN
	// lazy is the lazy engine's demand-fetch state, buffers included.
	lazy lazyFetch
}

// chunk is the run of pages the pre-copy engine sends between two guest
// slices: up to Cfg.ChunkPages pages in ascending PFN order, their wire
// sizes, and their payloads packed back to back at the store's fixed export
// size (stride bytes per page).
type chunk struct {
	pfns     []mem.PFN
	wires    []uint64
	payloads []byte
	stride   int
	wire     uint64 // sum of wires
}

// reserve sizes the chunk buffers for up to pages pages of dom's store (a
// chunk never holds more pages than the VM has). It allocates only when the
// buffers from an earlier run are too small.
func (c *chunk) reserve(dom *hypervisor.Domain, pages uint64) {
	n := int(min(pages, dom.NumPages()))
	if n == 0 {
		return
	}
	c.payloads = dom.Store().AppendExport(c.payloads[:0], 0)
	c.stride = len(c.payloads)
	if cap(c.pfns) < n {
		c.pfns = make([]mem.PFN, 0, n)
		c.wires = make([]uint64, 0, n)
	}
	if cap(c.payloads) < n*c.stride {
		c.payloads = make([]byte, 0, n*c.stride)
	}
	c.reset()
}

// reset empties the chunk, keeping its buffers.
func (c *chunk) reset() {
	c.pfns = c.pfns[:0]
	c.wires = c.wires[:0]
	c.payloads = c.payloads[:0]
	c.wire = 0
}

// payload returns page i's payload.
func (c *chunk) payload(i int) []byte { return c.payloads[i*c.stride : (i+1)*c.stride] }

// Errors returned by the migration engines.
var (
	ErrNoSource = errors.New("migration: source domain required")
	ErrNoLKM    = errors.New("migration: app-assisted mode requires an LKM")
	ErrNoDest   = errors.New("migration: destination required")
	ErrNoLink   = errors.New("migration: link required")
	ErrNoClock  = errors.New("migration: clock required")
	// ErrCancelled reports a migration aborted by CancelAfter or
	// ShouldCancel. Migrate returns it together with the partial report;
	// the VM keeps running at the source.
	ErrCancelled = errors.New("migration: cancelled")
	// ErrSuspensionTimeout reports that the guest never became
	// suspension-ready within Config.SuspensionBackstop after the prepare
	// notification.
	ErrSuspensionTimeout = errors.New("migration: guest never became suspension-ready")
)

// Migrate runs the migration selected by Cfg.Mode and returns its report:
// iterative pre-copy for ModeVanilla and ModeAppAssisted, the lazy engine
// for ModePostCopy and ModeHybrid (with Report.PostCopy set). The source
// domain is left unpaused ("resumed at the destination"): in this simulator
// the domain object represents the VM wherever it runs, while Dest holds
// the destination host's copy of its memory for verification.
func (s *Source) Migrate() (*Report, error) {
	switch s.Cfg.Mode {
	case ModePostCopy:
		return s.migrateLazy(false)
	case ModeHybrid:
		return s.migrateLazy(true)
	}
	return s.migratePreCopy()
}

// validate checks the pieces every engine needs.
func (s *Source) validate() error {
	switch {
	case s.Dom == nil:
		return ErrNoSource
	case s.Dest == nil:
		return ErrNoDest
	case s.Link == nil:
		return ErrNoLink
	case s.Clock == nil:
		return ErrNoClock
	}
	return nil
}

// checkDestSize rejects a destination whose memory does not match the
// source's.
func (s *Source) checkDestSize() error {
	if s.Dest != nil && s.Dest.Store.NumPages() != s.Dom.NumPages() {
		return fmt.Errorf("migration: destination has %d pages, source %d",
			s.Dest.Store.NumPages(), s.Dom.NumPages())
	}
	return nil
}

// migratePreCopy is the iterative pre-copy orchestrator (ModeVanilla and
// ModeAppAssisted).
func (s *Source) migratePreCopy() (*Report, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	if s.Cfg.Mode == ModeAppAssisted && s.LKM == nil {
		return nil, ErrNoLKM
	}
	if err := s.checkDestSize(); err != nil {
		return nil, err
	}
	s.Cfg.FillDefaults()
	s.report = &Report{Mode: s.Cfg.Mode}
	s.sentBytes = 0
	s.aborted = false
	s.Cfg.Ledger.Begin(s.Dom.NumPages())
	s.beginRecovery()

	cancelProgress := s.subscribeProgress()
	defer cancelProgress()
	runSpan := s.Cfg.Tracer.Begin(obs.TrackMigration, obs.KindMigration,
		"migrate "+s.Cfg.Mode.String(), obs.Str("mode", s.Cfg.Mode.String()))
	defer runSpan.End()

	start := s.Clock.Now()
	s.startedAt = start
	if err := s.Dom.EnableLogDirty(); err != nil {
		return nil, err
	}
	defer s.Dom.DisableLogDirty()

	// The suspension protocol is the app-assisted workflow's handle on the
	// guest; vanilla runs have none.
	s.proto = nil
	var transfer *mem.Bitmap
	if s.Cfg.Mode == ModeAppAssisted {
		s.proto = s.LKM.Protocol()
		s.Cfg.Perf.Enter(perf.StageSuspension)
		transfer = s.proto.Begin()
		s.Cfg.Perf.Exit()
	}
	s.bindStages(transfer)
	s.beginIntegrity()

	if f := s.Cfg.ThrottleFactor; f > 0 && f < 1 {
		if th, ok := s.Exec.(Throttleable); ok {
			th.SetThrottle(f)
			s.Cfg.Tracer.Emit(obs.TrackMigration, obs.KindThrottle, "throttle", nil,
				obs.Float("factor", f))
			defer func() {
				th.SetThrottle(1.0)
				s.Cfg.Tracer.Emit(obs.TrackMigration, obs.KindThrottle, "throttle", nil,
					obs.Float("factor", 1.0))
			}()
		}
	}

	n := s.Dom.NumPages()
	toSend := mem.NewBitmap(n)
	toSend.SetAll() // iteration 1: all pages
	if s.pendingResume != nil {
		// A resumed run's first iteration covers only the pages the token
		// cannot prove intact at the destination.
		s.planResume(s.pendingResume, toSend)
	}
	if s.proto != nil {
		// Track consent-skipped pages in every assisted run: they are the
		// pages a degraded run — or the LKM's straggler fallback, which
		// restores an unready application's areas to full transfer — must
		// transfer after all (their staleness is invisible to dirty
		// tracking, which was cleared while they were being skipped).
		s.skippedEver = mem.NewBitmap(n)
	}

	s.emitProgress(ProgressStart, 0, toSend.Count(), 0, 0)

	var everDirty *mem.Bitmap
	if s.Cfg.ConservativeLastIter {
		everDirty = mem.NewBitmap(n)
	}
	newRound := func() {
		s.Dom.PeekAndClear(toSend)
		if everDirty != nil {
			everDirty.Or(toSend)
		}
	}

	abort := func() (*Report, error) { return s.abortRun(start) }

	iter := 0
	for {
		// Live pre-copy rounds until the stop policy fires.
		for {
			iter++
			st := s.runIteration(iter, toSend, false)
			s.report.Iterations = append(s.report.Iterations, st)
			s.notifyIteration(st)
			if s.aborted {
				return abort()
			}
			if s.stopNow(iter, st) {
				break
			}
			newRound()
		}
		if s.proto == nil {
			// Vanilla semantics — native or degraded — go straight to
			// stop-and-copy.
			break
		}

		// Pre-suspension handshake (app-assisted): notify the guest, run one
		// more live round, then wait — without starting new dirty rounds —
		// until the applications are suspension-ready and the final bitmap
		// update is done.
		prepStart := s.Clock.Now()
		// The span closes on the success path below with its outcome attrs;
		// every early return closes it explicitly first (double-closing is a
		// recorded tracer misuse, so no backstop defer).
		prepSpan := s.Cfg.Tracer.Begin(obs.TrackMigration, obs.KindPrepare, "prepare-suspension")
		s.emitProgress(ProgressPrepare, iter, 0, 0, 0)
		s.Cfg.Perf.Enter(perf.StageSuspension)
		s.proto.EnterLastIter()
		s.Cfg.Perf.Exit()
		iter++
		newRound()
		st := s.runIteration(iter, toSend, false)
		if s.aborted {
			prepSpan.End()
			return abort()
		}
		// The LKM's PrepareTimeout bounds this wait; the engine adds a hard
		// backstop against a misconfigured (disabled) timeout. With fault
		// injection configured the backstop instead degrades the run to
		// vanilla pre-copy (§4.2): a wedged handshake must not wedge the VM.
		waitDeadline := s.Clock.Now() + s.Cfg.SuspensionBackstop
		timedOut := false
		for {
			s.Cfg.Perf.Enter(perf.StageSuspension)
			ready := s.proto.Ready()
			s.Cfg.Perf.Exit()
			if ready {
				break
			}
			if s.cancelRequested() {
				prepSpan.End()
				return abort()
			}
			if s.Clock.Now() >= waitDeadline {
				if !s.degradeEnabled() {
					prepSpan.End()
					return nil, ErrSuspensionTimeout
				}
				timedOut = true
				break
			}
			s.advance(idleQuantum)
		}
		// The second-last iteration's duration includes the wait for the
		// workload to reach a Safepoint and finish the enforced GC
		// (Figure 8(b)) — or, on a timeout, the exhausted backstop.
		st.Duration = s.Clock.Now() - st.Start
		s.report.Iterations = append(s.report.Iterations, st)
		s.notifyIteration(st)
		s.report.PrepareWait = s.Clock.Now() - prepStart
		if timedOut {
			prepSpan.End(obs.Str("outcome", "degraded"))
			s.degradeToVanilla("suspension handshake timed out")
			// Fold the next dirty round in, then every page ever skipped by
			// application consent and not sent since: with the handshake dead
			// their content is only at the source, and vanilla semantics
			// promise the destination all of it.
			newRound()
			toSend.Or(s.degradePending)
			continue
		}
		s.Cfg.Perf.Enter(perf.StageSuspension)
		s.report.FinalUpdate, s.report.Fallbacks = s.proto.Outcome()
		s.Cfg.Perf.Exit()
		// The final bitmap update runs with applications held; charge its
		// (sub-millisecond) cost before pausing the VM.
		fuSpan := s.Cfg.Tracer.Begin(obs.TrackMigration, obs.KindFinalUpdate, "final-update")
		s.Clock.Advance(s.report.FinalUpdate)
		fuSpan.End(obs.Dur("duration", s.report.FinalUpdate))
		prepSpan.End(obs.Dur("prepare_wait", s.report.PrepareWait),
			obs.Int("fallbacks", s.report.Fallbacks))
		break
	}

	// Stop-and-copy.
	s.Cfg.Perf.Enter(perf.StageSkipPolicy)
	s.report.FinalTransfer = s.skip.FinalTransfer(n)
	s.Cfg.Perf.Exit()
	s.Dom.Pause()
	s.Cfg.Tracer.Emit(obs.TrackMigration, obs.KindSuspend, "vm-suspend", nil)
	pausedSpan := s.Cfg.Tracer.Begin(obs.TrackMigration, obs.KindVMPaused, "vm-paused")
	pauseStart := s.Clock.Now()
	s.Dom.PeekAndClear(toSend)
	if everDirty != nil {
		// Conservative mode: stop-and-copy considers every page dirtied
		// at any point during migration.
		toSend.Or(everDirty)
	}
	if s.degradePending != nil {
		// Degraded run: consent-skipped pages not sent since must still
		// move (PeekAndClear overwrote the set, so re-fold them here).
		toSend.Or(s.degradePending)
	}
	if s.report.Fallbacks > 0 && s.skippedEver != nil {
		// Straggler fallback: the LKM restored unready applications' skip
		// areas to full transfer, but pages skipped in earlier rounds need
		// not be dirty, so dirty tracking alone would leave them behind.
		// Fold every consent-skipped page not sent since back in; the live
		// transfer bitmap re-filters whatever remains legitimately
		// skippable (ready applications' areas).
		toSend.Or(s.skippedEver)
	}
	iter++
	st := s.runIteration(iter, toSend, true)
	if !s.aborted {
		// End-to-end digest audit while the VM is still paused: repair
		// traffic folds into the stop-and-copy iteration (and its downtime)
		// before the stats are published anywhere.
		s.auditIntegrity(&st, iter)
		st.Duration = s.Clock.Now() - st.Start
	}
	s.report.Iterations = append(s.report.Iterations, st)
	s.notifyIteration(st)
	s.report.LastIterBytes = st.BytesOnWire
	if s.aborted {
		// A permanent failure during stop-and-copy (a crashed destination,
		// an unhealable integrity audit) aborts even here: the source
		// resumes as if never paused.
		pausedSpan.End()
		return abort()
	}

	// Resumption: reconnect devices, activate at destination.
	resSpan := s.Cfg.Tracer.Begin(obs.TrackMigration, obs.KindResumption, "resumption")
	s.Clock.Advance(resumptionTime)
	resSpan.End()
	s.report.Resumption = resumptionTime
	s.report.VMDowntime = s.Clock.Now() - pauseStart
	s.Dom.Unpause()
	pausedSpan.End(obs.Dur("downtime", s.report.VMDowntime))
	s.Cfg.Tracer.Emit(obs.TrackMigration, obs.KindResume, "vm-resume", nil)
	s.emitProgress(ProgressDone, iter, 0, 0, 0)

	if s.proto != nil {
		s.Cfg.Perf.Enter(perf.StageSuspension)
		s.proto.Resumed()
		s.Cfg.Perf.Exit()
	}

	s.report.TotalTime = s.Clock.Now() - start
	return s.report, nil
}

// stopNow is the stop decision after live iteration iter, which produced st.
func (s *Source) stopNow(iter int, st IterationStats) bool {
	s.Cfg.Perf.Enter(perf.StageStopPolicy)
	stop := s.stop.Stop(iter, st, s.sentBytes, s.Dom.MemoryBytes())
	s.Cfg.Perf.Exit()
	return stop
}

// iterationName labels an iteration in traces and progress output.
func iterationName(index int, last bool) string {
	if last {
		return "stop-and-copy"
	}
	return fmt.Sprintf("iteration %d", index)
}

// notifyIteration streams a completed iteration to the event bus and
// accumulates the iteration's counters. Every iteration appended to the
// report passes through here exactly once, so the counters reconcile with
// the report's sums.
func (s *Source) notifyIteration(st IterationStats) {
	if t := s.Cfg.Tracer; t != nil {
		t.Emit(obs.TrackMigration, obs.KindIterationStats, iterationName(st.Index, st.Last), st,
			obs.Int("index", st.Index),
			obs.Bool("last", st.Last),
			obs.Dur("duration", st.Duration),
			obs.Uint64("pages_considered", st.PagesConsidered),
			obs.Uint64("pages_sent", st.PagesSent),
			obs.Uint64("bytes_on_wire", st.BytesOnWire),
			obs.Uint64("pages_skipped_dirty", st.PagesSkippedDirty),
			obs.Uint64("pages_skipped_bitmap", st.PagesSkippedBitmap),
			obs.Uint64("pages_skipped_free", st.PagesSkippedFree),
			obs.Uint64("pages_dirtied_during", st.PagesDirtiedDuring))
	}
	// Each iteration also yields a progress point: the pages dirtied while a
	// live round ran are exactly the next round's workload, so they are the
	// outstanding estimate the ETA races against.
	phase := ProgressPreCopy
	remaining := st.PagesDirtiedDuring
	if st.Last {
		remaining = 0
		phase = ProgressStopAndCopy
		if s.report.PostCopy != nil {
			phase = ProgressPostCopy
		}
	}
	s.emitProgress(phase, st.Index, remaining, st.DirtyRate(), st.TransferRate())
	if m := s.Cfg.Metrics; m != nil {
		m.Counter("migration.iterations").Inc()
		m.Counter("migration.pages_examined").Add(int64(st.PagesConsidered))
		m.Counter("migration.pages_sent").Add(int64(st.PagesSent))
		m.Counter("migration.bytes_on_wire").Add(int64(st.BytesOnWire))
		m.Counter("migration.pages_skipped_dirty").Add(int64(st.PagesSkippedDirty))
		m.Counter("migration.pages_skipped_bitmap").Add(int64(st.PagesSkippedBitmap))
		m.Counter("migration.pages_skipped_free").Add(int64(st.PagesSkippedFree))
		m.Counter("migration.pages_dirtied").Add(int64(st.PagesDirtiedDuring))
	}
}

// cancelRequested reports whether the migration should abort now.
func (s *Source) cancelRequested() bool {
	if s.Cfg.CancelAfter > 0 && s.Clock.Now()-s.startedAt >= s.Cfg.CancelAfter {
		return true
	}
	return s.Cfg.ShouldCancel != nil && s.Cfg.ShouldCancel()
}

// advance moves virtual time forward by d, running the guest if it is not
// paused.
func (s *Source) advance(d time.Duration) {
	if d <= 0 {
		return
	}
	if s.Exec != nil && !s.Dom.Paused() {
		s.Exec.Run(d)
		return
	}
	s.Clock.Advance(d)
}

// sendBulk moves n payload bytes over the link. On a plain link it is
// SendErr: the caller owns the clock and pays the returned duration itself
// (elapsed=false), which keeps every single-migration run byte-identical.
// On an arbitrated fabric port the transfer contends with every other tenant
// of its path: sendBulk blocks until completion — cooperatively under a
// scheduler, so other engines and guests run meanwhile — and returns the
// contended duration with elapsed=true, the clock having already moved.
func (s *Source) sendBulk(n uint64) (d time.Duration, elapsed bool, err error) {
	if !s.Link.Arbitrated() {
		d, err = s.Link.SendErr(n)
		return d, false, err
	}
	tr, err := s.Link.Transfer(n)
	if err != nil {
		return 0, false, err
	}
	d, err = tr.Wait()
	return d, true, err
}

// runIteration scans the to-send set once, a bitmap word at a time,
// pushing transferable pages to the sink in chunks and interleaving guest
// execution. The skip and codec stages bound for this run decide what moves
// and at what cost.
//
// Guest state changes only while a chunk is flushed (the guest runs during
// the transfer and any retry backoff), so one skip and dirty classification
// per word equals one per page. When a chunk fills in the middle of a word,
// the scan takes the word's pages up to the one that filled it, flushes, and
// classifies the rest of the word afresh: those pages see the post-flush
// dirty, transfer and free state, as a page-at-a-time scan would.
func (s *Source) runIteration(index int, toSend *mem.Bitmap, last bool) IterationStats {
	st := IterationStats{
		Index:           index,
		Start:           s.Clock.Now(),
		Last:            last,
		PagesConsidered: toSend.Count(),
	}
	var span *obs.Span
	if t := s.Cfg.Tracer; t != nil {
		span = t.Begin(obs.TrackMigration, obs.KindIteration,
			iterationName(index, last),
			obs.Int("index", index), obs.Uint64("pages_considered", st.PagesConsidered))
	}
	dirtyBefore := s.Dom.DirtyEvents()

	store := s.Dom.Store()
	rawWire := store.WireSize()
	c := &s.chunk
	c.reset()
	// A chunk never holds more pages than the VM has; the clamp keeps an
	// oversized ChunkPages from overflowing int.
	room := int(min(s.Cfg.ChunkPages, s.Dom.NumPages()+1))

	for wi := 0; wi < toSend.NumWords() && !s.aborted; wi++ {
		base := mem.PFN(wi) << 6
		for rest := toSend.Word(wi); rest != 0 && !s.aborted; {
			s.Cfg.Perf.Enter(perf.StageSkipPolicy)
			bm, free := s.skip.Skip(wi, rest)
			s.Cfg.Perf.Exit()
			var dirty uint64
			if !last {
				// Already re-dirtied this round: sending now would be
				// wasted — the next round resends it (Figure 9, "already
				// dirtied").
				dirty = rest &^ (bm | free) & s.Dom.DirtyWord(wi)
			}
			send := rest &^ (bm | free | dirty)
			take := rest
			full := bits.OnesCount64(send) >= room-len(c.pfns)
			if full {
				// Take the word's pages up to the one that fills the chunk.
				x := send
				for i := len(c.pfns) + 1; i < room; i++ {
					x &= x - 1
				}
				take &= ^uint64(0) >> (63 - bits.TrailingZeros64(x))
			}
			rest &^= take
			bm, free, dirty, send = bm&take, free&take, dirty&take, send&take

			s.report.CPUTime += time.Duration(bits.OnesCount64(take)) * s.Cfg.PageExamineCost
			st.PagesSkippedBitmap += uint64(bits.OnesCount64(bm))
			st.PagesSkippedFree += uint64(bits.OnesCount64(free))
			st.PagesSkippedDirty += uint64(bits.OnesCount64(dirty))
			if s.skippedEver != nil {
				s.skippedEver.OrWord(wi, bm|free)
			}
			if l := s.Cfg.Ledger; l != nil {
				for x := bm | free | dirty; x != 0; x &= x - 1 {
					bit := bits.TrailingZeros64(x)
					reason := ledger.SkipDirty
					if bm>>bit&1 != 0 {
						reason = ledger.SkipBitmap
					} else if free>>bit&1 != 0 {
						reason = ledger.SkipFree
					}
					l.PageSkipped(base+mem.PFN(bit), index, rawWire, reason)
				}
			}
			// Provenance and iteration counters account sends at delivery
			// time (inside flush): a chunk lost to a permanent failure is
			// then invisible to report, ledger and metrics alike, so the
			// three keep reconciling even on an aborted run.
			for ; send != 0; send &= send - 1 {
				p := base + mem.PFN(bits.TrailingZeros64(send))
				s.Cfg.Perf.Enter(perf.StageWireCodec)
				w, encodeCPU := s.codec.Encode(p, rawWire)
				s.Cfg.Perf.Exit()
				s.report.CPUTime += encodeCPU
				c.pfns = append(c.pfns, p)
				c.wires = append(c.wires, w)
				c.wire += w
				c.payloads = store.AppendExport(c.payloads, p)
			}
			if full {
				s.flush(&st, index, last)
			}
		}
	}
	s.flush(&st, index, last)

	st.Duration = s.Clock.Now() - st.Start
	st.PagesDirtiedDuring = s.Dom.DirtyEvents() - dirtyBefore
	if span != nil {
		span.End(obs.Uint64("pages_sent", st.PagesSent), obs.Uint64("bytes_on_wire", st.BytesOnWire))
	}
	return st
}

// flush sends the chunk over the link, hands its pages to the sink, and
// accounts the pages that landed. The guest runs for the transfer time
// afterwards. A permanent failure aborts the run with the undelivered
// remainder unaccounted (report, ledger and metrics all count at delivery),
// so totals keep reconciling on the aborted run.
func (s *Source) flush(st *IterationStats, index int, last bool) {
	c := &s.chunk
	if len(c.pfns) == 0 {
		return
	}
	var cs *obs.Span
	if t := s.Cfg.Tracer; t != nil {
		// Guarded: building the attributes allocates even for a nil
		// tracer, and this runs once per chunk.
		cs = t.Begin(obs.TrackMigration, obs.KindChunk, "chunk",
			obs.Int("pages", len(c.pfns)), obs.Uint64("wire_bytes", c.wire))
	}
	var d time.Duration
	var elapsed bool
	send := func() error {
		var err error
		d, elapsed, err = s.sendBulk(c.wire)
		return err
	}
	err := send()
	if err != nil {
		err = s.retryAfter("chunk-send", err, s.advance, send)
	}
	landed := 0
	if err == nil {
		landed, err = s.deliverChunk()
	}
	s.accountSent(st, index, last, landed)
	c.reset()
	if err != nil {
		s.fail(err)
		cs.End(obs.Str("error", err.Error()))
		return
	}
	if !elapsed {
		s.advance(d)
	}
	cs.End()
	// Cancellation is honoured at chunk boundaries during live
	// iterations; stop-and-copy always runs to completion.
	if !last && s.cancelRequested() {
		s.aborted = true
	}
}

// deliverChunk hands the chunk's pages to the sink and returns how many
// landed before a permanent failure. The chunk goes over in one sink call;
// a page the sink refuses is retried alone with backoff, as deliverPage
// does, and the call resumes after it. While fault injection is armed,
// every page instead goes through deliverPage on its own, so the
// corrupt-page-stream and destination fault sites fire per page in order.
func (s *Source) deliverChunk() (int, error) {
	c := &s.chunk
	n := len(c.pfns)
	if s.Cfg.Faults.Armed() {
		for i, p := range c.pfns {
			if err := s.deliverPage(p, c.payload(i)); err != nil {
				return i, err
			}
		}
		return n, nil
	}
	landed := 0
	for {
		s.Cfg.Perf.Enter(perf.StagePageSink)
		k, err := s.sink.ReceivePages(c.pfns[landed:], c.payloads[landed*c.stride:])
		s.Cfg.Perf.Exit()
		s.recordExpectedRun(c.pfns[landed:landed+k], c.payloads[landed*c.stride:], c.stride)
		landed += k
		if err == nil {
			return landed, nil
		}
		if err = s.retryPage(err, c.pfns[landed], c.payload(landed)); err != nil {
			return landed, err
		}
		if landed++; landed == n {
			return landed, nil
		}
	}
}

// accountSent books the chunk's first landed pages as sent: report,
// iteration stats and, page by page, only the ledger, the resume-refetch
// registry and the bitmaps that are tracking sends in this run.
func (s *Source) accountSent(st *IterationStats, index int, last bool, landed int) {
	c := &s.chunk
	pfns := c.pfns[:landed]
	wire := c.wire
	if landed < len(c.pfns) {
		wire = 0
		for _, w := range c.wires[:landed] {
			wire += w
		}
	}
	st.PagesSent += uint64(landed)
	st.BytesOnWire += wire
	s.sentBytes += wire
	s.report.TotalPagesSent += uint64(landed)
	s.report.CPUTime += time.Duration(landed) * s.Cfg.PageCopyCost
	if s.Cfg.Ledger != nil || s.resumeRefetch != nil {
		class := ledger.ClassLive
		if last {
			class = ledger.ClassFinal
		}
		for i, p := range pfns {
			s.Cfg.Ledger.PageSent(p, index, c.wires[i], s.sendClassFor(p, class))
		}
	}
	if s.residentTrack != nil {
		s.residentTrack.SetEach(pfns)
	}
	if s.skippedEver != nil {
		s.skippedEver.ClearEach(pfns)
	}
	if s.degradePending != nil {
		s.degradePending.ClearEach(pfns)
	}
}
