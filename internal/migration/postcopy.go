package migration

import (
	"time"

	"javmm/internal/faults"
	"javmm/internal/mem"
	"javmm/internal/obs"
	"javmm/internal/obs/ledger"
	"javmm/internal/obs/perf"
)

// The lazy (post-switchover) engine: move the VM first, bring its memory
// over afterwards. Pages the guest touches before they arrive are
// demand-fetched from the source, while a background pre-paging stream
// pushes the rest.
//
// ModePostCopy is the related-work baseline of paper §2 (Hines & Gopalan;
// Hirofuchi et al.): no pre-copy at all. Downtime is minimal by construction
// (only the CPU/device state moves synchronously), but the resumed VM runs
// degraded until its working set is resident: every fault costs a network
// round trip plus a page transfer. The paper's framing — post-copy "skips
// over all memory pages ... incurring performance penalties" — is exactly
// what the X8 ablation measures against JAVMM.
//
// ModeHybrid composes the stages of both engines: a bounded pre-copy warm
// phase (runIteration with a warmStop policy) seeds residency, then the same
// switchover and demand-fetch machinery finishes the job on the pages that
// were never sent or were re-dirtied after their last send.

// PostCopyStats extends a Report for runs with a post-copy phase.
type PostCopyStats struct {
	// Faults is the number of demand fetches (guest touched a
	// not-yet-resident page).
	Faults uint64
	// FaultStall is the cumulative guest stall from demand fetches.
	FaultStall time.Duration
	// PrefetchPages is the number of pages moved by background pre-paging.
	PrefetchPages uint64
	// ResidentAt is the virtual time (from migration start) at which every
	// page had arrived at the destination.
	ResidentAt time.Duration
	// WarmPages is the number of pages still resident from the hybrid warm
	// phase at switchover (zero for pure post-copy).
	WarmPages uint64
}

// cpuStateBytes models the vCPU/device state moved during the post-copy
// switchover.
const cpuStateBytes = 2 << 20

// MigratePostCopy migrates the VM post-copy style and returns the report
// (with Report.PostCopy set). The transfer bitmap is not consulted: this is
// the application-agnostic baseline.
func (s *Source) MigratePostCopy() (*Report, error) {
	s.Cfg.Mode = ModePostCopy
	return s.migrateLazy(false)
}

// MigrateHybrid runs Cfg.HybridWarmIterations pre-copy rounds, then
// switches over post-copy style: only pages never sent — or re-dirtied
// since their last send — are demand-fetched or pre-paged. It trades a
// little pre-copy traffic for a much shorter degradation tail than pure
// post-copy.
func (s *Source) MigrateHybrid() (*Report, error) {
	s.Cfg.Mode = ModeHybrid
	return s.migrateLazy(true)
}

// migrateLazy is the shared engine behind ModePostCopy (warm == false) and
// ModeHybrid (warm == true).
func (s *Source) migrateLazy(warm bool) (*Report, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	if err := s.checkDestSize(); err != nil {
		return nil, err
	}
	s.Cfg.FillDefaults()
	n := s.Dom.NumPages()
	s.report = &Report{Mode: s.Cfg.Mode}
	s.sentBytes = 0
	s.aborted = false
	s.proto = nil
	s.Cfg.Ledger.Begin(n)
	s.beginRecovery()
	pc := &PostCopyStats{}
	s.report.PostCopy = pc

	if s.Cfg.OnIteration != nil && s.Cfg.Tracer != nil {
		cancel := s.Cfg.Tracer.Subscribe(func(e obs.Event) {
			if st, ok := e.Data.(IterationStats); ok {
				s.Cfg.OnIteration(st)
			}
		})
		defer cancel()
	}
	cancelProgress := s.subscribeProgress()
	defer cancelProgress()
	start := s.Clock.Now()
	s.startedAt = start
	runSpan := s.Cfg.Tracer.Begin(obs.TrackMigration, obs.KindMigration,
		"migrate "+s.Cfg.Mode.String(), obs.Str("mode", s.Cfg.Mode.String()))
	defer runSpan.End()
	s.emitProgress(ProgressStart, 0, n, 0, 0)

	// resident tracks which pages the destination already holds at their
	// final content. The warm phase seeds it; the demand-fetch phase
	// completes it.
	resident := mem.NewBitmap(n)
	iter := 0

	// A resumed lazy run skips the warm phase: the token's trusted pages
	// seed residency directly and only the remainder is fetched (tagged
	// resume-refetch in the ledger).
	resumed := s.pendingResume != nil
	if warm && !resumed {
		s.bindStages(nil)
		s.beginIntegrity()
		if err := s.Dom.EnableLogDirty(); err != nil {
			return nil, err
		}
		defer s.Dom.DisableLogDirty()
		s.residentTrack = resident
		defer func() { s.residentTrack = nil }()

		toSend := mem.NewBitmap(n)
		toSend.SetAll()
		stop := warmStop{warmIters: s.Cfg.HybridWarmIterations, next: s.stop}
		for {
			iter++
			st := s.runIteration(iter, toSend, false)
			s.report.Iterations = append(s.report.Iterations, st)
			s.notifyIteration(st)
			if s.aborted {
				return s.abortRun(start)
			}
			if stop.Stop(iter, st, s.sentBytes, s.Dom.MemoryBytes()) {
				break
			}
			s.Dom.PeekAndClear(toSend)
		}
	} else {
		s.bindSink()
		s.beginIntegrity()
		if resumed {
			s.planResumeLazy(s.pendingResume, resident)
		}
	}

	// Switchover: pause, move CPU/device state, resume at the destination.
	s.Dom.Pause()
	s.Cfg.Tracer.Emit(obs.TrackMigration, obs.KindSuspend, "vm-suspend", nil)
	pausedSpan := s.Cfg.Tracer.Begin(obs.TrackMigration, obs.KindVMPaused, "vm-paused")
	pauseStart := s.Clock.Now()
	if warm && !resumed {
		// Pages dirtied since their last send are stale at the destination:
		// drop them from the resident set so the lazy phase refetches them.
		dirty := mem.NewBitmap(n)
		s.Dom.PeekAndClear(dirty)
		resident.AndNot(dirty)
	}
	// Audit what we believe resident (warm sends, resume-trusted pages)
	// against the destination's digest table while the VM is paused: a
	// corrupted warm transfer is dropped here and refetched by the lazy phase.
	s.auditResident(resident)
	if warm {
		pc.WarmPages = resident.Count()
	}
	var stateTime time.Duration
	var stateElapsed bool
	sendState := func() error {
		var err error
		stateTime, stateElapsed, err = s.sendBulk(cpuStateBytes)
		return err
	}
	if err := s.withRetry("switchover", sendState); err != nil {
		// The CPU/device state never made it across: resume at the source.
		s.fail(err)
		pausedSpan.End()
		return s.abortRun(start)
	}
	if !stateElapsed {
		s.Clock.Advance(stateTime)
	}
	s.Clock.Advance(s.Cfg.ResumptionTime)
	s.report.Resumption = s.Cfg.ResumptionTime
	s.report.VMDowntime = s.Clock.Now() - pauseStart
	s.Dom.Unpause()
	pausedSpan.End(obs.Dur("downtime", s.report.VMDowntime))
	s.Cfg.Tracer.Emit(obs.TrackMigration, obs.KindResume, "vm-resume", nil)

	missing := n - resident.Count()
	// Switchover marker: the VM now runs at the destination with `missing`
	// pages still to fetch — the quantity the lazy phase's ETA drains.
	s.emitProgress(ProgressPostCopy, iter+1, missing, 0, 0)
	var stallDebt time.Duration
	wire := s.Dom.Store().WireSize()
	lazyIter := iter + 1 // the ledger iteration index of the whole lazy phase

	fetch := func(p mem.PFN) (time.Duration, error) {
		s.Cfg.Perf.Enter(perf.StageLazyFetch)
		defer s.Cfg.Perf.Exit()
		var d, backoffStall time.Duration
		op := func() error {
			if s.Cfg.Faults.Fire(faults.SitePostCopyFetch) {
				return ErrFetchFaulted
			}
			var err error
			d, err = s.Link.SendErr(wire)
			if err != nil {
				return err
			}
			d += s.Link.RoundTrip()
			return s.lazyDeliver(p)
		}
		if err := op(); err != nil {
			// The faulting vCPU is frozen: retry backoffs accumulate as
			// stall debt rather than advancing the clock (which would run
			// the guest and could recurse into this very hook).
			err = s.retryAfter("demand-fetch", err,
				func(b time.Duration) { backoffStall += b }, op)
			if err != nil {
				return 0, err
			}
		}
		resident.Set(p)
		return d + backoffStall, nil
	}

	s.Dom.SetPageFaultHook(func(p mem.PFN) {
		if s.aborted || resident.Test(p) {
			return
		}
		// The faulting vCPU stalls for a round trip plus the transfer
		// (plus any retry backoff); the debt is charged to guest time
		// between prefetch chunks.
		d, err := fetch(p)
		if err != nil {
			s.fail(err)
			return
		}
		pc.Faults++
		stallDebt += d
		s.Cfg.Ledger.PageSent(p, lazyIter, wire, s.sendClassFor(p, ledger.ClassFault))
		s.Cfg.Metrics.Histogram("migration.fault_stall_ns").Observe(float64(d))
	})
	defer s.Dom.SetPageFaultHook(nil)

	// Background pre-paging: push non-resident pages in ascending order,
	// interleaving guest execution (which triggers demand faults).
	st := IterationStats{Index: iter + 1, Start: s.Clock.Now(), Last: true}
	cursor := mem.PFN(0)
	chunk := s.Cfg.ChunkPages
prefetch:
	for resident.Count() < n {
		var pushed uint64
		for pushed < chunk && cursor < mem.PFN(n) {
			if s.aborted {
				break prefetch
			}
			if !resident.Test(cursor) {
				var d time.Duration
				var elapsed bool
				push := func() error {
					s.Cfg.Perf.Enter(perf.StageLazyFetch)
					defer s.Cfg.Perf.Exit()
					var err error
					d, elapsed, err = s.sendBulk(wire)
					if err != nil {
						return err
					}
					return s.lazyDeliver(cursor)
				}
				if err := s.withRetry("prefetch", push); err != nil {
					s.fail(err)
					break prefetch
				}
				resident.Set(cursor)
				s.Cfg.Ledger.PageSent(cursor, lazyIter, wire, s.sendClassFor(cursor, ledger.ClassPrefetch))
				pc.PrefetchPages++
				pushed++
				st.PagesSent++
				st.BytesOnWire += wire
				s.report.TotalPagesSent++
				s.report.CPUTime += s.Cfg.PageCopyCost
				// The guest runs while the push is in flight (on an
				// arbitrated port the wait itself already elapsed that
				// time, with other processes running)...
				if !elapsed {
					s.advance(d)
				}
				// ...and pays off any fault stalls it accumulated.
				if stallDebt > 0 {
					s.Clock.Advance(stallDebt)
					pc.FaultStall += stallDebt
					stallDebt = 0
				}
			}
			cursor++
		}
		if cursor >= mem.PFN(n) {
			cursor = 0 // demand faults may have left holes behind the cursor
		}
	}
	// Fault fetches moved pages outside the iteration accounting; fold
	// their traffic in for TotalBytes consistency. This sealing runs on the
	// abort path too: an aborted lazy run's partial report must reconcile
	// with the ledger (and carry the same abort metadata) exactly like an
	// aborted pre-copy run, so the lazy-phase iteration cannot be dropped on
	// the floor just because the run failed mid-fetch.
	st.BytesOnWire += pc.Faults * wire
	st.PagesSent += pc.Faults
	s.report.TotalPagesSent += pc.Faults
	st.Duration = s.Clock.Now() - st.Start
	st.PagesConsidered = missing
	s.report.Iterations = append(s.report.Iterations, st)
	s.notifyIteration(st)
	s.report.LastIterBytes = st.BytesOnWire
	if s.aborted {
		// A demand fetch or prefetch failed permanently after switchover:
		// the run rolls back to the source (whose domain retains every
		// page) and the destination's partial image is discarded (or kept
		// for Resume when Recovery.EnableResume asks for it).
		s.sealIntegrity()
		return s.abortRun(start)
	}
	pc.ResidentAt = s.Clock.Now() - start
	if m := s.Cfg.Metrics; m != nil {
		m.Counter("migration.postcopy_faults").Add(int64(pc.Faults))
		m.Counter("migration.postcopy_prefetch_pages").Add(int64(pc.PrefetchPages))
	}

	s.sealIntegrity()
	s.report.FinalTransfer = mem.NewBitmap(n)
	s.report.FinalTransfer.SetAll()
	s.report.TotalTime = s.Clock.Now() - start
	s.emitProgress(ProgressDone, iter+1, 0, 0, 0)
	return s.report, nil
}
