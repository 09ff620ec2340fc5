package migration

import (
	"time"

	"javmm/internal/faults"
	"javmm/internal/hypervisor"
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
// ModeHybrid composes the stages of both engines: a pre-copy warm phase of
// at most hybridWarmIterations rounds (runIteration, stopping earlier
// if xenStop finds it converged) seeds residency, then the same switchover
// and demand-fetch machinery finishes the job on the pages that were never
// sent or were re-dirtied after their last send. It trades a little
// pre-copy traffic for a much shorter degradation tail than pure post-copy.

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

// migrateLazy is the shared engine behind ModePostCopy (warm == false) and
// ModeHybrid (warm == true). The transfer bitmap is not consulted: both are
// application-agnostic.
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
		for {
			iter++
			st := s.runIteration(iter, toSend, false)
			s.report.Iterations = append(s.report.Iterations, st)
			s.notifyIteration(st)
			if s.aborted {
				return s.abortRun(start)
			}
			if iter >= hybridWarmIterations || s.stopNow(iter, st) {
				break
			}
			s.Dom.PeekAndClear(toSend)
		}
	} else {
		s.sink = s.Dest
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
	s.Clock.Advance(resumptionTime)
	s.report.Resumption = resumptionTime
	s.report.VMDowntime = s.Clock.Now() - pauseStart
	s.Dom.Unpause()
	pausedSpan.End(obs.Dur("downtime", s.report.VMDowntime))
	s.Cfg.Tracer.Emit(obs.TrackMigration, obs.KindResume, "vm-resume", nil)

	missing := n - resident.Count()
	// Switchover marker: the VM now runs at the destination with `missing`
	// pages still to fetch — the quantity the lazy phase's ETA drains.
	s.emitProgress(ProgressPostCopy, iter+1, missing, 0, 0)
	wire := s.Dom.Store().WireSize()
	lazyIter := iter + 1 // the ledger iteration index of the whole lazy phase
	lf := &s.lazy
	lf.begin(s.Dom, resident, pc, lazyIter)
	s.Dom.SetPageFaultHook(s.faultRun)
	defer s.Dom.SetPageFaultHook(nil)

	// Background pre-paging: push non-resident pages in ascending order,
	// interleaving guest execution (which triggers demand faults). Each pass
	// starts over at PFN 0, since demand faults may leave holes behind the
	// cursor, and the scan ends at the first pass that finds every page
	// resident before it starts; the rest of a pass after the last page
	// arrived pushes nothing.
	st := IterationStats{Index: iter + 1, Start: s.Clock.Now(), Last: true}
prefetch:
	for resident.Count() < n {
		for cursor := mem.PFN(0); cursor < mem.PFN(n); cursor++ {
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
				if lf.stallDebt > 0 {
					s.Clock.Advance(lf.stallDebt)
					pc.FaultStall += lf.stallDebt
					lf.stallDebt = 0
				}
			}
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

// lazyRunPages is the longest run the guest write path hands the domain:
// one leaf page table's worth of pages. The lazy engine sizes its
// demand-fetch buffers for it; a longer run grows them.
const lazyRunPages = 512

// lazyFetch is the demand-fetch state of a lazy run after switchover: what
// the destination holds, the account faults are booked into, the guest
// stall not yet charged to guest time, and the buffers that carry the
// faulting pages of one guest write run. The buffers live on the Source,
// so they are sized once and reused by every run and migration after.
type lazyFetch struct {
	resident  *mem.Bitmap
	pc        *PostCopyStats
	stallDebt time.Duration
	wire      uint64 // every page moves raw
	iter      int    // the ledger iteration index of the whole lazy phase

	pfns     []mem.PFN       // the run's non-resident pages, each once
	stalls   []time.Duration // each page's send and round trip
	payloads []byte          // their exports, stride bytes each
	stride   int
}

// begin starts the demand-fetch phase of a run and sizes the buffers. It
// allocates only when the buffers from an earlier run are too small.
func (lf *lazyFetch) begin(dom *hypervisor.Domain, resident *mem.Bitmap, pc *PostCopyStats, iter int) {
	store := dom.Store()
	lf.resident, lf.pc, lf.stallDebt = resident, pc, 0
	lf.wire, lf.iter = store.WireSize(), iter
	n := int(min(lazyRunPages, dom.NumPages()))
	if n == 0 {
		return
	}
	lf.payloads = store.AppendExport(lf.payloads[:0], 0)
	lf.stride = len(lf.payloads)
	if cap(lf.pfns) < n {
		lf.pfns = make([]mem.PFN, 0, n)
		lf.stalls = make([]time.Duration, 0, n)
	}
	if cap(lf.payloads) < n*lf.stride {
		lf.payloads = make([]byte, 0, n*lf.stride)
	}
}

// faultRun is the page-fault hook of the lazy phase. It runs once per guest
// write run, before any page of it is written, and demand-fetches the run's
// pages that have not arrived yet: the faulting vCPU stalls for each page's
// round trip and transfer (plus any retry backoff), and the debt is charged
// to guest time between prefetch pushes. The clock never moves in here:
// advancing it would run the guest and could recurse into this very hook.
//
// While an injector is armed, the pages are fetched one at a time, so every
// fault site fires in the order one-page fetches fire it. Otherwise the
// run's faulting pages are fetched together by fetchRun.
func (s *Source) faultRun(run []mem.PFN) {
	lf := &s.lazy
	if s.aborted {
		return
	}
	if s.Cfg.Faults.Armed() {
		for _, p := range run {
			if lf.resident.Test(p) {
				continue
			}
			s.Cfg.Perf.Enter(perf.StageLazyFetch)
			d, err := s.fetchAttempt(p)
			if err != nil {
				d, err = s.refetch(p, err)
			}
			s.Cfg.Perf.Exit()
			if err != nil {
				s.fail(err)
				return
			}
			lf.resident.Set(p)
			s.bookFault(p, d)
		}
		return
	}
	// Marking the pages resident as they are gathered fetches a page the
	// run repeats once; the ones not booked are unmarked on failure.
	pfns := lf.pfns[:0]
	for _, p := range run {
		if !lf.resident.Test(p) {
			lf.resident.Set(p)
			pfns = append(pfns, p)
		}
	}
	lf.pfns = pfns
	if len(pfns) == 0 {
		return
	}
	s.Cfg.Perf.Enter(perf.StageLazyFetch)
	booked, err := s.fetchRun()
	s.Cfg.Perf.Exit()
	if err != nil {
		lf.resident.ClearEach(pfns[booked:])
		s.fail(err)
	}
}

// fetchRun demand-fetches lf.pfns, the faulting pages of one write run, in
// one pass of each kind: a send and round trip per page, one sink call for
// the pages sent, one recorded expectation per landed page and one
// verification loop. It then books the faults page by page in run order.
// A page whose send, receive or digest check fails continues alone in the
// per-page retry path from that failure, as a one-page fetch would, and the
// pass resumes after it without sending or receiving a page twice. It
// returns how many pages it booked and the error of a page that failed for
// good; the pages from that one on were not fetched.
func (s *Source) fetchRun() (int, error) {
	lf := &s.lazy
	pfns := lf.pfns
	n := len(pfns)
	if cap(lf.stalls) < n {
		lf.stalls = make([]time.Duration, n)
	}
	stalls := lf.stalls[:n]
	store := s.Dom.Store()
	payloads := lf.payloads[:0]
	for _, p := range pfns {
		payloads = store.AppendExport(payloads, p)
	}
	lf.payloads = payloads
	stride := lf.stride

	// Pages [0, booked) are booked, [booked, landed) landed and await
	// verification, [landed, sent) are on the wire. A failed send or
	// receive stops its stage at the failing page until that page's retry
	// has run.
	booked, landed, sent := 0, 0, 0
	var sendErr, recvErr error
	for {
		for ; sendErr == nil && sent < n; sent++ {
			d, err := s.Link.SendErr(lf.wire)
			if err != nil {
				sendErr = err
				break
			}
			stalls[sent] = d + s.Link.RoundTrip()
		}
		if recvErr == nil && landed < sent {
			var k int
			s.Cfg.Perf.Enter(perf.StagePageSink)
			k, recvErr = s.sink.ReceivePages(pfns[landed:sent], payloads[landed*stride:sent*stride])
			s.Cfg.Perf.Exit()
			s.recordExpectedRun(pfns[landed:landed+k], payloads[landed*stride:], stride)
			landed += k
		}
		for v := booked + s.verifyRun(pfns[booked:landed]); booked < v; booked++ {
			s.bookFault(pfns[booked], stalls[booked])
		}
		if booked == n {
			return n, nil
		}
		var err error
		switch p := pfns[booked]; {
		case booked < landed:
			err = s.verifyFetch(p) // records the mismatch verifyRun stopped at
		case booked < sent:
			err, recvErr = recvErr, nil
		default:
			err, sendErr = sendErr, nil
		}
		d, err := s.refetch(pfns[booked], err)
		if err != nil {
			return booked, err
		}
		s.bookFault(pfns[booked], d)
		booked++
		landed = max(landed, booked)
		sent = max(sent, booked)
	}
}

// fetchAttempt makes one demand-fetch attempt of page p: the fetch fault
// site, the page on the wire plus a round trip, and the verified delivery.
// It returns the attempt's stall.
func (s *Source) fetchAttempt(p mem.PFN) (time.Duration, error) {
	if s.Cfg.Faults.Fire(faults.SitePostCopyFetch) {
		return 0, ErrFetchFaulted
	}
	d, err := s.Link.SendErr(s.lazy.wire)
	if err != nil {
		return 0, err
	}
	return d + s.Link.RoundTrip(), s.lazyDeliver(p)
}

// refetch continues the demand fetch of page p after an attempt failed with
// err0, retrying with backoff. The faulting vCPU is frozen, so backoffs
// accumulate as stall rather than advancing the clock. The stall is the
// successful attempt's plus every backoff.
func (s *Source) refetch(p mem.PFN, err0 error) (time.Duration, error) {
	var d, backoff time.Duration
	op := func() error {
		var err error
		d, err = s.fetchAttempt(p)
		return err
	}
	err := s.retryAfter("demand-fetch", err0, func(b time.Duration) { backoff += b }, op)
	return d + backoff, err
}

// bookFault accounts a completed demand fetch of p that stalled the guest
// for d: the fault count, the stall debt, the ledger and the stall
// histogram.
func (s *Source) bookFault(p mem.PFN, d time.Duration) {
	lf := &s.lazy
	lf.pc.Faults++
	lf.stallDebt += d
	s.Cfg.Ledger.PageSent(p, lf.iter, lf.wire, s.sendClassFor(p, ledger.ClassFault))
	s.Cfg.Metrics.Histogram("migration.fault_stall_ns").Observe(float64(d))
}
