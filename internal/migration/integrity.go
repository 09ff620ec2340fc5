package migration

import (
	"errors"
	"fmt"
	"time"

	"javmm/internal/faults"
	"javmm/internal/mem"
	"javmm/internal/obs"
	"javmm/internal/obs/ledger"
	"javmm/internal/obs/perf"
)

// The end-to-end integrity plane. Every page payload crossing the link is
// digested at both ends: the source records the digest of what it exported,
// the destination recomputes one over what it actually received (so a
// payload corrupted in flight — the corrupt-page-stream fault site — lands
// in the destination's table with the wrong digest). Switchover then audits
// the two tables against each other while the VM is paused and repairs
// mismatches by bounded re-fetch; the lazy (post-copy) engine, whose pages
// go live at the destination immediately, verifies each fetch inline
// instead. Either way a corrupted transfer can complete only by being
// repaired — never silently.

// ErrIntegrity reports a switchover digest audit that could not be healed
// within Integrity.MaxRepairRounds: the destination's memory provably
// diverges from the source and the run aborts cleanly.
var ErrIntegrity = errors.New("migration: destination integrity verification failed")

// errPageCorrupt is the transient error the lazy engine's per-fetch
// verification raises on a digest mismatch; the retry machinery re-sends the
// page.
var errPageCorrupt = errors.New("migration: page digest mismatch at destination")

// integrityState is the source-side half of the integrity plane for one run.
type integrityState struct {
	// dest answers what the destination holds: the digests it recomputed
	// over the payloads it received.
	dest *Destination
	// expect holds, per PFN, the digest of the payload the source last
	// handed to the sink (or, on a resumed run, the token digest of a
	// trusted page).
	expect []uint64
	// sent marks the pages expect is valid for: everything delivered this
	// run plus the trusted pages a ResumeToken vouched for.
	sent *mem.Bitmap
	// pendingRepair marks pages whose last verification failed; the next
	// verified delivery of such a page counts as a repair.
	pendingRepair *mem.Bitmap
	stats         IntegrityStats
}

// beginIntegrity resets the per-run integrity state.
func (s *Source) beginIntegrity() {
	n := s.Dom.NumPages()
	s.integ = &integrityState{
		dest:          s.Dest,
		expect:        make([]uint64, n),
		sent:          mem.NewBitmap(n),
		pendingRepair: mem.NewBitmap(n),
	}
}

// corruptPayload returns a copy of payload with one bit flipped — same
// length, so the import succeeds and only the content (and therefore the
// digest) is wrong.
func corruptPayload(payload []byte) []byte {
	if len(payload) == 0 {
		return payload
	}
	out := append([]byte(nil), payload...)
	out[len(out)-1] ^= 0x01
	return out
}

// wirePayload applies the corrupt-page-stream fault site to one delivery
// attempt and counts what it corrupted.
func (s *Source) wirePayload(p mem.PFN, payload []byte) []byte {
	if !s.Cfg.Faults.Fire(faults.SiteCorruptPage) {
		return payload
	}
	if m := s.Cfg.Metrics; m != nil {
		m.Counter("migration.pages_corrupted").Inc()
	}
	_ = p
	return corruptPayload(payload)
}

// recordExpected notes what the sink should now hold for p.
func (s *Source) recordExpected(p mem.PFN, payload []byte) {
	if s.integ == nil {
		return
	}
	s.integ.expect[p] = mem.PageDigest(payload)
	s.integ.sent.Set(p)
}

// recordExpectedRun is recordExpected for a run of pages whose payloads are
// packed at stride bytes each.
func (s *Source) recordExpectedRun(pfns []mem.PFN, payloads []byte, stride int) {
	ig := s.integ
	if ig == nil {
		return
	}
	for i, p := range pfns {
		ig.expect[p] = mem.PageDigest(payloads[i*stride : (i+1)*stride])
	}
	ig.sent.SetEach(pfns)
}

// verifyFetch is the lazy engine's inline check: immediately after a
// demand fetch or prefetch lands, compare the destination's recomputed
// digest against the source's expectation. A mismatch is transient —
// errPageCorrupt sends the retry machinery back for another attempt — and
// the eventual verified delivery is counted as a repair.
func (s *Source) verifyFetch(p mem.PFN) error {
	ig := s.integ
	if ig == nil || s.Cfg.Integrity.Disable {
		return nil
	}
	s.Cfg.Perf.Enter(perf.StageDigestAudit)
	defer s.Cfg.Perf.Exit()
	ig.stats.PagesAudited++
	got, ok := ig.dest.PageDigestAt(p)
	if !ok || got != ig.expect[p] {
		// One mismatch episode per page: a retry corrupted again extends the
		// episode rather than opening a new one, so a completed run always
		// balances Mismatches == Repairs.
		if !ig.pendingRepair.Test(p) {
			ig.stats.Mismatches++
			if m := s.Cfg.Metrics; m != nil {
				m.Counter("migration.integrity_mismatches").Inc()
			}
		}
		ig.pendingRepair.Set(p)
		s.Cfg.Tracer.Emit(obs.TrackMigration, obs.KindIntegrityAudit, "fetch-digest-mismatch", nil,
			obs.Uint64("pfn", uint64(p)))
		return errPageCorrupt
	}
	s.countRepair(p)
	return nil
}

// countRepair counts a verified delivery of p as a repair when one was
// pending.
func (s *Source) countRepair(p mem.PFN) {
	ig := s.integ
	if ig.pendingRepair.Test(p) {
		ig.pendingRepair.Clear(p)
		ig.stats.Repairs++
		if m := s.Cfg.Metrics; m != nil {
			m.Counter("migration.integrity_repairs").Inc()
		}
	}
}

// verifyRun is verifyFetch for the pages of a batched demand fetch, in one
// loop: it checks pfns in order and returns how many match before the
// first mismatch, which it leaves for verifyFetch to record. Each page it
// passes counts as audited, and as repaired if a repair was pending.
func (s *Source) verifyRun(pfns []mem.PFN) int {
	ig := s.integ
	if ig == nil || s.Cfg.Integrity.Disable || len(pfns) == 0 {
		return len(pfns)
	}
	s.Cfg.Perf.Enter(perf.StageDigestAudit)
	defer s.Cfg.Perf.Exit()
	for i, p := range pfns {
		if got, ok := ig.dest.PageDigestAt(p); !ok || got != ig.expect[p] {
			return i
		}
		ig.stats.PagesAudited++
		s.countRepair(p)
	}
	return len(pfns)
}

// lazyDeliver pushes page p's current content into the sink through the
// corrupt-page-stream site and verifies the destination's recomputed digest
// inline. A digest mismatch surfaces as the transient errPageCorrupt so the
// lazy engine's retry machinery re-sends the page; the verified re-delivery
// counts as a repair.
func (s *Source) lazyDeliver(p mem.PFN) error {
	s.exportBuf = s.Dom.Store().AppendExport(s.exportBuf[:0], p)
	payload := s.exportBuf
	if err := s.receiveOne(p, payload); err != nil {
		return err
	}
	s.recordExpected(p, payload)
	return s.verifyFetch(p)
}

// auditResident cross-checks the pages believed resident at a lazy
// switchover — hybrid warm sends and resume-trusted pages — against the
// expectation table, and drops every mismatch back into the to-fetch set: a
// corrupted warm send must not survive as resident. Dropped pages are marked
// pending repair, so the refetch that follows counts as a repair once it
// verifies.
func (s *Source) auditResident(resident *mem.Bitmap) {
	ig := s.integ
	if ig == nil || s.Cfg.Integrity.Disable || resident.Count() == 0 {
		return
	}
	s.Cfg.Perf.Enter(perf.StageDigestAudit)
	defer s.Cfg.Perf.Exit()
	ig.stats.AuditRounds++
	var bad []mem.PFN
	resident.Range(func(p mem.PFN) bool {
		ig.stats.PagesAudited++
		got, ok := ig.dest.PageDigestAt(p)
		if !ok || got != ig.expect[p] {
			bad = append(bad, p)
		}
		return true
	})
	if len(bad) == 0 {
		return
	}
	ig.stats.Mismatches += uint64(len(bad))
	for _, p := range bad {
		resident.Clear(p)
		ig.pendingRepair.Set(p)
	}
	s.Cfg.Tracer.Emit(obs.TrackMigration, obs.KindIntegrityAudit, "switchover-audit", nil,
		obs.Int("mismatches", len(bad)))
	if m := s.Cfg.Metrics; m != nil {
		m.Counter("migration.integrity_mismatches").Add(int64(len(bad)))
	}
}

// auditIntegrity is the pre-copy engines' switchover digest audit, run with
// the VM paused after the stop-and-copy iteration and before resumption.
// Each round compares every sent (or token-trusted) page's expected digest
// against the destination's table and re-fetches the mismatches; repair
// traffic is folded into st so the report, ledger and metrics keep
// reconciling byte-for-byte. Exhausting Integrity.MaxRepairRounds fails the
// run with ErrIntegrity (the caller aborts cleanly).
func (s *Source) auditIntegrity(st *IterationStats, iter int) {
	ig := s.integ
	if ig == nil || s.Cfg.Integrity.Disable {
		return
	}
	// Repair traffic re-enters the codec and sink stages from inside this
	// one; self-time attribution keeps the accounts disjoint.
	s.Cfg.Perf.Enter(perf.StageDigestAudit)
	defer s.Cfg.Perf.Exit()
	stats := &ig.stats
	stats.PagesAudited += ig.sent.Count()
	span := s.Cfg.Tracer.Begin(obs.TrackMigration, obs.KindIntegrityAudit, "integrity-audit",
		obs.Uint64("pages", ig.sent.Count()))
	store := s.Dom.Store()
	rawWire := store.WireSize()
	for round := 0; ; round++ {
		stats.AuditRounds++
		var bad []mem.PFN
		ig.sent.Range(func(p mem.PFN) bool {
			got, ok := ig.dest.PageDigestAt(p)
			if !ok || got != ig.expect[p] {
				bad = append(bad, p)
			}
			return true
		})
		if len(bad) == 0 {
			break
		}
		stats.Mismatches += uint64(len(bad))
		if m := s.Cfg.Metrics; m != nil {
			m.Counter("migration.integrity_mismatches").Add(int64(len(bad)))
		}
		if round >= s.Cfg.Integrity.MaxRepairRounds {
			span.End(obs.Int("rounds", stats.AuditRounds), obs.Str("outcome", "exhausted"),
				obs.Int("unrepaired", len(bad)))
			s.fail(fmt.Errorf("%w: %d pages still mismatched after %d repair rounds",
				ErrIntegrity, len(bad), round))
			s.sealIntegrity()
			return
		}
		for _, p := range bad {
			s.exportBuf = store.AppendExport(s.exportBuf[:0], p)
			payload := s.exportBuf
			w, encodeCPU := s.codec.Encode(p, rawWire)
			var d time.Duration
			send := func() error {
				var err error
				d, err = s.Link.SendErr(w)
				return err
			}
			if err := s.withRetry("integrity-repair", send); err != nil {
				s.fail(err)
				span.End(obs.Str("outcome", "aborted"), obs.Str("error", err.Error()))
				s.sealIntegrity()
				return
			}
			if err := s.deliverPage(p, payload); err != nil {
				s.fail(err)
				span.End(obs.Str("outcome", "aborted"), obs.Str("error", err.Error()))
				s.sealIntegrity()
				return
			}
			st.PagesSent++
			st.BytesOnWire += w
			s.sentBytes += w
			s.report.TotalPagesSent++
			s.report.CPUTime += s.Cfg.PageCopyCost + encodeCPU
			s.Cfg.Ledger.PageSent(p, iter, w, ledger.ClassFinal)
			stats.Repairs++
			stats.RepairBytes += w
			if m := s.Cfg.Metrics; m != nil {
				m.Counter("migration.integrity_repairs").Inc()
			}
			s.advance(d)
		}
	}
	span.End(obs.Int("rounds", stats.AuditRounds),
		obs.Uint64("mismatches", stats.Mismatches), obs.Uint64("repairs", stats.Repairs))
	s.sealIntegrity()
}

// sealIntegrity publishes the integrity account (with the destination's final
// rolling digest) into the report.
func (s *Source) sealIntegrity() {
	if s.integ == nil || s.Cfg.Integrity.Disable {
		return
	}
	s.integ.stats.RollingDigest = s.integ.dest.RollingDigest()
	ic := s.integ.stats
	s.report.Integrity = &ic
}
