package migration

import (
	"fmt"
	"time"

	"javmm/internal/mem"
	"javmm/internal/obs"
	"javmm/internal/obs/ledger"
)

// Resumable migration. A failed (or cancelled) run's abortRun mints a
// ResumeToken describing what the destination verifiably holds; a later
// Source.Resume re-opens the migration and transfers only the pages the
// token cannot vouch for — dirty-since-the-epoch ∪ digest-mismatch ∪
// never-received — instead of paying the whole first copy again. The ledger
// tags those sends resume-refetch, so the abort+resume pair still reconciles
// byte-for-byte through the attribution layer.

// ResumeToken is the resume credential minted by an aborted run. It is a
// claim about the destination, not a capability: Resume re-validates every
// part of it (image generation, dirty epoch, per-page digests) and degrades
// to a full first copy whenever the claim cannot be proven.
type ResumeToken struct {
	// RunID identifies the aborted run (mode + virtual start/abort times —
	// deterministic, like everything under the virtual clock).
	RunID string
	// Mode is the mode the aborted run was started in; Resume restarts in
	// the same mode.
	Mode Mode
	// NumPages is the VM's size; a token for a different geometry is
	// rejected outright.
	NumPages uint64
	// Epoch is the hypervisor dirty epoch armed at the abort instant: pages
	// the guest wrote after it are stale at the destination.
	Epoch uint64
	// Generation is the destination image generation the digest table
	// describes. A destination discarded (or crashed and rebuilt) since
	// carries a different generation and the table is worthless.
	Generation uint64
	// Received is the set of PFNs the destination held at abort; Digests
	// their per-PFN content digests. Nil when the aborted run's sink carried
	// no digests.
	Received *mem.Bitmap
	Digests  []uint64
	// Dest is the host identity of the destination the token describes
	// (empty for single-VM runs, whose destination has no name). A token
	// presented to a different destination is worthless — the pages it
	// vouches for live on another machine — and degrades to a full first
	// copy. This is what makes relocation after a host crash safe.
	Dest string
	// AbortedAt is the virtual time of the abort; Reason its cause.
	AbortedAt time.Duration
	Reason    string
}

// mintResumeToken snapshots the resume credential at abort time. It runs
// AFTER the discard decision: a discarded destination yields a token with an
// empty table and a bumped generation, which a later Resume correctly treats
// as worthless (full first copy). The hypervisor's dirty epoch is armed here
// — the instant the source resumes ownership — so the token's epoch covers
// exactly the writes the destination missed.
func (s *Source) mintResumeToken(reason string) *ResumeToken {
	tok := &ResumeToken{
		RunID:     fmt.Sprintf("%s@%d-%d", s.Cfg.Mode, s.startedAt.Nanoseconds(), s.Clock.Now().Nanoseconds()),
		Mode:      s.Cfg.Mode,
		NumPages:  s.Dom.NumPages(),
		Epoch:     s.Dom.BeginDirtyEpoch(),
		AbortedAt: s.Clock.Now(),
		Reason:    reason,
	}
	if ig := s.integ; ig != nil {
		tok.Generation = ig.dest.Generation()
		tok.Received = ig.dest.ReceivedPages().Clone()
		tok.Digests = ig.dest.DigestSnapshot()
	}
	if s.Dest != nil {
		tok.Dest = s.Dest.HostName()
	}
	return tok
}

// Resume re-opens an aborted migration from its token: same mode, same
// destination, but a first iteration seeded with only the pages the token
// cannot prove intact. The guest-side handshake (app-assisted mode) is
// re-opened from scratch — the LKM reset itself when the abort was
// announced. The caller decides what to do about the fault plane; a resume
// that re-arms the same injector will replay the same faults.
func (s *Source) Resume(token *ResumeToken) (*Report, error) {
	if token == nil {
		return nil, fmt.Errorf("migration: resume requires a token")
	}
	if s.Dom != nil && token.NumPages != s.Dom.NumPages() {
		return nil, fmt.Errorf("migration: token describes a %d-page VM, source has %d",
			token.NumPages, s.Dom.NumPages())
	}
	s.Cfg.Mode = token.Mode
	s.pendingResume = token
	defer func() { s.pendingResume = nil }()
	return s.Migrate()
}

// resumeTrust decides how much of the token to believe. It returns the set
// of trusted pages (destination content proven identical to the source's
// current content) or nil when the token is worthless and the run must
// degrade to a full first copy; reason explains the decision either way.
func (s *Source) resumeTrust(token *ResumeToken) (trusted *mem.Bitmap, reason string) {
	ig := s.integ
	switch {
	case token.Received == nil:
		return nil, "token carries no digest table"
	case s.Dest != nil && token.Dest != s.Dest.HostName():
		// Destination binding: the token describes pages held by another
		// host. After a relocation the new destination holds nothing of the
		// old image, whatever the generation counters happen to say.
		return nil, "token bound to a different destination"
	case token.Generation != ig.dest.Generation():
		// The destination was discarded or rebuilt since the token was
		// minted (a crashed destination is always discarded): whatever the
		// table says describes a previous image.
		return nil, "destination image generation changed"
	case token.Received.Len() != s.Dom.NumPages():
		return nil, "token bitmap geometry mismatch"
	}
	dirty, ok := s.Dom.DirtySince(token.Epoch)
	if !ok {
		return nil, "dirty epoch lost"
	}
	n := s.Dom.NumPages()
	trusted = mem.NewBitmap(n)
	store := s.Dom.Store()
	var buf []byte
	token.Received.Range(func(p mem.PFN) bool {
		if dirty.Test(p) {
			return true // written since the abort: destination copy is stale
		}
		got, ok := ig.dest.PageDigestAt(p)
		if !ok || got != token.Digests[p] {
			return true // destination no longer holds what the token claims
		}
		buf = store.AppendExport(buf[:0], p)
		if got != mem.PageDigest(buf) {
			return true // digest mismatch vs the source's current content
		}
		trusted.Set(p)
		return true
	})
	if trusted.Count() == 0 {
		// A token minted against a discarded (or never-filled) image — e.g.
		// after a destination crash — vouches for nothing: make the full
		// first copy explicit rather than reporting zero trusted pages.
		return nil, "token vouches for no pages"
	}
	return trusted, "token honoured"
}

// planResume seeds a resumed pre-copy run: shrink the first iteration's
// to-send set to the untrusted pages, register them for resume-refetch
// ledger tagging, and seed the integrity expectation table with the trusted
// digests so the switchover audit covers the whole image, reused pages
// included.
func (s *Source) planResume(token *ResumeToken, toSend *mem.Bitmap) {
	st := &ResumeStats{TokenEpoch: token.Epoch}
	s.report.Resume = st
	trusted, reason := s.resumeTrust(token)
	st.Reason = reason
	n := s.Dom.NumPages()
	rawWire := s.Dom.Store().WireSize()
	if trusted == nil {
		st.FullFirstCopy = true
		st.RefetchPages = n
		s.emitResumePlan(st)
		return
	}
	st.TrustedPages = trusted.Count()
	st.SavedBytes = st.TrustedPages * rawWire
	toSend.SetAll()
	toSend.AndNot(trusted)
	st.RefetchPages = toSend.Count()
	s.resumeRefetch = toSend.Clone()
	if ig := s.integ; ig != nil {
		trusted.Range(func(p mem.PFN) bool {
			ig.expect[p] = token.Digests[p]
			ig.sent.Set(p)
			return true
		})
	}
	s.emitResumePlan(st)
}

// planResumeLazy seeds a resumed lazy (post-copy / hybrid) run: trusted
// pages start out resident, so the demand-fetch phase only moves the rest
// (tagged resume-refetch in the ledger).
func (s *Source) planResumeLazy(token *ResumeToken, resident *mem.Bitmap) {
	st := &ResumeStats{TokenEpoch: token.Epoch}
	s.report.Resume = st
	trusted, reason := s.resumeTrust(token)
	st.Reason = reason
	n := s.Dom.NumPages()
	rawWire := s.Dom.Store().WireSize()
	if trusted == nil {
		st.FullFirstCopy = true
		st.RefetchPages = n
		s.emitResumePlan(st)
		return
	}
	st.TrustedPages = trusted.Count()
	st.SavedBytes = st.TrustedPages * rawWire
	resident.Or(trusted)
	refetch := mem.NewBitmap(n)
	refetch.SetAll()
	refetch.AndNot(trusted)
	st.RefetchPages = refetch.Count()
	s.resumeRefetch = refetch
	if ig := s.integ; ig != nil {
		trusted.Range(func(p mem.PFN) bool {
			ig.expect[p] = token.Digests[p]
			ig.sent.Set(p)
			return true
		})
	}
	s.emitResumePlan(st)
}

// emitResumePlan traces and counts the trust decision.
func (s *Source) emitResumePlan(st *ResumeStats) {
	s.Cfg.Tracer.Emit(obs.TrackMigration, obs.KindResumePlan, "resume-plan", nil,
		obs.Str("reason", st.Reason),
		obs.Uint64("trusted_pages", st.TrustedPages),
		obs.Uint64("refetch_pages", st.RefetchPages),
		obs.Bool("full_first_copy", st.FullFirstCopy))
	if m := s.Cfg.Metrics; m != nil {
		m.Counter("migration.resumes").Inc()
		m.Counter("migration.resume_trusted_pages").Add(int64(st.TrustedPages))
		m.Counter("migration.resume_refetch_pages").Add(int64(st.RefetchPages))
		m.Counter("migration.resume_saved_bytes").Add(int64(st.SavedBytes))
	}
}

// sendClassFor maps one page push onto its ledger class, honouring the
// resume-refetch registry: the first send of a page the resume plan queued
// is tagged ClassResume, later sends of the same page fall back to the
// engine's default class (a re-dirtied page is re-dirtied, resumed or not).
func (s *Source) sendClassFor(p mem.PFN, def ledger.SendClass) ledger.SendClass {
	if s.resumeRefetch != nil && s.resumeRefetch.Test(p) {
		s.resumeRefetch.Clear(p)
		return ledger.ClassResume
	}
	return def
}
