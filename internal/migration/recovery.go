package migration

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"javmm/internal/mem"
	"javmm/internal/netsim"
	"javmm/internal/obs"
	"javmm/internal/obs/perf"
)

// The robustness layer: transient stage failures (a partitioned link, a
// destination that refused a page, a failed demand fetch) are retried with
// seeded exponential backoff while the guest keeps running; permanent
// failures (a crashed destination, an exhausted retry budget, a blown stage
// deadline) abort the migration cleanly — the source VM resumes untouched
// and the destination's half-received memory is discarded.

// Errors surfaced by the robustness layer.
var (
	// ErrDestinationLost reports a destination that crashed mid-stream.
	// It is permanent: retrying cannot help, the run aborts immediately.
	ErrDestinationLost = errors.New("migration: destination lost")
	// ErrRetriesExhausted wraps the last transient error once the retry
	// budget or the stage deadline is exhausted.
	ErrRetriesExhausted = errors.New("migration: retries exhausted")
	// ErrFetchFaulted is the transient error injected at the post-copy
	// demand-fetch site.
	ErrFetchFaulted = errors.New("migration: demand fetch failed")
)

// beginRecovery resets the per-run robustness state: a fresh jitter PRNG
// (so identical seeds reproduce identical backoff schedules) and a cleared
// failure. Runs after FillDefaults.
func (s *Source) beginRecovery() {
	s.rng = rand.New(rand.NewSource(s.Cfg.Recovery.Seed))
	s.failure = nil
	s.skippedEver = nil
	s.degradePending = nil
	s.resumeRefetch = nil
	s.Cfg.Faults.Begin()
}

// recovery lazily allocates the report's recovery section.
func (s *Source) recovery() *RecoveryStats {
	if s.report.Recovery == nil {
		s.report.Recovery = &RecoveryStats{}
	}
	return s.report.Recovery
}

// fail records a permanent failure and flags the run aborted.
func (s *Source) fail(err error) {
	if s.failure == nil {
		s.failure = err
	}
	s.aborted = true
}

// nextBackoff returns attempt k's backoff: uniformly random in
// [cap/2, cap] where cap = baseBackoff·2ᵏ⁻¹ clamped to maxBackoff. The
// jitter comes from the run's seeded PRNG, so it is deterministic.
func (s *Source) nextBackoff(attempt int) time.Duration {
	ceil := baseBackoff
	for i := 1; i < attempt && ceil < maxBackoff; i++ {
		ceil *= 2
	}
	ceil = min(ceil, maxBackoff)
	half := ceil / 2
	return half + time.Duration(s.rng.Int63n(int64(half)+1))
}

// retryAfter re-attempts op after an initial failure err0, backing off
// between attempts. sleep advances virtual time during a backoff: the
// engine paths pass s.advance (the guest keeps running while migration
// waits); the demand-fetch path accumulates stall debt instead, because the
// faulting vCPU is frozen. Returns nil once op succeeds, ErrDestinationLost
// immediately (permanent), or ErrRetriesExhausted wrapping the last error.
func (s *Source) retryAfter(stage string, err0 error, sleep func(time.Duration), op func() error) error {
	err := err0
	deadline := s.Clock.Now() + stageDeadline
	for attempt := 1; ; attempt++ {
		if errors.Is(err, netsim.ErrHostDown) {
			// The fabric refused the flow because the destination host is
			// inside a crash window: permanent for this attempt, like a
			// destination crash — the healing layer decides whether to wait
			// the window out or relocate.
			return fmt.Errorf("%w: %s: %w", ErrDestinationLost, stage, err)
		}
		if errors.Is(err, ErrDestinationLost) {
			return err
		}
		if attempt > maxRetries {
			return fmt.Errorf("%w: %s failed %d attempts: %w", ErrRetriesExhausted, stage, maxRetries, err)
		}
		if s.Clock.Now() >= deadline {
			return fmt.Errorf("%w: %s stage deadline %v blown: %w", ErrRetriesExhausted, stage, stageDeadline, err)
		}
		d := s.nextBackoff(attempt)
		rec := s.recovery()
		rec.Retries = append(rec.Retries, RetryRecord{
			Stage:   stage,
			Attempt: attempt,
			At:      s.Clock.Now(),
			Backoff: d,
			Err:     err.Error(),
		})
		rec.BackoffTotal += d
		s.Cfg.Tracer.Emit(obs.TrackMigration, obs.KindRetry, stage, nil,
			obs.Str("stage", stage), obs.Int("attempt", attempt),
			obs.Dur("backoff", d), obs.Str("error", err.Error()))
		if m := s.Cfg.Metrics; m != nil {
			m.Counter("migration.retries").Inc()
		}
		sleep(d)
		if err = op(); err == nil {
			return nil
		}
	}
}

// withRetry runs op, retrying transient failures with backoff (guest
// running). The success fast path costs one call.
func (s *Source) withRetry(stage string, op func() error) error {
	if err := op(); err != nil {
		return s.retryAfter(stage, err, s.advance, op)
	}
	return nil
}

// deliverPage pushes one page into the sink, retrying transient receive
// failures with backoff. Each delivery attempt passes through the
// corrupt-page-stream fault site, so what the sink digests may differ from
// what the source expects — exactly the divergence the switchover audit
// exists to catch. The expected digest is recorded on success.
func (s *Source) deliverPage(p mem.PFN, payload []byte) error {
	return s.retryPage(s.receiveOne(p, payload), p, payload)
}

// retryPage completes the delivery of page p after a first attempt that
// returned err0: a refused page is retried with backoff until it lands or
// fails permanently, and a landed page has its expected digest recorded.
func (s *Source) retryPage(err0 error, p mem.PFN, payload []byte) error {
	if err0 != nil {
		deliver := func() error { return s.receiveOne(p, payload) }
		if err := s.retryAfter("page-receive", err0, s.advance, deliver); err != nil {
			return err
		}
	}
	s.recordExpected(p, payload)
	return nil
}

// receiveOne makes one delivery attempt of page p through the
// corrupt-page-stream fault site, as a one-page run.
func (s *Source) receiveOne(p mem.PFN, payload []byte) error {
	s.one[0] = p
	payload = s.wirePayload(p, payload)
	s.Cfg.Perf.Enter(perf.StagePageSink)
	_, err := s.sink.ReceivePages(s.one[:], payload)
	s.Cfg.Perf.Exit()
	return err
}

// abortRun finalizes an aborted migration (shared by the pre-copy and lazy
// engines). A plain cancel returns ErrCancelled with the partial report —
// the source VM never stopped running and the destination keeps what it has
// (a re-migration overwrites it). A permanent failure rolls back instead:
// the source resumes if the failure struck while it was paused, the
// destination's half-received memory is discarded — unless
// Recovery.EnableResume asked to keep it for a later Resume and the
// destination did not crash — and the reason lands in the report's recovery
// section. Either way the abort mints a ResumeToken (snapshotted AFTER the
// discard decision, so a discarded image yields a worthless token that
// Resume correctly degrades on).
func (s *Source) abortRun(start time.Duration) (*Report, error) {
	if s.proto != nil {
		s.Cfg.Perf.Enter(perf.StageSuspension)
		s.proto.Aborted()
		s.Cfg.Perf.Exit()
	}
	s.report.TotalTime = s.Clock.Now() - start
	s.emitProgress(ProgressAborted, len(s.report.Iterations), 0, 0, 0)
	if s.failure == nil {
		if s.Cfg.Recovery.EnableResume {
			s.recovery().Token = s.mintResumeToken("cancelled")
		}
		return s.report, ErrCancelled
	}
	if s.Dom.Paused() {
		s.Dom.Unpause()
	}
	keep := s.Cfg.Recovery.EnableResume && !errors.Is(s.failure, ErrDestinationLost)
	if s.Dest != nil && !keep {
		s.Dest.Discard()
	}
	rec := s.recovery()
	rec.Aborted = true
	rec.AbortReason = s.failure.Error()
	rec.Token = s.mintResumeToken(s.failure.Error())
	s.Cfg.Tracer.Emit(obs.TrackMigration, obs.KindAbort, "abort", nil,
		obs.Str("reason", s.failure.Error()), obs.Bool("destination_kept", keep))
	if m := s.Cfg.Metrics; m != nil {
		m.Counter("migration.aborts").Inc()
	}
	return s.report, s.failure
}

// degradeEnabled reports whether a failed suspension handshake downgrades
// the run instead of failing it. Degradation is an explicit part of the
// fault story: without an injector configured the strict
// ErrSuspensionTimeout contract is preserved.
func (s *Source) degradeEnabled() bool {
	return s.Cfg.Faults != nil
}

// degradeToVanilla downgrades a wedged assisted run to vanilla pre-copy
// semantics mid-flight (§4.2): release the guest-side workflow, stop
// consulting the transfer bitmap, and arrange for every page ever skipped
// by application consent — and not sent since — to be transferred after
// all. The caller re-enters the live loop afterwards.
func (s *Source) degradeToVanilla(reason string) {
	deg := &Degradation{From: s.Cfg.Mode, To: ModeVanilla, At: s.Clock.Now(), Reason: reason}
	s.recovery().Degraded = deg
	s.Cfg.Tracer.Emit(obs.TrackMigration, obs.KindDegrade, "degrade-to-"+deg.To.String(), nil,
		obs.Str("from", deg.From.String()), obs.Str("to", deg.To.String()),
		obs.Str("reason", reason))
	if m := s.Cfg.Metrics; m != nil {
		m.Counter("migration.degraded").Inc()
	}
	// Tell the guest the assisted workflow is over — the LKM releases any
	// held applications and resets, exactly as on an abort.
	s.Cfg.Perf.Enter(perf.StageSuspension)
	s.proto.Aborted()
	s.Cfg.Perf.Exit()
	s.proto = nil
	s.skip = pageSkip{}
	s.degradePending = s.skippedEver
	s.skippedEver = nil
}
