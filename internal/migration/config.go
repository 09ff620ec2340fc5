package migration

import (
	"time"

	"javmm/internal/faults"
	"javmm/internal/mem"
	"javmm/internal/obs"
	"javmm/internal/obs/ledger"
	"javmm/internal/obs/perf"
)

// GuestExecutor runs guest activity for a span of virtual time. The
// implementation must advance the source clock by exactly d, performing the
// guest's memory writes, GCs and op completions along the way. This is the
// interleaving that races the guest's dirtying rate against the migration
// link (Figure 1).
type GuestExecutor interface {
	Run(d time.Duration)
}

// Throttleable is optionally implemented by executors that support Clark-
// style write throttling (paper §2: slow down dirtying by stalling write-
// heavy processes). Factor 1.0 is full speed.
type Throttleable interface {
	SetThrottle(factor float64)
}

// Config tunes the engine. The zero value plus FillDefaults matches the
// paper's testbed: Xen defaults over gigabit Ethernet.
type Config struct {
	Mode Mode

	// MaxIterations forces stop-and-copy after this many live iterations
	// (Xen default 30, the cap the paper's Figure 8(a) run hits).
	MaxIterations int
	// DirtyPageThreshold enters stop-and-copy once the pending dirty set
	// (intersected with the transfer bitmap) is at most this many pages
	// (Xen uses 50).
	DirtyPageThreshold uint64
	// MaxTrafficFactor aborts pre-copy once total traffic exceeds this
	// multiple of VM memory. Xen's xc_domain_save default is 3; zero
	// selects that default and a negative value disables the cap.
	MaxTrafficFactor float64
	// ChunkPages is the transfer granularity at which the engine
	// interleaves guest execution with page pushes. Default 1024 pages
	// (4 MiB ≈ 34 ms on gigabit).
	ChunkPages uint64
	// ResumptionTime models reconnecting devices and activating the VM at
	// the destination; the paper measures ~170 ms (§5.3).
	ResumptionTime time.Duration

	// PageExamineCost and PageCopyCost model the daemon's CPU time per
	// page considered and per page actually sent; used for the §5.3 CPU
	// comparison (X1).
	PageExamineCost time.Duration
	PageCopyCost    time.Duration

	// Compress enables the §6 extension: pages that are not skipped are
	// compressed before transmission. CompressionRatio is the modelled
	// wire-size factor in (0,1]; CompressCostPerPage is daemon CPU per
	// compressed page.
	Compress            bool
	CompressionRatio    float64
	CompressCostPerPage time.Duration

	// DeltaCompression enables the XBZRLE-style baseline of Svärd et al.
	// (paper §2): the daemon keeps a cache of previously-sent pages and
	// transmits only the delta when a page is resent. Attacks exactly the
	// repeated-resend problem JAVMM removes at the source — ablation X13
	// compares them. DeltaRatio is the modelled wire factor for a resend
	// (default 0.15); DeltaCostPerPage is the daemon CPU per delta encode.
	// Report.DeltaCacheBytes carries the daemon-side cache cost (one full
	// page copy per VM page).
	DeltaCompression bool
	DeltaRatio       float64
	DeltaCostPerPage time.Duration

	// HintedCompression refines Compress with the per-page hints the LKM
	// collects from applications (§6: "multiple bits per VM memory page to
	// indicate the suitable compression methods"). Requires Source.HintFor.
	// Hinted-strong pages compress harder, hinted-none pages go raw with
	// zero CPU.
	HintedCompression bool

	// ThrottleFactor, if in (0,1), applies Clark-style write throttling to
	// the guest while migration cannot keep up with dirtying (baseline of
	// paper §2).
	ThrottleFactor float64

	// IdleQuantum paces the engine's waiting loop while the LKM prepares
	// applications for suspension.
	IdleQuantum time.Duration

	// SuspensionBackstop bounds the engine-side wait for the guest to
	// become suspension-ready after the prepare notification. The LKM's own
	// PrepareTimeout normally resolves stragglers first; this is the hard
	// backstop against a misconfigured (disabled) timeout. Default one
	// minute.
	SuspensionBackstop time.Duration

	// HybridWarmIterations is the number of pre-copy warm rounds a
	// ModeHybrid migration runs before the post-copy switchover (default 3:
	// one full pass plus two dirty rounds).
	HybridWarmIterations int

	// ConservativeLastIter makes the stop-and-copy iteration consider
	// every page dirtied at any point during migration, not just the
	// final round. Required when the LKM runs its full-rewalk final
	// update (guestos.LKMConfig.FinalUpdateRewalk), which learns about
	// shrunk skip-over areas only at the end (paper §3.3.4, the deferred
	// alternative design).
	ConservativeLastIter bool

	// OnProgress, if non-nil, receives the live progress stream: a typed
	// Progress point at every lifecycle transition (start, each pre-copy
	// round, prepare, stop-and-copy, post-copy switchover, done/aborted)
	// carrying cumulative pages/bytes, the outstanding estimate, observed
	// dirty/transfer rates and the clamped ETA. With a Tracer configured it
	// rides the event bus (obs.KindProgress instants), so it sees exactly
	// what every other subscriber sees. Per-iteration statistics reach
	// callers only as a bus subscription to obs.KindIterationStats events.
	OnProgress func(Progress)

	// Tracer, if non-nil, receives the engine's structured trace: a span
	// per migration run, per iteration and per page-chunk push, the
	// pre-suspension handshake, the final bitmap update, suspension and
	// resumption, and an instant event per completed iteration carrying
	// IterationStats as its Data payload. All timestamps are virtual.
	Tracer *obs.Tracer

	// Metrics, if non-nil, accumulates the engine's counters
	// (migration.pages_examined, .pages_sent, .pages_skipped_*,
	// .bytes_on_wire, ...). The totals reconcile exactly with the Report of
	// the same run.
	Metrics *obs.Metrics

	// Ledger, if non-nil, records per-page provenance: every page push is
	// tagged with its iteration, wire bytes and send class, and every skip
	// with its reason. The engine calls Begin on it when migration starts,
	// so the ledger always describes the most recent run; its totals
	// reconcile exactly with the Report (attrib.Build checks this).
	Ledger *ledger.Ledger

	// Perf, if non-nil, is the real-clock stage profiler: every bound stage
	// is wrapped so its wall time and allocations are attributed to the
	// perf.Stage taxonomy (see perfstages.go). Unlike Tracer/Metrics/Ledger,
	// which run on the virtual clock and are part of the deterministic
	// contract, Perf measures the simulator itself and MUST NOT change any
	// report — the bench harness asserts that transparency every run.
	Perf *perf.Profiler

	// SkipFreePages enables the OS-assisted baseline of Koto et al.
	// (paper §1/§2): pages the guest kernel holds on its free list are not
	// transferred. Requires Source.GuestFree. The paper's assessment —
	// "skipping free pages may only benefit the migration of
	// lightly-loaded VMs" — is what ablation X12 measures.
	SkipFreePages bool

	// CancelAfter aborts the migration once it has run for this much
	// virtual time without reaching stop-and-copy. Pre-copy is naturally
	// abortable: the source VM has kept running throughout, so an abort
	// just tears down dirty tracking and tells the guest the migration is
	// over. Zero disables the deadline.
	CancelAfter time.Duration
	// ShouldCancel, if non-nil, is polled at chunk boundaries; returning
	// true aborts like CancelAfter.
	ShouldCancel func() bool

	// Faults, if non-nil, is the fault-injection plane consulted by the
	// engine's own injection sites (destination receive/crash, post-copy
	// fetch). The engine arms it (Begin) when migration starts, so rule
	// times are relative to migration start. The link, netlink bus and LKM
	// each carry their own reference to the same injector.
	Faults *faults.Injector

	// Recovery tunes the engine's robustness layer: retry/backoff on
	// transient stage failures, the per-stage deadline, and the handshake
	// degradation switch. The zero value plus FillDefaults is the paper-
	// plausible policy (retry for a few seconds, then abort cleanly).
	Recovery Recovery

	// Integrity tunes the end-to-end page-integrity plane: every transfer is
	// digested at both ends and switchover audits the destination's table
	// against the source's expectation, repairing mismatches by bounded
	// re-fetch. On by default (zero value); Disable exists for ablation and
	// for the chaos harness's planted-bug mode.
	Integrity Integrity
}

// Integrity is the end-to-end verification policy.
type Integrity struct {
	// Disable turns the switchover digest audit (and post-copy per-fetch
	// verification) off. Transfers are still digested — the ResumeToken
	// needs the table — but mismatches go undetected, exactly the failure
	// mode the chaos search plants to prove it can find invariant bugs.
	Disable bool
	// MaxRepairRounds bounds the audit's repair loop: each round re-fetches
	// every mismatched page and re-audits. Exhausting the budget aborts the
	// run with ErrIntegrity (default 3).
	MaxRepairRounds int
}

// fillDefaults populates the unset integrity knobs.
func (i *Integrity) fillDefaults() {
	if i.MaxRepairRounds == 0 {
		i.MaxRepairRounds = 3
	}
}

// Recovery is the engine's failure policy. Backoff is exponential with
// seeded jitter: attempt k waits a uniformly random duration in
// [base·2ᵏ⁻¹/2, base·2ᵏ⁻¹], capped at MaxBackoff, drawn from a PRNG seeded
// with Seed — fully deterministic under the virtual clock.
type Recovery struct {
	// MaxRetries bounds the re-attempts of one failed stage operation
	// (default 10; with the default backoff that is ≈6.5s of cumulative
	// waiting, enough to ride out a short partition).
	MaxRetries int
	// BaseBackoff is the first retry's backoff ceiling (default 10ms).
	BaseBackoff time.Duration
	// MaxBackoff caps a single backoff (default 2s).
	MaxBackoff time.Duration
	// StageDeadline bounds the total virtual time one stage operation may
	// spend failing and backing off before the run aborts (default 60s).
	StageDeadline time.Duration
	// Seed seeds the jitter PRNG (default 1). Different seeds produce
	// different backoff schedules; the same seed reproduces the run
	// byte-for-byte.
	Seed int64
	// DisableDegrade keeps a ModeAppAssisted run from downgrading to
	// vanilla pre-copy when the suspension handshake times out: the run
	// fails with ErrSuspensionTimeout instead. Degradation is only
	// considered when Config.Faults is set, so fault-free runs keep the
	// strict timeout contract either way.
	DisableDegrade bool
	// EnableResume keeps the destination's partially-received image alive
	// across a failed run instead of discarding it, so the ResumeToken
	// minted by the abort can seed a cheaper Source.Resume. A destination
	// that crashed (ErrDestinationLost) is still discarded — its image
	// cannot be trusted and resume degrades to a full first copy.
	EnableResume bool
}

// fillDefaults populates the unset recovery knobs.
func (r *Recovery) fillDefaults() {
	if r.MaxRetries == 0 {
		r.MaxRetries = 10
	}
	if r.BaseBackoff == 0 {
		r.BaseBackoff = 10 * time.Millisecond
	}
	if r.MaxBackoff == 0 {
		r.MaxBackoff = 2 * time.Second
	}
	if r.StageDeadline == 0 {
		r.StageDeadline = 60 * time.Second
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
}

// FillDefaults populates unset fields with the paper's testbed defaults.
func (c *Config) FillDefaults() {
	if c.MaxIterations == 0 {
		c.MaxIterations = 30
	}
	if c.DirtyPageThreshold == 0 {
		c.DirtyPageThreshold = 50
	}
	if c.MaxTrafficFactor == 0 {
		c.MaxTrafficFactor = 3.0
	}
	if c.ChunkPages == 0 {
		c.ChunkPages = 1024
	}
	if c.ResumptionTime == 0 {
		c.ResumptionTime = 170 * time.Millisecond
	}
	if c.PageExamineCost == 0 {
		c.PageExamineCost = 200 * time.Nanosecond
	}
	if c.PageCopyCost == 0 {
		c.PageCopyCost = 2 * time.Microsecond
	}
	if c.Compress && c.CompressionRatio == 0 {
		c.CompressionRatio = 0.45
	}
	if c.Compress && c.CompressCostPerPage == 0 {
		c.CompressCostPerPage = 8 * time.Microsecond
	}
	if c.DeltaCompression && c.DeltaRatio == 0 {
		c.DeltaRatio = 0.15
	}
	if c.DeltaCompression && c.DeltaCostPerPage == 0 {
		c.DeltaCostPerPage = 5 * time.Microsecond
	}
	if c.IdleQuantum == 0 {
		c.IdleQuantum = time.Millisecond
	}
	if c.SuspensionBackstop == 0 {
		c.SuspensionBackstop = time.Minute
	}
	if c.HybridWarmIterations == 0 {
		c.HybridWarmIterations = 3
	}
	c.Recovery.fillDefaults()
	c.Integrity.fillDefaults()
}

// IterationStats describes one migration iteration — the boxes of Figure 8
// and the stacked bars of Figure 9.
type IterationStats struct {
	Index    int
	Start    time.Duration // virtual time at iteration start
	Duration time.Duration
	Last     bool // the stop-and-copy iteration

	PagesConsidered    uint64 // size of the round's to-send set
	PagesSent          uint64
	BytesOnWire        uint64
	PagesSkippedDirty  uint64 // re-dirtied mid-round, deferred to next round
	PagesSkippedBitmap uint64 // transfer bit cleared (e.g. young gen)
	PagesSkippedFree   uint64 // on the guest's free list (SkipFreePages)
	PagesDirtiedDuring uint64 // new dirtying while this iteration ran
}

// TransferRate returns the iteration's payload rate in bytes/sec.
func (s IterationStats) TransferRate() float64 {
	if s.Duration <= 0 {
		return 0
	}
	return float64(s.BytesOnWire) / s.Duration.Seconds()
}

// DirtyRate returns the guest dirtying rate during the iteration in
// pages/sec.
func (s IterationStats) DirtyRate() float64 {
	if s.Duration <= 0 {
		return 0
	}
	return float64(s.PagesDirtiedDuring) / s.Duration.Seconds()
}

// Report is the outcome of one migration.
type Report struct {
	Mode       Mode
	Iterations []IterationStats

	TotalTime   time.Duration // migrate start to VM active at destination
	VMDowntime  time.Duration // VM paused (stop-and-copy + resumption)
	PrepareWait time.Duration // LKM prepare handshake (safepoint + GC wait)
	FinalUpdate time.Duration // final transfer bitmap update (downtime part)
	Resumption  time.Duration

	TotalPagesSent uint64
	LastIterBytes  uint64

	// DeltaResends counts pages sent as deltas and DeltaCacheBytes the
	// daemon-side page cache cost (DeltaCompression runs only).
	DeltaResends    uint64
	DeltaCacheBytes uint64
	CPUTime         time.Duration // daemon CPU model (X1)
	Fallbacks       int           // apps that timed out during prepare

	// FinalTransfer is the transfer bitmap snapshot at VM pause: set bits
	// are the pages the destination must have faithfully. Vanilla
	// migrations have every bit set.
	FinalTransfer *mem.Bitmap

	// PostCopy is set for runs with a post-copy phase (ModePostCopy,
	// ModeHybrid). Post-copy semantics differ: the domain's memory IS the
	// destination memory after switchover, so Dest.Store is a transport
	// record and the correctness invariant is "every page became
	// resident", not store equality.
	PostCopy *PostCopyStats

	// Recovery is set when the robustness layer acted: retries performed,
	// a mid-flight degradation, or a clean abort. Fault-free runs leave it
	// nil, so existing reports are unchanged byte for byte.
	Recovery *RecoveryStats

	// Integrity is the switchover digest audit's account: pages audited,
	// mismatches found and repaired. Set whenever the audit ran (nil when
	// the sink carries no digests, the audit is disabled, or the run aborted
	// before switchover).
	Integrity *IntegrityStats

	// Resume is set on runs started by Source.Resume: how much of the
	// token's destination state was trusted and how much had to move again.
	Resume *ResumeStats
}

// IntegrityStats is the Report's account of the end-to-end digest audit.
type IntegrityStats struct {
	// PagesAudited is how many destination pages the switchover audit
	// checked against the source's expectation.
	PagesAudited uint64
	// AuditRounds is how many audit passes ran (1 on a clean run; one extra
	// per repair round).
	AuditRounds int
	// Mismatches counts digest mismatches detected across all rounds.
	Mismatches uint64
	// Repairs counts pages re-fetched to heal a mismatch; RepairBytes their
	// wire traffic (also folded into the stop-and-copy iteration, so totals
	// still reconcile).
	Repairs     uint64
	RepairBytes uint64
	// RollingDigest is the destination's receive-sequence summary at the
	// time the audit passed.
	RollingDigest uint64
}

// ResumeStats is the Report's account of what a resumed run reused.
type ResumeStats struct {
	// TrustedPages were proven intact at the destination (received, digest
	// match, not dirtied since the token's epoch) and not re-sent.
	TrustedPages uint64
	// RefetchPages were queued for transfer because the token could not
	// vouch for them (dirtied since the epoch, digest mismatch, or never
	// received); the ledger tags their sends resume-refetch.
	RefetchPages uint64
	// SavedBytes is the raw first-copy volume the trusted pages avoided.
	SavedBytes uint64
	// FullFirstCopy is true when the token could not be trusted at all
	// (stale generation, crashed destination, lost dirty epoch) and the run
	// degraded to a from-scratch first copy.
	FullFirstCopy bool
	// Reason explains the trust decision in one phrase.
	Reason string
	// TokenEpoch is the dirty epoch the token carried.
	TokenEpoch uint64
}

// RecoveryStats is the Report's account of the robustness layer's work.
// Slices (not maps) keep reports deterministically comparable.
type RecoveryStats struct {
	// Retries lists every backed-off re-attempt, in order.
	Retries []RetryRecord
	// BackoffTotal is the virtual time spent waiting between attempts.
	BackoffTotal time.Duration
	// Degraded is set when the run downgraded mid-flight (assisted pre-copy
	// falling back to vanilla semantics after a failed handshake).
	Degraded *Degradation
	// Aborted is true when the run failed and rolled back: source resumed,
	// destination discarded (or, with Recovery.EnableResume, kept for a
	// later Resume).
	Aborted     bool
	AbortReason string
	// Token is the resume credential minted by the abort (EnableResume
	// runs, and cancellations, which always leave the destination intact).
	Token *ResumeToken
}

// RetryRecord is one backed-off re-attempt of a failed stage operation.
type RetryRecord struct {
	Stage   string        // which operation failed (chunk-send, page-receive, ...)
	Attempt int           // 1-based attempt number being retried
	At      time.Duration // virtual time the backoff started
	Backoff time.Duration
	Err     string // the error that triggered the retry
}

// Degradation records a mid-flight downgrade (paper §4.2's non-responsive
// contingency: a wedged JVM/LKM handshake must not wedge the migration).
type Degradation struct {
	From   Mode
	To     Mode
	At     time.Duration // virtual time of the downgrade
	Reason string
}

// EffectiveMode returns the semantics the migration actually completed
// with: the requested mode, unless the run degraded mid-flight. Downtime
// attribution keys on this — a degraded run's enforced GC is not charged as
// assisted-migration downtime because the migration finished with vanilla
// semantics.
func (r *Report) EffectiveMode() Mode {
	if r.Recovery != nil && r.Recovery.Degraded != nil {
		return r.Recovery.Degraded.To
	}
	return r.Mode
}

// TotalBytes returns the migration's total payload traffic.
func (r *Report) TotalBytes() uint64 {
	var t uint64
	for _, it := range r.Iterations {
		t += it.BytesOnWire
	}
	return t
}

// LiveIterations returns the number of pre-copy iterations (excluding
// stop-and-copy).
func (r *Report) LiveIterations() int {
	n := 0
	for _, it := range r.Iterations {
		if !it.Last {
			n++
		}
	}
	return n
}
