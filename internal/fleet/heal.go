package fleet

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"javmm/internal/obs/ledger"
)

// The self-healing layer: when OrchestratorOptions.Retry is enabled, a move
// that fails does not simply land in the outcome table as dead. The
// orchestrator classifies the failure, and either retries the same
// destination (transient — reusing the abort's ResumeToken so only
// dirty ∪ never-received pages resend) or re-selects a destination
// (permanent — the dead host blacklisted, the stale token degrading to a
// clean first copy at the new host by destination binding). Retries carry a
// seeded exponential backoff and are bounded by a per-move attempt budget, a
// per-move deadline and a whole-plan deadline; hosts that keep killing
// migrations trip a circuit breaker and drop out of destination selection
// until a cooldown passes. A plan that exhausts its budgets completes
// partially: every move ends in a typed outcome, failed moves with their
// source VM cleanly resumed. Healing is the orchestrator's general loop:
// with Retry disabled the same loop runs under oneAttempt.

// RetryPolicy bounds the healing layer's persistence. With Enabled false
// the orchestrator runs the one-attempt policy instead: one launch per move,
// no breaker, no relocation, no deadlines.
type RetryPolicy struct {
	// Enabled turns the healing layer on. When set, the engine's
	// Recovery.EnableResume is forced on so failed attempts keep the
	// destination image and mint reusable ResumeTokens.
	Enabled bool
	// MaxAttempts bounds launches per move, first attempt included
	// (default 3).
	MaxAttempts int
	// BaseBackoff/MaxBackoff shape the seeded exponential backoff between
	// attempts: attempt k waits uniformly in [c/2, c] where
	// c = BaseBackoff·2^(k−1) clamped to MaxBackoff (defaults 2 s / 30 s).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Seed feeds the backoff jitter PRNG; move i draws from Seed+i, so a
	// whole healing plan replays byte-identically at the same seed
	// (default 1).
	Seed int64
	// MoveDeadline bounds one move's total healing time, measured from its
	// first launch (default 10 min). A move past it fails instead of
	// retrying.
	MoveDeadline time.Duration
	// PlanDeadline bounds the whole plan, measured from the warmup instant
	// (default 30 min). When it passes, pending relaunches are abandoned and
	// the plan completes partially.
	PlanDeadline time.Duration
	// DisableRelocation pins every retry to its original destination:
	// permanent failures retry the same host (with a clean first copy)
	// instead of re-selecting. The X17 "retry-same" arm runs this.
	DisableRelocation bool
	// Breaker is the per-host circuit breaker policy.
	Breaker BreakerPolicy
}

// noDeadline stands in for an unbounded deadline (about 146 years of
// virtual time, far from overflowing when added to a warmup).
const noDeadline = time.Duration(1 << 62)

// oneAttempt is the policy of a plan without healing.
var oneAttempt = RetryPolicy{
	MaxAttempts:       1,
	DisableRelocation: true,
	MoveDeadline:      noDeadline,
	PlanDeadline:      noDeadline,
	Breaker:           BreakerPolicy{Threshold: -1},
}

func (p *RetryPolicy) fillDefaults() {
	if p.MaxAttempts == 0 {
		p.MaxAttempts = 3
	}
	if p.BaseBackoff == 0 {
		p.BaseBackoff = 2 * time.Second
	}
	if p.MaxBackoff == 0 {
		p.MaxBackoff = 30 * time.Second
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.MoveDeadline == 0 {
		p.MoveDeadline = 10 * time.Minute
	}
	if p.PlanDeadline == 0 {
		p.PlanDeadline = 30 * time.Minute
	}
	p.Breaker.fillDefaults()
}

// BreakerPolicy is the per-host circuit breaker: Threshold failures within
// Window open the host for Cooldown. An open host is excluded from
// destination re-selection and from relaunch grants until the cooldown
// passes. Threshold < 0 disables the breaker.
type BreakerPolicy struct {
	Threshold int
	Window    time.Duration
	Cooldown  time.Duration
}

func (b *BreakerPolicy) fillDefaults() {
	if b.Threshold == 0 {
		b.Threshold = 3
	}
	if b.Window == 0 {
		b.Window = 2 * time.Minute
	}
	if b.Cooldown == 0 {
		b.Cooldown = 5 * time.Minute
	}
}

// String renders the policy in the CLI's K/window/cooldown form
// (ParseBreakerPolicy's inverse).
func (b BreakerPolicy) String() string {
	if b.Threshold < 0 {
		return "off"
	}
	return fmt.Sprintf("%d/%s/%s", b.Threshold, b.Window, b.Cooldown)
}

// ParseBreakerPolicy parses "K/window/cooldown" (e.g. "3/2m/5m"), or "off"
// to disable the breaker.
func ParseBreakerPolicy(s string) (BreakerPolicy, error) {
	if s == "off" {
		return BreakerPolicy{Threshold: -1}, nil
	}
	parts := strings.Split(s, "/")
	if len(parts) != 3 {
		return BreakerPolicy{}, fmt.Errorf("fleet: breaker %q: want K/window/cooldown (e.g. 3/2m/5m) or off", s)
	}
	k, err := strconv.Atoi(parts[0])
	if err != nil || k <= 0 {
		return BreakerPolicy{}, fmt.Errorf("fleet: breaker %q: bad threshold %q", s, parts[0])
	}
	w, err := time.ParseDuration(parts[1])
	if err != nil || w <= 0 {
		return BreakerPolicy{}, fmt.Errorf("fleet: breaker %q: bad window %q", s, parts[1])
	}
	c, err := time.ParseDuration(parts[2])
	if err != nil || c <= 0 {
		return BreakerPolicy{}, fmt.Errorf("fleet: breaker %q: bad cooldown %q", s, parts[2])
	}
	return BreakerPolicy{Threshold: k, Window: w, Cooldown: c}, nil
}

// HostOpenError is the typed error for a relaunch blocked by an open
// circuit breaker: every otherwise-admissible destination is cooling down.
// Until is the earliest instant one of them closes.
type HostOpenError struct {
	Host  string
	Until time.Duration
}

func (e *HostOpenError) Error() string {
	return fmt.Sprintf("fleet: breaker open on host %s until %s", e.Host, e.Until)
}

// MoveOutcome classifies how a move ended under the healing layer.
type MoveOutcome int

// Move outcomes.
const (
	// OutcomePending: the move never reached a terminal state (only seen on
	// results inspected mid-plan).
	OutcomePending MoveOutcome = iota
	// OutcomeCompleted: first attempt succeeded.
	OutcomeCompleted
	// OutcomeRetried: succeeded after ≥1 retry on the original destination.
	OutcomeRetried
	// OutcomeRelocated: succeeded after re-selecting a destination.
	OutcomeRelocated
	// OutcomeFailed: healing budgets exhausted; the source VM was cleanly
	// resumed and keeps running where it is.
	OutcomeFailed
)

// String names the outcome for tables and JSON.
func (o MoveOutcome) String() string {
	switch o {
	case OutcomePending:
		return "pending"
	case OutcomeCompleted:
		return "completed"
	case OutcomeRetried:
		return "retried"
	case OutcomeRelocated:
		return "relocated"
	case OutcomeFailed:
		return "failed"
	}
	return fmt.Sprintf("MoveOutcome(%d)", int(o))
}

// Attempt is one launch of one move: where it went, when, and how it ended.
// The admission verifier re-checks caps against these windows, so every
// relaunch is held to the same policy as a first launch.
type Attempt struct {
	// To/Route are the attempt's destination and path (relocation changes
	// them between attempts).
	To    string
	Route []string
	// StartAt/EndAt bound the attempt on the virtual clock.
	StartAt, EndAt time.Duration
	// Err is the failure, empty on success; Transient whether the healing
	// layer classified it retryable-in-place.
	Err       string
	Transient bool
	// Backoff is the wait scheduled after this attempt (zero on the last).
	Backoff time.Duration
	// TokenReused reports the attempt launched as a Resume from the prior
	// abort's token; SavedBytes/RefetchPages are that resume plan's
	// accounting (zero for a clean Migrate).
	TokenReused  bool
	SavedBytes   uint64
	RefetchPages uint64
}

// hostBreaker tracks per-host failure history. All access happens under the
// cooperative scheduler, so plain maps are race-free.
type hostBreaker struct {
	pol       BreakerPolicy
	failures  map[string][]time.Duration
	openUntil map[string]time.Duration
	opens     int
}

func newHostBreaker(pol BreakerPolicy) *hostBreaker {
	return &hostBreaker{
		pol:       pol,
		failures:  map[string][]time.Duration{},
		openUntil: map[string]time.Duration{},
	}
}

// fail records one migration failure against host at now; it reports whether
// this failure tripped the breaker open.
func (b *hostBreaker) fail(host string, now time.Duration) bool {
	if b.pol.Threshold <= 0 {
		return false
	}
	f := append(b.failures[host], now)
	cut := now - b.pol.Window
	for len(f) > 0 && f[0] < cut {
		f = f[1:]
	}
	b.failures[host] = f
	if len(f) >= b.pol.Threshold {
		b.openUntil[host] = now + b.pol.Cooldown
		b.failures[host] = nil
		b.opens++
		return true
	}
	return false
}

// open reports whether host's breaker is open at now, and until when.
func (b *hostBreaker) open(host string, now time.Duration) (time.Duration, bool) {
	u, ok := b.openUntil[host]
	if !ok || now >= u {
		return 0, false
	}
	return u, true
}

// healState is the orchestrator's shared launch state, mutated only under
// the cooperative scheduler (like inflight).
type healState struct {
	pol RetryPolicy
	// pending: the move wants a (re)launch grant. abandon: the orchestrator
	// gave up on it (deadline); the engine terminalizes it as failed.
	pending, abandon []bool
	// notBefore gates relaunches behind backoff/cooldown waits.
	notBefore []time.Duration
	// attempts counts grants; firstLaunch anchors the move deadline.
	attempts    []int
	firstLaunch []time.Duration
	breaker     *hostBreaker
	// planEnd is the plan deadline instant (warmup + PlanDeadline; the clock
	// starts at zero, so it is static).
	planEnd time.Duration
}

func newHealState(pol RetryPolicy, n int, warmup time.Duration) *healState {
	return &healState{
		pol:         pol,
		pending:     make([]bool, n),
		abandon:     make([]bool, n),
		notBefore:   make([]time.Duration, n),
		attempts:    make([]int, n),
		firstLaunch: make([]time.Duration, n),
		breaker:     newHostBreaker(pol.Breaker),
		planEnd:     warmup + pol.PlanDeadline,
	}
}

// settled reports whether no move can ask for another grant: each one has
// ended, been abandoned, or holds its last allowed attempt.
func (h *healState) settled(moves []MoveResult) bool {
	for i := range moves {
		if moves[i].Outcome == OutcomePending && !h.abandon[i] && h.attempts[i] < h.pol.MaxAttempts {
			return false
		}
	}
	return true
}

// healBackoff is attempt k's backoff draw: uniform in [c/2, c] with
// c = BaseBackoff·2^(k−1) clamped to MaxBackoff — the same shape as the
// engine-level retry backoff, from the move's own seeded PRNG.
func healBackoff(rng *rand.Rand, pol *RetryPolicy, attempt int) time.Duration {
	ceil := pol.BaseBackoff
	for i := 1; i < attempt; i++ {
		ceil *= 2
		if ceil >= pol.MaxBackoff || ceil <= 0 {
			ceil = pol.MaxBackoff
			break
		}
	}
	if ceil > pol.MaxBackoff {
		ceil = pol.MaxBackoff
	}
	half := ceil / 2
	return half + time.Duration(rng.Int63n(int64(half)+1))
}

// pickDestination re-selects a destination for move i after a permanent
// failure on failed: re-run the plan compiler's best-fit over the cluster
// with every other move's (possibly relocated) placement booked, the dead
// host, crash-windowed hosts and breaker-open hosts excluded. When the only
// hosts that would fit are breaker-open, the typed HostOpenError names the
// one that closes first, so the caller can wait out the cooldown instead of
// spinning or giving up early.
func (h *healState) pickDestination(opts *OrchestratorOptions, res *PlanResult,
	moves []Move, i int, failed string, now time.Duration) (string, error) {
	vm := moves[i].VM
	exclude := map[string]bool{vm.Host: true, failed: true, res.Moves[i].To: true}
	var openHosts []string
	for _, host := range opts.Cluster.Hosts {
		if opts.Faults != nil && opts.Faults.HostDown(host.Name) {
			exclude[host.Name] = true
			continue
		}
		if _, open := h.breaker.open(host.Name, now); open {
			exclude[host.Name] = true
			openHosts = append(openHosts, host.Name)
		}
	}
	pl := newPlacement(opts.Cluster)
	for j := range moves {
		if j != i {
			pl.assign(moves[j].VM, res.Moves[j].To)
		}
	}
	dest, err := pl.bestFit(vm, exclude)
	if err == nil {
		return dest, nil
	}
	// No host fits outright — would one of the breaker-open hosts? Surface
	// the earliest-closing one as a typed wait.
	bestHost, bestUntil := "", time.Duration(0)
	for _, hn := range openHosts {
		if hn == vm.Host || hn == failed || pl.freeRAM(hn) < vm.memBytes() {
			continue
		}
		until, _ := h.breaker.open(hn, now)
		if bestHost == "" || until < bestUntil {
			bestHost, bestUntil = hn, until
		}
	}
	if bestHost != "" {
		return "", &HostOpenError{Host: bestHost, Until: bestUntil}
	}
	return "", err
}

// MoveHealing is one move's healing record in the summary.
type MoveHealing struct {
	VM      string `json:"vm"`
	From    string `json:"from"`
	To      string `json:"to"`
	Outcome string `json:"outcome"`
	// Attempts counts launches; Relocations destination re-selections.
	Attempts    int `json:"attempts"`
	Relocations int `json:"relocations"`
	// Backoff is total healing backoff time; TokenSavedBytes the wire bytes
	// token reuse avoided resending; RefetchPages the pages resume plans
	// queued for refetch across all attempts.
	Backoff         time.Duration `json:"backoff_ns"`
	TokenSavedBytes uint64        `json:"token_saved_bytes"`
	RefetchPages    uint64        `json:"refetch_pages"`
	// LedgerResumeSends/Bytes are the ledger's resume-refetch bucket for the
	// VM (zero without the observability plane). Reconciliation:
	// LedgerResumeSends ≤ RefetchPages (assisted-mode bitmap skips and
	// re-dirtied pages may re-classify a queued refetch).
	LedgerResumeSends uint64 `json:"ledger_resume_sends"`
	LedgerResumeBytes uint64 `json:"ledger_resume_bytes"`
	Err               string `json:"err,omitempty"`
}

// HealingSummary is the plan's healing record: what the analyzer's Healing
// table renders and the chaos runner's invariants inspect.
type HealingSummary struct {
	Moves           []MoveHealing `json:"moves"`
	Retries         int           `json:"retries"`
	Relocations     int           `json:"relocations"`
	BreakerOpens    int           `json:"breaker_opens"`
	BackoffTotal    time.Duration `json:"backoff_total_ns"`
	TokenSavedBytes uint64        `json:"token_saved_bytes"`
}

// Healing builds the plan's healing summary from the per-move records (and
// the ledger's resume-refetch buckets when the observability plane ran).
func (r *PlanResult) Healing() *HealingSummary {
	s := &HealingSummary{}
	if r.heal != nil {
		s.BreakerOpens = r.heal.breaker.opens
	}
	ledgers := map[string]*ledger.Ledger{}
	if r.Obs != nil {
		for _, vp := range r.Obs.VMs() {
			ledgers[vp.Name] = vp.Ledger
		}
	}
	for i := range r.Moves {
		m := &r.Moves[i]
		mh := MoveHealing{
			VM: m.Name, From: m.From, To: m.To,
			Outcome:         m.Outcome.String(),
			Attempts:        len(m.Attempts),
			Relocations:     m.Relocations,
			Backoff:         m.HealBackoff,
			TokenSavedBytes: m.TokenSavedBytes,
		}
		for _, a := range m.Attempts {
			mh.RefetchPages += a.RefetchPages
		}
		if m.Err != nil {
			mh.Err = m.Err.Error()
		}
		if led := ledgers[m.Name]; led != nil {
			sum := led.Summary()
			if int(ledger.ReasonResumeRefetch) < len(sum.SendsByReason) {
				rt := sum.SendsByReason[ledger.ReasonResumeRefetch]
				mh.LedgerResumeSends = rt.Count
				mh.LedgerResumeBytes = rt.Bytes
			}
		}
		if n := len(m.Attempts); n > 1 {
			s.Retries += n - 1
		}
		s.Relocations += m.Relocations
		s.BackoffTotal += m.HealBackoff
		s.TokenSavedBytes += m.TokenSavedBytes
		s.Moves = append(s.Moves, mh)
	}
	return s
}

// WriteJSON writes the summary for javmm-analyze -heal.
func (s *HealingSummary) WriteJSON(path string) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadHealingSummary is WriteJSON's inverse.
func ReadHealingSummary(path string) (*HealingSummary, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s := &HealingSummary{}
	if err := json.Unmarshal(b, s); err != nil {
		return nil, fmt.Errorf("fleet: healing summary %s: %w", path, err)
	}
	return s, nil
}
