package chaos

import (
	"fmt"
	"strings"
	"time"

	"javmm/internal/faults"
	"javmm/internal/fleet"
	"javmm/internal/migration"
)

// Fleet-plan chaos: the same seeded fault search, aimed at the batch
// orchestrator instead of a single engine. Each trial executes a small
// evacuation plan with a random fault plan active mid-batch and checks the
// fleet-level invariants: every VM either completes to a verified image or
// aborts cleanly with a resumable token (and the resume converges), the
// admission controller never over-commits a link or destination, and the
// fabric conserves bytes (Orchestrate itself enforces the last one).
// A failing fault plan shrinks to a 1-minimal reproducer, reported as the
// javmm-migrate -cluster/-plan/-fault CLI strings that replay it.

// FleetOptions parameterizes a SearchFleet.
type FleetOptions struct {
	// Plans is the number of seeded fault plans to execute (default 8).
	Plans int
	// Seed is the base seed: trial i uses faults.RandomPlan(Seed+i,
	// planBudget) and runs in mode i mod 4.
	Seed int64
	// DisableIntegrityAudit turns the digest audit off in every trial — the
	// planted invariant bug that proves the fleet search has teeth (an
	// unhealed in-flight corruption then reaches the final image, which the
	// per-move verification must flag). Leave false for real searches.
	DisableIntegrityAudit bool
	// Heal turns on the healing search: fault plans draw host-scoped sites
	// (host.crash, host.flaky) aimed at the trial destinations, trials run
	// with the self-healing layer enabled, and the healing invariants are
	// checked — every move ends in a terminal outcome (completed
	// digest-verified on an admissible host, or failed with the source
	// cleanly resumed), admission caps hold across every retry and
	// relocation, and the whole healing run replays byte-identically at the
	// same seed.
	Heal bool
	// Log, when non-nil, receives progress lines.
	Log func(format string, args ...any)
}

func (o *FleetOptions) fillDefaults() {
	if o.Plans <= 0 {
		o.Plans = 8
	}
}

func (o *FleetOptions) logf(format string, args ...any) {
	if o.Log != nil {
		o.Log(format, args...)
	}
}

// TrialFleetPlan is the batch plan every fleet trial executes.
const TrialFleetPlan = "evacuate host src"

// trialVMs is the trial evacuation's size.
const trialVMs = 2

// trialFleetCluster is the one-line cluster the fleet trials run on:
// trialVMs VMs on one source host, two destinations, the default backbone.
// One line so a violation's reproducer fits on a javmm-migrate command line.
func trialFleetCluster() string {
	s := "host src ram 64G; host d1 ram 64G; host d2 ram 64G"
	for i := 0; i < trialVMs; i++ {
		s += fmt.Sprintf("; vm fv%d on src workload mpeg mem 512M", i)
	}
	return s
}

// trialPolicy serializes the evacuation behind a one-per-link cap, so later
// moves are still in flight deep into the fault-activation window.
var trialPolicy = fleet.AdmissionPolicy{MaxPerLink: 1, MaxPerHost: 1}

// trialFleetWarmup is the trial plans' warmup; short, so the whole batch
// executes inside the fault plans' activation window.
const trialFleetWarmup = 2 * time.Second

// trialFleetHosts is the destination universe healing fault plans aim
// host-scoped rules at.
var trialFleetHosts = []string{"d1", "d2"}

// trialRetry is the healing policy every Heal trial (and its CLI repro)
// runs: backoff and jitter seed stay at the policy defaults so the repro
// flags (-retry/-max-attempts/-move-deadline/-plan-deadline/-breaker) pin
// the run completely. The breaker thresholds are tightened to trial
// timescale so host-crash plans actually exercise open/cooldown transitions.
var trialRetry = fleet.RetryPolicy{
	Enabled:      true,
	MaxAttempts:  3,
	MoveDeadline: 4 * time.Minute,
	PlanDeadline: 10 * time.Minute,
	Breaker:      fleet.BreakerPolicy{Threshold: 2, Window: 30 * time.Second, Cooldown: 5 * time.Second},
}

// FleetViolation is one fleet-invariant breach with its minimal reproducer.
type FleetViolation struct {
	Violation
	// VM names the breaching move (empty for plan-level breaches such as
	// admission over-commit).
	VM string
	// BaseSeed is the search's workload seed (every trial boots with it);
	// AuditDisabled records a search run with the digest audit off; Heal a
	// search run with the self-healing layer enabled.
	BaseSeed      int64
	AuditDisabled bool
	Heal          bool
}

// Repro returns the exact javmm-migrate arguments that replay the shrunk
// fault plan against the trial cluster and batch plan, flag for flag.
func (v *FleetViolation) Repro() []string {
	args := []string{
		"-cluster", trialFleetCluster(),
		"-plan", TrialFleetPlan,
		"-ordering", fleet.OrderAdmission.String(),
		"-mode", v.Mode.String(),
		"-seed", fmt.Sprintf("%d", v.BaseSeed),
		"-warmup", trialFleetWarmup.String(),
		"-max-per-link", fmt.Sprintf("%d", trialPolicy.MaxPerLink),
		"-max-per-host", fmt.Sprintf("%d", trialPolicy.MaxPerHost),
		"-resume=true",
	}
	if v.AuditDisabled {
		args = append(args, "-verify=false")
	}
	if v.Heal {
		args = append(args,
			"-retry",
			"-max-attempts", fmt.Sprintf("%d", trialRetry.MaxAttempts),
			"-move-deadline", trialRetry.MoveDeadline.String(),
			"-plan-deadline", trialRetry.PlanDeadline.String(),
			"-breaker", trialRetry.Breaker.String(),
		)
	}
	for _, r := range v.Shrunk {
		args = append(args, "-fault", r.String())
	}
	return args
}

// FleetResult summarizes one SearchFleet.
type FleetResult struct {
	// PlansRun counts executed trials (stops early at the first violation).
	PlansRun int
	// Violation is the first breach found, already shrunk; nil when every
	// trial upheld the invariants.
	Violation *FleetViolation
}

// SearchFleet executes opts.Plans seeded fleet trials and returns the first
// shrunk violation, if any. Same options, same outcome.
func SearchFleet(opts FleetOptions) *FleetResult {
	opts.fillDefaults()
	res := &FleetResult{}
	for i := 0; i < opts.Plans; i++ {
		seed := opts.Seed + int64(i)
		mode := modes[i%len(modes)]
		var plan faults.Plan
		if opts.Heal {
			plan = faults.RandomPlanHosts(seed, planBudget, trialFleetHosts)
		} else {
			plan = faults.RandomPlan(seed, planBudget)
		}
		res.PlansRun++
		inv, detail, vm := runFleetTrial(&opts, mode, plan)
		if inv == "" {
			continue
		}
		opts.logf("chaos: fleet seed %d (%s): %s: %s — shrinking %d rules",
			seed, mode, inv, detail, len(plan))
		res.Violation = &FleetViolation{
			Violation: Violation{
				Seed: seed, Mode: mode,
				Invariant: inv, Detail: detail,
				Plan: plan, Shrunk: shrinkFleet(&opts, mode, plan),
			},
			VM:       vm,
			BaseSeed: opts.Seed, AuditDisabled: opts.DisableIntegrityAudit,
			Heal: opts.Heal,
		}
		return res
	}
	return res
}

// shrinkFleet greedily removes one fault rule at a time while the fleet
// trial still violates some invariant, yielding a 1-minimal reproducer.
func shrinkFleet(opts *FleetOptions, mode migration.Mode, plan faults.Plan) faults.Plan {
	cur := plan
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(cur); i++ {
			if len(cur) == 1 {
				break
			}
			cand := make(faults.Plan, 0, len(cur)-1)
			cand = append(cand, cur[:i]...)
			cand = append(cand, cur[i+1:]...)
			if inv, _, _ := runFleetTrial(opts, mode, cand); inv != "" {
				cur = cand
				changed = true
				break
			}
		}
	}
	return cur
}

// runFleetOrch executes the trial evacuation once.
func runFleetOrch(opts *FleetOptions, mode migration.Mode, plan faults.Plan) (*fleet.PlanResult, error) {
	cluster, err := fleet.ParseCluster(trialFleetCluster())
	if err != nil {
		return nil, fmt.Errorf("trial-setup: %w", err)
	}
	batch, err := fleet.ParseMigrationPlan(TrialFleetPlan)
	if err != nil {
		return nil, fmt.Errorf("trial-setup: %w", err)
	}
	oo := fleet.OrchestratorOptions{
		Cluster:   cluster,
		Plan:      batch,
		Mode:      mode,
		Seed:      opts.Seed,
		Ordering:  fleet.OrderAdmission,
		Admission: trialPolicy,
		Warmup:    trialFleetWarmup,
		FaultPlan: plan,
	}
	if opts.Heal {
		oo.Retry = trialRetry
	}
	oo.Engine.Recovery.EnableResume = true
	oo.Engine.Integrity.Disable = opts.DisableIntegrityAudit
	return fleet.Orchestrate(oo)
}

// fleetFingerprint reduces a plan result to a replay-comparable string:
// every scheduling decision, attempt window, outcome and healing byte count
// lands in it, so two runs of the same seed must produce the same string.
func fleetFingerprint(res *fleet.PlanResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "makespan=%d\n", res.MakeSpan)
	for i := range res.Moves {
		m := &res.Moves[i]
		fmt.Fprintf(&b, "%s to=%s outcome=%s start=%d end=%d launched=%d defer=%d reloc=%d backoff=%d saved=%d err=%v\n",
			m.Name, m.To, m.Outcome, m.StartAt, m.EndAt, m.LaunchedAt,
			m.Deferrals, m.Relocations, m.HealBackoff, m.TokenSavedBytes, m.Err)
		for _, a := range m.Attempts {
			fmt.Fprintf(&b, "  attempt to=%s start=%d end=%d backoff=%d reuse=%v saved=%d refetch=%d err=%s\n",
				a.To, a.StartAt, a.EndAt, a.Backoff, a.TokenReused, a.SavedBytes, a.RefetchPages, a.Err)
		}
	}
	return b.String()
}

// runFleetTrial executes one evacuation under the fault plan and checks the
// fleet invariants. Returns ("", "", "") when every invariant holds, else
// the breached invariant, a detail line, and the breaching VM (if any).
func runFleetTrial(opts *FleetOptions, mode migration.Mode, plan faults.Plan) (string, string, string) {
	res, err := runFleetOrch(opts, mode, plan)
	if err != nil {
		// Orchestrate only fails outright on setup errors or a fabric
		// byte-conservation breach; under an arbitrary fault plan both are
		// invariant violations.
		return "plan-failed", err.Error(), ""
	}

	// Invariant: the admission controller never over-committed a link's or
	// destination's cap, faults or no faults — and with healing enabled,
	// every retry and relocation attempt is held to the same caps.
	if err := fleet.VerifyAdmission(res.Moves, trialPolicy); err != nil {
		return "admission-overcommit", err.Error(), ""
	}

	if opts.Heal {
		// Invariant: the same seed replays byte-identically, healing
		// decisions (backoff draws, relocations, breaker trips) included.
		res2, err2 := runFleetOrch(opts, mode, plan)
		if err2 != nil {
			return "replay-diverged", fmt.Sprintf("replay failed outright: %v", err2), ""
		}
		if a, b := fleetFingerprint(res), fleetFingerprint(res2); a != b {
			return "replay-diverged", fmt.Sprintf("fingerprints differ:\n--- run1\n%s--- run2\n%s", a, b), ""
		}
		return checkHealTrial(res)
	}

	for i := range res.Moves {
		m := &res.Moves[i]
		// Invariant: whatever happened, every launched move has a report.
		if m.Report == nil {
			return "report-missing",
				fmt.Sprintf("move %s finished with neither report nor outcome (err: %v)", m.Name, m.Err), m.Name
		}
		if m.Err != nil {
			// Invariant: aborts are clean — recovery metadata names the
			// reason and minted a resume token.
			rec := m.Report.Recovery
			if rec == nil || !rec.Aborted || rec.AbortReason == "" {
				return "abort-metadata",
					fmt.Sprintf("move %s aborted (%v) without recovery metadata", m.Name, m.Err), m.Name
			}
			if rec.Token == nil {
				return "abort-metadata",
					fmt.Sprintf("move %s: resumable abort (%v) minted no token", m.Name, m.Err), m.Name
			}
			// Invariant: the aborted move resumes (fault plane detached) to
			// a verified completion.
			if _, rerr := res.ResumeAborted(i); rerr != nil {
				return "resume-diverged",
					fmt.Sprintf("move %s: %v", m.Name, rerr), m.Name
			}
			continue
		}
		// Invariant: a completed pre-copy move's image verified at the
		// completion instant.
		if m.VerifyErr != nil {
			return "image-diverged",
				fmt.Sprintf("move %s completed but: %v", m.Name, m.VerifyErr), m.Name
		}
		// Invariant: a completed run healed every mismatch it detected.
		if ic := m.Report.Integrity; ic != nil && ic.Repairs != ic.Mismatches {
			return "unhealed-mismatch",
				fmt.Sprintf("move %s completed with %d repairs for %d mismatches", m.Name, ic.Repairs, ic.Mismatches), m.Name
		}
	}
	return "", "", ""
}

// checkHealTrial verifies the healing invariants over a completed plan:
// every planned move reached a terminal outcome; successful outcomes are
// digest-verified images on an admissible destination (never the evacuated
// host); failed outcomes left the source VM cleanly resumed and — when an
// attempt actually aborted — carry clean recovery metadata and a token a
// post-plan operator resume completes from.
func checkHealTrial(res *fleet.PlanResult) (string, string, string) {
	for i := range res.Moves {
		m := &res.Moves[i]
		switch m.Outcome {
		case fleet.OutcomeCompleted, fleet.OutcomeRetried, fleet.OutcomeRelocated:
			if m.Err != nil {
				return "healed-outcome",
					fmt.Sprintf("move %s outcome %s yet err: %v", m.Name, m.Outcome, m.Err), m.Name
			}
			if m.Report == nil {
				return "healed-outcome",
					fmt.Sprintf("move %s outcome %s without a report", m.Name, m.Outcome), m.Name
			}
			if m.VerifyErr != nil {
				return "image-diverged",
					fmt.Sprintf("move %s (%s) completed but: %v", m.Name, m.Outcome, m.VerifyErr), m.Name
			}
			if m.To == m.From || m.To == "src" {
				return "healed-outcome",
					fmt.Sprintf("move %s landed on inadmissible host %s", m.Name, m.To), m.Name
			}
			if (m.Outcome == fleet.OutcomeRelocated) != (m.Relocations > 0) {
				return "healed-outcome",
					fmt.Sprintf("move %s outcome %s with %d relocations", m.Name, m.Outcome, m.Relocations), m.Name
			}
		case fleet.OutcomeFailed:
			if m.Err == nil {
				return "healed-outcome",
					fmt.Sprintf("move %s failed without an error", m.Name), m.Name
			}
			// The paper's contract survives healing: a failed migration
			// leaves the source VM running where it was.
			if !m.SourceRunning() {
				return "source-not-resumed",
					fmt.Sprintf("move %s failed (%v) with its source still paused", m.Name, m.Err), m.Name
			}
			if m.Report == nil {
				continue // abandoned before its first attempt: nothing aborted
			}
			rec := m.Report.Recovery
			if rec == nil || !rec.Aborted || rec.AbortReason == "" || rec.Token == nil {
				return "abort-metadata",
					fmt.Sprintf("move %s failed (%v) without clean recovery metadata", m.Name, m.Err), m.Name
			}
			if _, rerr := res.ResumeAborted(i); rerr != nil {
				return "resume-diverged",
					fmt.Sprintf("move %s: %v", m.Name, rerr), m.Name
			}
		default:
			return "healed-outcome",
				fmt.Sprintf("move %s ended without a terminal outcome (%s)", m.Name, m.Outcome), m.Name
		}
	}
	return "", "", ""
}
