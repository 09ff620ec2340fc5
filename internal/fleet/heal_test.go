package fleet

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"javmm/internal/faults"
	"javmm/internal/migration"
)

// Healing-layer tests: host crashes relocate, persistent crashes exhaust
// cleanly, deadlines bound the healing budget, the breaker gates
// re-selection without spinning, and the whole healing schedule replays
// byte-identically at the same seed in every mode.

const healClusterSpec = "host src ram 64G; host d1 ram 64G; host d2 ram 64G; " +
	"vm fv0 on src workload mpeg mem 512M"

func healOrchOptions(t *testing.T, spec string, plan faults.Plan) OrchestratorOptions {
	t.Helper()
	c, err := ParseCluster(spec)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	batch, err := ParseMigrationPlan("evacuate host src")
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	return OrchestratorOptions{
		Cluster:   c,
		Plan:      batch,
		Mode:      migration.ModeVanilla,
		Seed:      1,
		Ordering:  OrderAdmission,
		Admission: AdmissionPolicy{MaxPerLink: 1, MaxPerHost: 1},
		Warmup:    2 * time.Second,
		FaultPlan: plan,
		Retry:     RetryPolicy{Enabled: true},
	}
}

// A destination host that dies before the first page lands forces a
// permanent failure; the healing layer must re-select the surviving host,
// degrade the stale token to a clean first copy there (destination
// binding), and finish digest-verified.
func TestHealRelocatesAroundHostCrash(t *testing.T) {
	opts := healOrchOptions(t, healClusterSpec, faults.Plan{
		{Site: faults.SiteHostCrash, For: 10 * time.Minute, Host: "d1"},
	})
	res, err := Orchestrate(opts)
	if err != nil {
		t.Fatalf("orchestrate: %v", err)
	}
	m := &res.Moves[0]
	if m.Err != nil || m.VerifyErr != nil {
		t.Fatalf("move failed: err=%v verify=%v", m.Err, m.VerifyErr)
	}
	if m.Outcome != OutcomeRelocated || m.To != "d2" || m.Relocations != 1 {
		t.Fatalf("outcome=%s to=%s relocations=%d, want relocated to d2", m.Outcome, m.To, m.Relocations)
	}
	if len(m.Attempts) != 2 || m.Attempts[0].To != "d1" || m.Attempts[1].To != "d2" {
		t.Fatalf("attempts = %+v, want d1 then d2", m.Attempts)
	}
	if m.Attempts[0].Transient {
		t.Fatalf("first attempt should be classified permanent: %+v", m.Attempts[0])
	}
	// The token minted at d1 must not be honoured at d2: destination
	// binding degrades it to a full first copy.
	if m.Report.Resume == nil || !m.Report.Resume.FullFirstCopy ||
		!strings.Contains(m.Report.Resume.Reason, "different destination") {
		t.Fatalf("resume plan = %+v, want full first copy, token bound to a different destination", m.Report.Resume)
	}
	if err := VerifyAdmission(res.Moves, opts.Admission); err != nil {
		t.Fatalf("admission across attempts: %v", err)
	}
}

// With relocation disabled, a persistent host crash exhausts the attempt
// budget: every retry re-arms the crash window, so the move fails cleanly
// with its source resumed.
func TestHealRetrySameExhaustsOnPersistentCrash(t *testing.T) {
	opts := healOrchOptions(t, healClusterSpec, faults.Plan{
		{Site: faults.SiteHostCrash, For: 10 * time.Minute, Host: "d1"},
	})
	opts.Retry.DisableRelocation = true
	res, err := Orchestrate(opts)
	if err != nil {
		t.Fatalf("orchestrate: %v", err)
	}
	m := &res.Moves[0]
	if m.Outcome != OutcomeFailed {
		t.Fatalf("outcome = %s, want failed", m.Outcome)
	}
	if len(m.Attempts) != 3 {
		t.Fatalf("attempts = %d, want MaxAttempts default 3", len(m.Attempts))
	}
	for _, a := range m.Attempts {
		if a.To != "d1" {
			t.Fatalf("retry-same attempt went to %s", a.To)
		}
	}
	if m.Err == nil || !strings.Contains(m.Err.Error(), "attempts exhausted") {
		t.Fatalf("err = %v, want attempts exhausted", m.Err)
	}
	if !m.SourceRunning() {
		t.Fatal("failed move left its source paused")
	}
	if m.HealBackoff <= 0 {
		t.Fatalf("no healing backoff recorded across %d attempts", len(m.Attempts))
	}
}

// A plan deadline bounds healing: with the attempt budget raised far above
// what the deadline allows, the exponential backoff walks past the plan
// deadline first and the move fails with a deadline error. (Deadlines apply
// at scheduling points — a fail-fast host crash gives the healer one every
// backoff interval; a stalling fault like a long partition is only observed
// once the in-flight attempt returns.)
func TestHealPlanDeadlineBoundsRetries(t *testing.T) {
	opts := healOrchOptions(t, healClusterSpec, faults.Plan{
		{Site: faults.SiteHostCrash, For: 10 * time.Minute, Host: "d1"},
	})
	opts.Retry.DisableRelocation = true
	opts.Retry.MaxAttempts = 10
	opts.Retry.PlanDeadline = 30 * time.Second
	res, err := Orchestrate(opts)
	if err != nil {
		t.Fatalf("orchestrate: %v", err)
	}
	m := &res.Moves[0]
	if m.Outcome != OutcomeFailed {
		t.Fatalf("outcome = %s, want failed", m.Outcome)
	}
	if m.Err == nil || !strings.Contains(m.Err.Error(), "deadline") {
		t.Fatalf("err = %v, want a deadline error", m.Err)
	}
	if n := len(m.Attempts); n == 0 || n >= 10 {
		t.Fatalf("attempts = %d, want the deadline (not the budget) to stop the move", n)
	}
	if !m.SourceRunning() {
		t.Fatal("failed move left its source paused")
	}
}

// When the crashed host was the only admissible destination, the plan
// degrades immediately — no spin, no wait — and completes partially.
func TestHealNoDestinationDegradesWithoutSpin(t *testing.T) {
	spec := "host src ram 64G; host d1 ram 64G; vm fv0 on src workload mpeg mem 256M"
	opts := healOrchOptions(t, spec, faults.Plan{
		{Site: faults.SiteHostCrash, For: 10 * time.Minute, Host: "d1"},
	})
	res, err := Orchestrate(opts)
	if err != nil {
		t.Fatalf("orchestrate: %v", err)
	}
	m := &res.Moves[0]
	if m.Outcome != OutcomeFailed {
		t.Fatalf("outcome = %s, want failed", m.Outcome)
	}
	if m.Err == nil || !strings.Contains(m.Err.Error(), "cannot relocate") {
		t.Fatalf("err = %v, want a relocation failure", m.Err)
	}
	if len(m.Attempts) != 1 {
		t.Fatalf("attempts = %d, want 1 (no destination to retry against)", len(m.Attempts))
	}
	if m.EndAt > 30*time.Second {
		t.Fatalf("degradation took %v of virtual time — the healer spun or waited", m.EndAt)
	}
	if !m.SourceRunning() {
		t.Fatal("failed move left its source paused")
	}
}

// Without healing a plan runs the same loop under the one-attempt policy
// (X17's no-retry arm): every launched move records exactly one attempt
// spanning its engine window, and the move into the crashed host keeps the
// attempt's own typed error, not wrapped by the healer.
func TestOneAttemptPolicyRecordsAttempts(t *testing.T) {
	spec := "host src ram 64G; host d1 ram 64G; host d2 ram 64G; " +
		"vm vm0 on src workload mpeg mem 512M; vm vm1 on src workload mpeg mem 512M"
	opts := healOrchOptions(t, spec, faults.Plan{
		{Site: faults.SiteHostCrash, For: time.Hour, Host: "d1"},
	})
	opts.Retry = RetryPolicy{}
	opts.Engine.Recovery.EnableResume = true
	res, err := Orchestrate(opts)
	if err != nil {
		t.Fatalf("orchestrate: %v", err)
	}
	failed := 0
	for i := range res.Moves {
		m := &res.Moves[i]
		if len(m.Attempts) != 1 {
			t.Fatalf("move %s: %d attempts, want 1", m.Name, len(m.Attempts))
		}
		a := m.Attempts[0]
		if a.To != m.To || a.StartAt != m.StartAt || a.EndAt != m.EndAt || a.Backoff != 0 {
			t.Fatalf("move %s: attempt %+v does not span its window [%v, %v] to %s",
				m.Name, a, m.StartAt, m.EndAt, m.To)
		}
		if m.Err == nil {
			if m.Outcome != OutcomeCompleted || a.Err != "" {
				t.Fatalf("move %s: outcome %s, attempt error %q", m.Name, m.Outcome, a.Err)
			}
			continue
		}
		failed++
		if m.To != "d1" || m.Outcome != OutcomeFailed || a.Err != m.Err.Error() {
			t.Fatalf("move %s to %s: outcome %s, err %v, attempt error %q",
				m.Name, m.To, m.Outcome, m.Err, a.Err)
		}
		if !errors.Is(m.Err, migration.ErrDestinationLost) {
			t.Fatalf("move %s: err %v is not ErrDestinationLost", m.Name, m.Err)
		}
		if strings.Contains(m.Err.Error(), "fleet: heal:") {
			t.Fatalf("move %s: err %q wrapped by the healer", m.Name, m.Err)
		}
	}
	if failed != 1 {
		t.Fatalf("%d moves failed, want the one into d1", failed)
	}
	if err := VerifyAdmission(res.Moves, opts.Admission); err != nil {
		t.Fatal(err)
	}
}

// Negative budgets and timings are refused up front: with no attempt to
// grant, the orchestrator could never settle its plan.
func TestOrchestrateRejectsNegativeOptions(t *testing.T) {
	for name, bad := range map[string]func(*OrchestratorOptions){
		"attempts": func(o *OrchestratorOptions) { o.Retry.MaxAttempts = -1 },
		"warmup":   func(o *OrchestratorOptions) { o.Warmup = -time.Second },
		"stagger":  func(o *OrchestratorOptions) { o.Stagger = -time.Second },
		"quantum":  func(o *OrchestratorOptions) { o.DecisionQuantum = -time.Second },
	} {
		opts := healOrchOptions(t, healClusterSpec, nil)
		bad(&opts)
		if _, err := Orchestrate(opts); err == nil {
			t.Errorf("Orchestrate accepted a negative %s", name)
		}
	}
}

// pickDestination surfaces a typed HostOpenError naming the
// earliest-closing breaker when every otherwise-fitting host is cooling
// down, and selects that host again once the cooldown passes.
func TestPickDestinationBreakerOpen(t *testing.T) {
	c, err := ParseCluster(healClusterSpec)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	pol := RetryPolicy{Enabled: true}
	pol.fillDefaults()
	h := newHealState(pol, 1, 2*time.Second)
	h.breaker.openUntil["d2"] = 90 * time.Second
	opts := &OrchestratorOptions{Cluster: c}
	moves := []Move{{VM: c.VMs[0], From: "src", To: "d1"}}
	res := &PlanResult{Moves: []MoveResult{{From: "src", To: "d1"}}}

	_, err = h.pickDestination(opts, res, moves, 0, "d1", 10*time.Second)
	ho, ok := err.(*HostOpenError)
	if !ok {
		t.Fatalf("err = %v (%T), want *HostOpenError", err, err)
	}
	if ho.Host != "d2" || ho.Until != 90*time.Second {
		t.Fatalf("HostOpenError = %+v, want d2 until 90s", ho)
	}
	// After the cooldown the same host is admissible again.
	dest, err := h.pickDestination(opts, res, moves, 0, "d1", 2*time.Minute)
	if err != nil || dest != "d2" {
		t.Fatalf("post-cooldown pick = %q, %v, want d2", dest, err)
	}
}

// Repeated failures against one host trip the breaker exactly at the
// configured threshold, and the open state expires after the cooldown.
func TestHostBreakerThresholdAndCooldown(t *testing.T) {
	b := newHostBreaker(BreakerPolicy{Threshold: 2, Window: time.Minute, Cooldown: 30 * time.Second})
	if b.fail("d1", 10*time.Second) {
		t.Fatal("breaker opened below threshold")
	}
	if !b.fail("d1", 20*time.Second) {
		t.Fatal("breaker did not open at threshold")
	}
	if until, open := b.open("d1", 25*time.Second); !open || until != 50*time.Second {
		t.Fatalf("open(25s) = %v,%v, want open until 50s", until, open)
	}
	if _, open := b.open("d1", 50*time.Second); open {
		t.Fatal("breaker still open after cooldown")
	}
	// Failures outside the window never accumulate to the threshold.
	b2 := newHostBreaker(BreakerPolicy{Threshold: 2, Window: 10 * time.Second, Cooldown: 30 * time.Second})
	b2.fail("d2", 0)
	if b2.fail("d2", 20*time.Second) {
		t.Fatal("stale failure counted toward the threshold")
	}
}

// healFingerprint reduces a plan result to its healing schedule.
func healFingerprint(res *PlanResult) string {
	var b strings.Builder
	for i := range res.Moves {
		m := &res.Moves[i]
		fmt.Fprintf(&b, "%s to=%s outcome=%s start=%d end=%d reloc=%d backoff=%d saved=%d err=%v\n",
			m.Name, m.To, m.Outcome, m.StartAt, m.EndAt, m.Relocations,
			m.HealBackoff, m.TokenSavedBytes, m.Err)
		for _, a := range m.Attempts {
			fmt.Fprintf(&b, "  to=%s start=%d end=%d backoff=%d reuse=%v err=%s\n",
				a.To, a.StartAt, a.EndAt, a.Backoff, a.TokenReused, a.Err)
		}
	}
	return b.String()
}

// Every mode's healing run — host crash on one destination, flaky windows
// on the other — replays byte-identically at the same seed (the chaos
// replay invariant, pinned here as a direct matrix so -race runs cover all
// four modes even with a tiny chaos budget).
func TestHealReplayMatrix(t *testing.T) {
	plan := faults.Plan{
		{Site: faults.SiteHostCrash, For: 3 * time.Minute, Host: "d1"},
		{Site: faults.SiteHostFlaky, At: time.Second, For: 2 * time.Second, Host: "d2"},
	}
	for _, mode := range []migration.Mode{
		migration.ModeVanilla, migration.ModeAppAssisted,
		migration.ModePostCopy, migration.ModeHybrid,
	} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			run := func() string {
				opts := healOrchOptions(t, healClusterSpec, plan)
				opts.Mode = mode
				res, err := Orchestrate(opts)
				if err != nil {
					t.Fatalf("orchestrate: %v", err)
				}
				return healFingerprint(res)
			}
			a, b := run(), run()
			if a != b {
				t.Fatalf("same-seed healing runs diverged:\n--- run1\n%s--- run2\n%s", a, b)
			}
		})
	}
}
