package javmm_test

import (
	"flag"
	"os"
	"reflect"
	"strings"
	"testing"

	"javmm/internal/chaos"
	"javmm/internal/faults"
)

var (
	fleetChaosPlans = flag.Int("fleet-chaos-plans", 40,
		"plans per phase of TestFleetChaosSearch (CI runs 100)")
	fleetChaosRepro = flag.String("fleet-chaos-repro", "",
		"write TestFleetChaosSearch's shrunken repro (one javmm-migrate CLI line) to this file")
)

// TestFleetChaosSearch is the fleet twin of TestChaosSearch: the acceptance
// gate for the orchestrator chaos plane and the test CI's fleet-orchestrator
// job runs with -fleet-chaos-plans=100. Phase one plants the known invariant
// bug — the digest audit disabled — and requires the search to find a fault
// plan whose in-flight corruption silently reaches a completed move's image,
// shrink it deterministically to a minimal repro, and report it as the exact
// javmm-migrate -cluster/-plan/-fault argument list. Phase two runs the same
// plan population against the real configuration and requires every fleet
// invariant (verified images, clean resumable aborts, admission caps) to
// hold.
func TestFleetChaosSearch(t *testing.T) {
	// Base seed 1: the planted-bug phase finds a corrupting plan within the
	// default -fleet-chaos-plans window.
	const baseSeed = 1

	planted := chaos.SearchFleet(chaos.FleetOptions{
		Seed: baseSeed, Plans: *fleetChaosPlans, DisableIntegrityAudit: true, Log: t.Logf,
	})
	v := planted.Violation
	if v == nil {
		t.Fatalf("audit disabled, yet no fleet violation in %d plans", planted.PlansRun)
	}
	if v.Invariant != "image-diverged" {
		t.Fatalf("violation %q (%s), want image-diverged", v.Invariant, v.Detail)
	}
	if len(v.Shrunk) == 0 || len(v.Shrunk) > len(v.Plan) {
		t.Fatalf("shrunk plan has %d rules, original %d", len(v.Shrunk), len(v.Plan))
	}
	corrupt := false
	for _, r := range v.Shrunk {
		if r.Site == faults.SiteCorruptPage {
			corrupt = true
		}
	}
	if !corrupt {
		t.Fatalf("shrunk plan %v lost the corruption rule", v.Shrunk)
	}

	// Deterministic from the fixed seed: a second search finds the same
	// violation, shrunk the same way.
	again := chaos.SearchFleet(chaos.FleetOptions{
		Seed: baseSeed, Plans: *fleetChaosPlans, DisableIntegrityAudit: true,
	})
	if again.Violation == nil || !reflect.DeepEqual(again.Violation, v) {
		t.Fatalf("fleet chaos search is not deterministic:\n first %+v\nsecond %+v", v, again.Violation)
	}

	repro := shellJoin(v.Repro())
	t.Logf("planted-bug repro: javmm-migrate %s", repro)
	if *fleetChaosRepro != "" {
		if err := os.WriteFile(*fleetChaosRepro, []byte("javmm-migrate "+repro+"\n"), 0o644); err != nil {
			t.Fatalf("writing repro artifact: %v", err)
		}
	}

	// Phase two: with the audit on, the same window must be violation-free.
	clean := chaos.SearchFleet(chaos.FleetOptions{Seed: baseSeed, Plans: *fleetChaosPlans, Log: t.Logf})
	if cv := clean.Violation; cv != nil {
		t.Fatalf("fleet invariant %q violated by seed %d (%s, move %q): %s\nplan: %v\nrepro: javmm-migrate %s",
			cv.Invariant, cv.Seed, cv.Mode, cv.VM, cv.Detail, cv.Plan, shellJoin(cv.Repro()))
	}
	if clean.PlansRun != *fleetChaosPlans {
		t.Fatalf("clean phase ran %d plans, want %d", clean.PlansRun, *fleetChaosPlans)
	}
}

// shellJoin renders an argument list as one shell-pasteable line: the
// cluster/plan values carry spaces and semicolons, so they get quoted.
func shellJoin(args []string) string {
	var b strings.Builder
	for i, a := range args {
		if i > 0 {
			b.WriteByte(' ')
		}
		if strings.ContainsAny(a, " ;") {
			b.WriteString("'" + a + "'")
		} else {
			b.WriteString(a)
		}
	}
	return b.String()
}

var (
	fleetHealPlans = flag.Int("fleet-heal-plans", 40,
		"plans per phase of TestFleetHealChaosSearch (CI runs 100)")
	fleetHealRepro = flag.String("fleet-heal-repro", "",
		"write TestFleetHealChaosSearch's shrunken repro (one javmm-migrate CLI line) to this file")
)

// TestFleetHealChaosSearch is the healing twin of TestFleetChaosSearch and
// the acceptance gate for the self-healing layer: fault plans now draw the
// host-scoped sites (host.crash, host.flaky) aimed at the trial
// destinations, every trial runs with retry/relocation/breaker healing on,
// and the healing invariants are checked — terminal outcomes only (verified
// image on an admissible host, or a cleanly resumable source), admission
// caps held across every retry and relocation, byte-identical same-seed
// replay. Phase one plants the digest-audit bug to prove the searcher still
// has teeth with healing enabled and requires the shrunken repro to carry
// the healing flags; phase two requires the real configuration to survive
// the same window violation-free.
func TestFleetHealChaosSearch(t *testing.T) {
	// Base seed 2: the planted-bug phase finds a corrupting plan within the
	// default -fleet-heal-plans window (the healing draw universe shifts
	// every sequence, so the seed differs from TestFleetChaosSearch's).
	const baseSeed = 2

	planted := chaos.SearchFleet(chaos.FleetOptions{
		Seed: baseSeed, Plans: *fleetHealPlans, Heal: true,
		DisableIntegrityAudit: true, Log: t.Logf,
	})
	v := planted.Violation
	if v == nil {
		t.Fatalf("audit disabled, yet no violation in %d healing plans", planted.PlansRun)
	}
	if v.Invariant != "image-diverged" {
		t.Fatalf("violation %q (%s), want image-diverged", v.Invariant, v.Detail)
	}
	if !v.Heal {
		t.Fatal("violation does not record the healing configuration")
	}
	if len(v.Shrunk) == 0 || len(v.Shrunk) > len(v.Plan) {
		t.Fatalf("shrunk plan has %d rules, original %d", len(v.Shrunk), len(v.Plan))
	}
	repro := v.Repro()
	line := shellJoin(repro)
	t.Logf("planted-bug healing repro: javmm-migrate %s", line)
	// The repro must pin the healing policy: replaying it without -retry
	// would run a different orchestrator.
	for _, flagName := range []string{"-retry", "-max-attempts", "-move-deadline", "-plan-deadline", "-breaker"} {
		found := false
		for _, a := range repro {
			if a == flagName {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("repro %v lacks %s", repro, flagName)
		}
	}
	if *fleetHealRepro != "" {
		if err := os.WriteFile(*fleetHealRepro, []byte("javmm-migrate "+line+"\n"), 0o644); err != nil {
			t.Fatalf("writing repro artifact: %v", err)
		}
	}

	// Deterministic from the fixed seed.
	again := chaos.SearchFleet(chaos.FleetOptions{
		Seed: baseSeed, Plans: *fleetHealPlans, Heal: true, DisableIntegrityAudit: true,
	})
	if again.Violation == nil || !reflect.DeepEqual(again.Violation, v) {
		t.Fatalf("healing chaos search is not deterministic:\n first %+v\nsecond %+v", v, again.Violation)
	}

	// Phase two: real configuration, same window, violation-free.
	clean := chaos.SearchFleet(chaos.FleetOptions{Seed: baseSeed, Plans: *fleetHealPlans, Heal: true, Log: t.Logf})
	if cv := clean.Violation; cv != nil {
		t.Fatalf("healing invariant %q violated by seed %d (%s, move %q): %s\nplan: %v\nrepro: javmm-migrate %s",
			cv.Invariant, cv.Seed, cv.Mode, cv.VM, cv.Detail, cv.Plan, shellJoin(cv.Repro()))
	}
	if clean.PlansRun != *fleetHealPlans {
		t.Fatalf("clean phase ran %d plans, want %d", clean.PlansRun, *fleetHealPlans)
	}
}
