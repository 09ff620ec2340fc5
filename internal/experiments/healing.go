package experiments

import (
	"fmt"
	"time"

	"javmm/internal/faults"
	"javmm/internal/fleet"
	"javmm/internal/migration"
	"javmm/internal/netsim"
	"javmm/internal/obs/sla"
)

// failedMovePenalty prices one move the plan could not complete: the VM is
// stranded on the host the plan was evacuating, so the operator's exposure —
// hardware slated for decommission still carrying production load — is an
// SLA breach in its own class, an order of magnitude above the priced cost
// of any completed migration in this cluster. The constant makes the arms
// comparable on one number: priced cost = sla.Cost aggregate over completed
// moves + penalty x stranded moves.
const failedMovePenalty = 10.0

// AblationHealing is experiment X17: a two-VM host evacuation whose
// preferred destination crashes at launch time and stays down (the fault
// window re-arms on every attempt, the modelled "host died mid-plan, not
// coming back"), executed under three healing policies:
//
//   - no-retry: the self-healing layer off; the move into the dead host
//     fails on its first attempt and the VM is stranded at the source.
//   - retry-same: healing on, relocation off; every retry re-selects the
//     same dead host, burns its backoff budget and exhausts MaxAttempts.
//   - relocate: full healing; the first failure is classified permanent
//     (destination lost), the dead host is excluded, the move re-selects
//     the surviving destination, degrades its stale resume token to a
//     clean first copy there and completes digest-verified.
//
// The table prices each arm as the SLA aggregate over completed moves plus
// failedMovePenalty per stranded VM. Relocation is the only arm that
// completes the evacuation, and the acceptance criterion — relocate beats
// no-retry on the priced metric — is checked by TestAblationHealingWins.
func AblationHealing(o Options) (*Table, error) {
	o.fillDefaults()
	t := &Table{
		Title: "X17. Self-healing: 2-VM evacuation with the preferred destination crashed",
		Header: []string{"mode", "policy", "completed", "stranded", "attempts",
			"relocations", "backoff", "makespan", "priced cost"},
	}
	for _, mode := range []migration.Mode{migration.ModeVanilla, migration.ModeAppAssisted} {
		for _, arm := range []string{"no-retry", "retry-same", "relocate"} {
			res, err := healingPlan(o, mode, arm)
			if err != nil {
				return nil, fmt.Errorf("experiments: healing %s/%s: %w", mode, arm, err)
			}
			completed, stranded, attempts, relocations := 0, 0, 0, 0
			var backoff time.Duration
			for i := range res.Moves {
				m := &res.Moves[i]
				if m.Err != nil {
					stranded++
				} else {
					if m.VerifyErr != nil {
						return nil, fmt.Errorf("experiments: healing %s/%s move %s verification: %w", mode, arm, m.Name, m.VerifyErr)
					}
					completed++
				}
				attempts += len(m.Attempts)
				relocations += m.Relocations
				backoff += m.HealBackoff
			}
			cost, err := healingCost(res, stranded)
			if err != nil {
				return nil, fmt.Errorf("experiments: healing %s/%s: %w", mode, arm, err)
			}
			t.AddRow(mode.String(), arm,
				fmt.Sprintf("%d/%d", completed, len(res.Moves)),
				fmt.Sprintf("%d", stranded),
				fmt.Sprintf("%d", attempts),
				fmt.Sprintf("%d", relocations),
				fmtDur(backoff),
				fmtDur(res.MakeSpan),
				fmt.Sprintf("%.3f", cost))
		}
	}
	t.Notes = append(t.Notes,
		"relocate is the acceptance row: the first attempt fails permanently (destination lost), the healer excludes the dead host, re-places onto the survivor, degrades the stale resume token to a clean first copy (destination binding) and completes the evacuation — the only arm with 0 stranded VMs",
		fmt.Sprintf("priced cost = sla aggregate over completed moves + %.0f per stranded VM (a VM left on hardware the plan was evacuating); retry-same also pays the backoff it burned re-dialing a dead host", failedMovePenalty),
		"the crash window re-arms on every attempt (the injector re-bases at each launch), so retry-same can never win here: it models a host that is down for good, the case destination re-selection exists for",
		"deterministic: attempts, backoffs, relocations and the priced costs replay byte-identically at the same seed")
	return t, nil
}

// healingPlan executes the X17 evacuation under one healing policy: two VMs
// on one source, two destinations, one gigabit backbone, the preferred
// destination (d1, first in declaration order, so bestFit picks it for the
// first move) crashed from launch for longer than any plan deadline.
func healingPlan(o Options, mode migration.Mode, arm string) (*fleet.PlanResult, error) {
	c := &fleet.Cluster{
		Hosts: []fleet.HostSpec{
			{Name: "src", Rack: "a", RAMBytes: 64 << 30},
			{Name: "d1", Rack: "b", RAMBytes: 64 << 30},
			{Name: "d2", Rack: "b", RAMBytes: 64 << 30},
		},
		Links: []fleet.LinkSpec{{
			Name:      "backbone",
			Bandwidth: netsim.GigabitEffective,
			Latency:   100 * time.Microsecond,
			Hosts:     []string{"src", "d1", "d2"},
		}},
	}
	for i, wl := range []string{"mpeg", "compress"} {
		c.VMs = append(c.VMs, fleet.VMSpec{
			Name:     fmt.Sprintf("vm%d", i),
			Host:     "src",
			Workload: wl,
			MemBytes: o.MemBytes,
		})
	}
	plan, err := fleet.ParseMigrationPlan("evacuate host src")
	if err != nil {
		return nil, err
	}
	model := sla.Default()
	oo := fleet.OrchestratorOptions{
		Cluster:   c,
		Plan:      plan,
		Mode:      mode,
		Seed:      o.Seeds[0],
		Ordering:  fleet.OrderAdmission,
		Admission: fleet.AdmissionPolicy{MaxPerLink: 1, MaxPerHost: 1},
		Warmup:    o.Warmup,
		SLA:       &model,
		FaultPlan: faults.Plan{
			{Site: faults.SiteHostCrash, For: time.Hour, Host: "d1"},
		},
	}
	switch arm {
	case "no-retry":
		// Healing off; keep resumable aborts on so the stranded move still
		// aborts cleanly with a minted token, like the healed arms.
		oo.Engine.Recovery.EnableResume = true
	case "retry-same":
		oo.Retry = fleet.RetryPolicy{Enabled: true, DisableRelocation: true}
	case "relocate":
		oo.Retry = fleet.RetryPolicy{Enabled: true}
	default:
		return nil, fmt.Errorf("unknown healing arm %q", arm)
	}
	return fleet.Orchestrate(oo)
}

// healingCost prices one arm: the SLA aggregate (completed moves only — the
// orchestrator skips failed moves) plus the stranded-VM penalty.
func healingCost(res *fleet.PlanResult, stranded int) (float64, error) {
	if res.SLA == nil {
		return 0, fmt.Errorf("no SLA aggregate")
	}
	if err := res.SLA.Reconcile(); err != nil {
		return 0, err
	}
	return res.SLA.Total + failedMovePenalty*float64(stranded), nil
}
