package experiments

import (
	"fmt"
	"time"

	"javmm/internal/fleet"
	"javmm/internal/migration"
	"javmm/internal/obs/sla"
	"javmm/internal/workload"
)

// AblationContention is experiment X15: N concurrent derby migrations
// contending for one fixed-capacity gigabit backbone, driven by the
// deterministic process scheduler over the shared fabric (DESIGN.md §15).
// It sweeps the concurrent VM count and reports how total migration time
// and downtime degrade as engines split the link — and whether JAVMM's
// young-generation skipping keeps its advantage under contention (it sends
// fewer bytes through the shared bottleneck, so the saving compounds).
func AblationContention(o Options) (*Table, error) {
	o.fillDefaults()
	prof, err := workload.Lookup("derby")
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title: "X15. Contention: N concurrent migrations, one gigabit fabric",
		Header: []string{"mode", "vms", "avg total", "makespan", "avg downtime",
			"avg wl-downtime", "backbone traffic", "peak conc", "sla cost"},
	}
	model := sla.Default()
	for _, mode := range []migration.Mode{migration.ModeVanilla, migration.ModeAppAssisted} {
		for _, n := range []int{1, 2, 4} {
			profiles := make([]workload.Profile, n)
			for i := range profiles {
				profiles[i] = prof
			}
			cluster, moves := fleet.Backbone(profiles, o.MemBytes, 0)
			res, err := fleet.Orchestrate(fleet.OrchestratorOptions{
				Cluster: cluster,
				Moves:   moves,
				Mode:    mode,
				Seed:    o.Seeds[0],
				Warmup:  o.Warmup,
				Stagger: 500 * time.Millisecond,
				SLA:     &model,
			})
			if err != nil {
				return nil, fmt.Errorf("experiments: contention %s/%d: %w", mode, n, err)
			}
			var total, down, wlDown time.Duration
			for i := range res.Moves {
				vm := &res.Moves[i]
				if vm.Err != nil {
					return nil, fmt.Errorf("experiments: contention %s/%d VM %s: %w", mode, n, vm.Name, vm.Err)
				}
				if vm.VerifyErr != nil {
					return nil, fmt.Errorf("experiments: contention %s/%d VM %s verification: %w", mode, n, vm.Name, vm.VerifyErr)
				}
				total += vm.Report.TotalTime
				down += vm.Report.VMDowntime
				wlDown += vm.WorkloadDowntime
			}
			nn := time.Duration(n)
			var backbone uint64
			peak := 0
			for _, lu := range res.Fabric.Links {
				backbone += lu.BytesSent
				if lu.MaxConcurrent > peak {
					peak = lu.MaxConcurrent
				}
			}
			if res.SLA == nil {
				return nil, fmt.Errorf("experiments: contention %s/%d: no SLA aggregate", mode, n)
			}
			if err := res.SLA.Reconcile(); err != nil {
				return nil, fmt.Errorf("experiments: contention %s/%d: %w", mode, n, err)
			}
			t.AddRow(mode.String(), fmt.Sprintf("%d", n),
				fmtDur(total/nn), fmtDur(res.MakeSpan),
				fmtDur(down/nn), fmtDur(wlDown/nn),
				fmtBytes(backbone), fmt.Sprintf("%d", peak),
				fmt.Sprintf("%.3f", res.SLA.Total))
		}
	}
	t.Notes = append(t.Notes,
		"fixed fabric capacity split N ways stretches every pre-copy round, giving the guests longer to re-dirty; total time grows superlinearly while JAVMM's per-VM traffic stays flat",
		"sla cost prices the whole fleet under the default model (downtime x penalty + throughput-dip integral), reconciled per VM against the run's attribution",
		"deterministic: same seed, same per-VM reports and fabric accounting, regardless of host scheduling")
	return t, nil
}
