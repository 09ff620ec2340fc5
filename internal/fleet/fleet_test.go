package fleet

import (
	"reflect"
	"testing"
	"time"

	"javmm/internal/migration"
	"javmm/internal/workload"
)

func profiles(t *testing.T, names ...string) []workload.Profile {
	t.Helper()
	out := make([]workload.Profile, len(names))
	for i, n := range names {
		p, err := workload.Lookup(n)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = p
	}
	return out
}

// backboneOpts runs the named profiles as a Backbone fleet: one VM per
// source host, every move into dst over one shared gigabit link, launched
// naively (the zero Ordering) at Warmup + i·Stagger.
func backboneOpts(t *testing.T, mode migration.Mode, stagger time.Duration, names ...string) OrchestratorOptions {
	c, moves := Backbone(profiles(t, names...), 0, 0)
	return OrchestratorOptions{
		Cluster: c,
		Moves:   moves,
		Mode:    mode,
		Seed:    7,
		Warmup:  10 * time.Second,
		Stagger: stagger,
	}
}

// fleetOpts is the canonical 4-VM contended run the acceptance criterion
// names: four VMs on one shared gigabit backbone, staggered starts.
func fleetOpts(t *testing.T, mode migration.Mode) OrchestratorOptions {
	return backboneOpts(t, mode, 500*time.Millisecond, "compress", "crypto", "derby", "xml")
}

// Acceptance: a 4-VM run over one shared link is deterministic — the same
// options produce identical per-VM Reports and an identical merged fabric
// report, run to run, under -race.
func TestFleetDeterministic(t *testing.T) {
	for _, mode := range []migration.Mode{migration.ModeVanilla, migration.ModeAppAssisted} {
		t.Run(mode.String(), func(t *testing.T) {
			r1, err := Orchestrate(fleetOpts(t, mode))
			if err != nil {
				t.Fatal(err)
			}
			r2, err := Orchestrate(fleetOpts(t, mode))
			if err != nil {
				t.Fatal(err)
			}
			for i := range r1.Moves {
				a, b := &r1.Moves[i], &r2.Moves[i]
				if a.Err != nil || b.Err != nil {
					t.Fatalf("VM %s errored: %v / %v", a.Name, a.Err, b.Err)
				}
				if a.VerifyErr != nil {
					t.Fatalf("VM %s failed verification: %v", a.Name, a.VerifyErr)
				}
				if !reflect.DeepEqual(a.Report, b.Report) {
					t.Fatalf("VM %s reports diverge between runs:\n%+v\n%+v", a.Name, a.Report, b.Report)
				}
				if a.StartAt != b.StartAt || a.EndAt != b.EndAt {
					t.Fatalf("VM %s engine window diverges: [%v,%v] vs [%v,%v]",
						a.Name, a.StartAt, a.EndAt, b.StartAt, b.EndAt)
				}
			}
			if !reflect.DeepEqual(r1.Fabric, r2.Fabric) {
				t.Fatalf("fabric reports diverge:\n%+v\n%+v", r1.Fabric, r2.Fabric)
			}
			if r1.MakeSpan != r2.MakeSpan {
				t.Fatalf("makespan diverges: %v vs %v", r1.MakeSpan, r2.MakeSpan)
			}
		})
	}
}

// Contention sanity: the same VM migrating alongside three peers on one
// backbone takes longer than migrating alone on it, and the backbone's byte
// accounting covers every engine's bulk traffic.
func TestFleetContentionSlowsMigration(t *testing.T) {
	solo, err := Orchestrate(backboneOpts(t, migration.ModeVanilla, 0, "compress"))
	if err != nil {
		t.Fatal(err)
	}
	crowd, err := Orchestrate(fleetOpts(t, migration.ModeVanilla))
	if err != nil {
		t.Fatal(err)
	}
	soloTime := solo.Moves[0].Report.TotalTime
	crowdTime := crowd.Moves[0].Report.TotalTime
	if crowdTime <= soloTime {
		t.Fatalf("contended migration (%v) not slower than solo (%v)", crowdTime, soloTime)
	}

	var backbone uint64
	for _, lu := range crowd.Fabric.Links {
		if lu.Name == "backbone" {
			backbone = lu.BytesSent
		}
	}
	var engines uint64
	for _, vm := range crowd.Moves {
		engines += vm.Report.TotalBytes()
	}
	// The backbone carries the engines' bulk traffic; control round-trips and
	// (post-copy) demand fetches ride the port's latency model instead, so
	// the trunk total can only be <= the engines' wire total — and for
	// pre-copy modes, equal.
	if backbone != engines {
		t.Fatalf("backbone carried %d bytes, engines report %d on the wire", backbone, engines)
	}
	if crowd.MakeSpan <= 0 {
		t.Fatalf("makespan %v, want > 0", crowd.MakeSpan)
	}
}

// Every mode drives to completion under the scheduler, including the
// post-copy and hybrid engines' switchover/prefetch paths.
func TestFleetAllModes(t *testing.T) {
	for _, mode := range []migration.Mode{
		migration.ModeVanilla, migration.ModeAppAssisted,
		migration.ModePostCopy, migration.ModeHybrid,
	} {
		t.Run(mode.String(), func(t *testing.T) {
			opts := backboneOpts(t, mode, 250*time.Millisecond, "compress", "crypto")
			opts.Seed = 3
			res, err := Orchestrate(opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, vm := range res.Moves {
				if vm.Err != nil {
					t.Fatalf("VM %s: %v", vm.Name, vm.Err)
				}
				if vm.VerifyErr != nil {
					t.Fatalf("VM %s verification: %v", vm.Name, vm.VerifyErr)
				}
				if vm.Report == nil || vm.Report.TotalTime <= 0 {
					t.Fatalf("VM %s produced no usable report", vm.Name)
				}
			}
		})
	}
}

// Stagger launches Backbone move i at exactly Warmup + i·Stagger, off the
// orchestrator's 500 ms decision grid: the orchestrator wakes at each
// eligibility instant and readies the parked engine at once.
func TestBackboneStaggerStartsOnTheInstant(t *testing.T) {
	opts := backboneOpts(t, migration.ModeVanilla, 250*time.Millisecond, "compress", "crypto", "mpeg")
	res, err := Orchestrate(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Moves {
		m := &res.Moves[i]
		want := opts.Warmup + time.Duration(i)*opts.Stagger
		if m.Err != nil {
			t.Fatalf("VM %s: %v", m.Name, m.Err)
		}
		if m.EligibleAt != want || m.LaunchedAt != want || m.StartAt != want {
			t.Fatalf("VM %s eligible %v, launched %v, started %v; want all at %v",
				m.Name, m.EligibleAt, m.LaunchedAt, m.StartAt, want)
		}
	}
}

// An empty fleet is a successful no-op: nothing to boot, nothing to move,
// empty accounting.
func TestFleetEmpty(t *testing.T) {
	res, err := Orchestrate(backboneOpts(t, migration.ModeVanilla, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Moves) != 0 || res.MakeSpan != 0 || len(res.Fabric.Links) != 0 {
		t.Fatalf("empty fleet produced %d moves, makespan %v, %d links",
			len(res.Moves), res.MakeSpan, len(res.Fabric.Links))
	}
}
