package migration

import (
	"errors"
	"math/rand"
	"testing"

	"javmm/internal/faults"
	"javmm/internal/mem"
)

// injector compiles a fault plan against the rig's clock or fails the test.
func (r *testRig) injector(t *testing.T, plan faults.Plan) *faults.Injector {
	t.Helper()
	inj, err := faults.NewInjector(r.clock, plan)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

// A payload corrupted in flight must be detected by the switchover digest
// audit and healed by re-fetch before the run may report success.
func TestCorruptPageStreamRepairedPreCopy(t *testing.T) {
	r := newRig(2048, 100*1000*1000)
	inj := r.injector(t, faults.Plan{
		{Site: faults.SiteCorruptPage, Nth: 5, Count: 3},
	})
	rep, err := r.source(Config{Mode: ModeVanilla, Faults: inj}, nil).Migrate()
	if err != nil {
		t.Fatal(err)
	}
	ic := rep.Integrity
	if ic == nil {
		t.Fatal("no integrity section on a digest-capable run")
	}
	if ic.Mismatches != 3 || ic.Repairs != 3 {
		t.Fatalf("mismatches/repairs = %d/%d, want 3/3", ic.Mismatches, ic.Repairs)
	}
	if ic.RepairBytes == 0 {
		t.Fatal("repairs recorded but no repair bytes")
	}
	if ic.AuditRounds < 2 {
		t.Fatalf("audit rounds = %d, want >= 2 (detect round + verify round)", ic.AuditRounds)
	}
	if ic.RollingDigest != r.dest.RollingDigest() {
		t.Fatalf("report rolling digest %x != destination's %x", ic.RollingDigest, r.dest.RollingDigest())
	}
	r.verify(t, rep)
	// Repair traffic is folded into the stop-and-copy iteration, so the
	// report still reconciles: total sends include the 3 re-deliveries.
	if rep.TotalPagesSent != 2048+3 {
		t.Fatalf("total pages sent = %d, want 2051", rep.TotalPagesSent)
	}
}

// Corruption that persists through every repair attempt must exhaust the
// bounded repair budget and abort cleanly with ErrIntegrity — never complete.
func TestCorruptPageStreamExhaustsRepairBudget(t *testing.T) {
	r := newRig(512, 100*1000*1000)
	inj := r.injector(t, faults.Plan{
		{Site: faults.SiteCorruptPage, Nth: 1, Count: 1 << 40},
	})
	rep, err := r.source(Config{Mode: ModeVanilla, Faults: inj}, nil).Migrate()
	if !errors.Is(err, ErrIntegrity) {
		t.Fatalf("err = %v, want ErrIntegrity", err)
	}
	if rep == nil || rep.Recovery == nil || !rep.Recovery.Aborted {
		t.Fatal("aborted run carries no recovery section")
	}
	if rep.Recovery.AbortReason == "" {
		t.Fatal("abort reason empty")
	}
	if !r.dest.Discarded() {
		t.Fatal("destination not discarded after integrity abort")
	}
	if rep.Integrity == nil || rep.Integrity.Mismatches == 0 {
		t.Fatal("aborted run's integrity section missing its mismatch count")
	}
}

// The lazy engine verifies each fetch inline: a corrupted demand fetch or
// prefetch is re-sent by the retry machinery and counted as a repair.
func TestCorruptPageStreamLazyRepairs(t *testing.T) {
	for _, mode := range []Mode{ModePostCopy, ModeHybrid} {
		t.Run(mode.String(), func(t *testing.T) {
			r := newRig(1024, 100*1000*1000)
			inj := r.injector(t, faults.Plan{
				{Site: faults.SiteCorruptPage, Nth: 10, Count: 2},
			})
			rep, err := r.source(Config{Mode: mode, Faults: inj}, nil).Migrate()
			if err != nil {
				t.Fatal(err)
			}
			ic := rep.Integrity
			if ic == nil {
				t.Fatal("no integrity section")
			}
			if ic.Mismatches == 0 {
				t.Fatal("corruption fired but no mismatch recorded")
			}
			if ic.Repairs != ic.Mismatches {
				t.Fatalf("repairs %d != mismatches %d on a completed run", ic.Repairs, ic.Mismatches)
			}
		})
	}
}

// A hybrid warm-phase page corrupted in flight is caught by the switchover
// resident audit and refetched by the lazy phase instead of surviving as
// resident.
func TestCorruptWarmPageRefetchedHybrid(t *testing.T) {
	r := newRig(1024, 100*1000*1000)
	inj := r.injector(t, faults.Plan{
		{Site: faults.SiteCorruptPage, Nth: 7, Count: 1},
	})
	rep, err := r.source(Config{Mode: ModeHybrid, Faults: inj}, nil).Migrate()
	if err != nil {
		t.Fatal(err)
	}
	ic := rep.Integrity
	if ic == nil || ic.Mismatches != 1 {
		t.Fatalf("integrity = %+v, want exactly one mismatch", ic)
	}
	if ic.Repairs != 1 {
		t.Fatalf("repairs = %d, want 1 (refetch of the dropped warm page)", ic.Repairs)
	}
	if rep.PostCopy == nil || rep.PostCopy.WarmPages >= 1024 {
		t.Fatal("corrupted warm page was not dropped from the resident set")
	}
}

// With the integrity plane explicitly disabled, in-flight corruption
// completes silently and the destination provably diverges — this is the
// failure mode the audit exists to prevent (and the planted bug the chaos
// search test hunts).
func TestIntegrityDisableIsSilent(t *testing.T) {
	r := newRig(512, 100*1000*1000)
	inj := r.injector(t, faults.Plan{
		{Site: faults.SiteCorruptPage, Nth: 3, Count: 2},
	})
	cfg := Config{Mode: ModeVanilla, Faults: inj}
	cfg.Integrity.Disable = true
	rep, err := r.source(cfg, nil).Migrate()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Integrity != nil {
		t.Fatal("disabled integrity plane still produced a report section")
	}
	if len(inj.Events()) == 0 {
		t.Fatal("corruption never fired")
	}
	// The destination silently diverges: its recorded digests no longer match
	// the source's content for the corrupted pages.
	diverged := 0
	for p := mem.PFN(0); uint64(p) < 512; p++ {
		if got, ok := r.dest.PageDigestAt(p); ok && got != mem.PageDigest(r.dom.Store().AppendExport(nil, p)) {
			diverged++
		}
	}
	if diverged == 0 {
		t.Fatal("corruption went undetected AND the destination matches — impossible")
	}
}

// Property: across seeds and modes, an in-flight corruption never completes
// silently — either the run completes with every mismatch repaired and a
// verified destination, or it aborts cleanly with recovery metadata.
func TestCorruptionNeverSilentAcrossSeeds(t *testing.T) {
	modes := []Mode{ModeVanilla, ModeAppAssisted, ModePostCopy, ModeHybrid}
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		mode := modes[seed%int64(len(modes))]
		plan := faults.Plan{{
			Site:  faults.SiteCorruptPage,
			Nth:   uint64(1 + rng.Intn(300)),
			Count: uint64(1 + rng.Intn(4)),
		}}
		r := newRig(1024, 100*1000*1000)
		inj := r.injector(t, plan)
		rep, err := r.source(Config{Mode: mode, Faults: inj}, nil).Migrate()
		fired := len(inj.Events()) > 0
		if err != nil {
			if rep == nil || rep.Recovery == nil || !rep.Recovery.Aborted {
				t.Fatalf("seed %d (%v): abort without recovery metadata: %v", seed, mode, err)
			}
			continue
		}
		if !fired {
			continue // corruption scheduled past the run's end: nothing to check
		}
		ic := rep.Integrity
		if ic == nil || ic.Mismatches == 0 {
			t.Fatalf("seed %d (%v): corruption fired but no mismatch detected", seed, mode)
		}
		if ic.Repairs != ic.Mismatches {
			t.Fatalf("seed %d (%v): completed with %d repairs for %d mismatches",
				seed, mode, ic.Repairs, ic.Mismatches)
		}
		if rep.PostCopy == nil {
			r.verify(t, rep)
		}
	}
}
