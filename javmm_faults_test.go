package javmm_test

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"javmm"
	"javmm/internal/faults"
	"javmm/internal/migration"
)

// bootSmall boots a modest VM (1 GiB, 256 MiB young cap, short warmup) so
// the 4-mode × many-fault matrix stays fast enough for -race -count=2.
func bootSmall(t *testing.T, assisted bool, seed int64) *javmm.VM {
	t.Helper()
	prof, err := javmm.Workload("derby")
	if err != nil {
		t.Fatal(err)
	}
	prof.MaxYoungBytes = 256 << 20
	if prof.InitialYoungBytes > prof.MaxYoungBytes {
		prof.InitialYoungBytes = prof.MaxYoungBytes
	}
	vm, err := javmm.BootVM(javmm.BootConfig{
		MemBytes: 1 << 30,
		Profile:  prof,
		Assisted: assisted,
		Seed:     seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	vm.Driver.Run(20 * time.Second)
	if vm.Driver.Err != nil {
		t.Fatal(vm.Driver.Err)
	}
	return vm
}

// faultCase is one column of the matrix: a fault plan plus what a run under
// it is allowed to do.
type faultCase struct {
	name  string
	specs []string
	// abort marks plans whose injected failure is permanent: the run must
	// abort cleanly instead of completing.
	abort bool
	// abortOK lists modes where a clean abort is acceptable even though the
	// fault is transient. A partition during post-copy's lazy phase freezes
	// the faulting vCPU, so retry backoff accumulates as stall debt without
	// advancing the virtual clock — the window never heals from inside the
	// fetch path and the run aborts (the post-copy fragility §2 of the
	// paper holds against pre-copy's robustness).
	abortOK []javmm.Mode
	// degradesAssisted marks the plan that downgrades ModeJAVMM runs to
	// vanilla semantics (other modes complete unaffected).
	degradesAssisted bool
	// wantRepairs marks plans that corrupt page payloads in flight: a
	// completed run must account a repair for every digest mismatch.
	wantRepairs bool
}

// matrixCases covers every injection site at least once.
func matrixCases() []faultCase {
	return []faultCase{
		{name: "none", specs: nil},
		{name: "partition", specs: []string{"link.partition@2s,for=300ms"},
			abortOK: []javmm.Mode{javmm.ModePostCopy, javmm.ModeHybrid}},
		{name: "bandwidth", specs: []string{"link.bandwidth@1s,for=2s,factor=0.2"}},
		{name: "netlink-loss", specs: []string{"netlink.loss#2,count=2"}},
		{name: "netlink-delay", specs: []string{"netlink.delay#1,delay=10ms"}},
		{name: "handshake", specs: []string{"lkm.handshake"}, degradesAssisted: true},
		{name: "dest-receive", specs: []string{"dest.receive#100,count=3"}},
		{name: "postcopy-fetch", specs: []string{"postcopy.fetch#1,count=2"}},
		{name: "corrupt-stream", specs: []string{"corrupt-page-stream#40,count=3"},
			wantRepairs: true},
		{name: "dest-crash", specs: []string{"dest.crash@3s"}, abort: true},
		{name: "long-partition", specs: []string{"link.partition@2s,for=120s"}, abort: true},
	}
}

// TestModeFaultMatrix runs every mode against every fault plan and asserts
// the run either completes correctly (verified destination, reconciled
// accounting) or aborts cleanly (source resumed, destination discarded) —
// with no goroutine leaks either way.
func TestModeFaultMatrix(t *testing.T) {
	modes := []struct {
		name string
		mode javmm.Mode
	}{
		{"xen", javmm.ModeXen},
		{"javmm", javmm.ModeJAVMM},
		{"post-copy", javmm.ModePostCopy},
		{"hybrid", javmm.ModeHybrid},
	}
	baseline := runtime.NumGoroutine()
	for _, m := range modes {
		for _, fc := range matrixCases() {
			t.Run(m.name+"/"+fc.name, func(t *testing.T) {
				vm := bootSmall(t, m.mode == javmm.ModeJAVMM, 7)
				plan, err := javmm.ParseFaultPlan(fc.specs)
				if err != nil {
					t.Fatal(err)
				}
				var inj *javmm.FaultInjector
				if len(plan) > 0 {
					if inj, err = javmm.NewFaultInjector(vm.Clock, plan); err != nil {
						t.Fatal(err)
					}
				}
				led := javmm.NewLedger()
				res, err := javmm.Migrate(vm, javmm.MigrateOptions{
					Mode:   m.mode,
					Faults: inj,
					Ledger: led,
				})

				abortAllowed := fc.abort
				for _, am := range fc.abortOK {
					if am == m.mode {
						abortAllowed = true
					}
				}
				if fc.abort && err == nil {
					t.Fatal("run under a permanent fault completed")
				}
				if err != nil {
					if !abortAllowed {
						t.Fatalf("run failed: %v", err)
					}
					if res == nil || res.Report == nil {
						t.Fatal("aborted run returned no partial report")
					}
					rec := res.Recovery
					if rec == nil || !rec.Aborted || rec.AbortReason == "" {
						t.Fatalf("abort not recorded: %+v", rec)
					}
					if vm.Dom.Paused() {
						t.Fatal("source VM left paused after abort")
					}
					if !res.Destination.Discarded() {
						t.Fatal("destination not discarded after abort")
					}
					if !errors.Is(err, migration.ErrRetriesExhausted) && !errors.Is(err, migration.ErrDestinationLost) {
						t.Fatalf("abort error %v is neither retries-exhausted nor destination-lost", err)
					}
					// The source stays usable: it can run and be re-migrated.
					vm.Driver.Run(time.Second)
					if vm.Driver.Err != nil {
						t.Fatalf("source VM broken after abort: %v", vm.Driver.Err)
					}
					return
				}

				if res.VerifyErr != nil {
					t.Fatalf("destination verification failed: %v", res.VerifyErr)
				}
				// The accounting must reconcile byte-for-byte even with
				// faults (and their retries) in the stream.
				if _, err := javmm.Attribute(res, led); err != nil {
					t.Fatalf("attribution does not reconcile: %v", err)
				}
				wantEffective := m.mode
				if fc.degradesAssisted && m.mode == javmm.ModeJAVMM {
					wantEffective = javmm.ModeXen
					rec := res.Recovery
					if rec == nil || rec.Degraded == nil {
						t.Fatal("degradation not recorded")
					}
				}
				if got := res.EffectiveMode(); got != wantEffective {
					t.Fatalf("effective mode %v, want %v", got, wantEffective)
				}
				if fc.wantRepairs {
					ic := res.Report.Integrity
					if ic == nil {
						t.Fatal("corrupting run carries no integrity section")
					}
					// A corrupted page that is re-dirtied and re-sent before
					// the audit converges without a recorded mismatch; every
					// mismatch the audit does catch must have been repaired.
					if ic.Repairs != ic.Mismatches {
						t.Fatalf("completed with %d repairs for %d mismatches", ic.Repairs, ic.Mismatches)
					}
					if len(inj.Events()) == 0 {
						t.Fatal("corruption never fired")
					}
				}
			})
		}
	}
	// The simulator is single-threaded: no run may leave goroutines behind.
	// Allow slack for runtime housekeeping (GC workers, test plumbing).
	if now := runtime.NumGoroutine(); now > baseline+4 {
		t.Fatalf("goroutine leak: %d before matrix, %d after", baseline, now)
	}
}

// migrateTraced runs one faulted migration and returns the report plus the
// serialized JSONL trace.
func migrateTraced(t *testing.T, mode javmm.Mode, specs []string, vmSeed, backoffSeed int64) (*javmm.Report, []byte) {
	t.Helper()
	vm := bootSmall(t, mode == javmm.ModeJAVMM, vmSeed)
	plan, err := javmm.ParseFaultPlan(specs)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := javmm.NewFaultInjector(vm.Clock, plan)
	if err != nil {
		t.Fatal(err)
	}
	tracer := javmm.NewTracer(vm.Clock)
	engine := javmm.EngineConfig{}
	engine.Recovery.Seed = backoffSeed
	res, err := javmm.Migrate(vm, javmm.MigrateOptions{
		Mode:   mode,
		Faults: inj,
		Tracer: tracer,
		Engine: engine,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := javmm.WriteTraceJSONL(&buf, tracer.Events()); err != nil {
		t.Fatal(err)
	}
	return res.Report, buf.Bytes()
}

// TestFaultedRunsAreDeterministic is the reproducibility property the fault
// plane exists for: the same seed and fault plan produce a byte-identical
// report and trace; a different backoff seed produces a different retry
// schedule.
func TestFaultedRunsAreDeterministic(t *testing.T) {
	specs := []string{"link.partition@2s,for=300ms", "dest.receive#50,count=2"}

	rep1, trace1 := migrateTraced(t, javmm.ModeXen, specs, 7, 1)
	rep2, trace2 := migrateTraced(t, javmm.ModeXen, specs, 7, 1)
	if !bytes.Equal(trace1, trace2) {
		t.Fatal("same seed + fault plan produced different JSONL traces")
	}
	if !reflect.DeepEqual(rep1, rep2) {
		t.Fatalf("same seed + fault plan produced different reports:\n%+v\n%+v", rep1, rep2)
	}
	if rep1.Recovery == nil || len(rep1.Recovery.Retries) == 0 {
		t.Fatal("fault plan injected no retries; the property is vacuous")
	}

	// A different backoff seed keeps the faults but reshuffles the jitter.
	rep3, _ := migrateTraced(t, javmm.ModeXen, specs, 7, 99)
	if rep3.Recovery == nil || len(rep3.Recovery.Retries) == 0 {
		t.Fatal("reseeded run recorded no retries")
	}
	schedule := func(r *javmm.Report) []time.Duration {
		var ds []time.Duration
		for _, rr := range r.Recovery.Retries {
			ds = append(ds, rr.Backoff)
		}
		return ds
	}
	if reflect.DeepEqual(schedule(rep1), schedule(rep3)) {
		t.Fatalf("seeds 1 and 99 produced identical backoff schedules: %v", schedule(rep1))
	}
}

// TestFaultTraceCarriesInjectionAndRecovery asserts the acceptance-path
// visibility: an injected handshake timeout shows up in the trace as a
// fault.injected event and a migration.degrade event.
func TestFaultTraceCarriesInjectionAndRecovery(t *testing.T) {
	vm := bootSmall(t, true, 7)
	plan, err := javmm.ParseFaultPlan([]string{"lkm.handshake"})
	if err != nil {
		t.Fatal(err)
	}
	inj, err := javmm.NewFaultInjector(vm.Clock, plan)
	if err != nil {
		t.Fatal(err)
	}
	tracer := javmm.NewTracer(vm.Clock)
	metrics := javmm.NewMetrics(vm.Clock)
	res, err := javmm.Migrate(vm, javmm.MigrateOptions{
		Mode:    javmm.ModeJAVMM,
		Faults:  inj,
		Tracer:  tracer,
		Metrics: metrics,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.EffectiveMode(); got != javmm.ModeXen {
		t.Fatalf("effective mode %v, want xen", got)
	}
	kinds := map[string]int{}
	for _, e := range tracer.Events() {
		kinds[string(e.Kind)]++
	}
	if kinds["fault.injected"] == 0 {
		t.Fatalf("no fault.injected events in trace: %v", kinds)
	}
	if kinds["migration.degrade"] == 0 {
		t.Fatalf("no migration.degrade event in trace: %v", kinds)
	}
	snap := metrics.Snapshot()
	for _, want := range []string{"faults.injected", "migration.degraded"} {
		found := false
		for _, c := range snap.Counters {
			if c.Name == want && c.Value > 0 {
				found = true
			}
		}
		if !found {
			t.Errorf("counter %s missing or zero", want)
		}
	}
	if ev := inj.Events(); len(ev) != 1 || ev[0].Site != faults.SiteLKMHandshake {
		t.Fatalf("injector audit log %+v, want one lkm.handshake event", ev)
	}
}

// TestAbortedRunLeavesSourceRemigratable aborts a run with a crashed
// destination, then migrates the same VM again fault-free and verifies it.
func TestAbortedRunLeavesSourceRemigratable(t *testing.T) {
	vm := bootSmall(t, false, 7)
	plan, err := javmm.ParseFaultPlan([]string{"dest.crash@2s"})
	if err != nil {
		t.Fatal(err)
	}
	inj, err := javmm.NewFaultInjector(vm.Clock, plan)
	if err != nil {
		t.Fatal(err)
	}
	res, err := javmm.Migrate(vm, javmm.MigrateOptions{Mode: javmm.ModeXen, Faults: inj})
	if err == nil {
		t.Fatal("crashed-destination run completed")
	}
	if !errors.Is(err, migration.ErrDestinationLost) {
		t.Fatalf("abort error = %v, want ErrDestinationLost", err)
	}
	if !res.Destination.Discarded() {
		t.Fatal("destination not discarded")
	}

	// Second attempt, no faults: must complete and verify.
	vm.Driver.Run(5 * time.Second)
	if vm.Driver.Err != nil {
		t.Fatal(vm.Driver.Err)
	}
	res2, err := javmm.Migrate(vm, javmm.MigrateOptions{Mode: javmm.ModeXen})
	if err != nil {
		t.Fatalf("re-migration after abort failed: %v", err)
	}
	if res2.VerifyErr != nil {
		t.Fatalf("re-migration verification failed: %v", res2.VerifyErr)
	}
}

// TestFaultSiteCatalog pins the public site list: tooling (CLI help, docs)
// builds on these names.
func TestFaultSiteCatalog(t *testing.T) {
	want := []faults.Site{
		faults.SiteLinkPartition, faults.SiteLinkBandwidth,
		faults.SiteNetlinkLoss, faults.SiteNetlinkDelay,
		faults.SiteLKMHandshake, faults.SiteDestReceive,
		faults.SiteDestCrash, faults.SitePostCopyFetch,
		faults.SiteCorruptPage,
		faults.SiteHostCrash, faults.SiteHostFlaky,
	}
	got := faults.Sites()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("FaultSites() = %v, want %v", got, want)
	}
	// Every site name round-trips through the CLI parser.
	for _, s := range got {
		spec := string(s)
		if s.Windowed() {
			spec += ",for=1s"
		}
		if s == faults.SiteLinkBandwidth {
			spec += ",factor=0.5"
		}
		if s == faults.SiteNetlinkDelay {
			spec += ",delay=1ms"
		}
		r, err := faults.ParseRule(spec)
		if err != nil {
			t.Errorf("ParseFaultRule(%q): %v", spec, err)
			continue
		}
		if r.Site != s {
			t.Errorf("ParseFaultRule(%q).Site = %v", spec, r.Site)
		}
	}
}
