package javmm_test

import (
	"errors"
	"flag"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"javmm"
	"javmm/internal/chaos"
	"javmm/internal/faults"
	"javmm/internal/migration"
	"javmm/internal/obs/ledger"
)

var (
	chaosPlans = flag.Int("chaos-plans", 12,
		"plans per phase of TestChaosSearch (CI runs 200)")
	chaosRepro = flag.String("chaos-repro", "",
		"write TestChaosSearch's shrunken repro (one javmm-migrate CLI line) to this file")
)

// resumeCase is one row of the abort-at-every-site resume matrix: a fault
// plan that (alone or helped by a cancel deadline) aborts a run mid-flight
// at one injection site, and what the resumed run must look like.
type resumeCase struct {
	name string
	spec string
	mode javmm.Mode
	// cancel forces the abort for sites whose fault is transient (bandwidth
	// collapse, netlink loss/delay, a swallowed handshake): the site fires,
	// then CancelAfter aborts the run mid-stream.
	cancel time.Duration
	// fullCopy marks tokens the resume must refuse wholesale: a crashed
	// destination's image is discarded and nothing survives into the token.
	fullCopy bool
	// refetchDominates marks cases where the token is kept but the digest
	// cross-check voids most of it (an always-on corrupt stream): the
	// resume must refetch more pages than it trusts.
	refetchDominates bool
}

func resumeMatrix() []resumeCase {
	return []resumeCase{
		{name: "link-partition", spec: "link.partition@2s,for=120s", mode: javmm.ModeJAVMM},
		{name: "link-bandwidth", spec: "link.bandwidth@500ms,for=60s,factor=0.05",
			mode: javmm.ModeJAVMM, cancel: 2 * time.Second},
		{name: "netlink-loss", spec: "netlink.loss#1,count=64",
			mode: javmm.ModeJAVMM, cancel: 2 * time.Second},
		{name: "netlink-delay", spec: "netlink.delay#1,delay=10ms,count=64",
			mode: javmm.ModeJAVMM, cancel: 2 * time.Second},
		// The swallowed handshake fires at suspension time (~7.4s into this
		// rig's run) and degrades the run to vanilla semantics; the cancel
		// then aborts the degraded run mid-iteration.
		{name: "lkm-handshake", spec: "lkm.handshake",
			mode: javmm.ModeJAVMM, cancel: 8 * time.Second},
		{name: "dest-receive", spec: "dest.receive#100,count=1000000", mode: javmm.ModeJAVMM},
		{name: "dest-crash", spec: "dest.crash@3s", mode: javmm.ModeJAVMM, fullCopy: true},
		{name: "postcopy-fetch", spec: "postcopy.fetch#1,count=1000000", mode: javmm.ModeHybrid},
		// Every page of the aborted run goes out corrupted, so the resume's
		// digest cross-check voids nearly the whole token. (Not quite all of
		// it: in the version-store model a corrupted payload can coincide
		// byte-for-byte with the content a later guest write produced, and a
		// destination page that provably equals the current source content
		// is sound to trust.)
		{name: "corrupt-stream", spec: "corrupt-page-stream,count=1000000",
			mode: javmm.ModeJAVMM, cancel: 2 * time.Second, refetchDominates: true},
	}
}

// cleanBytesCache memoizes the fault-free baseline per mode so the matrix
// boots each baseline VM once.
var cleanBytesCache = map[javmm.Mode]uint64{}

func cleanRunBytes(t *testing.T, mode javmm.Mode) uint64 {
	t.Helper()
	if b, ok := cleanBytesCache[mode]; ok {
		return b
	}
	vm := bootSmall(t, mode == javmm.ModeJAVMM, 7)
	res, err := javmm.Migrate(vm, javmm.MigrateOptions{Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	cleanBytesCache[mode] = res.TotalBytes()
	return cleanBytesCache[mode]
}

// TestAbortResumeEverySite aborts one migration mid-run at every injection
// site, resumes each from its token with the faults detached, and asserts
// the pair converges: the resumed run verifies, both ledgers reconcile with
// their reports, resume-refetch traffic is tagged as such, and the combined
// wire volume stays under twice a clean run of the same mode.
func TestAbortResumeEverySite(t *testing.T) {
	for _, tc := range resumeMatrix() {
		t.Run(tc.name, func(t *testing.T) {
			vm := bootSmall(t, tc.mode == javmm.ModeJAVMM, 7)
			plan, err := javmm.ParseFaultPlan([]string{tc.spec})
			if err != nil {
				t.Fatal(err)
			}
			inj, err := javmm.NewFaultInjector(vm.Clock, plan)
			if err != nil {
				t.Fatal(err)
			}
			ledA := javmm.NewLedger()
			engine := javmm.EngineConfig{}
			engine.Recovery.EnableResume = true
			engine.CancelAfter = tc.cancel
			resA, err := javmm.Migrate(vm, javmm.MigrateOptions{
				Mode:   tc.mode,
				Faults: inj,
				Ledger: ledA,
				Engine: engine,
			})
			if err == nil {
				t.Fatal("faulted run completed; the matrix case must abort mid-run")
			}
			if !errors.Is(err, migration.ErrRetriesExhausted) && !errors.Is(err, migration.ErrDestinationLost) &&
				!errors.Is(err, migration.ErrCancelled) {
				t.Fatalf("abort error %v is not a clean abort", err)
			}
			if len(inj.Events()) == 0 {
				t.Fatalf("site %s never fired before the abort", tc.spec)
			}
			if resA == nil || resA.ResumeToken() == nil {
				t.Fatal("abort with EnableResume minted no resume token")
			}
			// The aborted run's partial ledger still reconciles with its
			// partial report.
			sumA := ledA.Summary()
			if sumA.TotalSends != resA.TotalPagesSent || sumA.TotalBytes != resA.TotalBytes() {
				t.Fatalf("aborted ledger (%d sends, %d bytes) does not reconcile with report (%d, %d)",
					sumA.TotalSends, sumA.TotalBytes, resA.TotalPagesSent, resA.TotalBytes())
			}

			// The guest keeps running (and re-dirtying memory) between the
			// abort and the resume.
			vm.Driver.Run(2 * time.Second)
			if vm.Driver.Err != nil {
				t.Fatal(vm.Driver.Err)
			}

			// Resume with fresh options: the injector stays detached, so the
			// continuation runs fault-free.
			ledB := javmm.NewLedger()
			resB, err := javmm.Resume(vm, resA, javmm.MigrateOptions{Ledger: ledB})
			if err != nil {
				t.Fatalf("resume failed: %v", err)
			}
			if resB.VerifyErr != nil {
				t.Fatalf("resumed destination does not verify: %v", resB.VerifyErr)
			}
			if resB.Mode != tc.mode {
				t.Fatalf("resume ran mode %v, token said %v", resB.Mode, tc.mode)
			}
			rs := resB.Report.Resume
			if rs == nil {
				t.Fatal("resumed run carries no resume section")
			}
			if rs.FullFirstCopy != tc.fullCopy {
				t.Fatalf("FullFirstCopy = %v, want %v (trusted %d, refetch %d)",
					rs.FullFirstCopy, tc.fullCopy, rs.TrustedPages, rs.RefetchPages)
			}
			sumB := ledB.Summary()
			if !tc.fullCopy {
				if rs.TrustedPages == 0 {
					t.Fatal("kept destination but the token vouched for no pages")
				}
				if rs.RefetchPages > 0 && sumB.SendBytes(ledger.ReasonResumeRefetch) == 0 {
					t.Fatalf("%d refetch pages but no resume-refetch traffic in the ledger", rs.RefetchPages)
				}
			}
			if tc.refetchDominates && rs.RefetchPages <= rs.TrustedPages {
				t.Fatalf("corrupted stream, yet trusted %d >= refetched %d",
					rs.TrustedPages, rs.RefetchPages)
			}
			// The resumed run's accounting reconciles in full.
			if _, err := javmm.Attribute(resB, ledB); err != nil {
				t.Fatalf("resumed attribution does not reconcile: %v", err)
			}
			// Combined, the pair reconciles too, and costs less than running
			// the migration twice from scratch.
			clean := cleanRunBytes(t, tc.mode)
			combined := resA.TotalBytes() + resB.TotalBytes()
			if sumA.TotalBytes+sumB.TotalBytes != combined {
				t.Fatalf("combined ledgers %d bytes != combined reports %d bytes",
					sumA.TotalBytes+sumB.TotalBytes, combined)
			}
			if combined >= 2*clean {
				t.Fatalf("abort+resume moved %d bytes, not under 2x the clean run's %d", combined, clean)
			}
		})
	}
}

// TestChaosSearch is the acceptance gate for the chaos plane, and the test
// CI's chaos-search job runs with -chaos-plans=200. Phase one plants the
// known invariant bug — the digest audit disabled — and requires the search
// to find a silently-corrupting plan and shrink it deterministically to a
// minimal repro; phase two runs the same plan population against the real
// configuration and requires every invariant to hold.
func TestChaosSearch(t *testing.T) {
	// Base seed chosen so the planted-bug phase finds a corrupting plan
	// within the default -chaos-plans window.
	const baseSeed = 33

	planted := chaos.Search(chaos.Options{
		Seed: baseSeed, Plans: *chaosPlans, DisableIntegrityAudit: true, Log: t.Logf,
	})
	v := planted.Violation
	if v == nil {
		t.Fatalf("audit disabled, yet no violation in %d plans", planted.PlansRun)
	}
	if v.Invariant != "silent-corruption" {
		t.Fatalf("violation %q (%s), want silent-corruption", v.Invariant, v.Detail)
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
	again := chaos.Search(chaos.Options{
		Seed: baseSeed, Plans: *chaosPlans, DisableIntegrityAudit: true,
	})
	if again.Violation == nil || !reflect.DeepEqual(again.Violation, v) {
		t.Fatalf("chaos search is not deterministic:\n first %+v\nsecond %+v", v, again.Violation)
	}

	repro := strings.Join(v.Repro(), " ")
	t.Logf("planted-bug repro: javmm-migrate %s", repro)
	if *chaosRepro != "" {
		if err := os.WriteFile(*chaosRepro, []byte(repro+"\n"), 0o644); err != nil {
			t.Fatalf("writing repro artifact: %v", err)
		}
	}

	// Phase two: with the audit on, the same window must be violation-free.
	clean := chaos.Search(chaos.Options{Seed: baseSeed, Plans: *chaosPlans, Log: t.Logf})
	if cv := clean.Violation; cv != nil {
		t.Fatalf("invariant %q violated by seed %d (%s): %s\nplan: %v\nrepro: javmm-migrate %s",
			cv.Invariant, cv.Seed, cv.Mode, cv.Detail, cv.Plan, strings.Join(cv.Repro(), " "))
	}
	if clean.PlansRun != *chaosPlans {
		t.Fatalf("clean phase ran %d plans, want %d", clean.PlansRun, *chaosPlans)
	}
}
