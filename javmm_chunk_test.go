package javmm_test

import (
	"reflect"
	"testing"
	"time"

	"javmm"
	"javmm/internal/mem"
)

// chunkRun is everything one migration leaves behind that delivery could
// influence.
type chunkRun struct {
	report   *javmm.Report
	workload time.Duration
	verify   error
	ledger   any
	attrib   *javmm.Attribution
	versions []uint64
	digests  []uint64
	received *mem.Bitmap
	rolling  uint64
	pages    uint64
	bytes    uint64
}

// migrateForDelivery boots seed 7, migrates it in mode and returns what the
// run left behind. perPage attaches an injector armed from an empty plan: it
// never fires, but while it is armed the engine hands the destination one
// page at a time instead of one chunk or write run per call. resume aborts
// a first run and returns the resumed run; both runs use the same delivery.
// The first run aborts at a cancel deadline, or by the fault rule abort
// when it is set; a first run under a fault rule delivers page by page in
// both deliveries, so only the resumed run differs.
func migrateForDelivery(t *testing.T, mode javmm.Mode, perPage, resume bool, abort string) chunkRun {
	t.Helper()
	vm := bootSmall(t, mode == javmm.ModeJAVMM, 7)
	opts := func() javmm.MigrateOptions {
		o := javmm.MigrateOptions{Mode: mode, Ledger: javmm.NewLedger()}
		if perPage {
			inj, err := javmm.NewFaultInjector(vm.Clock, javmm.FaultPlan{})
			if err != nil {
				t.Fatal(err)
			}
			o.Faults = inj
		}
		return o
	}
	o := opts()
	if resume {
		o.Engine.Recovery.EnableResume = true
		if abort == "" {
			o.Engine.CancelAfter = 3 * time.Second
		} else {
			plan, err := javmm.ParseFaultPlan([]string{abort})
			if err != nil {
				t.Fatal(err)
			}
			if o.Faults, err = javmm.NewFaultInjector(vm.Clock, plan); err != nil {
				t.Fatal(err)
			}
		}
	}
	res, err := javmm.Migrate(vm, o)
	if resume {
		if err == nil || res.ResumeToken() == nil {
			t.Fatalf("first run did not abort with a resume token (err %v)", err)
		}
		vm.Driver.Run(2 * time.Second)
		o = opts()
		res, err = javmm.Resume(vm, res, o)
	}
	if err != nil {
		t.Fatal(err)
	}
	att, err := javmm.Attribute(res, o.Ledger)
	if err != nil {
		t.Fatal(err)
	}
	d := res.Destination
	run := chunkRun{
		report:   res.Report,
		workload: res.WorkloadDowntime,
		verify:   res.VerifyErr,
		ledger:   o.Ledger.Summary(),
		attrib:   att,
		digests:  d.DigestSnapshot(),
		received: d.ReceivedPages().Clone(),
		rolling:  d.RollingDigest(),
		pages:    d.PagesReceived,
		bytes:    d.BytesReceived,
	}
	for p := mem.PFN(0); uint64(p) < d.Store.NumPages(); p++ {
		run.versions = append(run.versions, d.Store.Version(p))
	}
	return run
}

// TestChunkDeliveryMatchesPerPageDelivery migrates the same seed with chunk
// delivery (no injector) and with per-page delivery (an armed injector that
// never fires). Reports, ledger, attribution, integrity stats including the
// rolling digest, and the destination's image and digest table must all be
// identical.
func TestChunkDeliveryMatchesPerPageDelivery(t *testing.T) {
	cases := []struct {
		name   string
		mode   javmm.Mode
		resume bool
	}{
		{"xen", javmm.ModeXen, false},
		{"javmm", javmm.ModeJAVMM, false},
		{"hybrid", javmm.ModeHybrid, false},
		{"xen-resumed", javmm.ModeXen, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			chunked := migrateForDelivery(t, tc.mode, false, tc.resume, "")
			perPage := migrateForDelivery(t, tc.mode, true, tc.resume, "")
			if chunked.report.Integrity == nil || chunked.report.Integrity.RollingDigest == 0 {
				t.Fatal("run carries no integrity account")
			}
			if tc.resume && (chunked.report.Resume == nil || chunked.report.Resume.TrustedPages == 0) {
				t.Fatal("resumed run trusted no pages; it does not exercise resume-refetch sends")
			}
			if !reflect.DeepEqual(chunked.report, perPage.report) {
				t.Errorf("reports differ:\nchunk:    %+v\nper page: %+v", chunked.report, perPage.report)
			}
			if !reflect.DeepEqual(chunked.ledger, perPage.ledger) {
				t.Errorf("ledger summaries differ:\nchunk:    %+v\nper page: %+v", chunked.ledger, perPage.ledger)
			}
			if !reflect.DeepEqual(chunked.attrib, perPage.attrib) {
				t.Error("attributions differ")
			}
			if chunked.workload != perPage.workload || chunked.verify != nil || perPage.verify != nil {
				t.Errorf("workload downtime %v vs %v, verify %v vs %v",
					chunked.workload, perPage.workload, chunked.verify, perPage.verify)
			}
			if !reflect.DeepEqual(chunked.versions, perPage.versions) {
				t.Error("destination images differ")
			}
			if !reflect.DeepEqual(chunked.digests, perPage.digests) ||
				!reflect.DeepEqual(chunked.received, perPage.received) {
				t.Error("destination digest tables differ")
			}
			if chunked.rolling != perPage.rolling || chunked.pages != perPage.pages || chunked.bytes != perPage.bytes {
				t.Errorf("destination rolling digest/pages/bytes %x/%d/%d vs %x/%d/%d",
					chunked.rolling, chunked.pages, chunked.bytes, perPage.rolling, perPage.pages, perPage.bytes)
			}
		})
	}
}

// TestLazyBatchedDeliveryMatchesPerPageDelivery migrates the same seed with
// the lazy phase fetching each guest write run's faulting pages together
// (no injector) and one page at a time (an armed injector that never
// fires), in post-copy, hybrid and a post-copy run resumed after a demand
// fetch failed for good. Reports with their post-copy and integrity
// accounts, ledger, attribution, and the destination's image, digest table,
// received set and rolling digest must all be identical.
func TestLazyBatchedDeliveryMatchesPerPageDelivery(t *testing.T) {
	cases := []struct {
		name   string
		mode   javmm.Mode
		resume bool
	}{
		{"post-copy", javmm.ModePostCopy, false},
		{"hybrid", javmm.ModeHybrid, false},
		{"post-copy-resumed", javmm.ModePostCopy, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const abort = "postcopy.fetch#5000,count=1000000"
			batched := migrateForDelivery(t, tc.mode, false, tc.resume, abort)
			perPage := migrateForDelivery(t, tc.mode, true, tc.resume, abort)
			pc := batched.report.PostCopy
			if pc == nil || pc.Faults == 0 {
				t.Fatal("run made no demand fetches")
			}
			if batched.report.Integrity == nil || batched.report.Integrity.RollingDigest == 0 {
				t.Fatal("run carries no integrity account")
			}
			if tc.resume && (batched.report.Resume == nil || batched.report.Resume.TrustedPages == 0) {
				t.Fatal("resumed run trusted no pages; it does not exercise resume-refetch fetches")
			}
			if !reflect.DeepEqual(batched.report, perPage.report) {
				t.Errorf("reports differ:\nbatched:  %+v\nper page: %+v", batched.report, perPage.report)
			}
			if !reflect.DeepEqual(pc, perPage.report.PostCopy) {
				t.Errorf("post-copy stats differ:\nbatched:  %+v\nper page: %+v", pc, perPage.report.PostCopy)
			}
			if !reflect.DeepEqual(batched.report.Integrity, perPage.report.Integrity) {
				t.Errorf("integrity accounts differ:\nbatched:  %+v\nper page: %+v",
					batched.report.Integrity, perPage.report.Integrity)
			}
			if !reflect.DeepEqual(batched.ledger, perPage.ledger) {
				t.Errorf("ledger summaries differ:\nbatched:  %+v\nper page: %+v", batched.ledger, perPage.ledger)
			}
			if !reflect.DeepEqual(batched.attrib, perPage.attrib) {
				t.Error("attributions differ")
			}
			if batched.workload != perPage.workload {
				t.Errorf("workload downtime %v vs %v", batched.workload, perPage.workload)
			}
			if !reflect.DeepEqual(batched.versions, perPage.versions) {
				t.Error("destination images differ")
			}
			if !reflect.DeepEqual(batched.digests, perPage.digests) {
				t.Error("destination digest tables differ")
			}
			if !reflect.DeepEqual(batched.received, perPage.received) {
				t.Error("destination received sets differ")
			}
			if batched.rolling != perPage.rolling || batched.pages != perPage.pages || batched.bytes != perPage.bytes {
				t.Errorf("destination rolling digest/pages/bytes %x/%d/%d vs %x/%d/%d",
					batched.rolling, batched.pages, batched.bytes, perPage.rolling, perPage.pages, perPage.bytes)
			}
		})
	}
}
