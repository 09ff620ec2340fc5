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
// page at a time instead of one chunk per call. resume aborts a first run
// with a cancel deadline and returns the resumed run; both runs use the same
// delivery.
func migrateForDelivery(t *testing.T, mode javmm.Mode, perPage, resume bool) chunkRun {
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
		o.Engine.CancelAfter = 3 * time.Second
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
			chunked := migrateForDelivery(t, tc.mode, false, tc.resume)
			perPage := migrateForDelivery(t, tc.mode, true, tc.resume)
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
