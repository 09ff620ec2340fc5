package migration

import (
	"reflect"
	"testing"

	"javmm/internal/faults"
	"javmm/internal/mem"
	"javmm/internal/obs/perf"
)

// stageFaults are the fault cases the stage call counts are pinned under:
// fault-free, one destination refusal rule and one in-flight corruption
// rule. Both rules arm the injector, which sends every pre-copy page through
// the sink on its own and every demand fetch through the one-page path.
var stageFaults = []struct {
	name string
	plan faults.Plan
}{
	{"fault-free", nil},
	{"dest.receive", faults.Plan{{Site: faults.SiteDestReceive, Nth: 50, Count: 3}}},
	{"corrupt-page-stream", faults.Plan{{Site: faults.SiteCorruptPage, Nth: 20}}},
}

// migrateProfiled migrates r under cfg with a fresh profiler and the given
// fault plan attached to the engine and the destination, and returns the
// profiler's call count per recorded stage.
func migrateProfiled(t *testing.T, r *testRig, cfg Config, exec GuestExecutor, plan faults.Plan) map[string]uint64 {
	t.Helper()
	cfg.Perf = perf.NewProfiler(perf.WithAllocs())
	if plan != nil {
		cfg.Faults = r.injector(t, plan)
		r.dest.SetFaults(cfg.Faults)
	}
	rep, err := r.source(cfg, exec).Migrate()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Integrity == nil || rep.Integrity.PagesAudited == 0 {
		t.Fatal("the integrity plane audited no pages")
	}
	calls := make(map[string]uint64)
	for _, s := range cfg.Perf.Snapshot() {
		if s.Calls == 0 || s.SelfNs < 0 || s.TotalNs < s.SelfNs {
			t.Errorf("implausible stage account: %+v", s)
		}
		calls[s.Stage] = s.Calls
	}
	return calls
}

// TestPerfRecordsPreCopyStages pins how often each stage runs in a pre-copy
// run: skip-policy once per scanned bitmap word and at pause, wire-codec
// once per sent or repaired page, stop-policy once per live iteration,
// suspension-protocol once per handshake call, page-sink once per chunk or
// one-page delivery, and digest-audit once per switchover audit.
func TestPerfRecordsPreCopyStages(t *testing.T) {
	// Indexed like stageFaults.
	want := map[Mode][]map[string]uint64{
		ModeVanilla: {
			{"skip-policy": 129, "wire-codec": 4152, "stop-policy": 3, "page-sink": 7, "digest-audit": 1},
			{"skip-policy": 134, "wire-codec": 4157, "stop-policy": 3, "page-sink": 4160, "digest-audit": 1},
			{"skip-policy": 129, "wire-codec": 4153, "stop-policy": 3, "page-sink": 4153, "digest-audit": 1},
		},
		ModeAppAssisted: {
			{"skip-policy": 127, "wire-codec": 3968, "stop-policy": 2, "suspension-protocol": 5, "page-sink": 4, "digest-audit": 1},
			{"skip-policy": 132, "wire-codec": 3968, "stop-policy": 2, "suspension-protocol": 5, "page-sink": 3971, "digest-audit": 1},
			{"skip-policy": 127, "wire-codec": 3969, "stop-policy": 2, "suspension-protocol": 5, "page-sink": 3969, "digest-audit": 1},
		},
	}
	for _, mode := range []Mode{ModeVanilla, ModeAppAssisted} {
		for i, fc := range stageFaults {
			t.Run(mode.String()+"/"+fc.name, func(t *testing.T) {
				r := newRig(4096, 100*1000*1000)
				hot := mem.VARange{Start: 0x1000000, End: 0x1000000 + 128*mem.PageSize}
				sc := newScribbler(r.guest, r.clock, hot, 500)
				sc.skip = []mem.VARange{hot}
				sc.register(r.guest)
				got := migrateProfiled(t, r, Config{Mode: mode}, sc, fc.plan)
				if !reflect.DeepEqual(got, want[mode][i]) {
					t.Errorf("stage calls:\ngot  %v\nwant %v", got, want[mode][i])
				}
			})
		}
	}
}

// TestPerfRecordsLazyFetchStage pins the stage call counts of the lazy
// engines: lazy-fetch once per prefetch push and per demand-fetch run (per
// page while the injector is armed), page-sink once per delivery or fetched
// run, digest-audit once per verification, and in hybrid's warm phase the
// pre-copy stages besides.
func TestPerfRecordsLazyFetchStage(t *testing.T) {
	// Indexed like stageFaults.
	want := map[Mode][]map[string]uint64{
		ModePostCopy: {
			{"page-sink": 1994, "lazy-fetch": 1994, "digest-audit": 1994},
			{"page-sink": 2051, "lazy-fetch": 2048, "digest-audit": 2048},
			{"page-sink": 2049, "lazy-fetch": 2048, "digest-audit": 2049},
		},
		ModeHybrid: {
			{"skip-policy": 96, "wire-codec": 2144, "stop-policy": 2, "page-sink": 21, "lazy-fetch": 17, "digest-audit": 18},
			{"skip-policy": 96, "wire-codec": 2144, "stop-policy": 2, "page-sink": 2211, "lazy-fetch": 64, "digest-audit": 65},
			{"skip-policy": 96, "wire-codec": 2144, "stop-policy": 2, "page-sink": 2209, "lazy-fetch": 65, "digest-audit": 66},
		},
	}
	for _, mode := range []Mode{ModePostCopy, ModeHybrid} {
		for i, fc := range stageFaults {
			t.Run(mode.String()+"/"+fc.name, func(t *testing.T) {
				r := newRig(2048, 100*1000*1000)
				hot := mem.VARange{Start: 0x1000000, End: 0x1000000 + 64*mem.PageSize}
				sc := newScribbler(r.guest, r.clock, hot, 200000)
				sc.runs = true
				got := migrateProfiled(t, r, Config{Mode: mode}, sc, fc.plan)
				if !reflect.DeepEqual(got, want[mode][i]) {
					t.Errorf("stage calls:\ngot  %v\nwant %v", got, want[mode][i])
				}
			})
		}
	}
}

// TestPerfProfilerTransparent is the plane's core contract: attaching the
// profiler must not change the deterministic outcome in any way. Identical
// rigs with and without Perf must produce deeply equal reports.
func TestPerfProfilerTransparent(t *testing.T) {
	for _, mode := range []Mode{ModeVanilla, ModeAppAssisted, ModePostCopy, ModeHybrid} {
		t.Run(mode.String(), func(t *testing.T) {
			run := func(prof *perf.Profiler) *Report {
				r := newRig(2048, 100*1000*1000)
				hot := mem.VARange{Start: 0x1000000, End: 0x1000000 + 64*mem.PageSize}
				sc := newScribbler(r.guest, r.clock, hot, 1000)
				if mode == ModeAppAssisted {
					sc.skip = []mem.VARange{hot}
					sc.register(r.guest)
				}
				rep, err := r.source(Config{Mode: mode, Perf: prof}, sc).Migrate()
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
			plain := run(nil)
			profiled := run(perf.NewProfiler(perf.WithAllocs(), perf.WithPprofLabels()))
			if !reflect.DeepEqual(plain, profiled) {
				t.Errorf("profiler changed the report:\nplain:    %+v\nprofiled: %+v", plain, profiled)
			}
		})
	}
}

func TestNewWireCodecMatchesBindStages(t *testing.T) {
	// The exported constructor must build the same chain bindStages uses:
	// encode a resent page through a full delta+hint+compress chain both
	// ways and compare wire sizes.
	cfg := Config{Compress: true, DeltaCompression: true}
	cfg.FillDefaults()
	var resends uint64
	codec, cache := cfg.NewWireCodec(128, nil, &resends)
	if cache != 128*mem.PageSize {
		t.Fatalf("delta cache = %d, want %d", cache, 128*mem.PageSize)
	}
	w1, _ := codec.Encode(7, mem.PageSize)
	w2, _ := codec.Encode(7, mem.PageSize)
	if w1 != scaleWire(mem.PageSize, compressionRatio) {
		t.Errorf("first send wire = %d, want compressed size", w1)
	}
	if w2 != scaleWire(mem.PageSize, deltaRatio) {
		t.Errorf("resend wire = %d, want delta size", w2)
	}
	if resends != 1 {
		t.Errorf("resends = %d, want 1", resends)
	}

	// Raw chain: no delta cache, identity encode.
	raw := Config{}
	raw.FillDefaults()
	rc, cache := raw.NewWireCodec(128, nil, nil)
	if cache != 0 {
		t.Errorf("raw chain reported delta cache %d", cache)
	}
	if w, cpu := rc.Encode(0, mem.PageSize); w != mem.PageSize || cpu != 0 {
		t.Errorf("raw encode = (%d, %v), want identity", w, cpu)
	}
}
