package migration

import (
	"reflect"
	"testing"

	"javmm/internal/mem"
	"javmm/internal/obs/perf"
)

// stageSet collects the stage names a profiler recorded.
func stageSet(p *perf.Profiler) map[string]bool {
	out := make(map[string]bool)
	for _, s := range p.Snapshot() {
		out[s.Stage] = true
	}
	return out
}

func TestPerfRecordsPreCopyStages(t *testing.T) {
	r := newRig(4096, 100*1000*1000)
	hot := mem.VARange{Start: 0x1000000, End: 0x1000000 + 128*mem.PageSize}
	sc := newScribbler(r.guest, r.clock, hot, 500)
	sc.skip = []mem.VARange{hot}
	sc.register(r.guest)
	prof := perf.NewProfiler(perf.WithAllocs())
	rep, err := r.source(Config{Mode: ModeAppAssisted, Perf: prof}, sc).Migrate()
	if err != nil {
		t.Fatal(err)
	}
	got := stageSet(prof)
	for _, want := range []string{
		"skip-policy", "wire-codec", "stop-policy", "suspension-protocol",
		"page-sink", "digest-audit",
	} {
		if !got[want] {
			t.Errorf("stage %q not recorded; got %v", want, got)
		}
	}
	// The integrity plane runs under the profiled sink.
	if rep.Integrity == nil {
		t.Fatal("integrity audit did not run under the profiled sink")
	}
	if rep.Integrity.PagesAudited == 0 {
		t.Fatal("integrity audit examined no pages")
	}
	// Per-page stages were called at least once per page sent/considered.
	for _, s := range prof.Snapshot() {
		if s.Calls == 0 || s.SelfNs < 0 || s.TotalNs < s.SelfNs {
			t.Errorf("implausible stage account: %+v", s)
		}
	}
}

func TestPerfRecordsLazyFetchStage(t *testing.T) {
	r := newRig(2048, 100*1000*1000)
	hot := mem.VARange{Start: 0x1000000, End: 0x1000000 + 64*mem.PageSize}
	sc := newScribbler(r.guest, r.clock, hot, 2000)
	prof := perf.NewProfiler()
	rep, err := r.source(Config{Mode: ModePostCopy, Perf: prof}, sc).Migrate()
	if err != nil {
		t.Fatal(err)
	}
	got := stageSet(prof)
	if !got["lazy-fetch"] {
		t.Errorf("lazy-fetch not recorded; got %v", got)
	}
	if !got["page-sink"] {
		t.Errorf("page-sink not recorded in lazy mode; got %v", got)
	}
	if rep.PostCopy == nil || rep.PostCopy.PrefetchPages == 0 {
		t.Fatal("post-copy run moved no pages")
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
	if w1 != scaleWire(mem.PageSize, cfg.CompressionRatio) {
		t.Errorf("first send wire = %d, want compressed size", w1)
	}
	if w2 != scaleWire(mem.PageSize, cfg.DeltaRatio) {
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
