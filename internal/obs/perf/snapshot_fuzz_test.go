package perf

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadSnapshot: reading a bench snapshot never panics, and whatever it
// accepts re-exports stably. The first export normalizes the input (entries
// sorted by name, kernel keys sorted); reading that export and exporting
// again must give the same bytes.
func FuzzReadSnapshot(f *testing.F) {
	var seed bytes.Buffer
	if err := WriteSnapshot(&seed, &Snapshot{
		Schema: SchemaVersion,
		Label:  "seed",
		Seed:   1,
		Scenarios: []Scenario{
			{
				Name: "e2e/derby/xen/raw",
				Deterministic: Deterministic{
					Mode: "xen", Workload: "derby", Codec: "raw",
					TotalVirtualNs: 9e9, Iterations: 30, PagesSent: 1 << 20,
					RollingDigest: "00000000deadbeef",
				},
				Timing: Timing{Runs: 3, NsPerOp: 1e8, AllocsPerOp: 110, PagesPerSec: 1.5e7},
				Stages: []StageShare{{Stage: "skip-policy", Calls: 12, SelfNs: 40, Share: 0.25}},
			},
			{Name: "e2e/crypto/javmm/raw", Deterministic: Deterministic{Mode: "javmm", EnforcedGC: true}},
		},
		Kernels: []Kernel{{
			Name:          "kernel/mem/page-digest-4k",
			Deterministic: map[string]int64{"digest": -7, "bytes": 4096},
			Timing:        Timing{Runs: 1, NsPerOp: 900},
		}},
	}); err != nil {
		f.Fatal(err)
	}
	for _, s := range []string{
		seed.String(),
		`{"schema":"javmm-bench/v1","seed":-1,"scenarios":null,"kernels":[]}`,
		`{"schema":"javmm-bench/v1","scenarios":[{"name":"b"},{"name":"a","timing":{"pages_per_sec":1e300}}]}`,
		`{"schema":"javmm-bench/v1","kernels":[{"name":"k","deterministic":{"z":1,"a":2}},{"name":"k"}]}`,
		`{"schema":"javmm-bench/v0"}`,
		`{"schema":"javmm-bench/v1","extra":true}`,
		`{"schema":"javmm-bench/v1"} trailing`,
		"{not json}",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		s, err := ReadSnapshot(strings.NewReader(text))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := WriteSnapshot(&first, s); err != nil {
			t.Fatal(err)
		}
		again, err := ReadSnapshot(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("export of an accepted snapshot does not read back: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := WriteSnapshot(&second, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("re-export differs:\nfirst:  %s\nsecond: %s", first.Bytes(), second.Bytes())
		}
	})
}
