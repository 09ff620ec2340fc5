package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
)

// shortest makes a run do its untimed op and exactly one timed op.
const shortest = 1e-9

// benchRun is one run's parsed output.
type benchRun struct {
	res    result
	stdout string
}

var runCache = map[string]*benchRun{}

// runBench runs the benchmark through run, as the command does, and parses
// the JSON result from the last output line. Results are cached per
// (workload, seed, trace), because each run costs seconds.
func runBench(t *testing.T, workload string, seed int64, trace bool) *benchRun {
	t.Helper()
	key := fmt.Sprint(workload, seed, trace)
	if r, ok := runCache[key]; ok {
		return r
	}
	var out, errOut bytes.Buffer
	c := config{workload: workload, seed: seed, seconds: shortest, trace: trace}
	if err := run(c, &out, &errOut); err != nil {
		t.Fatalf("%s: %v", key, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	r := &benchRun{stdout: out.String()}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r.res); err != nil {
		t.Fatalf("%s: last line is not the result: %v", key, err)
	}
	if r.res.Failed != 0 || !r.res.Correct {
		t.Fatalf("%s: %d of %d ops failed:\n%s", key, r.res.Failed, r.res.Attempted, errOut.String())
	}
	runCache[key] = r
	return r
}

func skipFleetIfShort(t *testing.T, w spec) {
	if w.fleet && testing.Short() {
		t.Skip("a fleet op takes seconds; skipped with -short")
	}
}

// TestWorkloadsSmoke runs every workload for one timed op at seed 1.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			skipFleetIfShort(t, w)
			r := runBench(t, w.name, 1, false)
			if r.res.Attempted != 2 {
				t.Errorf("attempted %d ops, want the untimed op plus one", r.res.Attempted)
			}
			for name, m := range r.res.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
				}
			}
		})
	}
}

// TestSeed2Clean runs every workload at another benchmark seed.
func TestSeed2Clean(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			skipFleetIfShort(t, w)
			runBench(t, w.name, 2, false)
		})
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestPrintedNames checks that every metric is printed as "name value unit"
// with a well-formed name and unit, in both the end-to-end and traced runs.
func TestPrintedNames(t *testing.T) {
	for _, trace := range []bool{false, true} {
		r := runBench(t, "assisted-javmm", 1, trace)
		if len(r.res.Metrics) == 0 {
			t.Fatalf("trace=%v: no metrics", trace)
		}
		for name, m := range r.res.Metrics {
			if !nameRE.MatchString(name) {
				t.Errorf("metric name %q does not match %s", name, nameRE)
			}
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("metric %s has unit %q", name, m.Unit)
			}
			if !regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` \S+ ` + regexp.QuoteMeta(m.Unit) + `$`).MatchString(r.stdout) {
				t.Errorf("no %q line with its value and unit in the output", name)
			}
		}
	}
}

// TestInjectedMismatchFails checks that an op whose deterministic block
// differs from the first op's at the same seed counts as failed, and that
// the run keeps going.
func TestInjectedMismatchFails(t *testing.T) {
	w, _ := lookupWorkload("assisted-javmm")
	rep := &report{res: result{Metrics: map[string]metric{}}}
	k := newChecker(w, rep, io.Discard)
	k.refs[1] = "a block no op produces"
	if k.do(1, passPlain) != nil {
		t.Error("an op that differs from its seed's first op succeeded")
	}
	if k.do(2, passPlain) == nil {
		t.Error("the op after a failed one failed too")
	}
	if rep.res.Attempted != 2 || rep.res.Failed != 1 {
		t.Errorf("attempted %d, failed %d; want 2 and 1", rep.res.Attempted, rep.res.Failed)
	}
}

// TestTracedPassesTransparent checks that the traced run's three passes
// reproduce the untraced op's deterministic block on every workload.
func TestTracedPassesTransparent(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			skipFleetIfShort(t, w)
			ref, err := scenario(w, 1, passPlain)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []pass{passA, passB, passC} {
				r, err := scenario(w, 1, p)
				if err != nil {
					t.Fatalf("pass %d: %v", p, err)
				}
				if r.det != ref.det {
					t.Errorf("pass %d changed the deterministic block:\nuntraced: %s\ntraced:   %s", p, ref.det, r.det)
				}
				if p != passA && len(r.stages) == 0 {
					t.Errorf("pass %d recorded no stages", p)
				}
			}
		})
	}
}

// benchmarkFile is the subset of BENCHMARK.json the consistency test reads.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesCode fails if BENCHMARK.json names a workload or
// metric the code does not emit, or the code emits one it does not name.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}

	if fmt.Sprint(b.Paths) != "[perfbench]" || b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", b.Paths, b.RunSeconds)
	}
	var jsonWorkloads, codeWorkloads []string
	for _, w := range b.Workloads {
		jsonWorkloads = append(jsonWorkloads, w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is not one line of at most 200 characters", w.Name)
		}
	}
	for _, w := range workloads {
		codeWorkloads = append(codeWorkloads, w.name)
	}
	if fmt.Sprint(jsonWorkloads) != fmt.Sprint(codeWorkloads) {
		t.Errorf("BENCHMARK.json workloads %v, code runs %v", jsonWorkloads, codeWorkloads)
	}

	var setupBound, maxBound float64
	e2e := map[string]string{}
	for _, m := range b.EndToEnd {
		e2e[m.Name] = m.Unit
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside [0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
		maxBound = max(maxBound, m.Bound)
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
	layer := map[string]string{}
	for _, m := range b.PerLayer {
		layer[m.Name] = m.Unit
	}
	compare := func(kind string, want map[string]string, got map[string]metric) {
		for name, unit := range want {
			m, ok := got[name]
			if !ok {
				t.Errorf("%s metric %s is in BENCHMARK.json but not emitted", kind, name)
			} else if m.Unit != unit {
				t.Errorf("%s metric %s: BENCHMARK.json unit %q, emitted %q", kind, name, unit, m.Unit)
			}
		}
		for name := range got {
			if _, ok := want[name]; !ok {
				t.Errorf("%s metric %s is emitted but not in BENCHMARK.json", kind, name)
			}
		}
	}
	compare("end-to-end", e2e, runBench(t, "assisted-javmm", 1, false).res.Metrics)
	compare("per-layer", layer, runBench(t, "assisted-javmm", 1, true).res.Metrics)
}
