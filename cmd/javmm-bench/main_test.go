package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"javmm"
	"javmm/internal/obs/perf"
)

// benchQuick drives the real harness in quick mode and returns the parsed
// snapshot. Every test shares the two runs produced by TestMain-less lazy
// initialization below, because each run costs seconds of wall time.
func benchQuick(t *testing.T, path string) *perf.Snapshot {
	t.Helper()
	o := options{
		Out:    path,
		Seed:   1,
		MemMiB: 2048,
		Runs:   1,
		Quick:  true,
	}
	if err := run(o, io.Discard); err != nil {
		t.Fatalf("quick bench run: %v", err)
	}
	s, err := perf.ReadSnapshotFile(path)
	if err != nil {
		t.Fatalf("reading snapshot back: %v", err)
	}
	return s
}

// compareFiles drives the -compare code path exactly as the CLI would.
func compareFiles(reportOnly bool, oldPath, newPath string) error {
	return run(options{
		Compare:    true,
		ReportOnly: reportOnly,
		Args:       []string{oldPath, newPath},
	}, io.Discard)
}

// writeSnap persists a (possibly mutated) snapshot for the comparator.
func writeSnap(t *testing.T, path string, s *perf.Snapshot) {
	t.Helper()
	var buf bytes.Buffer
	if err := perf.WriteSnapshot(&buf, s); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestHarness runs the quick matrix twice and asserts the full acceptance
// contract on the artifacts: byte-identical deterministic sections across
// runs, and a comparator that passes clean inputs, fails injected timing
// regressions (unless report-only), and fails deterministic drift always.
func TestHarness(t *testing.T) {
	if testing.Short() {
		t.Skip("quick bench runs take seconds; skipped with -short")
	}
	dir := t.TempDir()
	p1 := filepath.Join(dir, "q1.json")
	p2 := filepath.Join(dir, "q2.json")
	s1 := benchQuick(t, p1)
	s2 := benchQuick(t, p2)

	if len(s1.Scenarios) == 0 || len(s1.Kernels) == 0 {
		t.Fatalf("empty snapshot: %d scenarios, %d kernels", len(s1.Scenarios), len(s1.Kernels))
	}

	t.Run("deterministic-bytes-identical", func(t *testing.T) {
		b1, b2 := s1.DeterministicBytes(), s2.DeterministicBytes()
		if !bytes.Equal(b1, b2) {
			t.Errorf("two runs at the same seed diverged:\nrun1: %s\nrun2: %s", b1, b2)
		}
	})

	t.Run("scenario-sanity", func(t *testing.T) {
		for _, sc := range s1.Scenarios {
			if sc.Deterministic.PagesSent == 0 {
				t.Errorf("%s: sent no pages", sc.Name)
			}
			if sc.Timing.NsPerOp <= 0 {
				t.Errorf("%s: NsPerOp = %d", sc.Name, sc.Timing.NsPerOp)
			}
			if len(sc.Stages) == 0 {
				t.Errorf("%s: no stage breakdown from the accounting run", sc.Name)
			}
		}
		for _, k := range s1.Kernels {
			if len(k.Deterministic) == 0 {
				t.Errorf("%s: no deterministic check values", k.Name)
			}
		}
	})

	t.Run("compare-identical-passes", func(t *testing.T) {
		if err := compareFiles(false, p1, p1); err != nil {
			t.Errorf("identical snapshots compared unequal: %v", err)
		}
	})

	t.Run("compare-catches-timing-regression", func(t *testing.T) {
		reg, err := perf.ReadSnapshotFile(p1)
		if err != nil {
			t.Fatal(err)
		}
		// Inject a 2x slowdown — far past every threshold, and past the 20%
		// bound the acceptance criteria name.
		reg.Scenarios[0].Timing.NsPerOp *= 2
		pr := filepath.Join(t.TempDir(), "regressed.json")
		writeSnap(t, pr, reg)
		if err := compareFiles(false, p1, pr); !errors.Is(err, errCompareFailed) {
			t.Errorf("2x NsPerOp regression not caught: err = %v", err)
		}
		// Report-only mode tolerates timing regressions (CI advisory lane).
		if err := compareFiles(true, p1, pr); err != nil {
			t.Errorf("report-only rejected a timing-only regression: %v", err)
		}
	})

	t.Run("compare-catches-deterministic-drift", func(t *testing.T) {
		drift, err := perf.ReadSnapshotFile(p1)
		if err != nil {
			t.Fatal(err)
		}
		drift.Scenarios[0].Deterministic.PagesSent++
		pd := filepath.Join(t.TempDir(), "drifted.json")
		writeSnap(t, pd, drift)
		// Deterministic drift is fatal in BOTH modes: report-only only
		// relaxes timing judgments, never behavior changes.
		if err := compareFiles(false, p1, pd); !errors.Is(err, errCompareFailed) {
			t.Errorf("deterministic drift not caught: err = %v", err)
		}
		if err := compareFiles(true, p1, pd); !errors.Is(err, errCompareFailed) {
			t.Errorf("deterministic drift not caught in report-only mode: err = %v", err)
		}
	})

	t.Run("compare-catches-missing-entry", func(t *testing.T) {
		missing, err := perf.ReadSnapshotFile(p1)
		if err != nil {
			t.Fatal(err)
		}
		missing.Kernels = missing.Kernels[1:]
		pm := filepath.Join(t.TempDir(), "missing.json")
		writeSnap(t, pm, missing)
		if err := compareFiles(true, p1, pm); !errors.Is(err, errCompareFailed) {
			t.Errorf("missing kernel not caught: err = %v", err)
		}
	})

	t.Run("snapshot-round-trip", func(t *testing.T) {
		var first, second bytes.Buffer
		if err := perf.WriteSnapshot(&first, s1); err != nil {
			t.Fatal(err)
		}
		rt, err := perf.ReadSnapshot(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if err := perf.WriteSnapshot(&second, rt); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Error("write -> read -> write did not round-trip byte-identically")
		}
	})
}

func TestCompareArgValidation(t *testing.T) {
	if err := run(options{Compare: true, Args: []string{"only-one.json"}}, io.Discard); err == nil {
		t.Error("one positional arg accepted by -compare")
	}
}

// allocSink keeps the objects TestReadAllocsCountsEverySmallObject allocates
// reachable, so escape analysis cannot move them to the stack.
var allocSink []*[16]byte

// Every small object allocated between two readings is counted, at once: a
// counter that books objects only when a P's cached span is flushed would
// read a fraction of them.
func TestReadAllocsCountsEverySmallObject(t *testing.T) {
	const n = 1000
	allocSink = make([]*[16]byte, n)
	before := readAllocs()
	for i := range allocSink {
		allocSink[i] = new([16]byte)
	}
	got := readAllocs().sub(before)
	allocSink = nil
	const slack = 4
	if got.objects < n || got.objects > n+slack {
		t.Fatalf("counted %d objects for %d allocations (allowed +%d)", got.objects, n, slack)
	}
	if got.bytes < n*16 {
		t.Fatalf("counted %d bytes for %d 16-byte objects", got.bytes, n)
	}
}

// A move whose Report does not reconcile with its own iteration series fails
// the cell, as an engine or plan error would.
func TestMoveBlocksRejectsUnreconciledMove(t *testing.T) {
	move := func(totalPages uint64) []javmm.PlanMoveResult {
		return []javmm.PlanMoveResult{{
			Name: "vm0",
			Report: &javmm.Report{
				Mode: javmm.ModeXen,
				Iterations: []javmm.IterationStats{
					{Index: 1, PagesSent: 100, BytesOnWire: 100 * 4096},
					{Index: 2, Last: true, PagesSent: 7, BytesOnWire: 7 * 4096},
				},
				TotalPagesSent: totalPages,
				VMDowntime:     200 * time.Millisecond,
				Resumption:     170 * time.Millisecond,
			},
			WorkloadDowntime: 200 * time.Millisecond,
		}}
	}
	label := func(int) string { return "derby" }
	dets, err := moveBlocks(move(107), label)
	if err != nil {
		t.Fatalf("reconciled move rejected: %v", err)
	}
	if dets[0].PagesSent != 107 || dets[0].Workload != "derby" {
		t.Fatalf("deterministic block = %+v", dets[0])
	}
	if _, err := moveBlocks(move(108), label); err == nil {
		t.Fatal("a move whose TotalPagesSent is off by one passed the check")
	}
}
