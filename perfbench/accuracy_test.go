package main

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestAccuracyAgainstPaper derives derby's JAVMM-vs-Xen reductions in
// migration time, traffic and downtime at scenario seed 1 from the
// precopy-xen and assisted-javmm ops. It asserts them against the measured
// column of EXPERIMENTS.md (Figure 10) and logs the error against the
// paper's reductions.
func TestAccuracyAgainstPaper(t *testing.T) {
	op := func(name string) *opResult {
		w, err := lookupWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		r, err := scenario(w, 1, passPlain)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	xen, assisted := op("precopy-xen"), op("assisted-javmm")

	for _, c := range []struct {
		metric          string
		xen, assisted   float64
		measured, paper float64 // reduction in percent
	}{
		{"time", xen.sim.totalS, assisted.sim.totalS, -83, -82},
		{"traffic", xen.sim.wireMiB, assisted.sim.wireMiB, -85, -84},
		{"downtime", xen.sim.downtimeMs, assisted.sim.downtimeMs, -79, -83},
	} {
		got := 100 * (c.assisted/c.xen - 1)
		t.Logf("%-8s xen %.4g -> javmm %.4g: %+.1f %% (EXPERIMENTS.md %+.0f %%, paper %+.0f %%, error vs paper %+.1f points)",
			c.metric, c.xen, c.assisted, got, c.measured, c.paper, got-c.paper)
		if math.Round(got) != c.measured {
			t.Errorf("%s reduction %+.1f %% does not round to EXPERIMENTS.md's %+.0f %%", c.metric, got, c.measured)
		}
	}
}

// TestPinnedSeedOne pins the simulated outcome of scenario seed 1 on every
// workload, so a change to the simulation shows here before it shows as a
// moved sim_* median.
func TestPinnedSeedOne(t *testing.T) {
	for _, c := range []struct {
		workload string
		pages    string  // page sends, single-VM workloads
		wireB    float64 // bytes on the wire
		total    string  // virtual migration time (fleet: makespan)
		sla      string  // default-SLA cost
	}{
		{"precopy-xen", "PagesSent:1790074 ", 7332143104, "62.837889532", "6.273"},
		{"assisted-javmm", "PagesSent:270028 ", 1106034688, "10.715712892", "1.314"},
		{"postcopy", "PagesSent:524288 ", 2147483648, "61.268798680", "0.232"},
		{"fleet-evacuate", "", 6804570112, "104.626420714", "3.830"},
	} {
		t.Run(c.workload, func(t *testing.T) {
			w, err := lookupWorkload(c.workload)
			if err != nil {
				t.Fatal(err)
			}
			skipFleetIfShort(t, w)
			r, err := scenario(w, 1, passPlain)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(r.det, c.pages) {
				t.Errorf("deterministic block has no %q: %s", c.pages, r.det)
			}
			if got := r.sim.wireMiB * (1 << 20); got != c.wireB {
				t.Errorf("wire bytes %.0f, want %.0f", got, c.wireB)
			}
			if got := fmt.Sprintf("%.9f", r.sim.totalS); got != c.total {
				t.Errorf("total %s s, want %s s", got, c.total)
			}
			if got := fmt.Sprintf("%.3f", r.sim.slaCost); got != c.sla {
				t.Errorf("sla cost %s, want %s", got, c.sla)
			}
		})
	}
}
