// Package fleet runs N live migrations concurrently on one deterministic
// virtual clock, contending for a shared network fabric.
//
// Orchestrate is the one runner. Each VM gets two cooperative scheduler
// processes: a guest process that keeps the workload executing (and dirtying
// memory) in small quanta, and an engine process that parks until the
// orchestrator grants its move and then drives the migration. Bulk transfers
// go through fabric ports, so concurrent engines split shared links under
// progressive fair-share arbitration; everything else — pre-copy rounds, the
// suspension handshake, stop-and-copy — interleaves through the scheduler at
// timer granularity. Same options, same result, bit for bit, regardless of
// goroutine scheduling (DESIGN.md §15).
package fleet

import (
	"fmt"
	"time"

	"javmm/internal/netsim"
	"javmm/internal/workload"
)

// Backbone declares the simplest fleet: every VM on its own source host,
// all moving to one destination across one shared link. Hosts src0 …
// src<n-1> and dst join link "backbone" (bandwidth bytes/sec, default
// gigabit-effective; 100 µs latency); VM i runs profiles[i] as
// "<profile>-<i>" on src<i> with memBytes of memory (default 2 GiB); move i
// takes it from src<i> to dst. Run the moves with Orchestrate under
// OrderNaive, staggered by OrchestratorOptions.Stagger.
func Backbone(profiles []workload.Profile, memBytes, bandwidth uint64) (*Cluster, []Move) {
	if bandwidth == 0 {
		bandwidth = netsim.GigabitEffective
	}
	c := &Cluster{}
	moves := make([]Move, len(profiles))
	hosts := make([]string, 0, len(profiles)+1)
	for i := range profiles {
		prof := profiles[i]
		src := fmt.Sprintf("src%d", i)
		vm := VMSpec{
			Name:     fmt.Sprintf("%s-%d", prof.Name, i),
			Host:     src,
			Workload: prof.Name,
			MemBytes: memBytes,
			Tuned:    &prof,
		}
		c.Hosts = append(c.Hosts, HostSpec{Name: src})
		c.VMs = append(c.VMs, vm)
		hosts = append(hosts, src)
		moves[i] = Move{VM: vm, From: src, To: "dst"}
	}
	c.Hosts = append(c.Hosts, HostSpec{Name: "dst"})
	if len(profiles) > 0 {
		c.Links = []LinkSpec{{
			Name:      "backbone",
			Bandwidth: bandwidth,
			Latency:   100 * time.Microsecond,
			Hosts:     append(hosts, "dst"),
		}}
	}
	return c, moves
}
