// Multiapp: several applications assisting migrations that run concurrently.
//
// The framework's LKM coordinates concurrent skip-over areas from multiple
// applications (§6, "Support large and multiple applications"): it multicasts
// queries over netlink, merges every app's transfer-bitmap updates, and waits
// for ALL apps with skip-over areas to become suspension-ready before asking
// the daemon to pause the VM.
//
// This example boots TWO such VMs — each running a Java workload (serial)
// and a memcached-like cache side by side in 2 GiB — and migrates both at
// the same time over one shared gigabit backbone (Backbone, run through
// Orchestrate): the engines split the link under fair-share arbitration
// while, inside each guest, the JVM skips its young generation and the
// cache app skips its cold tail.
// Everything interleaves on one deterministic clock, so the run is exactly
// reproducible.
//
//	go run ./examples/multiapp
package main

import (
	"fmt"
	"log"
	"time"

	"javmm"
)

func main() {
	serial, err := javmm.Workload("serial")
	if err != nil {
		log.Fatal(err)
	}
	// Keep the combined footprint inside 2 GiB: a 512 MiB young cap for the
	// JVM and a 512 MiB cache.
	serial.MaxYoungBytes = 512 << 20

	for _, mode := range []javmm.Mode{javmm.ModeXen, javmm.ModeJAVMM} {
		assisted := mode == javmm.ModeJAVMM
		cluster, moves := javmm.Backbone([]javmm.Profile{serial, serial}, 0, 0)
		res, err := javmm.Orchestrate(javmm.OrchestratorOptions{
			Cluster: cluster,
			Moves:   moves,
			Mode:    mode,
			Seed:    3,
			Warmup:  180 * time.Second,
			Stagger: 500 * time.Millisecond,
			// Each VM gets a cache app beside the JVM; the returned
			// Multiplex round-robins the guest CPUs between them and
			// replaces the bare driver in the VM's guest process.
			Attach: func(i int, vm *javmm.VM) (javmm.GuestExecutor, error) {
				cache, err := javmm.AttachCacheApp(vm, 0x200000000, 512<<20, assisted)
				if err != nil {
					return nil, err
				}
				return javmm.Multiplex(vm.Driver, cache), nil
			},
		})
		if err != nil {
			log.Fatal(err)
		}

		for i := range res.Moves {
			vm := &res.Moves[i]
			if vm.Err != nil {
				log.Fatalf("%s %s: %v", mode, vm.Name, vm.Err)
			}
			// The cache's purged cold tail keeps its transfer bits cleared,
			// so verification already treats it as skipped-by-consent.
			if vm.VerifyErr != nil {
				log.Fatalf("%s %s: %v", mode, vm.Name, vm.VerifyErr)
			}
			fmt.Printf("%-6s %-10s  time %6.2fs  traffic %5.2f GB  downtime %5.0f ms  young + cold cache skipped = %s\n",
				mode, vm.Name, vm.Report.TotalTime.Seconds(),
				float64(vm.Report.TotalBytes())/1e9,
				vm.WorkloadDowntime.Seconds()*1000,
				skippedVolume(vm))
		}
		var backbone string
		for _, lu := range res.Fabric.Links {
			backbone = fmt.Sprintf("%.2f GB in %d transfers, peak %d concurrent",
				float64(lu.BytesSent)/1e9, lu.Transfers, lu.MaxConcurrent)
		}
		fmt.Printf("%-6s fleet makespan %6.2fs, shared backbone carried %s\n\n",
			mode, res.MakeSpan.Seconds(), backbone)
	}
}

// skippedVolume sums the bitmap-skipped page volume across iterations.
func skippedVolume(vm *javmm.PlanMoveResult) string {
	var pages uint64
	for _, it := range vm.Report.Iterations {
		pages += it.PagesSkippedBitmap
	}
	return fmt.Sprintf("%.2f GB", float64(pages*4096)/1e9)
}
