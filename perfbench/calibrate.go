package main

import "time"

// calibrationNominal is the calibration loop's time on the reference
// machine, about what it takes on an idle 2-vCPU Xeon VM. Host-time metrics
// are scaled to it (see scaled).
const calibrationNominal = 7 * time.Millisecond

var calibrationSink uint64

// calibrate times a fixed piece of work like the simulator's: filling a
// freshly allocated 8 MiB array and reading it back, then 100,000 updates of
// a map at pseudo-random keys. It lives in the benchmark so that no change
// to the simulator can change it. On a shared host it slows down with the
// simulator when neighbours contend for caches and memory bandwidth, so an
// op's host time divided by this loop's time around the op is much
// steadier than the host time alone.
func calibrate() time.Duration {
	start := time.Now()
	big := make([]uint64, 1<<20)
	for i := range big {
		big[i] = uint64(i)
	}
	var sum uint64
	for i := 0; i < len(big); i += 7 {
		sum += big[i]
	}
	m := make(map[uint64]uint64)
	x := uint64(7)
	for i := 0; i < 100_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		m[x>>40] += uint64(i)
	}
	calibrationSink += sum + uint64(len(m))
	return time.Since(start)
}

// scaled converts a host duration measured when the calibration loop took
// cal into seconds on the reference machine, where it takes
// calibrationNominal.
func scaled(d, cal time.Duration) float64 {
	return d.Seconds() * calibrationNominal.Seconds() / cal.Seconds()
}
