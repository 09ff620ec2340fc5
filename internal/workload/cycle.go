package workload

import (
	"fmt"
	"time"
)

// CycleSpec models a workload's periodic activity cycle: most production
// services breathe — a busy phase (full allocation, operation and dirtying
// rates) alternating with a quiet phase (batch windows, off-peak hours,
// checkpoint lulls) in which the mutator runs at a fraction of its rates.
// The fleet orchestrator exploits exactly this structure (cf. "Exploiting
// Workload Cycles for Orchestration of VM Live Migrations in Clouds"):
// launching a migration inside the quiet window shrinks the dirty rate the
// pre-copy race has to beat, which shrinks both downtime and the throughput
// dip the SLA model prices.
//
// The zero value is a flat profile (no cycle): ActivityAt is 1 everywhere,
// so every existing workload behaves exactly as before.
type CycleSpec struct {
	// Period is the cycle length. Zero disables the cycle entirely.
	Period time.Duration
	// QuietStart is the offset within the period at which the quiet window
	// opens; QuietLen is its length. The window may wrap the period
	// boundary (QuietStart+QuietLen > Period).
	QuietStart time.Duration
	QuietLen   time.Duration
	// QuietFactor is the activity multiplier inside the quiet window
	// (0 < QuietFactor ≤ 1); activity outside the window is 1.
	QuietFactor float64
	// Phase shifts the cycle origin, so a fleet of VMs sharing one clock
	// can have staggered quiet windows.
	Phase time.Duration
}

// Enabled reports whether the spec describes an actual cycle.
func (c CycleSpec) Enabled() bool { return c.Period > 0 }

// Validate rejects malformed specs. The zero value is valid.
func (c CycleSpec) Validate() error {
	if !c.Enabled() {
		return nil
	}
	if c.QuietLen <= 0 || c.QuietLen > c.Period {
		return fmt.Errorf("workload: cycle quiet length %v outside (0, period %v]", c.QuietLen, c.Period)
	}
	if c.QuietStart < 0 || c.QuietStart >= c.Period {
		return fmt.Errorf("workload: cycle quiet start %v outside [0, period %v)", c.QuietStart, c.Period)
	}
	if !(c.QuietFactor > 0 && c.QuietFactor <= 1) { // NaN fails both
		return fmt.Errorf("workload: cycle quiet factor %v outside (0, 1]", c.QuietFactor)
	}
	return nil
}

// pos maps an absolute virtual time onto the cycle position in [0, Period).
func (c CycleSpec) pos(t time.Duration) time.Duration {
	p := (t + c.Phase) % c.Period
	if p < 0 {
		p += c.Period
	}
	return p
}

// QuietAt reports whether t falls inside the quiet window.
func (c CycleSpec) QuietAt(t time.Duration) bool {
	if !c.Enabled() {
		return false
	}
	p := c.pos(t)
	end := c.QuietStart + c.QuietLen
	if end <= c.Period {
		return p >= c.QuietStart && p < end
	}
	// Window wraps the period boundary.
	return p >= c.QuietStart || p < end-c.Period
}

// ActivityAt returns the mutator activity multiplier at t: QuietFactor
// inside the quiet window, 1 elsewhere (and always 1 for a flat spec).
func (c CycleSpec) ActivityAt(t time.Duration) float64 {
	if c.QuietAt(t) {
		return c.QuietFactor
	}
	return 1
}

// NextQuiet returns the earliest time ≥ t at which the quiet window is
// open: t itself when already inside the window. A flat spec is "always
// quiet" — there is no busy phase to avoid — so NextQuiet returns t.
func (c CycleSpec) NextQuiet(t time.Duration) time.Duration {
	if !c.Enabled() || c.QuietAt(t) {
		return t
	}
	p := c.pos(t)
	if p < c.QuietStart {
		return t + (c.QuietStart - p)
	}
	return t + (c.Period - p) + c.QuietStart
}

// QuietRemaining returns how much of the current quiet window is left at t
// (zero when t is outside the window).
func (c CycleSpec) QuietRemaining(t time.Duration) time.Duration {
	if !c.QuietAt(t) {
		return 0
	}
	p := c.pos(t)
	end := c.QuietStart + c.QuietLen
	if end <= c.Period {
		return end - p
	}
	if p >= c.QuietStart {
		return end - p // tail still runs past the period boundary
	}
	return end - c.Period - p
}
