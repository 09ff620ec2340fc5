// Package cacheapp implements a memcached-like in-guest caching application,
// the second application family the paper's §6 proposes for the
// application-assisted migration framework: "the application can specify a
// portion of its caching memory space to be skipped over by the migration
// daemon, effectively shrinking the cache in the destination. To reduce the
// resulting performance impact ... the application can purge the least
// frequently and/or the least recently used cache data."
//
// The app keeps a contiguous cache region: a hot head (frequently written,
// always retained) and a cold tail (LRU victims). During migration it
// reports the cold tail as its skip-over area; when asked to prepare for
// suspension it purges those entries from its index and confirms readiness.
// After resumption the cold tail is empty: lookups that would have hit it
// miss and refill it gradually, which is the throughput dip the extension
// trades for migration speed.
package cacheapp

import (
	"errors"
	"fmt"
	"time"

	"javmm/internal/guestos"
	"javmm/internal/mem"
	"javmm/internal/simclock"
)

// Config parameterizes the cache application.
type Config struct {
	Guest *guestos.Guest
	Clock *simclock.Clock

	// CacheBase/CacheBytes place the cache region in the process VA space.
	CacheBase  mem.VA
	CacheBytes uint64

	// Assisted registers the app with the LKM for app-assisted migration.
	Assisted bool
}

// The cache's service model.
const (
	// hotFraction of the cache is retained across migration.
	hotFraction = 0.25
	// opsPerSec is the request rate at full hit ratio.
	opsPerSec = 10000
	// writePagesPerSec is the steady-state update rate (hot pages).
	writePagesPerSec = 5000
	// refillPagesPerSec is how fast cold misses repopulate the purged tail
	// after resumption.
	refillPagesPerSec = 2000
	// missPenalty scales throughput for the purged fraction: a request
	// hitting a purged entry completes at missPenalty of hit speed.
	missPenalty = 0.3
)

func (c *Config) fillDefaults() error {
	if c.Guest == nil || c.Clock == nil {
		return errors.New("cacheapp: Guest and Clock are required")
	}
	if c.CacheBytes == 0 {
		return errors.New("cacheapp: CacheBytes is required")
	}
	if c.CacheBase == 0 {
		c.CacheBase = 1 << 30
	}
	return nil
}

// App is a running cache application. It implements
// migration.GuestExecutor.
type App struct {
	cfg   Config
	proc  *guestos.Process
	sock  *guestos.Socket
	clock *simclock.Clock

	region mem.VARange
	hotEnd mem.VA // [region.Start, hotEnd) is retained across migration

	// purged tracks how much of the cold tail is invalid (bytes from the
	// cold start). refillCursor advances as misses repopulate it.
	purgedFrom   mem.VA // purged range is [purgedFrom, region.End); 0 = none
	refillCursor mem.VA

	writeCursor mem.VA // cyclic hot-page update position
	writeCarry  float64
	refillCarry float64

	TotalOps  float64
	Purges    int
	migrating bool
}

// Launch maps the cache region, pre-populates it and (optionally) registers
// the app with the LKM.
func Launch(cfg Config) (*App, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	a := &App{cfg: cfg, clock: cfg.Clock}
	a.proc = cfg.Guest.NewProcess("cached")
	a.region = mem.VARange{Start: cfg.CacheBase, End: cfg.CacheBase + mem.VA(cfg.CacheBytes)}.PageAlignInward()
	if a.region.Empty() {
		return nil, fmt.Errorf("cacheapp: cache region %v empty after alignment", a.region)
	}
	if err := a.proc.Alloc(a.region); err != nil {
		return nil, fmt.Errorf("cacheapp: mapping cache: %w", err)
	}
	hotPages := uint64(float64(a.region.Pages()) * hotFraction)
	a.hotEnd = a.region.Start + mem.VA(hotPages*mem.PageSize)
	a.writeCursor = a.region.Start
	// Populate the cache: every page written once.
	a.proc.WriteRange(a.region)

	if cfg.Assisted {
		a.sock = cfg.Guest.LKM.RegisterApp(a.proc, a.onNetlink)
	}
	return a, nil
}

// Region returns the cache's VA range.
func (a *App) Region() mem.VARange { return a.region }

// ColdRegion returns the purgeable tail.
func (a *App) ColdRegion() mem.VARange {
	return mem.VARange{Start: a.hotEnd, End: a.region.End}
}

// PurgedRegion returns the currently invalid (purged, not yet refilled)
// range; empty if none. Verification predicates use it: purged pages carry
// no meaningful content until rewritten.
func (a *App) PurgedRegion() mem.VARange {
	if a.purgedFrom == 0 {
		return mem.VARange{}
	}
	return mem.VARange{Start: a.refillCursor, End: a.region.End}
}

// HitRatio returns the fraction of the cache that currently holds valid
// data.
func (a *App) HitRatio() float64 {
	total := float64(a.region.Len())
	if total == 0 {
		return 0
	}
	invalid := float64(a.PurgedRegion().Len())
	return (total - invalid) / total
}

// Proc exposes the app's process (for verification walks in tests).
func (a *App) Proc() *guestos.Process { return a.proc }

func (a *App) onNetlink(msg any) {
	switch msg.(type) {
	case guestos.MsgQuerySkipAreas:
		a.migrating = true
		a.sock.Send(guestos.MsgReportAreas{App: a.sock.App(), Areas: []mem.VARange{a.ColdRegion()}})
	case guestos.MsgPrepareSuspension:
		if !a.migrating {
			return
		}
		// Purge LRU-cold entries from the index: the destination will see
		// the tail as empty. The memory stays mapped; the app promises not
		// to read it before rewriting (paper §6).
		a.purgedFrom = a.hotEnd
		a.refillCursor = a.hotEnd
		a.Purges++
		a.sock.Send(guestos.MsgSuspensionReady{App: a.sock.App(), Areas: []mem.VARange{a.ColdRegion()}})
	case guestos.MsgVMResumed:
		a.migrating = false
	}
}

// Run implements migration.GuestExecutor: serve requests for d, updating
// hot entries and refilling purged entries on misses.
func (a *App) Run(d time.Duration) {
	const step = time.Millisecond
	end := a.clock.Now() + d
	for a.clock.Now() < end {
		q := step
		if rem := end - a.clock.Now(); rem < q {
			q = rem
		}
		secs := q.Seconds()

		// Request throughput degrades with the invalid fraction.
		hit := a.HitRatio()
		rate := opsPerSec * (hit + (1-hit)*missPenalty)
		a.TotalOps += rate * secs

		// Hot-entry updates.
		w := writePagesPerSec*secs + a.writeCarry
		n := int(w)
		a.writeCarry = w - float64(n)
		for i := 0; i < n; i++ {
			a.proc.Write(a.writeCursor)
			a.writeCursor += mem.PageSize
			if a.writeCursor >= a.hotEnd {
				a.writeCursor = a.region.Start
			}
		}

		// Misses refill the purged tail (writes, so migration would carry
		// the rebuilt content if another migration followed).
		if !a.PurgedRegion().Empty() {
			r := refillPagesPerSec*secs + a.refillCarry
			m := int(r)
			a.refillCarry = r - float64(m)
			for i := 0; i < m && a.refillCursor < a.region.End; i++ {
				a.proc.Write(a.refillCursor)
				a.refillCursor += mem.PageSize
			}
			if a.refillCursor >= a.region.End {
				a.purgedFrom = 0 // fully rebuilt
			}
		}

		a.clock.Advance(q)
	}
}
