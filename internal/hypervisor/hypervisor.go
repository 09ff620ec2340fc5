// Package hypervisor models the slice of Xen that live migration interacts
// with: guest domains with pseudo-physical memory, log-dirty mode (the dirty
// bitmap the pre-copy engine consumes each round), domain pause/unpause, and
// event channels (the notification primitive the migration daemon uses to
// reach the in-guest LKM, paper §3.3.1).
//
// Fidelity notes. Xen's log-dirty interface offers both CLEAN (read the
// bitmap and atomically clear it, starting a new round) and PEEK (read
// without clearing); the migration engine uses both, exactly as
// xc_domain_save does: CLEAN at round boundaries, PEEK mid-round to skip
// pages that have already been re-dirtied (paper §5.2, Figure 9's
// "skipped (already dirtied)" series).
package hypervisor

import (
	"fmt"
	"time"

	"javmm/internal/mem"
	"javmm/internal/simclock"
)

// Domain is a guest VM: its memory pages, dirty-tracking state and scheduling
// state. All guest writes must go through WritePage or WritePages so that
// log-dirty mode observes them, mirroring how shadow paging / HAP log-dirty
// intercepts guest stores.
type Domain struct {
	name  string
	clock *simclock.Clock
	store mem.PageStore

	logDirty bool
	dirty    *mem.Bitmap

	// Epoch dirty tracking for resumable migration: an independent
	// accumulating bitmap that, unlike the per-round log-dirty bitmap, is
	// never cleared by PeekAndClear. A ResumeToken records the epoch counter
	// at abort time; Resume asks for every page dirtied since that epoch.
	epoch      uint64
	epochDirty *mem.Bitmap

	paused      bool
	pausedAt    time.Duration
	totalPaused time.Duration
	pauseCount  int

	// Counters for experiment reporting.
	writes      uint64              // guest page writes observed
	dirtySetOps uint64              // writes that newly dirtied a page this round
	pageFault   func(run []mem.PFN) // optional pre-write fault hook (post-copy)
	one         [1]mem.PFN          // WritePage's one-page run for the hook
}

// NewDomain creates a domain with the given memory, backed by store. The
// store's page count fixes the domain's pseudo-physical size.
func NewDomain(name string, clock *simclock.Clock, store mem.PageStore) *Domain {
	return &Domain{
		name:  name,
		clock: clock,
		store: store,
		dirty: mem.NewBitmap(store.NumPages()),
	}
}

// Name returns the domain's name.
func (d *Domain) Name() string { return d.name }

// NumPages returns the domain's memory size in pages.
func (d *Domain) NumPages() uint64 { return d.store.NumPages() }

// MemoryBytes returns the domain's memory size in bytes.
func (d *Domain) MemoryBytes() uint64 { return d.store.NumPages() * mem.PageSize }

// Store exposes the domain's page store (the migration engine exports pages
// from it; the destination imports into its own).
func (d *Domain) Store() mem.PageStore { return d.store }

// Clock returns the virtual clock the domain runs against.
func (d *Domain) Clock() *simclock.Clock { return d.clock }

// WritePage records a guest store to page p: the page content changes and,
// if log-dirty mode is on, the dirty bit is set. Writing while paused panics:
// a paused domain's vCPUs cannot execute, so such a write is a simulator bug.
// An installed fault hook sees p as a one-page run before the write.
func (d *Domain) WritePage(p mem.PFN) {
	if d.paused {
		panic(fmt.Sprintf("hypervisor: domain %q wrote page %d while paused", d.name, p))
	}
	if d.pageFault != nil {
		d.one[0] = p
		d.pageFault(d.one[:])
	}
	d.store.Write(p)
	d.writes++
	if d.epochDirty != nil {
		d.epochDirty.Set(p)
	}
	if d.logDirty && !d.dirty.Test(p) {
		d.dirty.Set(p)
		d.dirtySetOps++
	}
}

// WritePages records one guest store to each page of run, in order, and
// leaves exactly the state and counters that one WritePage per page leaves.
// A paused domain panics before any page changes. An installed fault hook
// is called once with the whole run, before any page of it is written.
// Then the version store, the epoch bitmap and the log-dirty bitmap are
// updated in separate tight loops. The three are independent, so the order
// of their updates cannot show, and independent updates within each loop
// overlap their cache misses. An empty run does nothing.
func (d *Domain) WritePages(run []mem.PFN) {
	if len(run) == 0 {
		return
	}
	if d.paused {
		panic(fmt.Sprintf("hypervisor: domain %q wrote page %d while paused", d.name, run[0]))
	}
	if d.pageFault != nil {
		d.pageFault(run)
	}
	d.store.WritePages(run)
	d.writes += uint64(len(run))
	if d.epochDirty != nil {
		d.epochDirty.SetEach(run)
	}
	if d.logDirty {
		d.dirtySetOps += d.dirty.SetEach(run)
	}
}

// SetPageFaultHook installs (or clears, with nil) a hook the domain calls
// once per guest write run, before any page of the run is written:
// WritePages passes its run, WritePage a one-page run. The run is in write
// order and may repeat a page; it belongs to the caller and is valid only
// during the call, so the hook must neither keep nor modify it. Since
// nothing is written until the hook returns, it sees every page of the run
// at its pre-write content. Post-copy migration uses it to demand-fetch the
// pages of a run that have not yet arrived at the destination before the
// guest touches them.
func (d *Domain) SetPageFaultHook(fn func(run []mem.PFN)) { d.pageFault = fn }

// Writes returns the total guest page writes observed.
func (d *Domain) Writes() uint64 { return d.writes }

// DirtyEvents returns the total number of page-dirtying events: writes that
// newly dirtied a page within a log-dirty round. The migration engine
// differences this counter across an iteration to report the guest's
// dirtying rate (Figure 1's "dirtying rate" series), and the workload driver
// charges one log-dirty write fault per event to guest time.
func (d *Domain) DirtyEvents() uint64 { return d.dirtySetOps }

// EnableLogDirty turns on dirty tracking with an empty dirty bitmap.
// Enabling twice is an error: the migration engine owns this mode.
func (d *Domain) EnableLogDirty() error {
	if d.logDirty {
		return fmt.Errorf("hypervisor: log-dirty already enabled on %q", d.name)
	}
	d.logDirty = true
	d.dirty.ClearAll()
	return nil
}

// DisableLogDirty turns off dirty tracking.
func (d *Domain) DisableLogDirty() {
	d.logDirty = false
	d.dirty.ClearAll()
}

// LogDirtyEnabled reports whether dirty tracking is on.
func (d *Domain) LogDirtyEnabled() bool { return d.logDirty }

// PeekAndClear copies the dirty bitmap into dst and clears it, starting a new
// dirty round (Xen's SHADOW_OP_CLEAN). It returns the number of dirty pages.
func (d *Domain) PeekAndClear(dst *mem.Bitmap) uint64 {
	dst.CopyFrom(d.dirty)
	d.dirty.ClearAll()
	return dst.Count()
}

// Peek copies the dirty bitmap into dst without clearing (Xen's
// SHADOW_OP_PEEK). It returns the number of dirty pages.
func (d *Domain) Peek(dst *mem.Bitmap) uint64 {
	dst.CopyFrom(d.dirty)
	return dst.Count()
}

// DirtyWord returns word i of the current round's dirty bitmap (bit j is
// PFN 64i+j) without clearing it. The migration engine's word-at-a-time
// scan uses it mid-round to skip pages that would be resent anyway.
func (d *Domain) DirtyWord(i int) uint64 { return d.dirty.Word(i) }

// DirtyCount returns the number of pages dirty in the current round.
func (d *Domain) DirtyCount() uint64 { return d.dirty.Count() }

// BeginDirtyEpoch starts (or restarts) epoch dirty tracking and returns the
// new epoch number. From this call on, every guest write is accumulated in a
// bitmap that survives log-dirty round boundaries; abortRun stamps the
// current epoch into the ResumeToken, and a later Resume retrieves the pages
// written in between via DirtySince.
func (d *Domain) BeginDirtyEpoch() uint64 {
	d.epoch++
	if d.epochDirty == nil {
		d.epochDirty = mem.NewBitmap(d.store.NumPages())
	} else {
		d.epochDirty.ClearAll()
	}
	return d.epoch
}

// DirtyEpoch returns the current epoch counter (0 when epoch tracking has
// never been armed).
func (d *Domain) DirtyEpoch() uint64 { return d.epoch }

// DirtySince returns a copy of the pages dirtied since epoch tracking was
// last armed, provided the caller's epoch matches the live one. A stale or
// never-armed epoch returns (nil, false): the caller cannot trust the bitmap
// and must treat every page as potentially dirty.
func (d *Domain) DirtySince(epoch uint64) (*mem.Bitmap, bool) {
	if d.epochDirty == nil || epoch == 0 || epoch != d.epoch {
		return nil, false
	}
	return d.epochDirty.Clone(), true
}

// Pause suspends the domain's vCPUs. Pausing an already-paused domain is a
// no-op, as in Xen (pause counts are not modelled; migration pauses once).
func (d *Domain) Pause() {
	if d.paused {
		return
	}
	d.paused = true
	d.pausedAt = d.clock.Now()
	d.pauseCount++
}

// Unpause resumes the domain's vCPUs.
func (d *Domain) Unpause() {
	if !d.paused {
		return
	}
	d.paused = false
	d.totalPaused += d.clock.Now() - d.pausedAt
}

// Paused reports whether the domain is paused.
func (d *Domain) Paused() bool { return d.paused }

// TotalPaused returns cumulative virtual time spent paused.
func (d *Domain) TotalPaused() time.Duration {
	t := d.totalPaused
	if d.paused {
		t += d.clock.Now() - d.pausedAt
	}
	return t
}

// PauseCount returns how many times the domain has been paused.
func (d *Domain) PauseCount() int { return d.pauseCount }
