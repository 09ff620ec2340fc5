package migration

import (
	"fmt"

	"javmm/internal/faults"
	"javmm/internal/mem"
	"javmm/internal/netsim"
	"javmm/internal/obs"
)

// Destination is the receiving host's view of the migration: its own copy of
// the VM's memory. It is the default PageSink of every engine.
type Destination struct {
	Store          mem.PageStore
	PagesReceived  uint64
	BytesReceived  uint64
	ImportFailures int

	tee       *netsim.PageWriter
	teeErrors int
	metrics   *obs.Metrics
	faults    *faults.Injector
	crashed   bool
	discarded bool

	// host is the destination's fleet identity: the host name the fabric
	// dialled, empty for single-VM runs. Host-scoped fault rules match
	// against it, and ResumeTokens are minted bound to it.
	host string

	// Integrity state: a per-PFN digest table over the payloads actually
	// received (recomputed on receipt, so in-flight corruption lands here,
	// not in the source's expectation), the set of PFNs ever received, a
	// run-level rolling summary of the receive sequence, and a generation
	// counter bumped by every Discard so a stale ResumeToken can detect that
	// it describes a previous image.
	received   *mem.Bitmap
	digests    []uint64
	rolling    uint64
	generation uint64

	// one carries the PFN of a one-page run without allocating.
	one [1]mem.PFN
}

// SetMetrics attaches a metrics registry to the destination's receive path
// (dest.pages_received, dest.bytes_received, dest.import_failures,
// dest.tee_errors). A nil registry detaches.
func (d *Destination) SetMetrics(m *obs.Metrics) { d.metrics = m }

// SetFaults attaches a fault injector: dest.receive rules fail individual
// page receives transiently, a dest.crash rule kills the destination for
// the rest of the run (every receive fails with ErrDestinationLost). A nil
// injector changes nothing.
func (d *Destination) SetFaults(inj *faults.Injector) { d.faults = inj }

// SetHostName names the host this destination lives on (the fleet's move
// target). Host-scoped fault rules (host.crash, host.flaky) match against
// it; the empty default matches only unscoped rules, which is how single-VM
// runs see host faults.
func (d *Destination) SetHostName(name string) { d.host = name }

// HostName returns the destination's host identity ("" outside a fleet).
func (d *Destination) HostName() string { return d.host }

// Discard models tearing down the destination's half-received VM after an
// aborted migration: the memory image is released (zeroed) and the
// destination marked discarded. The crash flag resets so the host can serve
// a later re-attempt with a fresh image.
func (d *Destination) Discard() {
	d.discarded = true
	d.crashed = false
	d.PagesReceived = 0
	d.BytesReceived = 0
	if n := d.Store.NumPages(); n > 0 {
		d.Store = mem.NewVersionStore(n)
	}
	d.resetIntegrity()
	d.metrics.Counter("dest.discards").Inc()
}

// resetIntegrity clears the digest table and bumps the image generation:
// whatever a ResumeToken recorded about the previous image no longer applies.
func (d *Destination) resetIntegrity() {
	d.generation++
	d.rolling = 0
	if d.received != nil {
		d.received.ClearAll()
	}
	for i := range d.digests {
		d.digests[i] = 0
	}
}

// ensureIntegrity sizes the digest table to the store (receive paths call it
// so destinations built around caller-provided stores work too).
func (d *Destination) ensureIntegrity() {
	n := d.Store.NumPages()
	if d.received == nil || d.received.Len() != n {
		d.received = mem.NewBitmap(n)
		d.digests = make([]uint64, n)
	}
}

// Discarded reports whether the destination's image was rolled back by an
// aborted migration (and not rebuilt since).
func (d *Destination) Discarded() bool { return d.discarded }

// NewDestination returns a destination with zeroed memory of n pages,
// version-backed like the simulated source.
func NewDestination(n uint64) *Destination {
	return &Destination{Store: mem.NewVersionStore(n)}
}

// NewDestinationWithStore uses a caller-provided store (e.g. a byte-backed
// store in the TCP integration tests).
func NewDestinationWithStore(store mem.PageStore) *Destination {
	return &Destination{Store: store}
}

// ReceiveCheckpointPage imports a page pushed outside a migration — the
// replication package's checkpoint stream uses the same destination
// machinery (and Tee mirroring) as migration.
func (d *Destination) ReceiveCheckpointPage(p mem.PFN, payload []byte) error {
	d.one[0] = p
	_, err := d.ReceivePages(d.one[:], payload)
	return err
}

// ReceivePages implements PageSink: import the run, account it, and mirror
// it onto the tee when one is attached. Fault injection can fail a receive
// transiently (dest.receive — the engine retries) or crash the destination
// for the rest of the run (dest.crash — permanent ErrDestinationLost).
// While an injector is armed the sites are checked page by page, before
// each page is received, so a run fails at exactly the page a sequence of
// one-page runs would.
func (d *Destination) ReceivePages(pfns []mem.PFN, payloads []byte) (int, error) {
	if len(pfns) == 0 {
		return 0, nil
	}
	stride := len(payloads) / len(pfns)
	if !d.faults.Armed() {
		if d.crashed {
			return 0, ErrDestinationLost
		}
		return d.receive(pfns, payloads, stride)
	}
	for i, p := range pfns {
		if err := d.checkFaults(p); err != nil {
			return i, err
		}
		if _, err := d.receive(pfns[i:i+1], payloads[i*stride:(i+1)*stride], stride); err != nil {
			return i, err
		}
	}
	return len(pfns), nil
}

// checkFaults applies the destination's fault sites to one page receive.
func (d *Destination) checkFaults(p mem.PFN) error {
	if d.crashed {
		return ErrDestinationLost
	}
	if d.faults.HostDown(d.host) {
		// The whole host died: like dest.crash, but window-scoped — a later
		// attempt (after Discard resets the image) can land on the same host
		// once the window passes.
		d.crashed = true
		return ErrDestinationLost
	}
	if d.faults.Fire(faults.SiteDestCrash) {
		d.crashed = true
		return ErrDestinationLost
	}
	if d.faults.HostFlaky(d.host) {
		return fmt.Errorf("migration: host %q refused page %d (flaky window)", d.host, p)
	}
	if d.faults.Fire(faults.SiteDestReceive) {
		return fmt.Errorf("migration: destination refused page %d (injected)", p)
	}
	return nil
}

// receive imports a run through the store and accounts the pages that
// landed: counters once per call, then one loop that digests each payload,
// stores the digest and the received bit, and folds the rolling digest in
// run order, then the tee frames.
func (d *Destination) receive(pfns []mem.PFN, payloads []byte, stride int) (int, error) {
	landed, err := d.Store.ImportPages(pfns, payloads)
	if err != nil {
		d.ImportFailures++
		d.metrics.Counter("dest.import_failures").Inc()
		err = fmt.Errorf("migration: import page %d: %w", pfns[landed], err)
	}
	if landed == 0 {
		return 0, err
	}
	pfns = pfns[:landed]
	d.PagesReceived += uint64(landed)
	d.BytesReceived += uint64(landed * stride)
	d.ensureIntegrity()
	n := d.Store.NumPages()
	for i, p := range pfns {
		if uint64(p) < n {
			dg := mem.PageDigest(payloads[i*stride : (i+1)*stride])
			d.digests[p] = dg
			d.received.Set(p)
			d.rolling = mem.MixDigest(d.rolling, p, dg)
		}
	}
	d.metrics.Counter("dest.pages_received").Add(int64(landed))
	d.metrics.Counter("dest.bytes_received").Add(int64(landed * stride))
	if d.tee != nil {
		for i, p := range pfns {
			if werr := d.tee.WritePage(p, payloads[i*stride:(i+1)*stride]); werr != nil {
				d.teeErrors++
				d.metrics.Counter("dest.tee_errors").Inc()
			}
		}
	}
	return landed, err
}

// PageDigestAt returns the digest of the payload last received for p, or
// ok=false when p was never received into the current image.
func (d *Destination) PageDigestAt(p mem.PFN) (uint64, bool) {
	if d.received == nil || uint64(p) >= d.received.Len() || !d.received.Test(p) {
		return 0, false
	}
	return d.digests[p], true
}

// ReceivedPages returns the set of PFNs received into the current image.
// Callers must treat the bitmap as read-only.
func (d *Destination) ReceivedPages() *mem.Bitmap {
	d.ensureIntegrity()
	return d.received
}

// DigestSnapshot copies the per-PFN digest table (the ResumeToken payload).
func (d *Destination) DigestSnapshot() []uint64 {
	d.ensureIntegrity()
	return append([]uint64(nil), d.digests...)
}

// RollingDigest returns the run-level rolling summary of the receive
// sequence so far.
func (d *Destination) RollingDigest() uint64 { return d.rolling }

// Generation returns the image generation, bumped on every Discard. A
// ResumeToken minted against generation g is worthless against any other
// generation.
func (d *Destination) Generation() uint64 { return d.generation }

// VerifyMigration checks the migration correctness invariant (DESIGN.md §6):
// every page the destination may legally observe must carry the source's
// final content. required(p) reports whether page p's content matters after
// resume (typically: the frame is still allocated in the guest); pages with
// a cleared final transfer bit were declared skippable by their application
// and are exempt.
func VerifyMigration(src, dst mem.PageStore, finalTransfer *mem.Bitmap, required func(mem.PFN) bool) error {
	if src.NumPages() != dst.NumPages() {
		return fmt.Errorf("migration: page count mismatch: src %d dst %d", src.NumPages(), dst.NumPages())
	}
	var bad []mem.PFN
	for p := mem.PFN(0); uint64(p) < src.NumPages(); p++ {
		if !finalTransfer.Test(p) {
			continue // skipped by application consent
		}
		if required != nil && !required(p) {
			continue // e.g. freed frame: content irrelevant until rewritten
		}
		if src.Version(p) != dst.Version(p) {
			bad = append(bad, p)
			if len(bad) >= 8 {
				break
			}
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("migration: %d+ pages diverge at destination (first: %v)", len(bad), bad)
	}
	return nil
}
