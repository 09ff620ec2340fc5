package migration

import (
	"math/bits"
	"time"

	"javmm/internal/guestos"
	"javmm/internal/mem"
)

// The engine is a thin orchestrator over five stages. Each stage captures
// one axis of the paper's design space, and every migration mode is a
// composition of them rather than its own monolith:
//
//	pageSkip                  which pages need not move (transfer bitmap, free list)
//	WireCodec                 what a page costs on the wire (delta, hints, compress)
//	xenStop                   when pre-copy gives up and stops the VM
//	guestos.DaemonProtocol    how the guest is told to prepare for suspension
//	PageSink                  where transferred pages land (Destination, Tee, ...)
//
// The skip, stop and suspension stages each have one implementation and are
// concrete types. WireCodec stays an interface because its four codecs
// chain, and PageSink because tests stand in for the destination. The
// engine brackets every stage call with Cfg.Perf.Enter/Exit, so the
// real-clock profiler attributes the simulator's own time to this
// taxonomy. bindStages derives the stage set of a run from the Source's
// Config.

// pageSkip decides, a bitmap word at a time, what the engine may leave
// behind. It also produces the FinalTransfer snapshot recorded at VM pause:
// the set of pages the destination must hold faithfully. The zero value
// moves every page (vanilla pre-copy, or a run degraded to it).
type pageSkip struct {
	// transfer is a live transfer bitmap (the LKM's, or any
	// application's): a cleared bit means skip, even if dirty (paper
	// §3.3.3). Nil moves every page.
	transfer *mem.Bitmap
	// free reports whether a frame is on the guest kernel's free list
	// (Koto-style OS assistance). Nil turns free-list skipping off.
	free func(mem.PFN) bool
}

// Skip classifies the pages of word wi (PFNs 64·wi to 64·wi+63) whose bits
// are set in pending. It returns the pages left behind by application
// consent (bitmap, counted as PagesSkippedBitmap) and, among the rest, those
// on the guest kernel's free list (free, counted as PagesSkippedFree). Both
// are subsets of pending and disjoint.
func (k pageSkip) Skip(wi int, pending uint64) (bitmap, free uint64) {
	if k.transfer != nil {
		bitmap = pending &^ k.transfer.Word(wi)
	}
	if k.free == nil {
		return bitmap, 0
	}
	base := mem.PFN(wi) << 6
	for rest := pending &^ bitmap; rest != 0; rest &= rest - 1 {
		// Free-list pages carry no meaningful content; if the guest
		// reallocates one it is zeroed (written) and caught by a later
		// round.
		if bit := bits.TrailingZeros64(rest); k.free(base + mem.PFN(bit)) {
			free |= 1 << bit
		}
	}
	return bitmap, free
}

// FinalTransfer returns the transfer set to record at pause for a VM of n
// pages: a snapshot (clone) of the live transfer bitmap, or every page.
func (k pageSkip) FinalTransfer(n uint64) *mem.Bitmap {
	if k.transfer != nil {
		return k.transfer.Clone()
	}
	bm := mem.NewBitmap(n)
	bm.SetAll()
	return bm
}

// WireCodec models what one page costs to transmit: its wire size and the
// daemon CPU spent encoding it. rawWire is the page's uncompressed wire
// size. Codecs may keep per-run state (the delta cache); a fresh chain is
// built per migration.
type WireCodec interface {
	Encode(p mem.PFN, rawWire uint64) (wire uint64, cpu time.Duration)
}

// rawCodec ships pages uncompressed.
type rawCodec struct{}

func (rawCodec) Encode(_ mem.PFN, raw uint64) (uint64, time.Duration) { return raw, 0 }

// compressCodec applies the §6 uniform compression extension.
type compressCodec struct {
	ratio float64
	cost  time.Duration
}

func (c compressCodec) Encode(_ mem.PFN, raw uint64) (uint64, time.Duration) {
	return scaleWire(raw, c.ratio), c.cost
}

// hintedCodec refines compression with the per-page hints applications
// report through the LKM (§6). HintDefault falls through to the next codec.
type hintedCodec struct {
	hintFor func(mem.PFN) uint8
	next    WireCodec
}

func (c *hintedCodec) Encode(p mem.PFN, raw uint64) (uint64, time.Duration) {
	switch c.hintFor(p) {
	case guestos.HintFast:
		return scaleWire(raw, 0.6), 3 * time.Microsecond
	case guestos.HintStrong:
		return scaleWire(raw, 0.35), 12 * time.Microsecond
	case guestos.HintNone:
		return raw, 0
	}
	return c.next.Encode(p, raw)
}

// deltaCodec is the XBZRLE-style baseline (Svärd et al., §2): the first
// send of a page populates the cache and delegates; every resend ships as a
// delta. resends points into the live Report so aborted runs keep their
// partial count.
type deltaCodec struct {
	sentOnce *mem.Bitmap
	ratio    float64
	cost     time.Duration
	resends  *uint64
	next     WireCodec
}

func (c *deltaCodec) Encode(p mem.PFN, raw uint64) (uint64, time.Duration) {
	if c.sentOnce.Test(p) {
		*c.resends++
		return scaleWire(raw, c.ratio), c.cost
	}
	c.sentOnce.Set(p)
	return c.next.Encode(p, raw)
}

func scaleWire(w uint64, ratio float64) uint64 {
	out := uint64(float64(w) * ratio)
	if out == 0 {
		out = 1
	}
	return out
}

// xenStop is xc_domain_save's rule set for when pre-copy proceeds to
// stop-and-copy, decided after each live iteration: the iteration cap, the
// traffic cap, then convergence on round volume. (Xen keys on pages sent in
// the round just finished, which is robust against momentary quiescence — a
// guest paused inside a GC looks converged on an instantaneous dirty count
// but not on round volume.) st is the iteration just finished; sentBytes and
// memoryBytes feed the traffic cap.
type xenStop struct {
	maxIterations int
	threshold     uint64
	trafficFactor float64
}

func (x xenStop) Stop(iter int, st IterationStats, sentBytes, memoryBytes uint64) bool {
	if iter >= x.maxIterations {
		return true
	}
	if x.trafficFactor > 0 &&
		float64(sentBytes) >= x.trafficFactor*float64(memoryBytes) {
		return true
	}
	return st.PagesSent <= x.threshold
}

// PageSink receives transferred pages a run at a time. Destination is the
// sink of every engine (with optional Tee mirroring).
//
// ReceivePages receives pfns[i] with payload payloads[i*s:(i+1)*s], where
// s = len(payloads)/len(pfns) is the fixed export size of the source's page
// store. Pages [0, landed) are fully received; a non-nil error means page
// landed did NOT land, and nothing from it on was touched. The engine
// retries a refused page with backoff and aborts on ErrDestinationLost.
//
// The payloads are valid only for the duration of ReceivePages: the engine
// reuses its export buffers for the next chunk, so a sink that keeps a
// payload must copy it.
type PageSink interface {
	ReceivePages(pfns []mem.PFN, payloads []byte) (landed int, err error)
}

// NewWireCodec builds the default codec chain Cfg describes for a VM of n
// pages: raw, optionally compressed, refined by per-page hints (hintFor may
// be nil, disabling the hint layer), with delta resend caching outermost.
// resends, when non-nil, receives the running delta-resend count (the engine
// points it into the live Report). The second return is the daemon-side
// delta cache cost in bytes (zero without DeltaCompression). Call after
// FillDefaults. Exposed so the bench harness can measure each codec chain in
// isolation with exactly the construction the engine uses.
func (c *Config) NewWireCodec(n uint64, hintFor func(mem.PFN) uint8, resends *uint64) (WireCodec, uint64) {
	var codec WireCodec = rawCodec{}
	if c.Compress {
		codec = compressCodec{ratio: compressionRatio, cost: compressCostPerPage}
	}
	if c.HintedCompression && hintFor != nil {
		codec = &hintedCodec{hintFor: hintFor, next: codec}
	}
	var cacheBytes uint64
	if c.DeltaCompression {
		if resends == nil {
			resends = new(uint64)
		}
		codec = &deltaCodec{
			sentOnce: mem.NewBitmap(n),
			ratio:    deltaRatio,
			cost:     deltaCostPerPage,
			resends:  resends,
			next:     codec,
		}
		cacheBytes = n * mem.PageSize // one cached copy per page
	}
	return codec, cacheBytes
}

// bindStages resolves the active stage set for one run from Cfg. transfer
// is the suspension protocol's bitmap (nil when there is none). Must run
// after FillDefaults and report initialization.
func (s *Source) bindStages(transfer *mem.Bitmap) {
	s.skip = pageSkip{transfer: transfer}
	if s.Cfg.SkipFreePages {
		s.skip.free = s.GuestFree
	}
	codec, cacheBytes := s.Cfg.NewWireCodec(s.Dom.NumPages(), s.HintFor, &s.report.DeltaResends)
	if cacheBytes > 0 {
		s.report.DeltaCacheBytes = cacheBytes
	}
	s.codec = codec
	s.stop = xenStop{
		maxIterations: s.Cfg.MaxIterations,
		threshold:     s.Cfg.DirtyPageThreshold,
		trafficFactor: s.Cfg.MaxTrafficFactor,
	}
	s.sink = s.Dest
	s.chunk.reserve(s.Dom, s.Cfg.ChunkPages)
}
