package migration

import (
	"math/bits"
	"time"

	"javmm/internal/guestos"
	"javmm/internal/mem"
)

// The engine is a thin orchestrator over five stages. Each stage captures
// one axis of the paper's design space, and every migration mode is a
// composition of stage implementations rather than its own monolith:
//
//	SkipPolicy         which pages need not move (transfer bitmap, free list)
//	WireCodec          what a page costs on the wire (delta, hints, compress)
//	StopPolicy         when pre-copy gives up and stops the VM
//	SuspensionProtocol how the guest is told to prepare for suspension
//	PageSink           where transferred pages land (Destination, Tee, ...)
//
// bindStages derives the stage set of a run from the Source's Config.

// SkipPolicy decides, a bitmap word at a time, what the engine may leave
// behind. It also produces the FinalTransfer snapshot recorded at VM pause:
// the set of pages the destination must hold faithfully.
type SkipPolicy interface {
	// Skip classifies the pages of word wi (PFNs 64·wi to 64·wi+63) whose
	// bits are set in pending. It returns the pages left behind by
	// application consent (bitmap, counted as PagesSkippedBitmap) and,
	// among the rest, those on the guest kernel's free list (free, counted
	// as PagesSkippedFree). Both are subsets of pending and disjoint.
	Skip(wi int, pending uint64) (bitmap, free uint64)
	// FinalTransfer returns the transfer set to record at pause for a VM
	// of n pages. Implementations backed by a live bitmap must snapshot
	// (clone) it.
	FinalTransfer(n uint64) *mem.Bitmap
}

// transferAll is the application-agnostic policy: every page moves.
type transferAll struct{}

func (transferAll) Skip(int, uint64) (uint64, uint64) { return 0, 0 }

func (transferAll) FinalTransfer(n uint64) *mem.Bitmap {
	bm := mem.NewBitmap(n)
	bm.SetAll()
	return bm
}

// bitmapSkip consults a live transfer bitmap (the LKM's, or any
// application's): a cleared bit means skip, even if dirty (paper §3.3.3).
type bitmapSkip struct {
	transfer *mem.Bitmap
}

func (b bitmapSkip) Skip(wi int, pending uint64) (uint64, uint64) {
	return pending &^ b.transfer.Word(wi), 0
}

func (b bitmapSkip) FinalTransfer(uint64) *mem.Bitmap { return b.transfer.Clone() }

// freeSkip layers free-list skipping (Koto-style OS assistance) over another
// policy. The inner policy is consulted first, preserving the engine's
// historical counter order (bitmap before free): the free list is asked
// only about the pages the inner policy keeps.
type freeSkip struct {
	next SkipPolicy
	free func(mem.PFN) bool
}

func (f freeSkip) Skip(wi int, pending uint64) (uint64, uint64) {
	bm, free := f.next.Skip(wi, pending)
	base := mem.PFN(wi) << 6
	for rest := pending &^ (bm | free); rest != 0; rest &= rest - 1 {
		// Free-list pages carry no meaningful content; if the guest
		// reallocates one it is zeroed (written) and caught by a later
		// round.
		if bit := bits.TrailingZeros64(rest); f.free(base + mem.PFN(bit)) {
			free |= 1 << bit
		}
	}
	return bm, free
}

func (f freeSkip) FinalTransfer(n uint64) *mem.Bitmap { return f.next.FinalTransfer(n) }

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

// StopPolicy decides, after each live iteration, whether pre-copy proceeds
// to stop-and-copy. st is the iteration just finished; sentBytes and
// memoryBytes feed the traffic cap.
type StopPolicy interface {
	Stop(iter int, st IterationStats, sentBytes, memoryBytes uint64) bool
}

// xenStop is xc_domain_save's rule set: the iteration cap, the traffic cap,
// then convergence on round volume. (Xen keys on pages sent in the round
// just finished, which is robust against momentary quiescence — a guest
// paused inside a GC looks converged on an instantaneous dirty count but
// not on round volume.)
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

// warmStop bounds a hybrid migration's warm phase: stop after warmIters
// rounds, or earlier if the inner policy already considers it converged.
type warmStop struct {
	warmIters int
	next      StopPolicy
}

func (w warmStop) Stop(iter int, st IterationStats, sentBytes, memoryBytes uint64) bool {
	return iter >= w.warmIters || w.next.Stop(iter, st, sentBytes, memoryBytes)
}

// SuspensionProtocol is the engine's view of the guest-side pre-suspension
// workflow — for the LKM, the five-state machine of the paper's Figure 4.
// The orchestrator calls it at exactly the four points the monolithic engine
// used to special-case on Mode:
//
//	Begin          migration starts; returns the transfer bitmap (nil for
//	               a protocol without one)
//	EnterLastIter  pre-copy converged; guest should prepare for suspension
//	Ready          polled while the engine waits for suspension-readiness
//	Outcome        final-update duration and fallback count, once Ready
//	Resumed        VM resumed at the destination
//	Aborted        migration cancelled; guest returns to normal operation
//
// guestos.(*LKM).Protocol() is its implementation.
type SuspensionProtocol interface {
	Begin() *mem.Bitmap
	EnterLastIter()
	Ready() bool
	Outcome() (finalUpdate time.Duration, fallbacks int)
	Resumed()
	Aborted()
}

var _ SuspensionProtocol = (*guestos.DaemonProtocol)(nil)

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
		codec = compressCodec{ratio: c.CompressionRatio, cost: c.CompressCostPerPage}
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
			ratio:    c.DeltaRatio,
			cost:     c.DeltaCostPerPage,
			resends:  resends,
			next:     codec,
		}
		cacheBytes = n * mem.PageSize // one cached copy per page
	}
	return codec, cacheBytes
}

// bindStages resolves the active stage set for one run from Cfg. transfer
// is the suspension protocol's bitmap (nil when there is none). Must run
// after FillDefaults and report initialization. With Cfg.Perf set, every
// bound stage is additionally wrapped in its real-clock profiling decorator.
func (s *Source) bindStages(transfer *mem.Bitmap) {
	var sp SkipPolicy = transferAll{}
	if transfer != nil {
		sp = bitmapSkip{transfer: transfer}
	}
	if s.Cfg.SkipFreePages && s.GuestFree != nil {
		sp = freeSkip{next: sp, free: s.GuestFree}
	}
	codec, cacheBytes := s.Cfg.NewWireCodec(s.Dom.NumPages(), s.HintFor, &s.report.DeltaResends)
	if cacheBytes > 0 {
		s.report.DeltaCacheBytes = cacheBytes
	}
	s.skip = profileSkip(sp, s.Cfg.Perf)
	s.codec = codec
	s.stop = xenStop{
		maxIterations: s.Cfg.MaxIterations,
		threshold:     s.Cfg.DirtyPageThreshold,
		trafficFactor: s.Cfg.MaxTrafficFactor,
	}
	if p := s.Cfg.Perf; p != nil {
		s.codec = profiledCodec{next: s.codec, p: p}
		s.stop = profiledStop{next: s.stop, p: p}
	}
	s.bindSink()
	s.chunk.reserve(s.Dom, s.Cfg.ChunkPages)
}

// bindSink binds the destination as the run's page sink, profiled when
// Cfg.Perf is set.
func (s *Source) bindSink() {
	s.sink = profileSink(s.Dest, s.Cfg.Perf)
}
