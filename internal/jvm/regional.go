package jvm

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"javmm/internal/guestos"
	"javmm/internal/mem"
	"javmm/internal/obs"
	"javmm/internal/simclock"
)

// RegionalHeap is a garbage-first-style heap (paper §6: "We are particularly
// interested in porting JAVMM to run with collectors that use non-contiguous
// VA ranges for the Young generation ... HotSpot's garbage-first garbage
// collector is one such example").
//
// The heap is carved into fixed-size regions. Eden and survivor regions are
// taken from a free list, so the young generation is a churning, scattered
// SET of VA ranges rather than one contiguous block: after every minor GC the
// old eden/survivor regions are freed (young-gen shrink notifications, one
// per freed range) and fresh regions take their place. A JAVMM agent driving
// this collector must therefore re-report its skip-over areas as they move —
// the behaviour the X11 experiment studies.
//
// RegionalHeap implements the same runtime surface as JVM (allocation, GC
// begin/complete, Safepoint holds, TI callbacks), so the workload driver and
// the agent work against either collector.
type RegionalHeap struct {
	cfg   RegionalConfig
	proc  *guestos.Process
	clock *simclock.Clock
	rng   *rand.Rand

	regions []region
	free    []int // LIFO free list of region indexes
	eden    []int // allocation regions, current last
	surv    []int // survivor regions holding live data
	old     []int // old-generation regions

	codeBase  mem.VA
	codeBytes uint64
	codeDirty mem.VA

	gc             *pendingRegionalGC
	lastMinorGCAt  time.Duration
	enforcePending bool
	held           bool

	onShrink       func(mem.VARange)
	onGCEnd        func(GCStats)
	onEnforcedDone func()
	onYoungGrow    func(mem.VARange)

	// Cumulative accounting.
	TotalAllocated uint64
	TotalGarbage   uint64
	TotalPromoted  uint64
	MinorGCs       int
	FullGCs        int
	History        []GCStats

	tracer  *obs.Tracer
	metrics *obs.Metrics
}

// SetObs mirrors JVM.SetObs for the regional collector.
func (h *RegionalHeap) SetObs(t *obs.Tracer, m *obs.Metrics) {
	h.tracer = t
	h.metrics = m
}

type regionClass uint8

const (
	regFree regionClass = iota
	regEden
	regSurvivor
	regOld
)

type region struct {
	class regionClass
	used  uint64
	age   int // survivor cohort age (one cohort per survivor region)
}

// RegionalConfig parameterizes a RegionalHeap.
type RegionalConfig struct {
	Proc  *guestos.Process
	Clock *simclock.Clock
	Rand  *rand.Rand

	// RegionBytes is the fixed region size (default 32 MiB; page-aligned).
	RegionBytes uint64
	// HeapBytes is the heap's total VA footprint (default 1.5 GiB).
	HeapBytes uint64
	// MaxYoungRegions caps eden+survivor regions (default: half the heap).
	MaxYoungRegions int

	TenureThreshold  int     // default 4
	EdenSurvival     float64 // default 0.03
	SurvivorSurvival float64 // default 0.5
	SurvivalNoise    float64 // default 0.1

	MinorGCBase   time.Duration // default 50 ms
	MinorCopyNsPB float64       // default 15
	MinorScanNsPB float64       // default 0.6 (per committed young byte)

	OldGarbageFraction float64 // default 0.3

	SafepointDelay time.Duration // default 20 ms
	CodeCacheBytes uint64        // default 48 MiB
}

func (c *RegionalConfig) fillDefaults() error {
	if c.Proc == nil {
		return errors.New("jvm: RegionalConfig.Proc is required")
	}
	if c.Clock == nil {
		return errors.New("jvm: RegionalConfig.Clock is required")
	}
	if c.Rand == nil {
		c.Rand = rand.New(rand.NewSource(1))
	}
	if c.RegionBytes == 0 {
		c.RegionBytes = 32 << 20
	}
	c.RegionBytes = pageCeil(c.RegionBytes)
	if c.HeapBytes == 0 {
		c.HeapBytes = 1536 << 20
	}
	if c.HeapBytes < 4*c.RegionBytes {
		return fmt.Errorf("jvm: heap %d too small for %d-byte regions", c.HeapBytes, c.RegionBytes)
	}
	if c.MaxYoungRegions == 0 {
		c.MaxYoungRegions = int(c.HeapBytes / c.RegionBytes / 2)
	}
	if c.TenureThreshold == 0 {
		c.TenureThreshold = 4
	}
	if c.EdenSurvival == 0 {
		c.EdenSurvival = 0.03
	}
	if c.SurvivorSurvival == 0 {
		c.SurvivorSurvival = 0.5
	}
	if c.SurvivalNoise == 0 {
		c.SurvivalNoise = 0.1
	}
	if c.MinorGCBase == 0 {
		c.MinorGCBase = 50 * time.Millisecond
	}
	if c.MinorCopyNsPB == 0 {
		c.MinorCopyNsPB = 15
	}
	if c.MinorScanNsPB == 0 {
		c.MinorScanNsPB = 0.6
	}
	if c.OldGarbageFraction == 0 {
		c.OldGarbageFraction = 0.3
	}
	if c.SafepointDelay == 0 {
		c.SafepointDelay = 20 * time.Millisecond
	}
	if c.CodeCacheBytes == 0 {
		c.CodeCacheBytes = 48 << 20
	}
	return nil
}

type pendingRegionalGC struct {
	kind     GCKind
	enforced bool
	stats    GCStats
	// survivors[age] = live bytes of that age to place into survivor
	// regions; promoted goes to old regions.
	survivors map[int]uint64
	promoted  uint64
	oldAfter  uint64

	span *obs.Span // open GC span, ended at Complete time
}

// NewRegional boots a regional heap: the region pool is laid out at heapBase
// and the code cache above it. Regions are mapped when taken from the free
// list and unmapped when returned.
func NewRegional(cfg RegionalConfig) (*RegionalHeap, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	n := int(cfg.HeapBytes / cfg.RegionBytes)
	h := &RegionalHeap{
		cfg:     cfg,
		proc:    cfg.Proc,
		clock:   cfg.Clock,
		rng:     cfg.Rand,
		regions: make([]region, n),
	}
	for i := n - 1; i >= 0; i-- {
		h.free = append(h.free, i)
	}
	h.codeBase = heapBase + mem.VA(uint64(n)*cfg.RegionBytes)
	h.codeBytes = pageCeil(cfg.CodeCacheBytes)
	h.codeDirty = h.codeBase
	if err := h.proc.Alloc(mem.VARange{Start: h.codeBase, End: h.codeBase + mem.VA(h.codeBytes)}); err != nil {
		return nil, fmt.Errorf("jvm: mapping code cache: %w", err)
	}
	if _, err := h.takeRegion(regEden); err != nil {
		return nil, err
	}
	return h, nil
}

// regionRange returns region i's VA range.
func (h *RegionalHeap) regionRange(i int) mem.VARange {
	start := heapBase + mem.VA(uint64(i)*h.cfg.RegionBytes)
	return mem.VARange{Start: start, End: start + mem.VA(h.cfg.RegionBytes)}
}

// takeRegion maps a free region for the given class.
func (h *RegionalHeap) takeRegion(class regionClass) (int, error) {
	if len(h.free) == 0 {
		return -1, errors.New("jvm: regional heap exhausted")
	}
	i := h.free[len(h.free)-1]
	h.free = h.free[:len(h.free)-1]
	if err := h.proc.Alloc(h.regionRange(i)); err != nil {
		h.free = append(h.free, i)
		return -1, fmt.Errorf("jvm: mapping region %d: %w", i, err)
	}
	h.regions[i] = region{class: class}
	switch class {
	case regEden:
		h.eden = append(h.eden, i)
	case regSurvivor:
		h.surv = append(h.surv, i)
	case regOld:
		h.old = append(h.old, i)
	}
	if (class == regEden || class == regSurvivor) && h.onYoungGrow != nil {
		// The young generation just expanded into this region. Contiguous
		// collectors can defer expansion to the final bitmap update
		// (§3.3.4); a region-churning collector cannot — by the next GC
		// the "expansion" IS the young generation, so the agent must learn
		// about it immediately to keep skipping effective.
		h.onYoungGrow(h.regionRange(i))
	}
	return i, nil
}

// SetYoungGrowCallback installs a hook fired when the young generation
// expands into a fresh region. The JAVMM agent uses it to report the new
// skip-over range immediately.
func (h *RegionalHeap) SetYoungGrowCallback(fn func(mem.VARange)) { h.onYoungGrow = fn }

// freeRegion unmaps a region and returns it to the pool. Young regions fire
// the shrink callback: their pages left the young generation (§3.3.4).
func (h *RegionalHeap) freeRegion(i int, wasYoung bool) {
	h.proc.Free(h.regionRange(i))
	h.regions[i] = region{}
	h.free = append(h.free, i)
	if wasYoung && h.onShrink != nil {
		h.onShrink(h.regionRange(i))
	}
}

// --- runtime surface (shared with *JVM) -----------------------------------

// Allocate bump-allocates in the current eden region, taking fresh regions
// as they fill, up to the young cap. Returns bytes actually allocated.
func (h *RegionalHeap) Allocate(n uint64) uint64 {
	if h.gc != nil || h.held {
		return 0
	}
	var done uint64
	for done < n {
		cur := h.eden[len(h.eden)-1]
		r := &h.regions[cur]
		space := h.cfg.RegionBytes - r.used
		if space == 0 {
			if len(h.eden)+len(h.surv) >= h.cfg.MaxYoungRegions {
				break // young full: minor GC needed
			}
			if _, err := h.takeRegion(regEden); err != nil {
				break
			}
			continue
		}
		take := n - done
		if take > space {
			take = space
		}
		writeRange(h.proc, h.regionRange(cur).Start+mem.VA(r.used), take)
		r.used += take
		done += take
	}
	h.TotalAllocated += done
	return done
}

// NeedsMinorGC reports whether the young generation is at its region cap
// with a full allocation region.
func (h *RegionalHeap) NeedsMinorGC() bool {
	if len(h.eden)+len(h.surv) < h.cfg.MaxYoungRegions {
		return false
	}
	cur := h.eden[len(h.eden)-1]
	return h.regions[cur].used == h.cfg.RegionBytes
}

// NeedsFullGC reports whether old regions occupy ≥ 90 % of the pool.
func (h *RegionalHeap) NeedsFullGC() bool {
	return float64(len(h.old)) >= 0.9*float64(len(h.regions))
}

// RequestEnforcedGC mirrors JVM.RequestEnforcedGC.
func (h *RegionalHeap) RequestEnforcedGC() {
	if h.held {
		if h.onEnforcedDone != nil {
			h.onEnforcedDone()
		}
		return
	}
	h.enforcePending = true
	h.tracer.Emit(obs.TrackJVM, obs.KindSafepoint, "enforced-gc-request", nil)
}

// ReleaseFromSafepoint releases threads held after an enforced GC.
func (h *RegionalHeap) ReleaseFromSafepoint() {
	if h.held {
		h.tracer.Emit(obs.TrackJVM, obs.KindSafepoint, "safepoint-release", nil,
			obs.Bool("held", false))
	}
	h.held = false
}

// HeldAtSafepoint mirrors JVM.HeldAtSafepoint.
func (h *RegionalHeap) HeldAtSafepoint() bool { return h.held }

// EnforcePending mirrors JVM.EnforcePending.
func (h *RegionalHeap) EnforcePending() bool { return h.enforcePending }

// SafepointDelay mirrors JVM.SafepointDelay.
func (h *RegionalHeap) SafepointDelay() time.Duration { return h.cfg.SafepointDelay }

// InGC reports whether a collection is in progress.
func (h *RegionalHeap) InGC() bool { return h.gc != nil }

func (h *RegionalHeap) survive(bytes uint64, frac float64) uint64 {
	f := frac * (1 + h.cfg.SurvivalNoise*(2*h.rng.Float64()-1))
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	return uint64(float64(bytes) * f)
}

// BeginMinorGC plans an evacuation: live eden data is copied into fresh
// survivor regions, aged survivor data is copied forward or promoted, and
// every previous young region is freed.
func (h *RegionalHeap) BeginMinorGC(enforced bool) time.Duration {
	if h.gc != nil {
		panic("jvm: BeginMinorGC during active GC")
	}
	if enforced {
		h.enforcePending = false
	}
	st := GCStats{Kind: MinorGC, Enforced: enforced, OldUsedBefore: h.OldUsed()}

	var edenUsed uint64
	for _, i := range h.eden {
		edenUsed += h.regions[i].used
	}
	var survUsed uint64
	survivors := make(map[int]uint64)
	var promoted uint64
	for _, i := range h.surv {
		r := h.regions[i]
		survUsed += r.used
		s := h.survive(r.used, h.cfg.SurvivorSurvival)
		if s == 0 {
			continue
		}
		if r.age+1 >= h.cfg.TenureThreshold {
			promoted += s
		} else {
			survivors[r.age+1] += s
		}
	}
	edenLive := h.survive(edenUsed, h.cfg.EdenSurvival)
	if edenLive > 0 {
		survivors[1] += edenLive
	}

	st.YoungUsedBefore = edenUsed + survUsed
	var toLive uint64
	for _, b := range survivors {
		toLive += b
	}
	st.LiveAfter = toLive
	st.Promoted = promoted
	st.Garbage = st.YoungUsedBefore - toLive - promoted

	d := h.cfg.MinorGCBase +
		time.Duration(float64(toLive+promoted)*h.cfg.MinorCopyNsPB)*time.Nanosecond +
		time.Duration(float64(h.YoungCommitted())*h.cfg.MinorScanNsPB)*time.Nanosecond
	st.Duration = d
	h.gc = &pendingRegionalGC{kind: MinorGC, enforced: enforced, stats: st, survivors: survivors, promoted: promoted,
		span: h.tracer.Begin(obs.TrackJVM, obs.KindGC, gcSpanName(MinorGC, enforced),
			obs.Bool("enforced", enforced),
			obs.Uint64("young_used_before", st.YoungUsedBefore),
			obs.Dur("planned_pause", d))}
	return d
}

// CompleteMinorGC applies the evacuation: new survivor regions are written,
// promotions land in old regions, and the previous young regions are freed
// (firing one shrink notification per region).
func (h *RegionalHeap) CompleteMinorGC() (GCStats, error) {
	if h.gc == nil || h.gc.kind != MinorGC {
		panic("jvm: CompleteMinorGC without BeginMinorGC")
	}
	plan := h.gc
	spanClosed := false
	defer func() { // backstop: the error returns below leave the span open
		if !spanClosed {
			plan.span.End()
		}
	}()
	oldEden, oldSurv := h.eden, h.surv
	h.eden, h.surv = nil, nil

	// Place surviving cohorts into fresh survivor regions, oldest first
	// for determinism.
	ages := make([]int, 0, len(plan.survivors))
	for age := range plan.survivors {
		ages = append(ages, age)
	}
	sort.Ints(ages)
	for _, age := range ages {
		remaining := plan.survivors[age]
		for remaining > 0 {
			idx, err := h.takeRegion(regSurvivor)
			if err != nil {
				h.gc = nil
				return GCStats{}, fmt.Errorf("%w: evacuating survivors", ErrHeapExhausted)
			}
			take := remaining
			if take > h.cfg.RegionBytes {
				take = h.cfg.RegionBytes
			}
			h.regions[idx].used = take
			h.regions[idx].age = age
			h.writeRegionPrefix(idx, take)
			remaining -= take
		}
	}

	// Promote into old regions, filling the most recent partial one first.
	if err := h.placeOld(plan.promoted); err != nil {
		h.gc = nil
		return GCStats{}, err
	}
	h.TotalPromoted += plan.promoted

	// Free every previous young region: the young generation's VA set
	// changes wholesale — the churn that makes G1-style collectors
	// interesting for JAVMM (§6).
	for _, i := range oldEden {
		h.freeRegion(i, true)
	}
	for _, i := range oldSurv {
		h.freeRegion(i, true)
	}

	// Fresh allocation region.
	if _, err := h.takeRegion(regEden); err != nil {
		h.gc = nil
		return GCStats{}, err
	}

	h.TotalGarbage += plan.stats.Garbage
	st := plan.stats
	st.At = h.clock.Now()
	st.OldUsedAfter = h.OldUsed()
	st.YoungCommittedAfter = h.YoungCommitted()
	h.MinorGCs++
	h.History = append(h.History, st)
	h.lastMinorGCAt = st.At
	h.gc = nil

	spanClosed = true
	plan.span.End(
		obs.Uint64("garbage", st.Garbage),
		obs.Uint64("promoted", st.Promoted),
		obs.Dur("pause", st.Duration))
	if m := h.metrics; m != nil {
		m.Counter("jvm.gc.minor").Inc()
		m.Counter("jvm.gc.pause_ns").AddDuration(st.Duration)
		m.Counter("jvm.gc.garbage_bytes").Add(int64(st.Garbage))
		m.Counter("jvm.gc.promoted_bytes").Add(int64(st.Promoted))
		if plan.enforced {
			m.Counter("jvm.gc.enforced").Inc()
			m.Counter("jvm.gc.enforced_pause_ns").AddDuration(st.Duration)
		}
	}

	if h.onGCEnd != nil {
		h.onGCEnd(st)
	}
	if plan.enforced {
		h.held = true
		h.tracer.Emit(obs.TrackJVM, obs.KindSafepoint, "safepoint-hold", nil,
			obs.Bool("held", true))
		if h.onEnforcedDone != nil {
			h.onEnforcedDone()
		}
	}
	return st, nil
}

// writeRegionPrefix dirties the first `bytes` of region idx.
func (h *RegionalHeap) writeRegionPrefix(idx int, bytes uint64) {
	writeRange(h.proc, h.regionRange(idx).Start, bytes)
}

// placeOld appends bytes into old regions.
func (h *RegionalHeap) placeOld(bytes uint64) error {
	for bytes > 0 {
		var idx int
		if len(h.old) > 0 && h.regions[h.old[len(h.old)-1]].used < h.cfg.RegionBytes {
			idx = h.old[len(h.old)-1]
		} else {
			var err error
			idx, err = h.takeRegion(regOld)
			if err != nil {
				return fmt.Errorf("%w: promoting %d bytes", ErrHeapExhausted, bytes)
			}
		}
		r := &h.regions[idx]
		take := h.cfg.RegionBytes - r.used
		if take > bytes {
			take = bytes
		}
		writeRange(h.proc, h.regionRange(idx).Start+mem.VA(r.used), take)
		r.used += take
		bytes -= take
	}
	return nil
}

// BeginFullGC plans an old-region collection.
func (h *RegionalHeap) BeginFullGC() time.Duration {
	if h.gc != nil {
		panic("jvm: BeginFullGC during active GC")
	}
	used := h.OldUsed()
	garbage := h.survive(used, h.cfg.OldGarbageFraction)
	st := GCStats{
		Kind:          FullGC,
		OldUsedBefore: used,
		OldUsedAfter:  used - garbage,
		Garbage:       garbage,
	}
	d := fullGCBase + time.Duration(float64(used)*fullNsPB)*time.Nanosecond
	st.Duration = d
	h.gc = &pendingRegionalGC{kind: FullGC, stats: st, oldAfter: st.OldUsedAfter,
		span: h.tracer.Begin(obs.TrackJVM, obs.KindGC, gcSpanName(FullGC, false),
			obs.Uint64("old_used_before", st.OldUsedBefore),
			obs.Dur("planned_pause", d))}
	return d
}

// CompleteFullGC compacts old data into the minimum number of regions and
// frees the rest.
func (h *RegionalHeap) CompleteFullGC() GCStats {
	if h.gc == nil || h.gc.kind != FullGC {
		panic("jvm: CompleteFullGC without BeginFullGC")
	}
	plan := h.gc
	// Compact: rewrite the surviving bytes into the leading old regions.
	remaining := plan.oldAfter
	keep := 0
	for _, idx := range h.old {
		if remaining == 0 {
			break
		}
		take := h.cfg.RegionBytes
		if take > remaining {
			take = remaining
		}
		h.regions[idx].used = take
		h.writeRegionPrefix(idx, take)
		remaining -= take
		keep++
	}
	for _, idx := range h.old[keep:] {
		h.freeRegion(idx, false)
	}
	h.old = h.old[:keep]
	h.TotalGarbage += plan.stats.Garbage

	st := plan.stats
	st.At = h.clock.Now()
	st.YoungCommittedAfter = h.YoungCommitted()
	h.FullGCs++
	h.History = append(h.History, st)
	h.gc = nil
	plan.span.End(obs.Uint64("garbage", st.Garbage), obs.Dur("pause", st.Duration))
	if m := h.metrics; m != nil {
		m.Counter("jvm.gc.full").Inc()
		m.Counter("jvm.gc.pause_ns").AddDuration(st.Duration)
		m.Counter("jvm.gc.garbage_bytes").Add(int64(st.Garbage))
	}
	if h.onGCEnd != nil {
		h.onGCEnd(st)
	}
	return st
}

// MutateOld dirties n pages uniformly across used old-region bytes.
func (h *RegionalHeap) MutateOld(n int) {
	if len(h.old) == 0 {
		return
	}
	for i := 0; i < n; i++ {
		idx := h.old[h.rng.Intn(len(h.old))]
		r := h.regions[idx]
		if r.used == 0 {
			continue
		}
		pages := (r.used + mem.PageSize - 1) / mem.PageSize
		pg := uint64(h.rng.Int63n(int64(pages)))
		h.proc.Write(h.regionRange(idx).Start + mem.VA(pg*mem.PageSize))
	}
}

// JITChurn dirties n code-cache pages round-robin.
func (h *RegionalHeap) JITChurn(n int) {
	for i := 0; i < n; i++ {
		h.proc.Write(h.codeDirty)
		h.codeDirty += mem.PageSize
		if h.codeDirty >= h.codeBase+mem.VA(h.codeBytes) {
			h.codeDirty = h.codeBase
		}
	}
}

// SeedOld fills old regions with long-lived startup data.
func (h *RegionalHeap) SeedOld(bytes uint64) error {
	if err := h.placeOld(bytes); err != nil {
		return err
	}
	h.TotalAllocated += bytes
	return nil
}

// --- agent surface ---------------------------------------------------------

// YoungAreas returns the current young generation as merged, sorted VA
// ranges — genuinely non-contiguous for this collector.
func (h *RegionalHeap) YoungAreas() []mem.VARange {
	idxs := make([]int, 0, len(h.eden)+len(h.surv))
	idxs = append(idxs, h.eden...)
	idxs = append(idxs, h.surv...)
	return h.mergeRegionRanges(idxs)
}

// ReadyAreas returns the post-enforced-GC skip areas: young regions minus
// the occupied survivor prefixes.
func (h *RegionalHeap) ReadyAreas() []mem.VARange {
	var out []mem.VARange
	for _, areas := range [][]int{h.eden, h.surv} {
		for _, i := range areas {
			r := h.regions[i]
			full := h.regionRange(i)
			if r.used == 0 {
				out = append(out, full)
				continue
			}
			liveEnd := (full.Start + mem.VA(r.used) + mem.PageMask).PageBase()
			if liveEnd < full.End {
				out = append(out, mem.VARange{Start: liveEnd, End: full.End})
			}
		}
	}
	return out
}

// SetTICallbacks installs the agent hooks.
func (h *RegionalHeap) SetTICallbacks(onShrink func(mem.VARange), onGCEnd func(GCStats), onEnforcedDone func()) {
	h.onShrink = onShrink
	h.onGCEnd = onGCEnd
	h.onEnforcedDone = onEnforcedDone
}

// GCHistory returns completed collections.
func (h *RegionalHeap) GCHistory() []GCStats { return h.History }

// HintAreas mirrors JVM.HintAreas for the regional collector: occupied old
// regions hint strong, the code cache fast.
func (h *RegionalHeap) HintAreas() (strong, fast []mem.VARange) {
	for _, i := range h.old {
		r := h.regions[i]
		if r.used == 0 {
			continue
		}
		full := h.regionRange(i)
		strong = append(strong, mem.VARange{Start: full.Start, End: full.Start + mem.VA(r.used)})
	}
	fast = append(fast, mem.VARange{Start: h.codeBase, End: h.codeBase + mem.VA(h.codeBytes)})
	return strong, fast
}

// mergeRegionRanges merges adjacent regions into maximal ranges.
func (h *RegionalHeap) mergeRegionRanges(idxs []int) []mem.VARange {
	if len(idxs) == 0 {
		return nil
	}
	sort.Ints(idxs)
	var out []mem.VARange
	cur := h.regionRange(idxs[0])
	for _, i := range idxs[1:] {
		r := h.regionRange(i)
		if r.Start == cur.End {
			cur.End = r.End
			continue
		}
		out = append(out, cur)
		cur = r
	}
	return append(out, cur)
}

// --- reporting -------------------------------------------------------------

// YoungCommitted returns the young generation's committed bytes.
func (h *RegionalHeap) YoungCommitted() uint64 {
	return uint64(len(h.eden)+len(h.surv)) * h.cfg.RegionBytes
}

// YoungUsed returns occupied young bytes.
func (h *RegionalHeap) YoungUsed() uint64 {
	var t uint64
	for _, i := range h.eden {
		t += h.regions[i].used
	}
	for _, i := range h.surv {
		t += h.regions[i].used
	}
	return t
}

// OldUsed returns occupied old bytes.
func (h *RegionalHeap) OldUsed() uint64 {
	var t uint64
	for _, i := range h.old {
		t += h.regions[i].used
	}
	return t
}

// CheckConservation verifies the allocation ledger.
func (h *RegionalHeap) CheckConservation() error {
	live := h.YoungUsed() + h.OldUsed()
	if h.TotalAllocated != live+h.TotalGarbage {
		return fmt.Errorf("jvm: regional conservation violated: allocated %d != live %d + garbage %d",
			h.TotalAllocated, live, h.TotalGarbage)
	}
	return nil
}
