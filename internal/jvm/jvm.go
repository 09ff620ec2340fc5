// Package jvm simulates the slice of HotSpot that JAVMM interacts with: a
// generational heap (Eden, two survivor semi-spaces, Old generation) managed
// by a stop-the-world copying minor collector, Safepoint mechanics, adaptive
// young-generation sizing, and the Tool-Interface-style callbacks the JAVMM
// agent plugs into (paper §4.1, §4.3).
//
// The simulation operates at the granularity JAVMM cares about: which pages
// of the guest's memory the heap occupies and dirties, how much of the young
// generation is garbage at each minor GC, how long collections pause the
// application, and where live data sits after a collection. Individual
// objects are aggregated into cohorts (bytes allocated in the same inter-GC
// epoch), which is exactly the granularity of the weak generational
// hypothesis the heap design rests on [Ungar84].
package jvm

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"javmm/internal/guestos"
	"javmm/internal/mem"
	"javmm/internal/obs"
	"javmm/internal/simclock"
)

// Config describes a HotSpot instance. Survival fractions and GC cost
// coefficients are per-workload knobs; defaults model a typical
// allocation-heavy server workload.
type Config struct {
	Proc  *guestos.Process // required: the JVM's OS process
	Clock *simclock.Clock  // required
	Rand  *rand.Rand       // deterministic noise source; defaults to seed 1

	// HeapBase is the VA where the heap mapping starts. Default 1 GiB.
	HeapBase mem.VA

	// Young generation sizing (bytes; page-aligned internally).
	InitialYoungBytes uint64 // committed at startup (default 64 MiB)
	MaxYoungBytes     uint64 // -Xmn ceiling (default 1 GiB)
	// SurvivorRatio is HotSpot's -XX:SurvivorRatio: Eden is Ratio times
	// the size of one survivor space (default 8, so Eden:From:To = 8:1:1).
	SurvivorRatio int

	// MaxOldBytes caps the old generation (default 1 GiB).
	MaxOldBytes uint64

	// TenureThreshold is the number of minor GCs an object must survive
	// before promotion (default 4).
	TenureThreshold int

	// EdenSurvival is the fraction of Eden bytes that survive a minor GC
	// (the complement is the Figure 5(b) garbage). Default 0.03.
	EdenSurvival float64
	// SurvivorSurvival is the per-GC survival fraction of data already in
	// a survivor space. Default 0.5.
	SurvivorSurvival float64
	// SurvivalNoise jitters survival fractions by ±noise relative.
	// Default 0.1.
	SurvivalNoise float64

	// OldGarbageFraction is the fraction of the old generation found dead
	// by a full GC. Default 0.3.
	OldGarbageFraction float64

	// Minor GC duration model: Base + live*CopyPerByte +
	// committedYoung*ScanPerByte (see DESIGN.md §6).
	MinorGCBase   time.Duration // default 50 ms
	MinorCopyNsPB float64       // ns per live byte copied, default 15
	MinorScanNsPB float64       // ns per committed young byte, default 0.6
	// Full GC duration model: Base + oldUsed*FullNsPB. The default gives
	// the multi-second full-GC pauses the paper observes (§4.2: ~4 s for
	// a few hundred MB of old generation).
	FullGCBase time.Duration // default 200 ms
	FullNsPB   float64       // ns per old byte, default 8

	// SafepointDelay is how long Java threads take to reach a Safepoint
	// when a GC is requested (paper Figure 8(b): 0.7 s for compiler).
	SafepointDelay time.Duration

	// AdaptiveSizing grows the committed young generation when Eden
	// refills quickly and shrinks it when refills are slow, the behaviour
	// behind the paper's observation that allocation-heavy workloads grow
	// the young gen to its maximum (§4.2). Default on.
	DisableAdaptiveSizing bool
	// GrowBelow / ShrinkAbove are the inter-GC interval thresholds for
	// adaptive sizing (defaults 3 s / 30 s).
	GrowBelow   time.Duration
	ShrinkAbove time.Duration

	// OldHotBytes, when non-zero, confines MutateOld to a hot region of
	// that size at the base of the old generation, rewritten cyclically —
	// the access pattern of numeric kernels like scimark's LU
	// factorization. Zero spreads mutations uniformly over the used old
	// generation.
	OldHotBytes uint64

	// CodeCacheBytes sizes the JIT code cache mapping (default 48 MiB);
	// JAVMM migrates it as usual (§4: skipping it costs too much
	// performance).
	CodeCacheBytes uint64
}

func (c *Config) fillDefaults() error {
	if c.Proc == nil {
		return errors.New("jvm: Config.Proc is required")
	}
	if c.Clock == nil {
		return errors.New("jvm: Config.Clock is required")
	}
	if c.Rand == nil {
		c.Rand = rand.New(rand.NewSource(1))
	}
	if c.HeapBase == 0 {
		c.HeapBase = 1 << 30
	}
	if c.InitialYoungBytes == 0 {
		c.InitialYoungBytes = 64 << 20
	}
	if c.MaxYoungBytes == 0 {
		c.MaxYoungBytes = 1 << 30
	}
	if c.SurvivorRatio == 0 {
		c.SurvivorRatio = 8
	}
	if c.MaxOldBytes == 0 {
		c.MaxOldBytes = 1 << 30
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
	if c.OldGarbageFraction == 0 {
		c.OldGarbageFraction = 0.3
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
	if c.FullGCBase == 0 {
		c.FullGCBase = 200 * time.Millisecond
	}
	if c.FullNsPB == 0 {
		c.FullNsPB = 8
	}
	if c.SafepointDelay == 0 {
		c.SafepointDelay = 20 * time.Millisecond
	}
	if c.GrowBelow == 0 {
		c.GrowBelow = 3 * time.Second
	}
	if c.ShrinkAbove == 0 {
		c.ShrinkAbove = 30 * time.Second
	}
	if c.CodeCacheBytes == 0 {
		c.CodeCacheBytes = 48 << 20
	}
	if c.InitialYoungBytes > c.MaxYoungBytes {
		return fmt.Errorf("jvm: initial young %d exceeds max %d", c.InitialYoungBytes, c.MaxYoungBytes)
	}
	return nil
}

// cohort aggregates the bytes allocated within one inter-GC epoch that are
// currently alive in a survivor space, tagged with the number of minor GCs
// they have survived.
type cohort struct {
	bytes uint64
	age   int
}

// JVM is one simulated HotSpot instance.
type JVM struct {
	cfg   Config
	proc  *guestos.Process
	clock *simclock.Clock
	rng   *rand.Rand

	// Young generation layout. The committed young range is
	// [youngBase, youngBase+youngCommitted): Eden first, then the two
	// survivor spaces.
	youngBase      mem.VA
	youngCommitted uint64
	edenBytes      uint64 // current Eden capacity
	survivorBytes  uint64 // capacity of ONE survivor space
	fromIsFirst    bool   // true: survivor #1 is From (holds live data)

	edenUsed    uint64
	fromUsed    uint64
	fromCohorts []cohort

	// Old generation: committed grows in chunks as promotions demand.
	oldBase      mem.VA
	oldCommitted uint64
	oldUsed      uint64

	// Code cache.
	codeBase  mem.VA
	codeBytes uint64
	codeDirty mem.VA // next code page to dirty (JIT churn)

	oldHotCursor uint64 // cyclic sweep position for hot-region mutation

	// albTarget, when non-zero, caps the committed young generation at the
	// next GC boundaries — Application-Level Ballooning (Salomie et al.,
	// EuroSys'13), the alternative the paper's §2 compares against:
	// shrink the Java heap before migration so less dirty data is sent,
	// at the cost of more frequent collections.
	albTarget uint64

	// Collection state.
	gc             *pendingGC
	lastMinorGCAt  time.Duration
	enforcePending bool // an enforced GC was requested (Safepoint en route)
	held           bool // Java threads held at Safepoint after enforced GC

	// TI-style callbacks (paper §4.3.1: provided by the agent).
	OnGCEnd        func(GCStats)           // notification interface of GC events
	OnYoungShrink  func(freed mem.VARange) // pages freed from the young gen
	OnEnforcedDone func()                  // enforced GC finished, threads held

	// Cumulative accounting (conservation-checked in tests).
	TotalAllocated uint64
	TotalGarbage   uint64 // collected by minor+full GCs
	TotalPromoted  uint64
	MinorGCs       int
	FullGCs        int
	History        []GCStats

	tracer  *obs.Tracer
	metrics *obs.Metrics
}

// SetObs attaches a tracer and metrics registry: collections become spans on
// the JVM track (minor/enforced/full GC), Safepoint requests/holds/releases
// become instants, and pause totals accumulate under jvm.gc.* counters.
// Either argument may be nil.
func (j *JVM) SetObs(t *obs.Tracer, m *obs.Metrics) {
	j.tracer = t
	j.metrics = m
}

// GCKind distinguishes minor from full collections.
type GCKind int

// Collection kinds.
const (
	MinorGC GCKind = iota
	FullGC
)

// GCStats describes one completed collection — the raw material of
// Figure 5(b) and 5(c).
type GCStats struct {
	Kind     GCKind
	Enforced bool
	At       time.Duration // virtual time at completion
	Duration time.Duration

	YoungUsedBefore uint64 // Eden+From occupancy before (minor)
	LiveAfter       uint64 // bytes copied to To (minor)
	Garbage         uint64 // reclaimed bytes
	Promoted        uint64

	OldUsedBefore uint64
	OldUsedAfter  uint64

	YoungCommittedAfter uint64
}

// pendingGC holds a collection computed at Begin time and applied at
// Complete time, so the driver can charge its duration to virtual time in
// between.
type pendingGC struct {
	kind     GCKind
	enforced bool
	duration time.Duration
	stats    GCStats
	newFrom  []cohort
	toLive   uint64
	promoted uint64
	oldAfter uint64 // full GC result

	// Incremental copy progress: a real scavenger writes the To space
	// throughout the pause, not in one burst at the end — which is what
	// keeps the guest's dirtying rate visible to a migration running
	// concurrently with a collection.
	elapsed     time.Duration
	copiedBytes uint64

	span *obs.Span // open GC span, ended at Complete time
}

// oldGrowChunk is the granularity at which old-generation memory is
// committed.
const oldGrowChunk = 32 << 20

// New boots a JVM: maps the initial young generation, an initial old chunk
// and the code cache into the process address space.
func New(cfg Config) (*JVM, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	j := &JVM{
		cfg:         cfg,
		proc:        cfg.Proc,
		clock:       cfg.Clock,
		rng:         cfg.Rand,
		youngBase:   cfg.HeapBase,
		fromIsFirst: true,
	}
	// Old generation sits above the maximum young extent so young growth
	// never collides with it.
	j.oldBase = j.youngBase + mem.VA(pageCeil(cfg.MaxYoungBytes))
	j.codeBase = j.oldBase + mem.VA(pageCeil(cfg.MaxOldBytes))
	j.codeBytes = pageCeil(cfg.CodeCacheBytes)
	j.codeDirty = j.codeBase

	if err := j.commitYoung(pageCeil(cfg.InitialYoungBytes)); err != nil {
		return nil, err
	}
	if err := j.growOld(oldGrowChunk); err != nil {
		return nil, err
	}
	if err := j.proc.Alloc(mem.VARange{Start: j.codeBase, End: j.codeBase + mem.VA(j.codeBytes)}); err != nil {
		return nil, fmt.Errorf("jvm: mapping code cache: %w", err)
	}
	return j, nil
}

func pageCeil(b uint64) uint64 {
	return (b + mem.PageSize - 1) &^ uint64(mem.PageMask)
}

// commitYoung grows the committed young generation to newSize bytes
// (page-aligned), mapping the added pages and recomputing the Eden/survivor
// layout. Growing while survivor data is live relocates it (HotSpot resizes
// spaces at GC end when this is cheap).
func (j *JVM) commitYoung(newSize uint64) error {
	newSize = pageCeil(newSize)
	if newSize > j.youngCommitted {
		add := mem.VARange{
			Start: j.youngBase + mem.VA(j.youngCommitted),
			End:   j.youngBase + mem.VA(newSize),
		}
		if err := j.proc.Alloc(add); err != nil {
			return fmt.Errorf("jvm: growing young gen: %w", err)
		}
	} else if newSize < j.youngCommitted {
		freed := mem.VARange{
			Start: j.youngBase + mem.VA(newSize),
			End:   j.youngBase + mem.VA(j.youngCommitted),
		}
		j.proc.Free(freed)
		if j.OnYoungShrink != nil {
			j.OnYoungShrink(freed)
		}
	}
	j.youngCommitted = newSize
	j.layoutYoung()
	return nil
}

// layoutYoung recomputes Eden/survivor boundaries for the committed size.
func (j *JVM) layoutYoung() {
	pages := j.youngCommitted / mem.PageSize
	survPages := pages / uint64(j.cfg.SurvivorRatio+2)
	if survPages == 0 {
		survPages = 1
	}
	j.survivorBytes = survPages * mem.PageSize
	j.edenBytes = j.youngCommitted - 2*j.survivorBytes
	// Relocate live survivor data into the (possibly moved) From space.
	if j.fromUsed > 0 {
		writeRange(j.proc, j.fromStart(), j.fromUsed)
	}
	if j.fromUsed > j.survivorBytes {
		// Shrinking below live data would corrupt the heap; callers only
		// shrink when usage is low, so this is a simulator bug.
		panic("jvm: young layout leaves survivor data homeless")
	}
}

func (j *JVM) edenStart() mem.VA { return j.youngBase }

// fromStart returns the base VA of the survivor space currently holding
// live data.
func (j *JVM) fromStart() mem.VA {
	if j.fromIsFirst {
		return j.youngBase + mem.VA(j.edenBytes)
	}
	return j.youngBase + mem.VA(j.edenBytes+j.survivorBytes)
}

// toStart returns the base VA of the empty survivor space.
func (j *JVM) toStart() mem.VA {
	if j.fromIsFirst {
		return j.youngBase + mem.VA(j.edenBytes+j.survivorBytes)
	}
	return j.youngBase + mem.VA(j.edenBytes)
}

// growOld commits more old-generation memory.
func (j *JVM) growOld(add uint64) error {
	add = pageCeil(add)
	if j.oldCommitted+add > pageCeil(j.cfg.MaxOldBytes) {
		add = pageCeil(j.cfg.MaxOldBytes) - j.oldCommitted
	}
	if add == 0 {
		return errors.New("jvm: old generation exhausted")
	}
	r := mem.VARange{
		Start: j.oldBase + mem.VA(j.oldCommitted),
		End:   j.oldBase + mem.VA(j.oldCommitted+add),
	}
	if err := j.proc.Alloc(r); err != nil {
		return fmt.Errorf("jvm: growing old gen: %w", err)
	}
	j.oldCommitted += add
	return nil
}

// SeedOld allocates long-lived startup data directly into the old generation
// (application data structures, caches, interned strings). Workloads use it
// to reproduce the paper's observed old-generation sizes (Table 2).
func (j *JVM) SeedOld(bytes uint64) error {
	for j.oldUsed+bytes > j.oldCommitted {
		if err := j.growOld(oldGrowChunk); err != nil {
			return fmt.Errorf("jvm: seeding %d old bytes: %w", bytes, err)
		}
	}
	writeRange(j.proc, j.oldBase+mem.VA(j.oldUsed), bytes)
	j.oldUsed += bytes
	j.TotalAllocated += bytes
	return nil
}

// writeRange dirties every page that [start, start+bytes) overlaps, as one
// page-run write: bump allocation, survivor copies, promotion and compaction
// all store to contiguous pages.
func writeRange(proc *guestos.Process, start mem.VA, bytes uint64) {
	if bytes == 0 {
		return
	}
	end := start + mem.VA(bytes)
	proc.WriteRange(mem.VARange{Start: start.PageBase(), End: (end + mem.PageMask).PageBase()})
}

// --- accessors -----------------------------------------------------------

// YoungRange returns the committed young generation VA range — the skip-over
// area the JAVMM agent reports (paper §4.3.2).
func (j *JVM) YoungRange() mem.VARange {
	return mem.VARange{Start: j.youngBase, End: j.youngBase + mem.VA(j.youngCommitted)}
}

// FromLiveRange returns the occupied portion of the From space: the live
// data that survived the last collection and must be transferred in the last
// iteration.
func (j *JVM) FromLiveRange() mem.VARange {
	s := j.fromStart()
	return mem.VARange{Start: s, End: s + mem.VA(j.fromUsed)}
}

// YoungAreas returns the young generation as a list of VA ranges — a single
// contiguous range for this collector. The JAVMM agent works against this
// list-shaped surface so that region-based collectors (RegionalHeap) plug in
// unchanged (paper §6 future work).
func (j *JVM) YoungAreas() []mem.VARange { return []mem.VARange{j.YoungRange()} }

// ReadyAreas returns the post-enforced-GC skip-over areas: the young
// generation minus the page-rounded occupied From space, so the surviving
// objects are transferred in the last iteration (paper §4.3.2). Valid while
// threads are held after an enforced GC.
func (j *JVM) ReadyAreas() []mem.VARange {
	live := j.FromLiveRange()
	liveAligned := mem.VARange{
		Start: live.Start.PageBase(),
		End:   (live.End + mem.PageMask).PageBase(),
	}
	return j.YoungRange().Subtract(liveAligned)
}

// SetTICallbacks installs the Tool-Interface hooks the JAVMM agent uses.
// Passing nil clears a hook.
func (j *JVM) SetTICallbacks(onShrink func(mem.VARange), onGCEnd func(GCStats), onEnforcedDone func()) {
	j.OnYoungShrink = onShrink
	j.OnGCEnd = onGCEnd
	j.OnEnforcedDone = onEnforcedDone
}

// GCHistory returns the completed collections, oldest first.
func (j *JVM) GCHistory() []GCStats { return j.History }

// HintAreas returns the memory the JVM knows to be strongly and lightly
// compressible (§6 extension): the old generation's occupied range (long-
// lived, pointer- and string-heavy) compresses well; the JIT code cache only
// modestly.
func (j *JVM) HintAreas() (strong, fast []mem.VARange) {
	if j.oldUsed > 0 {
		strong = append(strong, mem.VARange{Start: j.oldBase, End: j.oldBase + mem.VA(j.oldUsed)})
	}
	fast = append(fast, j.CodeCacheRange())
	return strong, fast
}

// YoungCommitted returns committed young-generation bytes.
func (j *JVM) YoungCommitted() uint64 { return j.youngCommitted }

// YoungUsed returns Eden+From occupancy in bytes.
func (j *JVM) YoungUsed() uint64 { return j.edenUsed + j.fromUsed }

// OldUsed returns old-generation occupancy in bytes.
func (j *JVM) OldUsed() uint64 { return j.oldUsed }

// OldCommitted returns committed old-generation bytes.
func (j *JVM) OldCommitted() uint64 { return j.oldCommitted }

// EdenFree returns the bytes left before Eden fills.
func (j *JVM) EdenFree() uint64 { return j.edenBytes - j.edenUsed }

// HeldAtSafepoint reports whether Java threads are held at the Safepoint
// after an enforced GC, awaiting VM resumption (paper §4.3.2).
func (j *JVM) HeldAtSafepoint() bool { return j.held }

// InGC reports whether a collection is in progress.
func (j *JVM) InGC() bool { return j.gc != nil }

// EnforcePending reports whether an enforced GC has been requested but not
// yet started.
func (j *JVM) EnforcePending() bool { return j.enforcePending }

// SafepointDelay returns how long threads take to reach a Safepoint.
func (j *JVM) SafepointDelay() time.Duration { return j.cfg.SafepointDelay }

// CodeCacheRange returns the JIT code cache mapping.
func (j *JVM) CodeCacheRange() mem.VARange {
	return mem.VARange{Start: j.codeBase, End: j.codeBase + mem.VA(j.codeBytes)}
}

// JITChurn dirties n code-cache pages, round-robin — background compilation
// activity.
func (j *JVM) JITChurn(n int) {
	for i := 0; i < n; i++ {
		j.proc.Write(j.codeDirty)
		j.codeDirty += mem.PageSize
		if j.codeDirty >= j.codeBase+mem.VA(j.codeBytes) {
			j.codeDirty = j.codeBase
		}
	}
}

// MutateOld dirties n old-generation pages — long-lived data being updated
// in place. With Config.OldHotBytes set, writes sweep a hot region
// cyclically; otherwise they land uniformly over the used old generation.
func (j *JVM) MutateOld(n int) {
	if j.oldUsed == 0 {
		return
	}
	usedPages := (j.oldUsed + mem.PageSize - 1) / mem.PageSize
	hotPages := usedPages
	if j.cfg.OldHotBytes > 0 {
		hotPages = pageCeil(j.cfg.OldHotBytes) / mem.PageSize
		if hotPages > usedPages {
			hotPages = usedPages
		}
	}
	if j.cfg.OldHotBytes > 0 {
		for i := 0; i < n; i++ {
			j.proc.Write(j.oldBase + mem.VA(j.oldHotCursor*mem.PageSize))
			j.oldHotCursor++
			if j.oldHotCursor >= hotPages {
				j.oldHotCursor = 0
			}
		}
		return
	}
	for i := 0; i < n; i++ {
		pg := uint64(j.rng.Int63n(int64(usedPages)))
		j.proc.Write(j.oldBase + mem.VA(pg*mem.PageSize))
	}
}

// ALBShrink requests Application-Level Ballooning: from the next minor GC
// onwards the committed young generation is shrunk toward target bytes (never
// below what live survivor data needs) and held there until ALBRelease. The
// young generation keeps collecting normally — just more often, since Eden is
// smaller; that GC-frequency increase is ALB's performance tradeoff (§2).
func (j *JVM) ALBShrink(target uint64) {
	if target < 4*mem.PageSize*uint64(j.cfg.SurvivorRatio+2) {
		target = 4 * mem.PageSize * uint64(j.cfg.SurvivorRatio+2)
	}
	j.albTarget = pageCeil(target)
}

// ALBRelease ends ballooning; adaptive sizing resumes and the young
// generation regrows under allocation pressure.
func (j *JVM) ALBRelease() { j.albTarget = 0 }

// ALBActive reports whether ballooning is in force.
func (j *JVM) ALBActive() bool { return j.albTarget != 0 }

// CheckConservation verifies the allocation ledger: everything ever
// allocated is now live in the heap or was collected as garbage. Property
// tests call this after arbitrary operation sequences.
func (j *JVM) CheckConservation() error {
	live := j.edenUsed + j.fromUsed + j.oldUsed
	if j.TotalAllocated != live+j.TotalGarbage {
		return fmt.Errorf("jvm: conservation violated: allocated %d != live %d + garbage %d",
			j.TotalAllocated, live, j.TotalGarbage)
	}
	return nil
}
