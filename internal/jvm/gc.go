package jvm

import (
	"errors"
	"fmt"
	"time"

	"javmm/internal/mem"
	"javmm/internal/obs"
)

// gcSpanName renders the span name for a collection.
func gcSpanName(kind GCKind, enforced bool) string {
	switch {
	case kind == FullGC:
		return "full GC"
	case enforced:
		return "enforced GC"
	default:
		return "minor GC"
	}
}

// ErrHeapExhausted is returned when a promotion cannot fit in the old
// generation even at its maximum size — the simulator's OutOfMemoryError.
var ErrHeapExhausted = errors.New("jvm: old generation exhausted (OutOfMemoryError)")

// Allocate bump-allocates up to n bytes of new objects in Eden, dirtying the
// pages the allocation touches, and returns how many bytes were actually
// allocated before Eden filled. A zero return means a minor GC is needed.
// Allocation is refused (returns 0) while a GC is in progress or threads are
// held at a Safepoint.
func (j *JVM) Allocate(n uint64) uint64 {
	if j.gc != nil || j.held {
		return 0
	}
	if free := j.EdenFree(); n > free {
		n = free
	}
	if n == 0 {
		return 0
	}
	// Touch every page the bump pointer crosses; objects are initialized
	// as they are allocated, which is what continuously re-dirties the
	// young generation (paper Observation 1).
	writeRange(j.proc, j.edenStart()+mem.VA(j.edenUsed), n)
	j.edenUsed += n
	j.TotalAllocated += n
	return n
}

// NeedsMinorGC reports whether Eden is full.
func (j *JVM) NeedsMinorGC() bool { return j.EdenFree() == 0 }

// NeedsFullGC reports whether the old generation is nearly full (≥ 90 % of
// its maximum) and a full collection should run before more promotions.
func (j *JVM) NeedsFullGC() bool {
	return float64(j.oldUsed) >= 0.9*float64(j.cfg.MaxOldBytes)
}

// RequestEnforcedGC asks for a minor GC that must not be silently ignored
// (paper §4.3.2 and its footnote on coalesced GC requests). The driver
// observes EnforcePending, walks the threads to a Safepoint, and runs the
// collection with enforced=true. Requesting twice is idempotent.
func (j *JVM) RequestEnforcedGC() {
	if j.held {
		// Already post-collection with threads held: nothing to do, but
		// the requester still gets its completion callback.
		if j.OnEnforcedDone != nil {
			j.OnEnforcedDone()
		}
		return
	}
	j.enforcePending = true
	j.tracer.Emit(obs.TrackJVM, obs.KindSafepoint, "enforced-gc-request", nil)
}

// ReleaseFromSafepoint releases Java threads held after an enforced GC —
// called when the migrated VM has resumed at the destination.
func (j *JVM) ReleaseFromSafepoint() {
	if j.held {
		j.tracer.Emit(obs.TrackJVM, obs.KindSafepoint, "safepoint-release", nil,
			obs.Bool("held", false))
	}
	j.held = false
}

// survive applies a survival fraction with multiplicative noise, clamped to
// [0, 1], and returns the surviving byte count.
func (j *JVM) survive(bytes uint64, frac float64) uint64 {
	f := frac * (1 + j.cfg.SurvivalNoise*(2*j.rng.Float64()-1))
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	return uint64(float64(bytes) * f)
}

// BeginMinorGC plans a minor collection and returns its duration. Java
// threads are paused from Begin until Complete; the driver charges the
// duration to virtual time in between. Begin panics if a GC is already in
// progress (the driver's state machine must prevent that).
func (j *JVM) BeginMinorGC(enforced bool) time.Duration {
	if j.gc != nil {
		panic("jvm: BeginMinorGC during active GC")
	}
	if enforced {
		j.enforcePending = false
	}

	st := GCStats{
		Kind:            MinorGC,
		Enforced:        enforced,
		YoungUsedBefore: j.edenUsed + j.fromUsed,
		OldUsedBefore:   j.oldUsed,
	}

	edenLive := j.survive(j.edenUsed, j.cfg.EdenSurvival)
	var newFrom []cohort
	var promoted uint64
	for _, c := range j.fromCohorts {
		s := j.survive(c.bytes, j.cfg.SurvivorSurvival)
		if s == 0 {
			continue
		}
		if c.age+1 >= j.cfg.TenureThreshold {
			promoted += s
		} else {
			newFrom = append(newFrom, cohort{bytes: s, age: c.age + 1})
		}
	}
	if edenLive > 0 {
		newFrom = append(newFrom, cohort{bytes: edenLive, age: 1})
	}
	var toLive uint64
	for _, c := range newFrom {
		toLive += c.bytes
	}
	// Survivor overflow: oldest cohorts promote early until the To space
	// can hold the rest.
	for toLive > j.survivorBytes && len(newFrom) > 0 {
		oldest := newFrom[0]
		need := toLive - j.survivorBytes
		if oldest.bytes <= need {
			newFrom = newFrom[1:]
			promoted += oldest.bytes
			toLive -= oldest.bytes
		} else {
			newFrom[0].bytes -= need
			promoted += need
			toLive -= need
		}
	}

	st.LiveAfter = toLive
	st.Promoted = promoted
	st.Garbage = st.YoungUsedBefore - toLive - promoted

	d := j.cfg.MinorGCBase +
		time.Duration(float64(toLive+promoted)*j.cfg.MinorCopyNsPB)*time.Nanosecond +
		time.Duration(float64(j.youngCommitted)*j.cfg.MinorScanNsPB)*time.Nanosecond
	st.Duration = d

	j.gc = &pendingGC{
		kind:     MinorGC,
		enforced: enforced,
		duration: d,
		stats:    st,
		newFrom:  newFrom,
		toLive:   toLive,
		promoted: promoted,
	}
	if j.tracer != nil {
		j.gc.span = j.tracer.Begin(obs.TrackJVM, obs.KindGC, gcSpanName(MinorGC, enforced),
			obs.Bool("enforced", enforced),
			obs.Uint64("young_used_before", st.YoungUsedBefore),
			obs.Dur("planned_pause", d))
	}
	return d
}

// GCCopyTick advances the in-flight collection by adv of virtual time,
// writing the proportional share of its copy traffic: the To-space
// evacuation for a minor GC, the old-generation compaction for a full GC.
// The workload driver calls it as it charges GC time, so a migration
// observing the guest sees the collector's writes spread across the pause
// rather than a burst at the end — as a real stop-the-world collector
// behaves. Ticks outside any GC are ignored.
func (j *JVM) GCCopyTick(adv time.Duration) {
	if j.gc == nil || j.gc.duration <= 0 {
		return
	}
	plan := j.gc
	plan.elapsed += adv
	frac := float64(plan.elapsed) / float64(plan.duration)
	if frac > 1 {
		frac = 1
	}
	var total uint64
	var base mem.VA
	switch plan.kind {
	case MinorGC:
		total, base = plan.toLive, j.toStart()
	case FullGC:
		total, base = plan.oldAfter, j.oldBase
	}
	target := uint64(float64(total) * frac)
	if target > plan.copiedBytes {
		writeRange(j.proc, base+mem.VA(plan.copiedBytes), target-plan.copiedBytes)
		plan.copiedBytes = target
	}
}

// CompleteMinorGC applies the planned collection: copies live data to the To
// space (dirtying its pages), promotes tenured data into the old generation,
// empties Eden, swaps the survivor spaces and resizes the young generation
// under the adaptive policy. At completion the Eden and To spaces are empty
// (paper §4.1) — the post-collection state JAVMM migrates.
func (j *JVM) CompleteMinorGC() (GCStats, error) {
	if j.gc == nil || j.gc.kind != MinorGC {
		panic("jvm: CompleteMinorGC without BeginMinorGC")
	}
	plan := j.gc
	spanClosed := false
	defer func() { // backstop: the error returns below leave the span open
		if !spanClosed {
			plan.span.End()
		}
	}()

	// Copy any remainder of the live data into the To space (most of it
	// was already written by GCCopyTick during the pause).
	if plan.toLive > plan.copiedBytes {
		writeRange(j.proc, j.toStart()+mem.VA(plan.copiedBytes), plan.toLive-plan.copiedBytes)
	}

	// Promote into the old generation, growing it as needed.
	if plan.promoted > 0 {
		for j.oldUsed+plan.promoted > j.oldCommitted {
			if err := j.growOld(oldGrowChunk); err != nil {
				j.gc = nil
				return GCStats{}, fmt.Errorf("%w: promoting %d bytes", ErrHeapExhausted, plan.promoted)
			}
		}
		writeRange(j.proc, j.oldBase+mem.VA(j.oldUsed), plan.promoted)
		j.oldUsed += plan.promoted
		j.TotalPromoted += plan.promoted
	}

	// Eden empties; survivors swap roles.
	j.edenUsed = 0
	j.fromIsFirst = !j.fromIsFirst
	j.fromUsed = plan.toLive
	j.fromCohorts = plan.newFrom
	j.TotalGarbage += plan.stats.Garbage

	now := j.clock.Now()
	// Application-Level Ballooning overrides adaptive sizing: pin the
	// committed young generation at the ALB target (floored by live data).
	if j.albTarget > 0 && !plan.enforced {
		livePages := (j.fromUsed + mem.PageSize - 1) / mem.PageSize
		minForLive := livePages * uint64(j.cfg.SurvivorRatio+2) * mem.PageSize
		desired := j.albTarget
		if desired < minForLive {
			desired = minForLive
		}
		if desired > pageCeil(j.cfg.MaxYoungBytes) {
			desired = pageCeil(j.cfg.MaxYoungBytes)
		}
		if desired != j.youngCommitted {
			if err := j.commitYoung(desired); err != nil {
				j.gc = nil
				return GCStats{}, err
			}
		}
	}
	// Adaptive sizing (skipped for enforced GCs: the young range must stay
	// stable through the migration handshake; and while ALB pins the size).
	if !j.cfg.DisableAdaptiveSizing && !plan.enforced && j.albTarget == 0 && j.MinorGCs > 0 {
		interval := now - j.lastMinorGCAt
		maxY := pageCeil(j.cfg.MaxYoungBytes)
		switch {
		case interval < j.cfg.GrowBelow && j.youngCommitted < maxY:
			next := j.youngCommitted * 2
			if next > maxY {
				next = maxY
			}
			if err := j.commitYoung(next); err != nil {
				j.gc = nil
				return GCStats{}, err
			}
		case interval > j.cfg.ShrinkAbove && j.youngCommitted > pageCeil(j.cfg.InitialYoungBytes):
			next := j.youngCommitted / 2
			if next < pageCeil(j.cfg.InitialYoungBytes) {
				next = pageCeil(j.cfg.InitialYoungBytes)
			}
			// Never shrink below what live survivor data needs: the
			// survivor space is committed/(ratio+2) rounded DOWN to pages,
			// so compute the floor in pages.
			livePages := (j.fromUsed + mem.PageSize - 1) / mem.PageSize
			minForLive := livePages * uint64(j.cfg.SurvivorRatio+2) * mem.PageSize
			if next < minForLive {
				next = minForLive
			}
			if next < j.youngCommitted {
				if err := j.commitYoung(next); err != nil {
					j.gc = nil
					return GCStats{}, err
				}
			}
		}
	}
	j.lastMinorGCAt = now

	st := plan.stats
	st.At = now
	st.YoungCommittedAfter = j.youngCommitted
	j.MinorGCs++
	j.History = append(j.History, st)
	j.gc = nil

	spanClosed = true
	if plan.span != nil {
		plan.span.End(
			obs.Uint64("garbage", st.Garbage),
			obs.Uint64("promoted", st.Promoted),
			obs.Dur("pause", st.Duration))
	}
	if m := j.metrics; m != nil {
		m.Counter("jvm.gc.minor").Inc()
		m.Counter("jvm.gc.pause_ns").AddDuration(st.Duration)
		m.Counter("jvm.gc.garbage_bytes").Add(int64(st.Garbage))
		m.Counter("jvm.gc.promoted_bytes").Add(int64(st.Promoted))
		if plan.enforced {
			m.Counter("jvm.gc.enforced").Inc()
			m.Counter("jvm.gc.enforced_pause_ns").AddDuration(st.Duration)
		}
	}

	if j.OnGCEnd != nil {
		j.OnGCEnd(st)
	}
	if plan.enforced {
		// Java threads stay at the Safepoint: the Eden and To spaces must
		// remain empty until VM suspension completes (paper §4.3.2).
		j.held = true
		j.tracer.Emit(obs.TrackJVM, obs.KindSafepoint, "safepoint-hold", nil,
			obs.Bool("held", true))
		if j.OnEnforcedDone != nil {
			j.OnEnforcedDone()
		}
	}
	return st, nil
}

// BeginFullGC plans a full (old-generation) collection and returns its
// duration. Full GCs are markedly slower per byte than minor GCs
// (paper §4.2: 93 MB in ~4 s).
func (j *JVM) BeginFullGC() time.Duration {
	if j.gc != nil {
		panic("jvm: BeginFullGC during active GC")
	}
	garbage := j.survive(j.oldUsed, j.cfg.OldGarbageFraction)
	st := GCStats{
		Kind:          FullGC,
		OldUsedBefore: j.oldUsed,
		OldUsedAfter:  j.oldUsed - garbage,
		Garbage:       garbage,
	}
	d := j.cfg.FullGCBase + time.Duration(float64(j.oldUsed)*j.cfg.FullNsPB)*time.Nanosecond
	st.Duration = d
	j.gc = &pendingGC{kind: FullGC, duration: d, stats: st, oldAfter: st.OldUsedAfter,
		span: j.tracer.Begin(obs.TrackJVM, obs.KindGC, gcSpanName(FullGC, false),
			obs.Uint64("old_used_before", st.OldUsedBefore),
			obs.Dur("planned_pause", d))}
	return d
}

// CompleteFullGC applies the planned full collection: the old generation is
// compacted in place (dirtying its live region).
func (j *JVM) CompleteFullGC() GCStats {
	if j.gc == nil || j.gc.kind != FullGC {
		panic("jvm: CompleteFullGC without BeginFullGC")
	}
	plan := j.gc
	// Compaction rewrites live data; most of it was already written by
	// GCCopyTick during the pause.
	if plan.oldAfter > plan.copiedBytes {
		writeRange(j.proc, j.oldBase+mem.VA(plan.copiedBytes), plan.oldAfter-plan.copiedBytes)
	}
	j.oldUsed = plan.oldAfter
	j.TotalGarbage += plan.stats.Garbage

	st := plan.stats
	st.At = j.clock.Now()
	st.YoungCommittedAfter = j.youngCommitted
	j.FullGCs++
	j.History = append(j.History, st)
	j.gc = nil
	plan.span.End(obs.Uint64("garbage", st.Garbage), obs.Dur("pause", st.Duration))
	if m := j.metrics; m != nil {
		m.Counter("jvm.gc.full").Inc()
		m.Counter("jvm.gc.pause_ns").AddDuration(st.Duration)
		m.Counter("jvm.gc.garbage_bytes").Add(int64(st.Garbage))
	}
	if j.OnGCEnd != nil {
		j.OnGCEnd(st)
	}
	return st
}
