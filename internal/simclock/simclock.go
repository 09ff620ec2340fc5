// Package simclock provides a deterministic virtual clock for the migration
// simulator.
//
// Every duration reported by the simulator — migration completion time,
// per-iteration durations, GC pauses, workload downtime — is measured against
// a Clock rather than the host's wall clock. This makes experiments exactly
// reproducible and lets a full "66 second" migration of a 2 GB VM run in
// microseconds of host time.
//
// The zero value of Clock is ready to use and starts at time zero.
package simclock

import (
	"fmt"
	"sort"
	"time"
)

// Clock is a virtual clock. It only moves when Advance is called; there is no
// background ticking. Clock is not safe for concurrent use: the simulator is
// single-threaded by design (see DESIGN.md §6). With a Scheduler attached
// (see sched.go) the same discipline holds — exactly one process runs at a
// time — but Advance calls made from inside a process become cooperative
// sleeps, so N processes interleave deterministically on one clock.
type Clock struct {
	now       time.Duration
	timers    []*Timer
	seq       int
	sched     *Scheduler
	advancing bool
}

// New returns a clock positioned at time zero.
func New() *Clock { return &Clock{} }

// Now returns the current virtual time as an offset from the clock's origin.
func (c *Clock) Now() time.Duration { return c.now }

// Advance moves the clock forward by d, firing any timers that expire in the
// interval in deadline order. Advancing by a negative duration panics: virtual
// time, like real time, does not run backwards.
//
// When the caller is a scheduler process, Advance is a cooperative sleep:
// the process parks for d of virtual time while the scheduler runs other
// processes and timers, totally ordered by (deadline, seq). Code written
// against the caller-driven contract therefore runs unchanged inside a
// process.
func (c *Clock) Advance(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("simclock: Advance(%v): negative duration", d))
	}
	if s := c.sched; s != nil && s.active != nil {
		s.Sleep(d)
		return
	}
	c.advanceDirect(d)
}

// advanceDirect is the caller-driven Advance: fire expiring timers in
// (deadline, seq) order, then set the clock to the target. A timer callback
// that re-enters Advance would move time underneath the interrupted caller's
// arithmetic, so re-entry panics; callbacks that need to advance time must
// run as scheduler processes instead.
func (c *Clock) advanceDirect(d time.Duration) {
	if c.advancing {
		panic("simclock: re-entrant Advance: a timer callback advanced the clock (run it as a scheduler process instead)")
	}
	c.advancing = true
	defer func() { c.advancing = false }()
	target := c.now + d
	for {
		t := c.nextTimer(target)
		if t == nil {
			break
		}
		c.now = t.when
		c.remove(t)
		t.fired = true
		t.fn(c.now)
	}
	c.now = target
}

// fireNext fires the single earliest pending timer, advancing the clock to
// its deadline. It reports false when no timers are pending. The scheduler
// drive loop uses it to move time forward exactly one event at a time, so
// process wakeups and plain timers stay totally ordered by (deadline, seq).
func (c *Clock) fireNext() bool {
	if c.advancing {
		panic("simclock: re-entrant Advance: a timer callback advanced the clock (run it as a scheduler process instead)")
	}
	t := c.nextTimer(1<<63 - 1)
	if t == nil {
		return false
	}
	c.advancing = true
	c.now = t.when
	c.remove(t)
	t.fired = true
	t.fn(c.now)
	c.advancing = false
	return true
}

// AdvanceTo moves the clock forward to the absolute virtual time t.
// It panics if t is in the past.
func (c *Clock) AdvanceTo(t time.Duration) {
	if t < c.now {
		panic(fmt.Sprintf("simclock: AdvanceTo(%v): time is %v, cannot rewind", t, c.now))
	}
	c.Advance(t - c.now)
}

// nextTimer returns the earliest pending timer with a deadline at or before
// limit, or nil if none. Ties break by creation order for determinism.
func (c *Clock) nextTimer(limit time.Duration) *Timer {
	var best *Timer
	for _, t := range c.timers {
		if t.when > limit {
			continue
		}
		if best == nil || t.when < best.when || (t.when == best.when && t.seq < best.seq) {
			best = t
		}
	}
	return best
}

func (c *Clock) remove(t *Timer) {
	for i, x := range c.timers {
		if x == t {
			c.timers = append(c.timers[:i], c.timers[i+1:]...)
			return
		}
	}
}

// Timer is a one-shot virtual timer created by AfterFunc.
type Timer struct {
	when  time.Duration
	seq   int
	fn    func(now time.Duration)
	fired bool
	clock *Clock
}

// AfterFunc registers fn to run when the clock passes the current time plus d.
// The callback receives the virtual time at which it fired. Timers fire during
// Advance, in deadline order.
func (c *Clock) AfterFunc(d time.Duration, fn func(now time.Duration)) *Timer {
	if d < 0 {
		panic(fmt.Sprintf("simclock: AfterFunc(%v): negative duration", d))
	}
	t := &Timer{fn: fn, clock: c}
	c.arm(t, d)
	return t
}

// arm queues t to fire d from now. It is the one place a timer gets its
// (deadline, seq) position in the total event order, shared by AfterFunc and
// the scheduler's reused per-process wake timers.
func (c *Clock) arm(t *Timer, d time.Duration) {
	t.when = c.now + d
	t.seq = c.seq
	t.fired = false
	c.seq++
	c.timers = append(c.timers, t)
}

// Stop cancels the timer. It reports whether the timer was still pending.
func (t *Timer) Stop() bool {
	if t.fired {
		return false
	}
	for _, x := range t.clock.timers {
		if x == t {
			t.clock.remove(t)
			t.fired = true
			return true
		}
	}
	return false
}

// Pending returns the deadlines of all outstanding timers, sorted. It exists
// for tests and debugging.
func (c *Clock) Pending() []time.Duration {
	out := make([]time.Duration, 0, len(c.timers))
	for _, t := range c.timers {
		out = append(out, t.when)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Stopwatch measures elapsed virtual time, with support for excluding paused
// intervals. The workload analyzer uses one to observe throughput from
// "outside the VM" (paper §5.1): the observation clock keeps running while the
// VM is suspended.
type Stopwatch struct {
	clock   *Clock
	start   time.Duration
	paused  time.Duration
	pauseAt time.Duration
	inPause bool
}

// NewStopwatch starts a stopwatch at the clock's current time.
func NewStopwatch(c *Clock) *Stopwatch {
	return &Stopwatch{clock: c, start: c.Now()}
}

// Pause marks the start of an excluded interval. Pausing twice is a no-op.
func (s *Stopwatch) Pause() {
	if s.inPause {
		return
	}
	s.inPause = true
	s.pauseAt = s.clock.Now()
}

// Resume ends an excluded interval. Resuming while not paused is a no-op.
func (s *Stopwatch) Resume() {
	if !s.inPause {
		return
	}
	s.inPause = false
	s.paused += s.clock.Now() - s.pauseAt
}

// Elapsed returns total virtual time since the stopwatch started, including
// paused intervals.
func (s *Stopwatch) Elapsed() time.Duration { return s.clock.Now() - s.start }

// Active returns elapsed time excluding paused intervals.
func (s *Stopwatch) Active() time.Duration {
	p := s.paused
	if s.inPause {
		p += s.clock.Now() - s.pauseAt
	}
	return s.Elapsed() - p
}
