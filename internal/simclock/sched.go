//go:build go1.23

package simclock

import (
	"fmt"
	"iter"
	"strings"
	"time"
)

// Scheduler runs cooperative processes against one Clock, deterministically.
//
// Exactly one process executes at any moment. Each process is an iter.Pull
// coroutine: the scheduler resumes it with the pull's next and the process
// parks by calling the sequence's yield, so the thread passes straight from
// one goroutine to the other without the Go run queue. iter.Pull records a
// happens-before edge at every switch, so a scheduled run is race-free by
// construction. A process that calls Clock.Advance (directly or through any
// code written against the caller-driven contract) parks for that much
// virtual time while other processes and timers run. Wakeups ride the
// clock's existing timer queue, so everything that happens at one virtual
// instant — timer callbacks and process resumptions alike — fires in
// registration (seq) order. The result: a same-seed run is byte-identical
// regardless of goroutine interleaving, because goroutines never actually
// interleave.
//
// The zero Scheduler is not usable; build one with NewScheduler, spawn
// processes with Go, then call Run to drive everything to completion.
type Scheduler struct {
	clock   *Clock
	procs   []*Proc // every spawned, not-yet-finished process
	runq    []*Proc // runnable, in wakeup order
	active  *Proc   // the process currently executing, if any
	running bool
}

// NewScheduler attaches a new scheduler to the clock. A clock carries at most
// one scheduler; attaching a second panics.
func NewScheduler(c *Clock) *Scheduler {
	if c.sched != nil {
		panic("simclock: clock already has a scheduler")
	}
	s := &Scheduler{clock: c}
	c.sched = s
	return s
}

// Scheduler returns the scheduler attached to the clock, or nil.
func (c *Clock) Scheduler() *Scheduler { return c.sched }

// Clock returns the clock the scheduler drives.
func (s *Scheduler) Clock() *Clock { return s.clock }

// Active returns the process currently executing, or nil when control is
// with the scheduler (or no Run is in progress).
func (s *Scheduler) Active() *Proc { return s.active }

// Proc is one cooperative process. It runs on its own coroutine goroutine but
// only while it holds the scheduler's baton; between Park and Ready (or during
// a Sleep) the coroutine is suspended and consumes no CPU.
type Proc struct {
	name   string
	sched  *Scheduler
	next   func() (struct{}, bool) // scheduler -> process: run until it parks or finishes
	yield  func(struct{}) bool     // process -> scheduler: park
	done   bool
	queued bool // in runq (guards against double-Ready)
	pan    any  // panic captured from the process body
	// wake is the process's Sleep timer, re-armed by every Sleep: a sleeping
	// process is parked until it fires, so one timer per process suffices.
	wake Timer
}

// Name returns the name the process was spawned with.
func (p *Proc) Name() string { return p.name }

// Go spawns fn as a new process. The process is runnable immediately but does
// not execute until Run (or the next scheduling point) hands it the baton;
// same-instant processes start in Go-call order.
//
// A panic in fn surfaces from Run, annotated with the process name. A
// runtime.Goexit in fn (t.FailNow, say) does not just end the process: it
// propagates through the coroutine switch and ends the goroutine that called
// Run, after running that goroutine's deferred calls.
func (s *Scheduler) Go(name string, fn func()) *Proc {
	p := &Proc{name: name, sched: s}
	p.wake = Timer{fn: func(time.Duration) { s.ready(p) }, fired: true, clock: s.clock}
	s.procs = append(s.procs, p)
	s.ready(p)
	// Run resumes every process until its body returns, which ends the
	// coroutine, so the pull's stop is not needed. A Run that panics leaves
	// its parked processes suspended for good.
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			p.pan = recover()
			p.done = true
			s.active = nil
		}()
		fn()
	})
	return p
}

// Run drives the system until every process has finished: it resumes
// runnable processes in wakeup order and, when none are runnable, fires the
// single earliest timer (which may wake processes). Run panics if processes
// remain but nothing can ever wake them, and re-raises (annotated) any panic
// escaping a process body.
func (s *Scheduler) Run() {
	if s.running {
		panic("simclock: re-entrant Scheduler.Run")
	}
	if s.active != nil {
		panic("simclock: Scheduler.Run called from inside a process")
	}
	s.running = true
	defer func() { s.running = false }()
	for {
		if len(s.runq) > 0 {
			// Pop in place so the queue keeps its capacity: re-slicing off
			// the front would make every later append reallocate.
			p := s.runq[0]
			n := copy(s.runq, s.runq[1:])
			s.runq[n] = nil
			s.runq = s.runq[:n]
			p.queued = false
			s.step(p)
			continue
		}
		s.reap()
		if len(s.procs) == 0 {
			return
		}
		if !s.clock.fireNext() {
			panic(fmt.Sprintf("simclock: deadlock: no runnable process and no pending timer; parked: %s",
				strings.Join(s.names(), ", ")))
		}
	}
}

// step hands the baton to p and returns when p parks or finishes.
func (s *Scheduler) step(p *Proc) {
	s.active = p
	p.next()
	if p.pan != nil {
		panic(fmt.Sprintf("simclock: process %q panicked: %v", p.name, p.pan))
	}
}

// reap drops finished processes from the live set.
func (s *Scheduler) reap() {
	live := s.procs[:0]
	for _, p := range s.procs {
		if !p.done {
			live = append(live, p)
		}
	}
	s.procs = live
}

func (s *Scheduler) names() []string {
	var out []string
	for _, p := range s.procs {
		if !p.done {
			out = append(out, p.name)
		}
	}
	return out
}

// ready queues p for execution. Queuing an already-queued process is a no-op
// so multiple wake sources cannot run a process twice for one park.
func (s *Scheduler) ready(p *Proc) {
	if p.done || p.queued {
		return
	}
	p.queued = true
	s.runq = append(s.runq, p)
}

// Ready marks a parked process runnable at the current virtual instant. It is
// the wakeup half of Park; callers outside the package use it to build
// condition-style waits (park until some event, then Ready from the event's
// timer callback).
func (s *Scheduler) Ready(p *Proc) { s.ready(p) }

// Park yields the baton until another party calls Scheduler.Ready(p). It must
// be called from the running process itself.
func (p *Proc) Park() {
	s := p.sched
	if s.active != p {
		panic(fmt.Sprintf("simclock: Park of %q from outside the process", p.name))
	}
	s.active = nil
	p.yield(struct{}{})
}

// Sleep parks the calling process for d of virtual time. The wakeup is a
// clock timer, so it is ordered against every other same-instant event by
// seq. Sleep(0) yields: the process re-queues behind everything already
// scheduled at the current instant. Must be called from a running process;
// Clock.Advance forwards here automatically, so most code never calls Sleep
// explicitly.
func (s *Scheduler) Sleep(d time.Duration) {
	p := s.active
	if p == nil {
		panic("simclock: Sleep called from outside a process")
	}
	if d < 0 {
		panic(fmt.Sprintf("simclock: Sleep(%v): negative duration", d))
	}
	if !p.wake.fired {
		panic(fmt.Sprintf("simclock: Sleep of %q while its wake timer is pending", p.name))
	}
	s.clock.arm(&p.wake, d)
	p.Park()
}
