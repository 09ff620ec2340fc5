package simclock

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Same-instant timers must fire in registration (seq) order, including a
// timer registered from inside another callback mid-Advance ("nested"
// registration lands at the same deadline with a later seq, so it fires
// last), and regardless of whether the instant is reached by one Advance,
// several chained ones, or AdvanceTo.
func TestSameInstantRegistrationOrder(t *testing.T) {
	build := func(c *Clock, got *[]string) {
		log := func(s string) func(time.Duration) {
			return func(time.Duration) { *got = append(*got, s) }
		}
		c.AfterFunc(10*time.Millisecond, log("A"))
		c.AfterFunc(5*time.Millisecond, func(time.Duration) {
			*got = append(*got, "early")
			// Registered mid-Advance: same deadline as A and B, later seq.
			c.AfterFunc(5*time.Millisecond, log("C"))
		})
		c.AfterFunc(10*time.Millisecond, log("B"))
	}
	want := []string{"early", "A", "B", "C"}

	cases := map[string]func(c *Clock){
		"one-advance":      func(c *Clock) { c.Advance(20 * time.Millisecond) },
		"exact-boundary":   func(c *Clock) { c.Advance(10 * time.Millisecond) },
		"chained-advances": func(c *Clock) { c.Advance(5 * time.Millisecond); c.Advance(5 * time.Millisecond) },
		"advance-to":       func(c *Clock) { c.AdvanceTo(7 * time.Millisecond); c.AdvanceTo(10 * time.Millisecond) },
	}
	for name, drive := range cases {
		c := New()
		var got []string
		build(c, &got)
		drive(c)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: fired %v, want %v", name, got, want)
		}
	}
}

// Process wakeups ride the timer queue, so timers and processes waking at
// one instant interleave purely by seq: a timer registered before the
// processes went to sleep fires before them.
func TestSchedulerSameInstantOrder(t *testing.T) {
	c := New()
	s := NewScheduler(c)
	var got []string
	c.AfterFunc(10*time.Millisecond, func(time.Duration) { got = append(got, "timer") })
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("p%d", i)
		s.Go(name, func() {
			c.Advance(10 * time.Millisecond) // cooperative sleep
			got = append(got, name)
		})
	}
	s.Run()
	want := []string{"timer", "p0", "p1", "p2", "p3"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("wakeup order %v, want %v", got, want)
	}
	if c.Now() != 10*time.Millisecond {
		t.Fatalf("clock at %v after Run, want 10ms", c.Now())
	}
}

// Property: a seeded random mix of sleeping processes and timers produces an
// identical event log on every execution — determinism cannot depend on
// goroutine scheduling because only one goroutine ever runs at a time.
func TestSchedulerDeterminismProperty(t *testing.T) {
	trace := func(seed int64) []string {
		c := New()
		s := NewScheduler(c)
		rng := rand.New(rand.NewSource(seed))
		var got []string
		for i := 0; i < 6; i++ {
			name := fmt.Sprintf("p%d", i)
			steps := make([]time.Duration, 4+rng.Intn(4))
			for j := range steps {
				steps[j] = time.Duration(rng.Intn(5)) * time.Millisecond
			}
			s.Go(name, func() {
				for j, d := range steps {
					c.Advance(d)
					got = append(got, fmt.Sprintf("%s.%d@%v", name, j, c.Now()))
				}
			})
		}
		for i := 0; i < 8; i++ {
			at := time.Duration(rng.Intn(12)) * time.Millisecond
			name := fmt.Sprintf("t%d", i)
			c.AfterFunc(at, func(now time.Duration) {
				got = append(got, fmt.Sprintf("%s@%v", name, now))
			})
		}
		s.Run()
		return got
	}
	for seed := int64(1); seed <= 5; seed++ {
		a, b := trace(seed), trace(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: two runs diverged:\n%v\n%v", seed, a, b)
		}
		var last time.Duration
		for _, ev := range a {
			var d time.Duration
			if _, err := fmt.Sscanf(ev[strings.LastIndexByte(ev, '@')+1:], "%v", &d); err == nil {
				if d < last {
					t.Fatalf("seed %d: time ran backwards in %v", seed, a)
				}
				last = d
			}
		}
	}
}

// A timer callback that re-enters Advance would move time underneath the
// interrupted caller; the clock must refuse with a clear message, both under
// a caller-driven Advance and under the scheduler's drive loop.
func TestReentrantAdvancePanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s: no panic", name)
			}
			if !strings.Contains(fmt.Sprint(r), "re-entrant Advance") {
				t.Fatalf("%s: panic %q does not name re-entrant Advance", name, r)
			}
		}()
		fn()
	}
	mustPanic("caller-driven", func() {
		c := New()
		c.AfterFunc(time.Millisecond, func(time.Duration) { c.Advance(time.Millisecond) })
		c.Advance(2 * time.Millisecond)
	})
	mustPanic("scheduler-driven", func() {
		c := New()
		s := NewScheduler(c)
		c.AfterFunc(time.Millisecond, func(time.Duration) { c.Advance(time.Millisecond) })
		s.Go("sleeper", func() { c.Advance(5 * time.Millisecond) })
		s.Run()
	})
}

// Park/Ready build event-driven waits; a process no one will ever wake is a
// bug, and the scheduler names it instead of hanging.
func TestSchedulerParkReadyAndDeadlock(t *testing.T) {
	c := New()
	s := NewScheduler(c)
	var p1 *Proc
	var order []string
	p1 = s.Go("waiter", func() {
		p1.Park()
		order = append(order, fmt.Sprintf("waiter@%v", c.Now()))
	})
	s.Go("waker", func() {
		c.Advance(3 * time.Millisecond)
		order = append(order, "waker")
		s.Ready(p1)
	})
	s.Run()
	want := []string{"waker", "waiter@3ms"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order %v, want %v", order, want)
	}

	defer func() {
		r := recover()
		if r == nil || !strings.Contains(fmt.Sprint(r), "deadlock") {
			t.Fatalf("expected deadlock panic naming the parked process, got %v", r)
		}
		if !strings.Contains(fmt.Sprint(r), "stuck") {
			t.Fatalf("deadlock panic %q does not name the parked process", r)
		}
	}()
	c2 := New()
	s2 := NewScheduler(c2)
	var stuck *Proc
	stuck = s2.Go("stuck", func() { stuck.Park() })
	s2.Run()
}

// A panic inside a process surfaces on the Run caller, annotated with the
// process name.
func TestSchedulerPropagatesProcPanic(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(fmt.Sprint(r), `process "bad"`) {
			t.Fatalf("expected annotated panic from process, got %v", r)
		}
	}()
	c := New()
	s := NewScheduler(c)
	s.Go("bad", func() {
		c.Advance(time.Millisecond)
		panic("boom")
	})
	s.Run()
}

// A runtime.Goexit inside a process (t.FailNow, say) crosses the coroutine
// switch: it ends the goroutine that called Run, running that goroutine's
// deferred calls, rather than quietly finishing the one process while Run
// carries on.
func TestSchedulerGoexitEndsRunCaller(t *testing.T) {
	var deferred, afterRun bool
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		defer func() { deferred = true }()
		c := New()
		s := NewScheduler(c)
		s.Go("quitter", func() {
			c.Advance(time.Millisecond)
			runtime.Goexit()
		})
		s.Go("bystander", func() { c.Advance(2 * time.Millisecond) })
		s.Run()
		afterRun = true
	}()
	<-exited
	if !deferred {
		t.Fatal("the Run caller's deferred calls did not run")
	}
	if afterRun {
		t.Fatal("code after Run ran: the Goexit ended only the process")
	}
}

// A steady-state Sleep re-arms the process's own wake timer and pops the run
// queue in place: no allocation per sleep, with a second process keeping the
// queue handoff busy.
func TestSleepSteadyStateAllocs(t *testing.T) {
	c := New()
	s := NewScheduler(c)
	allocs := -1.0
	s.Go("sleeper", func() {
		s.Sleep(time.Millisecond) // grow the timer queue and run queue once
		allocs = testing.AllocsPerRun(100, func() { s.Sleep(time.Millisecond) })
	})
	s.Go("peer", func() {
		for i := 0; i < 300; i++ {
			s.Sleep(time.Millisecond)
		}
	})
	s.Run()
	if allocs != 0 {
		t.Fatalf("Sleep: %v allocs per call, want 0", allocs)
	}
}

// BenchmarkSchedulerLockstep measures the process switch: four processes each
// sleep 1 ms in lockstep, the pattern of a fleet's guest ticks. One op is one
// Sleep — a park, a timer firing and a resume.
func BenchmarkSchedulerLockstep(b *testing.B) {
	const procs = 4
	c := New()
	s := NewScheduler(c)
	for i := 0; i < procs; i++ {
		sleeps := (b.N + procs - 1 - i) / procs // the four shares sum to b.N
		s.Go(fmt.Sprintf("p%d", i), func() {
			for j := 0; j < sleeps; j++ {
				s.Sleep(time.Millisecond)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	s.Run()
}
