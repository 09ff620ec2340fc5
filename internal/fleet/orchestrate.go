package fleet

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"javmm/internal/faults"
	"javmm/internal/guestos"
	"javmm/internal/mem"
	"javmm/internal/migration"
	"javmm/internal/netsim"
	"javmm/internal/obs/attrib"
	"javmm/internal/obs/fleetobs"
	"javmm/internal/obs/ledger"
	"javmm/internal/obs/sla"
	"javmm/internal/simclock"
	"javmm/internal/workload"
)

// The orchestrator: executes a compiled batch plan on a cluster under one
// of three launch orderings. Everything — guests, engines and the
// orchestrator's own decision loop — runs as cooperative processes on one
// virtual clock, so a whole plan replays bit-identically at the same seed.

// Ordering selects the orchestrator's launch policy.
type Ordering int

// Launch orderings, from dumbest to smartest.
const (
	// OrderNaive launches every migration at once (warmup instant), with
	// no admission control: the baseline real clusters melt under.
	OrderNaive Ordering = iota
	// OrderAdmission launches FIFO behind the admission policy's per-link
	// and per-host caps.
	OrderAdmission
	// OrderCycleAware adds workload-cycle timing on top of admission:
	// each VM launches inside its quiet window, launches predicted (or
	// observed) not to converge are deferred, and every deferral is
	// bounded by QuietHorizon so nothing starves.
	OrderCycleAware
)

// String names the ordering for CLI flags and experiment tables.
func (o Ordering) String() string {
	switch o {
	case OrderNaive:
		return "naive"
	case OrderAdmission:
		return "admission"
	case OrderCycleAware:
		return "cycle-aware"
	}
	return fmt.Sprintf("Ordering(%d)", int(o))
}

// ParseOrdering is String's inverse.
func ParseOrdering(s string) (Ordering, error) {
	switch s {
	case "naive":
		return OrderNaive, nil
	case "admission":
		return OrderAdmission, nil
	case "cycle-aware", "cycle":
		return OrderCycleAware, nil
	}
	return 0, fmt.Errorf("fleet: unknown ordering %q (want naive, admission or cycle-aware)", s)
}

// OrchestratorOptions parameterizes one plan execution.
type OrchestratorOptions struct {
	// Cluster is the declared topology; Plan the batch plan to compile
	// against it. Moves, when non-empty, bypasses Plan compilation.
	Cluster *Cluster
	Plan    *Plan
	Moves   []Move

	// Mode is the migration algorithm every engine runs.
	Mode migration.Mode
	// Seed is the base workload seed; move i boots with Seed + i.
	Seed int64
	// Ordering selects the launch policy (default OrderNaive, the zero
	// value).
	Ordering Ordering
	// Admission bounds concurrency for OrderAdmission and OrderCycleAware;
	// OrderNaive ignores it.
	Admission AdmissionPolicy
	// Retry, when Enabled, turns on the self-healing layer: failed moves are
	// retried (token-reusing) or relocated under attempt/deadline budgets
	// and a per-host circuit breaker. Disabled, every move runs under the
	// one-attempt policy: one launch, no breaker, no relocation, no
	// deadlines.
	Retry RetryPolicy

	// Warmup is how long the guests run before the orchestrator makes its
	// first launch decision (default 60 s).
	Warmup time.Duration
	// Stagger delays move i's eligibility to Warmup + i·Stagger; the
	// orchestrator wakes at each eligibility instant, so a naive plan
	// launches move i at exactly that instant.
	Stagger time.Duration
	// DecisionQuantum is the orchestrator's deterministic decision tick
	// (default 500 ms): deferred launches are reconsidered at this period.
	DecisionQuantum time.Duration
	// QuietHorizon bounds every cycle-aware deferral: a move that has
	// waited this long launches at the next admissible tick regardless of
	// quiet windows or convergence predictions (default 5 min).
	QuietHorizon time.Duration
	// GuestQuantum is the guest processes' pause-check granularity
	// (default 1 ms).
	GuestQuantum time.Duration

	// Attach, when non-nil, runs once per booted VM (in move order, before
	// any virtual time passes) to attach extra applications — e.g. a cache
	// app beside the JVM. The returned executor (typically a Multiplex of
	// the VM's driver and the app) replaces the bare workload driver in
	// that VM's guest process; returning nil keeps the driver.
	Attach func(i int, vm *workload.VM) (migration.GuestExecutor, error)

	// Engine overrides engine defaults; Mode above wins over Engine.Mode.
	Engine migration.Config
	// Faults, when non-nil, attaches the fault-injection plane to every
	// shared link, engine, destination, LKM and bus — the chaos runner's
	// hook into batch plans.
	Faults *faults.Injector
	// FaultPlan, when Faults is nil, is materialized into an injector on the
	// plan's own clock (the clock does not exist before Orchestrate runs, so
	// callers cannot build timed injectors themselves).
	FaultPlan faults.Plan
	// Collect attaches the full fleet observability plane (Result.Obs).
	Collect bool
	// OnProgress receives every VM's live progress points.
	OnProgress func(vm string, p migration.Progress)
	// SLA, when non-nil, prices each completed migration and aggregates
	// the fleet cost — the objective the cycle-aware ordering minimizes.
	SLA *sla.Model
	// SkipVerify disables the per-VM post-migration consistency check.
	SkipVerify bool
}

func (o *OrchestratorOptions) fillDefaults() error {
	if o.Cluster == nil {
		return fmt.Errorf("fleet: orchestrate: no cluster")
	}
	if err := o.Cluster.Validate(); err != nil {
		return err
	}
	if o.Warmup < 0 || o.Stagger < 0 || o.DecisionQuantum < 0 {
		return fmt.Errorf("fleet: orchestrate: negative warmup %v, stagger %v or decision quantum %v",
			o.Warmup, o.Stagger, o.DecisionQuantum)
	}
	if o.Warmup == 0 {
		o.Warmup = 60 * time.Second
	}
	if o.DecisionQuantum == 0 {
		o.DecisionQuantum = 500 * time.Millisecond
	}
	if o.QuietHorizon == 0 {
		o.QuietHorizon = 5 * time.Minute
	}
	if o.GuestQuantum == 0 {
		o.GuestQuantum = time.Millisecond
	}
	if !o.Retry.Enabled {
		o.Retry = oneAttempt
		return nil
	}
	if r := o.Retry; r.MaxAttempts < 0 || r.BaseBackoff < 0 || r.MaxBackoff < 0 {
		return fmt.Errorf("fleet: orchestrate: negative retry budget (attempts %d, backoff %v/%v)",
			r.MaxAttempts, r.BaseBackoff, r.MaxBackoff)
	}
	o.Retry.fillDefaults()
	return nil
}

// MoveResult is one executed (or still-deferred-at-abort) move: the VM's
// migration outcome plus the orchestrator's scheduling record.
type MoveResult struct {
	// Name is the VM's domain name.
	Name   string
	Report *migration.Report
	// WorkloadDowntime is stop-and-copy plus resumption, plus — for an
	// effective app-assisted run — the enforced GC and final bitmap update.
	WorkloadDowntime time.Duration
	// EnforcedGC is the pre-suspension collection's duration (zero unless
	// app-assisted).
	EnforcedGC time.Duration
	// VerifyErr is the destination-consistency outcome, checked at the
	// engine's completion instant, before any other process resumes
	// dirtying this VM's memory.
	VerifyErr error
	// Err is the migration error, if the engine aborted.
	Err error
	// StartAt/EndAt are the engine's bounds on the shared clock (first
	// attempt's start, last attempt's end).
	StartAt, EndAt time.Duration
	// Samples is the VM's per-second throughput curve over the whole run
	// (warmup through the last engine's completion) — the workload data the
	// SLA dip integral prices.
	Samples []workload.Sample
	// SLACost prices this VM's migration (set when an SLA model is given
	// and the migration completed).
	SLACost *sla.Cost

	// From/To are the move's source and destination hosts; Route the
	// shared links the flow crossed.
	From, To string
	Route    []string

	// EligibleAt is when the move entered the launch queue (Warmup +
	// i·Stagger); LaunchedAt when the orchestrator first granted it.
	EligibleAt, LaunchedAt time.Duration
	// Deferrals counts decision passes at which the orchestrator
	// considered and declined the launch.
	Deferrals int
	// QuietLaunch reports a launch inside the VM's quiet window; Forced a
	// bounded-wait launch after QuietHorizon overrode the cycle logic.
	QuietLaunch, Forced bool

	// Outcome is the move's terminal classification; Attempts the
	// per-launch record, one entry per granted attempt (exactly one under
	// the one-attempt policy).
	Outcome  MoveOutcome
	Attempts []Attempt
	// Relocations counts destination re-selections; HealBackoff total
	// healing backoff time; TokenSavedBytes wire bytes token reuse avoided
	// resending across all attempts.
	Relocations     int
	HealBackoff     time.Duration
	TokenSavedBytes uint64

	src   *migration.Source
	guest *guestos.Guest
}

// SourceRunning reports whether the move's source VM is executing (not
// paused) — the "failed moves leave their source cleanly resumed" healing
// invariant. True also for moves that never launched: the source never
// stopped.
func (m *MoveResult) SourceRunning() bool {
	return m.src == nil || !m.src.Dom.Paused()
}

// PlanResult is a whole executed plan.
type PlanResult struct {
	// Ordering the plan ran under.
	Ordering Ordering
	// Moves are the per-move outcomes in compiled plan order.
	Moves []MoveResult
	// Fabric is the merged link/flow accounting; its byte conservation is
	// verified before Orchestrate returns.
	Fabric netsim.FabricReport
	// MakeSpan is first launch to last completion.
	MakeSpan time.Duration
	// Obs is the fleet observability collector (nil unless Collect).
	Obs *fleetobs.Collector
	// SLA is the fleet cost aggregate (nil unless Options.SLA).
	SLA *sla.FleetCost

	clock     *simclock.Clock
	fabric    *netsim.Fabric
	linkNames []string
	faults    *faults.Injector
	heal      *healState
}

// detachFaults removes the fault plane from every layer, so a resumed
// migration runs fault-free.
func (r *PlanResult) detachFaults() {
	if r.faults == nil {
		return
	}
	for _, l := range r.linkNames {
		r.fabric.SetLinkFaults(l, nil)
	}
	r.fabric.SetHostFaults(nil)
	for i := range r.Moves {
		if m := &r.Moves[i]; m.src != nil {
			m.src.SetFaults(nil)
		}
	}
	r.faults = nil
}

// ResumeAborted resumes move i's aborted migration from its recovery token
// with the fault plane detached, then verifies the destination image (for
// pre-copy completions). The guests are no longer executing — the plan's
// scheduler has drained — so the resume drives the clock directly, exactly
// like a post-abort operator retry.
func (r *PlanResult) ResumeAborted(i int) (*migration.Report, error) {
	if i < 0 || i >= len(r.Moves) {
		return nil, fmt.Errorf("fleet: resume: no move %d", i)
	}
	m := &r.Moves[i]
	if m.Report == nil || m.Report.Recovery == nil || m.Report.Recovery.Token == nil {
		return nil, fmt.Errorf("fleet: resume: move %d (%s) has no resume token", i, m.Name)
	}
	r.detachFaults()
	cfg := m.src.Cfg
	cfg.Faults = nil
	cfg.Ledger = nil
	re := migration.NewSource(m.guest, nil, m.src.Link, m.src.Dest, cfg)
	rep, err := re.Resume(m.Report.Recovery.Token)
	if err != nil {
		return rep, fmt.Errorf("fleet: resume of %s failed: %w", m.Name, err)
	}
	if verr := re.VerifyImage(rep, nil); verr != nil {
		return rep, fmt.Errorf("fleet: resumed %s but image diverged: %w", m.Name, verr)
	}
	return rep, nil
}

// Orchestrate executes a batch plan: compiles it against the cluster,
// boots the moving VMs onto one shared clock and fabric, and launches each
// migration according to the ordering. The returned PlanResult carries
// per-move outcomes, scheduling records, fabric accounting (byte
// conservation verified) and the SLA aggregate.
func Orchestrate(opts OrchestratorOptions) (*PlanResult, error) {
	if err := opts.fillDefaults(); err != nil {
		return nil, err
	}
	moves := opts.Moves
	if len(moves) == 0 && opts.Plan != nil {
		var err error
		if moves, err = opts.Plan.Compile(opts.Cluster); err != nil {
			return nil, err
		}
	}
	res := &PlanResult{Ordering: opts.Ordering, faults: opts.Faults}
	if len(moves) == 0 {
		// An empty plan is a successful no-op: nothing to boot, nothing to
		// move, empty accounting.
		return res, nil
	}
	n := len(moves)

	clock := simclock.New()
	if opts.Faults == nil && len(opts.FaultPlan) > 0 {
		inj, err := faults.NewInjector(clock, opts.FaultPlan)
		if err != nil {
			return nil, fmt.Errorf("fleet: fault plan: %w", err)
		}
		opts.Faults = inj
		res.faults = inj
	}
	sched := simclock.NewScheduler(clock)
	var coll *fleetobs.Collector
	if opts.Collect {
		coll = fleetobs.New(clock)
	}
	fabric := opts.Cluster.Fabric(clock)
	if coll != nil {
		fabric.SetTracer(coll.FabricTracer())
		fabric.SetMetrics(coll.FleetMetrics())
	}
	res.clock = clock
	res.fabric = fabric
	for _, l := range opts.Cluster.Links {
		res.linkNames = append(res.linkNames, l.Name)
		if opts.Faults != nil {
			fabric.SetLinkFaults(l.Name, opts.Faults)
		}
	}
	if opts.Faults != nil {
		// Host-scoped fault rules (host.crash) make the fabric's ports refuse
		// transfers toward a downed destination host, fail-fast.
		fabric.SetHostFaults(opts.Faults)
	}

	res.Moves = make([]MoveResult, n)
	// Live progress fan-in: the cycle-aware policy watches in-flight
	// convergence signals; the collector and user callback ride the same
	// stream.
	lastProgress := make([]migration.Progress, n)
	haveProgress := make([]bool, n)
	vmIndex := make(map[string]int, n)
	observe := func(vm string, p migration.Progress) {
		if i, ok := vmIndex[vm]; ok {
			lastProgress[i] = p
			haveProgress[i] = true
		}
		if opts.OnProgress != nil {
			opts.OnProgress(vm, p)
		}
	}
	if coll != nil {
		coll.OnProgress = observe
	}

	vms := make([]*workload.VM, n)
	execs := make([]migration.GuestExecutor, n)
	profs := make([]workload.Profile, n)
	for i, mv := range moves {
		m := &res.Moves[i]
		m.From, m.To = mv.From, mv.To
		prof, err := mv.VM.Profile()
		if err != nil {
			return nil, fmt.Errorf("fleet: move %d: %w", i, err)
		}
		profs[i] = prof
		route, err := fabric.Route(mv.From, mv.To)
		if err != nil {
			return nil, fmt.Errorf("fleet: move %d (%s): %w", i, mv.VM.Name, err)
		}
		m.Route = route
		var plane *fleetobs.VMPlane
		if coll != nil {
			plane = coll.AttachVM(mv.VM.Name)
		}
		vm, err := workload.Boot(workload.BootConfig{
			Name:     mv.VM.Name,
			MemBytes: mv.VM.memBytes(),
			Profile:  prof,
			Assisted: opts.Mode == migration.ModeAppAssisted,
			Seed:     opts.Seed + int64(i),
			Clock:    clock,
		})
		if err != nil {
			return nil, fmt.Errorf("fleet: booting %s: %w", mv.VM.Name, err)
		}
		if plane != nil {
			vm.AttachObs(plane.Tracer, plane.Metrics)
		}
		execs[i] = vm.Driver
		if opts.Attach != nil {
			e, err := opts.Attach(i, vm)
			if err != nil {
				return nil, fmt.Errorf("fleet: attaching to %s: %w", mv.VM.Name, err)
			}
			if e != nil {
				execs[i] = e
			}
		}
		port, err := fabric.Dial(mv.From, mv.To)
		if err != nil {
			return nil, fmt.Errorf("fleet: %w", err)
		}
		dest := migration.NewDestination(vm.Dom.NumPages())
		dest.SetHostName(mv.To)

		cfg := opts.Engine
		cfg.Mode = opts.Mode
		if opts.Faults != nil {
			cfg.Faults = opts.Faults
		}
		if opts.Retry.Enabled {
			// Healing retries reuse the abort's ResumeToken; that only saves
			// anything when aborts keep the destination image.
			cfg.Recovery.EnableResume = true
		}
		if plane != nil {
			cfg.Tracer = plane.Tracer
			cfg.Metrics = plane.Metrics
			cfg.Ledger = plane.Ledger
		} else {
			vmName := mv.VM.Name
			cfg.OnProgress = func(p migration.Progress) { observe(vmName, p) }
		}
		// Exec stays nil: the engine's advance() falls through to
		// Clock.Advance, a cooperative sleep, and the VM's own guest process
		// executes the workload meanwhile.
		m.src = migration.NewSource(vm.Guest, nil, port, dest, cfg)
		m.guest = vm.Guest
		m.Name = vm.Dom.Name()
		vms[i] = vm
		vmIndex[m.Name] = i
	}

	// Launch state, mutated only under the cooperative scheduler.
	inflight := make([]bool, n)
	adm := newAdmissionState(opts.Admission)
	heal := newHealState(opts.Retry, n, opts.Warmup)
	res.heal = heal
	engines := make([]*simclock.Proc, n)
	// remaining gates the guest processes: they keep the workloads running —
	// and contending for the fabric's attention via dirtied memory — until
	// the LAST engine completes, so late migrations see realistic load.
	remaining := n

	for i := range vms {
		vm, exec := vms[i], execs[i]
		q := opts.GuestQuantum
		sched.Go(vm.Dom.Name()+"/guest", func() {
			for remaining > 0 {
				if vm.Dom.Paused() {
					// Stop-and-copy (or post-copy pause): the guest is
					// frozen; idle this quantum without executing.
					clock.Advance(q)
				} else {
					exec.Run(q)
				}
			}
		})
	}
	// The engine processes: each parks until the orchestrator grants (or
	// abandons) its move, runs the attempt, and on failure either ends the
	// move or files it for a relaunch under the retry policy.
	pol := &opts.Retry
	for i := range vms {
		i := i
		vm, m := vms[i], &res.Moves[i]
		engines[i] = sched.Go(vm.Dom.Name()+"/engine", func() {
			defer func() { remaining-- }()
			var rng *rand.Rand
			var token *migration.ResumeToken
			for {
				for !inflight[i] && !heal.abandon[i] {
					engines[i].Park()
				}
				if heal.abandon[i] {
					m.Outcome = OutcomeFailed
					if m.Err == nil {
						m.Err = fmt.Errorf("fleet: heal: %s: plan deadline %v exceeded before launch",
							m.Name, pol.PlanDeadline)
					} else {
						m.Err = fmt.Errorf("fleet: heal: %s: deadline exhausted: %w", m.Name, m.Err)
					}
					return
				}
				m.Attempts = append(m.Attempts, Attempt{
					To: m.To, Route: m.Route, StartAt: clock.Now(), TokenReused: token != nil,
				})
				att := &m.Attempts[len(m.Attempts)-1]
				if heal.attempts[i] == 1 {
					m.StartAt = att.StartAt
				}
				var report *migration.Report
				var err error
				if token != nil {
					report, err = m.src.Resume(token)
				} else {
					report, err = m.src.Migrate()
				}
				att.EndAt = clock.Now()
				m.EndAt = att.EndAt
				m.Report = report
				inflight[i] = false
				adm.release(att.Route, att.To)
				if report != nil && report.Resume != nil {
					att.SavedBytes = report.Resume.SavedBytes
					att.RefetchPages = report.Resume.RefetchPages
					m.TokenSavedBytes += report.Resume.SavedBytes
				}
				if err == nil {
					m.Err = nil
					if werr := vm.Driver.Err; werr != nil {
						m.Err = fmt.Errorf("fleet: workload failed during migration: %w", werr)
						m.Outcome = OutcomeFailed
						return
					}
					switch {
					case m.Relocations > 0:
						m.Outcome = OutcomeRelocated
					case heal.attempts[i] > 1:
						m.Outcome = OutcomeRetried
					default:
						m.Outcome = OutcomeCompleted
					}
					m.EnforcedGC = vm.EnforcedGC()
					m.WorkloadDowntime = report.WorkloadDowntime(m.EnforcedGC)
					// Verify NOW, while this process still holds the baton:
					// no other process has run since the engine finished, so
					// the source store is exactly what stop-and-copy shipped.
					if !opts.SkipVerify {
						m.VerifyErr = m.src.VerifyImage(report, nil)
					}
					return
				}
				// Failure: classify, feed the breaker, keep the freshest
				// token (a discarded image's token is worthless — Resume
				// degrades on it — but carrying it is harmless).
				att.Err = err.Error()
				permanent := errors.Is(err, migration.ErrDestinationLost)
				att.Transient = !permanent
				m.Err = err
				failedHost := m.To
				if heal.breaker.fail(failedHost, clock.Now()) && coll != nil {
					coll.FleetMetrics().Counter("fleet.heal.breaker_opens").Inc()
				}
				if report != nil && report.Recovery != nil && report.Recovery.Token != nil {
					token = report.Recovery.Token
				}
				now := clock.Now()
				if heal.attempts[i] >= pol.MaxAttempts {
					if pol.MaxAttempts > 1 {
						m.Err = fmt.Errorf("fleet: heal: %s: %d attempts exhausted: %w",
							m.Name, heal.attempts[i], err)
					}
					m.Outcome = OutcomeFailed
					return
				}
				if now >= heal.planEnd || now-heal.firstLaunch[i] >= pol.MoveDeadline {
					m.Err = fmt.Errorf("fleet: heal: %s: deadline blown after %d attempts: %w",
						m.Name, heal.attempts[i], err)
					m.Outcome = OutcomeFailed
					return
				}
				if permanent && !pol.DisableRelocation {
					newTo, rerr := heal.pickDestination(&opts, res, moves, i, failedHost, clock.Now())
					for rerr != nil {
						// All candidates breaker-open: wait out the
						// earliest cooldown if the deadlines allow — a
						// bounded sleep, not a spin — then re-select.
						var ho *HostOpenError
						if !errors.As(rerr, &ho) {
							break
						}
						if ho.Until >= heal.planEnd ||
							ho.Until-heal.firstLaunch[i] >= pol.MoveDeadline {
							break
						}
						sched.Sleep(ho.Until - clock.Now())
						newTo, rerr = heal.pickDestination(&opts, res, moves, i, failedHost, clock.Now())
					}
					if rerr != nil {
						m.Err = fmt.Errorf("fleet: heal: %s: cannot relocate off %s: %w",
							m.Name, failedHost, rerr)
						m.Outcome = OutcomeFailed
						return
					}
					port, derr := fabric.Dial(m.From, newTo)
					route, rterr := fabric.Route(m.From, newTo)
					if derr != nil || rterr != nil {
						m.Err = fmt.Errorf("fleet: heal: %s: rewiring to %s: %w",
							m.Name, newTo, errors.Join(derr, rterr))
						m.Outcome = OutcomeFailed
						return
					}
					ndest := migration.NewDestination(vm.Dom.NumPages())
					ndest.SetHostName(newTo)
					m.src = migration.NewSource(m.guest, nil, port, ndest, m.src.Cfg)
					m.To = newTo
					m.Route = route
					m.Relocations++
					if coll != nil {
						coll.FleetMetrics().Counter("fleet.heal.relocations").Inc()
					}
				}
				// Per-move jitter PRNG, built at the first backoff: the whole
				// healing schedule replays byte-identically at the same
				// policy seed.
				if rng == nil {
					rng = rand.New(rand.NewSource(pol.Seed + int64(i)))
				}
				d := healBackoff(rng, pol, heal.attempts[i])
				att.Backoff = d
				m.HealBackoff += d
				heal.notBefore[i] = clock.Now() + d
				if until, open := heal.breaker.open(m.To, clock.Now()); open && until > heal.notBefore[i] {
					heal.notBefore[i] = until
				}
				heal.pending[i] = true
				if coll != nil {
					fm := coll.FleetMetrics()
					fm.Counter("fleet.heal.retries").Inc()
					fm.Counter("fleet.heal.backoff_ns").AddDuration(d)
				}
			}
		})
	}

	// The orchestrator process: one decision pass at every tick (Warmup +
	// k·DecisionQuantum) and at every eligibility instant in between,
	// granting pending moves in compiled plan order through the ordering's
	// decision logic (admission and cycle policy hold across relaunches),
	// holding back relaunches behind backoff and open breakers, and
	// abandoning moves whose deadlines passed. A grant or abandonment readies
	// the parked engine at once. The process ends when no move can ask for
	// another grant: each one has ended, been abandoned, or holds its last
	// allowed attempt.
	sched.Go("orchestrator", func() {
		for i := range res.Moves {
			res.Moves[i].EligibleAt = opts.Warmup + time.Duration(i)*opts.Stagger
			heal.pending[i] = true
		}
		tick := opts.Warmup
		for {
			wake := tick
			for i := range res.Moves {
				if e := res.Moves[i].EligibleAt; heal.pending[i] && e > clock.Now() && e < wake {
					wake = e
				}
			}
			if d := wake - clock.Now(); d > 0 {
				sched.Sleep(d)
			}
			now := clock.Now()
			if now >= tick {
				tick = now + opts.DecisionQuantum
			}
			for i := range res.Moves {
				m := &res.Moves[i]
				if !heal.pending[i] || now < m.EligibleAt {
					continue
				}
				if now >= heal.planEnd ||
					(heal.attempts[i] > 0 && now-heal.firstLaunch[i] >= pol.MoveDeadline) {
					heal.abandon[i] = true
					heal.pending[i] = false
					sched.Ready(engines[i])
					continue
				}
				if now < heal.notBefore[i] {
					continue // backoff/cooldown gate, not a deferral
				}
				if _, open := heal.breaker.open(m.To, now); open {
					continue
				}
				if !decideLaunch(&opts, res, profs, lastProgress, haveProgress, inflight, adm, i) {
					m.Deferrals++
					continue
				}
				if heal.attempts[i] == 0 {
					m.LaunchedAt = now
					m.QuietLaunch = profs[i].Cycle.Enabled() && profs[i].Cycle.QuietAt(now)
					heal.firstLaunch[i] = now
				}
				heal.attempts[i]++
				heal.pending[i] = false
				inflight[i] = true
				adm.admit(m.Route, m.To)
				sched.Ready(engines[i])
			}
			if heal.settled(res.Moves) {
				return
			}
		}
	})
	sched.Run()

	var first, last time.Duration
	started := false
	for i := range res.Moves {
		m := &res.Moves[i]
		if m.StartAt == 0 && m.EndAt == 0 {
			continue // abandoned before its first attempt: no span to count
		}
		if !started || m.StartAt < first {
			first = m.StartAt
			started = true
		}
		if m.EndAt > last {
			last = m.EndAt
		}
	}
	res.MakeSpan = last - first
	res.Fabric = fabric.Report()
	res.Obs = coll
	for i := range res.Moves {
		res.Moves[i].Samples = vms[i].Driver.Samples()
	}
	// The standing fabric invariant: fair-share settling may not lose or
	// invent bytes, on any link, after any plan.
	if err := res.Fabric.VerifyConservation(); err != nil {
		return nil, fmt.Errorf("fleet: after %s plan: %w", opts.Ordering, err)
	}
	if opts.SLA != nil {
		costs := make([]sla.Cost, 0, n)
		for i := range res.Moves {
			m := &res.Moves[i]
			if m.Err != nil || m.Report == nil {
				continue
			}
			var led *ledger.Ledger
			if coll != nil {
				led = coll.VMs()[i].Ledger
			}
			a := attrib.Build(m.Report, m.EnforcedGC, led)
			if err := a.Reconcile(m.Report); err != nil {
				m.Err = fmt.Errorf("fleet: attribution for %s does not reconcile: %w", m.Name, err)
				continue
			}
			c := sla.Build(m.Name, *opts.SLA, a, m.Samples)
			if err := c.Reconcile(*opts.SLA, a, m.Samples); err != nil {
				m.Err = fmt.Errorf("fleet: SLA cost for %s does not reconcile: %w", m.Name, err)
				continue
			}
			m.SLACost = &c
			costs = append(costs, c)
		}
		f := sla.Aggregate(costs)
		res.SLA = &f
	}
	return res, nil
}

// decideLaunch is one launch decision for move i at the current tick.
func decideLaunch(opts *OrchestratorOptions, res *PlanResult, profs []workload.Profile,
	lastProgress []migration.Progress, haveProgress, inflight []bool,
	adm *admissionState, i int) bool {
	m := &res.Moves[i]
	switch opts.Ordering {
	case OrderNaive:
		return true
	case OrderAdmission:
		return adm.admissible(m.Route, m.To)
	}
	// Cycle-aware: admission first — its caps are inviolable, even for a
	// forced launch.
	if !adm.admissible(m.Route, m.To) {
		return false
	}
	now := opts.clockNow(res)
	if now-m.EligibleAt >= opts.QuietHorizon {
		// Bounded wait: the move has been deferred long enough; launch at
		// the first admissible tick no matter what the cycle says.
		m.Forced = true
		return true
	}
	cyc := profs[i].Cycle
	if cyc.Enabled() && !cyc.QuietAt(now) {
		return false
	}
	// Static convergence prediction: will pre-copy outrun dirtying at the
	// bandwidth this flow would get if launched now?
	sharers := 1
	for j := range inflight {
		if j != i && inflight[j] && routesOverlap(res.Moves[j].Route, m.Route) {
			sharers++
		}
	}
	bw := opts.Cluster.bottleneckBandwidth(m.Route, m.From, m.To)
	rate := float64(bw) / float64(sharers)
	dirty := predictedDirtyByteRate(profs[i]) * cyc.ActivityAt(now)
	if _, conv := migration.EstimateETA(moveMemBytes(m, profs[i]), rate, dirty); !conv {
		return false
	}
	// Dynamic back-pressure: an in-flight migration on a shared link that
	// reports itself non-converging is consuming bandwidth indefinitely;
	// piling on makes both worse.
	for j := range inflight {
		if j == i || !inflight[j] || !haveProgress[j] {
			continue
		}
		p := lastProgress[j]
		if !p.Converging && p.Phase == migration.ProgressPreCopy &&
			routesOverlap(res.Moves[j].Route, m.Route) {
			return false
		}
	}
	return true
}

// clockNow reads the plan clock (indirection keeps decideLaunch testable).
func (o *OrchestratorOptions) clockNow(res *PlanResult) time.Duration {
	return res.clock.Now()
}

func routesOverlap(a, b []string) bool {
	for _, x := range a {
		for _, y := range b {
			if x == y {
				return true
			}
		}
	}
	return false
}

// predictedDirtyByteRate estimates a profile's full-speed dirtying in
// bytes/sec: young-generation allocation plus page-grain old/JIT/kernel
// churn.
func predictedDirtyByteRate(p workload.Profile) float64 {
	pages := p.OldMutatePagesPerSec + p.JITPagesPerSec + p.KernelPagesPerSec
	return float64(p.AllocBytesPerSec) + pages*float64(mem.PageSize)
}

// moveMemBytes is the bytes-remaining estimate for the convergence
// prediction: the VM's whole memory (the first pre-copy round ships
// everything).
func moveMemBytes(m *MoveResult, prof workload.Profile) uint64 {
	if m.src != nil {
		return m.src.Dom.NumPages() * mem.PageSize
	}
	return prof.MaxYoungBytes + prof.MaxOldBytes
}
