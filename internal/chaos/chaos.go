// Package chaos searches the fault-plan space for migrations that violate
// the engine's standing invariants. Each trial draws a random-but-seeded
// fault plan (faults.RandomPlan), executes a full migration under it on a
// small deterministic VM, and checks that the run either completed correctly
// or aborted cleanly — and that an aborted resumable run actually resumes to
// a verified completion. A failing plan is shrunk to a minimal reproducer
// (greedy one-rule-at-a-time ddmin) and reported as the exact -fault CLI
// strings that replay it.
//
// Everything runs under the virtual clock, so a search over hundreds of
// plans takes seconds of wall time and the same seed always finds the same
// violation, shrunk to the same minimal plan.
package chaos

import (
	"fmt"
	"time"

	"javmm/internal/faults"
	"javmm/internal/guestos"
	"javmm/internal/hypervisor"
	"javmm/internal/mem"
	"javmm/internal/migration"
	"javmm/internal/netsim"
	"javmm/internal/obs/ledger"
	"javmm/internal/simclock"
)

// Options parameterizes a Search.
type Options struct {
	// Plans is the number of seeded plans to execute (default 12; the CI
	// nightly job runs 200).
	Plans int
	// Seed is the base seed: plan i is faults.RandomPlan(Seed+i,
	// planBudget) and runs in mode i mod 4.
	Seed int64
	// DisableIntegrityAudit runs every trial with the digest audit turned
	// off. It exists to prove the search works: with the audit disabled, an
	// in-flight corruption completes silently and the search must find and
	// shrink it. Leave false for real searches.
	DisableIntegrityAudit bool
	// Log, when non-nil, receives progress lines.
	Log func(format string, args ...any)
}

// The trial shape both searches share.
const (
	// planBudget bounds the rules per fault plan.
	planBudget = 3
	// trialPages is the single-VM trial's size.
	trialPages = 1024
	// trialBandwidth is the single-VM trial link's bandwidth in bytes/sec.
	// It is deliberately slow (1.5 MB/s): a trial migration then spans
	// several seconds of virtual time, inside the [0, 20s) window
	// RandomPlan draws fault activation times from, so timed rules actually
	// land mid-run.
	trialBandwidth = 1500 * 1000
)

func (o *Options) fillDefaults() {
	if o.Plans <= 0 {
		o.Plans = 12
	}
}

func (o *Options) logf(format string, args ...any) {
	if o.Log != nil {
		o.Log(format, args...)
	}
}

// Violation is one invariant breach, with its minimal reproducer.
type Violation struct {
	// Seed reproduces the plan via faults.RandomPlan(Seed, Budget).
	Seed int64
	// Mode the trial ran in.
	Mode migration.Mode
	// Invariant names the breached invariant; Detail explains the breach.
	Invariant string
	Detail    string
	// Plan is the original failing plan; Shrunk the minimal subset that
	// still fails.
	Plan   faults.Plan
	Shrunk faults.Plan
}

// Repro returns the exact CLI arguments that replay the shrunk plan with
// javmm-migrate.
func (v *Violation) Repro() []string {
	args := []string{"-mode", v.Mode.String()}
	for _, r := range v.Shrunk {
		args = append(args, "-fault", r.String())
	}
	return args
}

// Result summarizes one Search.
type Result struct {
	// PlansRun counts executed plans (stops early at the first violation).
	PlansRun int
	// Violation is the first breach found, already shrunk; nil when every
	// plan upheld the invariants.
	Violation *Violation
}

// modes is the rotation trials cycle through, covering all four engines.
var modes = []migration.Mode{
	migration.ModeVanilla, migration.ModeAppAssisted,
	migration.ModePostCopy, migration.ModeHybrid,
}

// Search executes opts.Plans seeded trials and returns the first shrunk
// violation, if any. Same options, same outcome.
func Search(opts Options) *Result {
	opts.fillDefaults()
	res := &Result{}
	for i := 0; i < opts.Plans; i++ {
		seed := opts.Seed + int64(i)
		mode := modes[i%len(modes)]
		plan := faults.RandomPlan(seed, planBudget)
		res.PlansRun++
		inv, detail := runTrial(&opts, mode, plan)
		if inv == "" {
			continue
		}
		opts.logf("chaos: seed %d (%s): %s: %s — shrinking %d rules",
			seed, mode, inv, detail, len(plan))
		shrunk := shrink(&opts, mode, plan)
		res.Violation = &Violation{
			Seed: seed, Mode: mode,
			Invariant: inv, Detail: detail,
			Plan: plan, Shrunk: shrunk,
		}
		return res
	}
	return res
}

// shrink greedily removes one rule at a time while the plan still violates
// some invariant, yielding a minimal (1-minimal) reproducer.
func shrink(opts *Options, mode migration.Mode, plan faults.Plan) faults.Plan {
	cur := plan
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(cur); i++ {
			if len(cur) == 1 {
				break
			}
			cand := make(faults.Plan, 0, len(cur)-1)
			cand = append(cand, cur[:i]...)
			cand = append(cand, cur[i+1:]...)
			if inv, _ := runTrial(opts, mode, cand); inv != "" {
				cur = cand
				changed = true
				break
			}
		}
	}
	return cur
}

// dirtier is the trial guest workload: it rewrites a hot range continuously
// and, in assisted mode, plays a cooperative application with a skip-over
// area (the hot range itself, reporting ready after a short delay).
type dirtier struct {
	clock *simclock.Clock
	proc  *guestos.Process
	hot   mem.VARange
	sock  *guestos.Socket
}

const trialDirtyRate = 100 // pages/sec — slow enough to converge on the slow trial link

func newDirtier(g *guestos.Guest, clock *simclock.Clock, pages uint64) *dirtier {
	hotPages := pages / 8
	if hotPages == 0 {
		hotPages = 1
	}
	d := &dirtier{
		clock: clock,
		proc:  g.NewProcess("chaos-dirtier"),
		hot:   mem.VARange{Start: 0x1000000, End: 0x1000000 + mem.VA(hotPages)*mem.PageSize},
	}
	if err := d.proc.Alloc(d.hot); err != nil {
		panic(err)
	}
	d.proc.WriteRange(d.hot)
	return d
}

func (d *dirtier) register(g *guestos.Guest) {
	skip := []mem.VARange{d.hot}
	d.sock = g.LKM.RegisterApp(d.proc, func(msg any) {
		switch msg.(type) {
		case guestos.MsgQuerySkipAreas:
			d.sock.Send(guestos.MsgReportAreas{App: d.sock.App(), Areas: skip})
		case guestos.MsgPrepareSuspension:
			d.clock.AfterFunc(5*time.Millisecond, func(time.Duration) {
				d.sock.Send(guestos.MsgSuspensionReady{App: d.sock.App(), Areas: skip})
			})
		}
	})
}

// Run implements migration.GuestExecutor.
func (d *dirtier) Run(dur time.Duration) {
	target := d.clock.Now() + dur
	cursor := d.hot.Start
	for d.clock.Now() < target {
		step := time.Millisecond
		if rem := target - d.clock.Now(); rem < step {
			step = rem
		}
		n := int(trialDirtyRate * step.Seconds())
		for i := 0; i < n; i++ {
			d.proc.Write(cursor)
			cursor += mem.PageSize
			if cursor >= d.hot.End {
				cursor = d.hot.Start
			}
		}
		d.clock.Advance(step)
	}
}

// runTrial executes one migration under the plan and checks the standing
// invariants. It returns ("", "") when every invariant holds, else the
// breached invariant's name and a human-readable detail.
func runTrial(opts *Options, mode migration.Mode, plan faults.Plan) (string, string) {
	clock := simclock.New()
	dom := hypervisor.NewDomain("chaos-vm", clock, mem.NewVersionStore(trialPages))
	guest := guestos.NewGuest(dom, guestos.LKMConfig{Clock: clock})
	exec := newDirtier(guest, clock, trialPages)
	if mode == migration.ModeAppAssisted {
		exec.register(guest)
	}
	inj, err := faults.NewInjector(clock, plan)
	if err != nil {
		return "plan-invalid", err.Error()
	}
	led := ledger.New()
	cfg := migration.Config{Mode: mode, Faults: inj, Ledger: led}
	cfg.Recovery.EnableResume = true
	cfg.Integrity.Disable = opts.DisableIntegrityAudit
	src := migration.NewSource(guest, exec, netsim.NewLink(clock, trialBandwidth, 100*time.Microsecond),
		migration.NewDestination(trialPages), cfg)
	rep, err := src.Migrate()

	// Invariant: whatever happened, the engine hands back a report.
	if rep == nil {
		if err == nil {
			return "report-missing", "run returned neither report nor error"
		}
		return "report-missing", fmt.Sprintf("error without partial report: %v", err)
	}
	// Invariant: the provenance ledger reconciles with the report
	// byte-for-byte — completed or aborted.
	if inv, detail := checkLedger(led, rep, "run"); inv != "" {
		return inv, detail
	}
	if err != nil {
		// Invariant: aborts are clean — recovery metadata names the reason
		// and (with EnableResume) a token exists.
		rec := rep.Recovery
		if rec == nil || !rec.Aborted || rec.AbortReason == "" {
			return "abort-metadata", fmt.Sprintf("aborted (%v) without recovery metadata", err)
		}
		if rec.Token == nil {
			return "abort-metadata", fmt.Sprintf("resumable abort (%v) minted no token", err)
		}
		// Invariant: a resumed run (fault plane detached) converges to a
		// verified completion.
		return checkResume(src, rec.Token)
	}
	// Invariant: a completed run's destination holds the source's content
	// for every page of the final transfer set (pre-copy engines; after a
	// post-copy switchover the guest legitimately outruns the image).
	if rep.PostCopy == nil {
		if inv, detail := checkImage(src, rep, "run"); inv != "" {
			return inv, detail
		}
	}
	// Invariant: a completed run healed every mismatch it detected.
	if ic := rep.Integrity; ic != nil && ic.Repairs != ic.Mismatches {
		return "unhealed-mismatch",
			fmt.Sprintf("completed with %d repairs for %d mismatches", ic.Repairs, ic.Mismatches)
	}
	return "", ""
}

// checkLedger verifies ledger/report reconciliation.
func checkLedger(led *ledger.Ledger, rep *migration.Report, phase string) (string, string) {
	sum := led.Summary()
	if sum.TotalBytes != rep.TotalBytes() || sum.TotalSends != rep.TotalPagesSent {
		return "ledger-reconcile", fmt.Sprintf(
			"%s: ledger %d bytes/%d sends vs report %d/%d",
			phase, sum.TotalBytes, sum.TotalSends, rep.TotalBytes(), rep.TotalPagesSent)
	}
	return "", ""
}

// checkImage verifies the destination against the source for every page the
// destination received out of the final transfer set. The comparison runs on
// the digest tables, so silent in-flight corruption is exactly what it
// catches.
func checkImage(src *migration.Source, rep *migration.Report, phase string) (string, string) {
	if rep.FinalTransfer == nil {
		return "", ""
	}
	store := src.Dom.Store()
	var bad []mem.PFN
	var buf []byte
	rep.FinalTransfer.Range(func(p mem.PFN) bool {
		got, ok := src.Dest.PageDigestAt(p)
		if !ok {
			return true
		}
		buf = store.AppendExport(buf[:0], p)
		if got != mem.PageDigest(buf) {
			bad = append(bad, p)
		}
		return len(bad) < 8
	})
	if len(bad) > 0 {
		return "silent-corruption", fmt.Sprintf(
			"%s: %d+ destination pages diverge from the source (first: %v)",
			phase, len(bad), bad)
	}
	return "", ""
}

// checkResume detaches the fault plane and resumes from the token on the
// same Source, with a fresh ledger; the resumed run must complete,
// reconcile, and leave a faithful image.
func checkResume(src *migration.Source, tok *migration.ResumeToken) (string, string) {
	src.SetFaults(nil)
	led := ledger.New()
	src.Cfg.Ledger = led
	rep, err := src.Resume(tok)
	if err != nil {
		return "resume-diverged", fmt.Sprintf("fault-free resume failed: %v", err)
	}
	if rep.Resume == nil {
		return "resume-diverged", "resumed run carries no resume section"
	}
	if inv, detail := checkLedger(led, rep, "resume"); inv != "" {
		return inv, detail
	}
	if rep.PostCopy == nil {
		return checkImage(src, rep, "resume")
	}
	return "", ""
}
