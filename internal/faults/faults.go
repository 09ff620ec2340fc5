// Package faults is the deterministic fault-injection plane of the
// simulator: a declarative set of rules that fire at a virtual time or on the
// Nth occurrence of an injection site, evaluated by an Injector that every
// fault-aware layer (the network link, the netlink bus, the LKM handshake,
// the destination, the post-copy fetch path) consults at its own site.
//
// The paper's workflow assumes a cooperative guest and a healthy link
// (§4.2, §5.1) but its design anticipates failure: when the JVM or LKM does
// not respond, migration must degrade to unmodified pre-copy rather than
// stall the VM. This package provides the controlled adversity those
// recovery paths are tested against. Everything is keyed to the virtual
// clock, so a fault plan plus a seed reproduces the exact same failure
// sequence — and therefore the exact same recovery trace — on every run.
//
// Like obs.Tracer and the provenance ledger, a nil *Injector is a valid
// no-op: instrumented code needs no guards, and a simulation without faults
// behaves byte-for-byte as before.
package faults

import (
	"fmt"
	"time"

	"javmm/internal/obs"
	"javmm/internal/simclock"
)

// Site identifies one injection point in the migration pipeline.
type Site string

// Injection sites. Discrete sites fire per occurrence (a send attempt, a
// message delivery); windowed sites (link partition, bandwidth collapse)
// are active for a [At, At+For) span of virtual time.
const (
	// SiteLinkPartition takes the migration link down for a window: sends
	// fail with netsim.ErrPartitioned until the window passes (windowed).
	SiteLinkPartition Site = "link.partition"
	// SiteLinkBandwidth collapses the link's bandwidth to Factor of its
	// base rate for a window (windowed).
	SiteLinkBandwidth Site = "link.bandwidth"
	// SiteNetlinkLoss drops a netlink message (kernel-bound send or one
	// multicast delivery).
	SiteNetlinkLoss Site = "netlink.loss"
	// SiteNetlinkDelay delivers a netlink message late, after Delay of
	// virtual time.
	SiteNetlinkDelay Site = "netlink.delay"
	// SiteLKMHandshake swallows the LKM's suspension-ready notification to
	// the migration daemon: the engine's handshake wait times out and the
	// run degrades to vanilla pre-copy (paper §4.2's non-responsive-app
	// contingency).
	SiteLKMHandshake Site = "lkm.handshake"
	// SiteDestReceive fails one page receive at the destination with a
	// transient error; the engine retries with backoff.
	SiteDestReceive Site = "dest.receive"
	// SiteDestCrash crashes the destination mid-stream: every receive from
	// then on fails permanently and the engine aborts cleanly (source
	// resumed, destination discarded).
	SiteDestCrash Site = "dest.crash"
	// SitePostCopyFetch fails one demand fetch in the post-copy/hybrid lazy
	// phase; the faulting vCPU stalls through the retry backoff.
	SitePostCopyFetch Site = "postcopy.fetch"
	// SiteCorruptPage flips bits in one page payload in flight: the transfer
	// succeeds at the wire level but the destination receives (and digests)
	// wrong content. Only the end-to-end integrity audit can catch it.
	SiteCorruptPage Site = "corrupt-page-stream"
	// SiteHostCrash takes a destination host down for a window: every
	// receive at the host fails permanently (the destination behaves as
	// crashed) and fabric ports dialled to it refuse transfers, killing
	// every in-flight move targeting the host. Rule.Host scopes the crash to
	// one named host; an empty Host matches any (windowed).
	SiteHostCrash Site = "host.crash"
	// SiteHostFlaky makes every page receive at a host fail transiently for
	// a window; engines ride it out with retry/backoff. Rule.Host scopes it
	// like SiteHostCrash (windowed).
	SiteHostFlaky Site = "host.flaky"
)

// Sites returns every site in deterministic presentation order.
func Sites() []Site {
	return []Site{SiteLinkPartition, SiteLinkBandwidth, SiteNetlinkLoss,
		SiteNetlinkDelay, SiteLKMHandshake, SiteDestReceive, SiteDestCrash,
		SitePostCopyFetch, SiteCorruptPage, SiteHostCrash, SiteHostFlaky}
}

// Windowed reports whether the site is window-activated (time span) rather
// than occurrence-activated.
func (s Site) Windowed() bool {
	return s == SiteLinkPartition || s == SiteLinkBandwidth ||
		s == SiteHostCrash || s == SiteHostFlaky
}

// HostScoped reports whether the site targets a host (Rule.Host applies).
func (s Site) HostScoped() bool {
	return s == SiteHostCrash || s == SiteHostFlaky
}

// valid reports whether s names a known site.
func (s Site) valid() bool {
	for _, k := range Sites() {
		if s == k {
			return true
		}
	}
	return false
}

// Rule is one declarative fault. At is relative to the moment the injector
// is armed (Injector.Begin, called by the engine when migration starts), so
// "10s" means ten virtual seconds into the migration regardless of warmup.
type Rule struct {
	Site Site
	// At is the virtual time (from arming) at which the rule becomes
	// eligible; zero means immediately.
	At time.Duration
	// Nth, for discrete sites, fires the rule on the Nth occurrence of the
	// site (1-based); zero behaves like 1 (the first eligible occurrence).
	Nth uint64
	// Count, for discrete sites, is how many occurrences the rule affects
	// once it starts firing (0 means 1).
	Count uint64
	// For is the window length of windowed sites (partition, bandwidth).
	For time.Duration
	// Factor is the bandwidth multiplier in (0,1) during a SiteLinkBandwidth
	// window.
	Factor float64
	// Delay is the late-delivery latency of SiteNetlinkDelay.
	Delay time.Duration
	// Host scopes a host fault (SiteHostCrash, SiteHostFlaky) to one named
	// host; empty matches any host, which is how single-VM runs (whose
	// destination has no name) see host faults too.
	Host string
}

// matchesHost reports whether the rule covers the named host.
func (r Rule) matchesHost(host string) bool {
	return r.Host == "" || r.Host == host
}

// Validate checks the rule for internal consistency.
func (r Rule) Validate() error {
	if !r.Site.valid() {
		return fmt.Errorf("faults: unknown site %q", r.Site)
	}
	if r.Site.Windowed() {
		if r.For <= 0 {
			return fmt.Errorf("faults: %s rule needs a window (for=<duration>)", r.Site)
		}
		if r.Nth != 0 || r.Count != 0 {
			return fmt.Errorf("faults: %s is window-activated; #nth/count do not apply", r.Site)
		}
	}
	if r.At < 0 || r.For < 0 || r.Delay < 0 {
		return fmt.Errorf("faults: %s rule has a negative duration", r.Site)
	}
	if !(r.Factor >= 0) {
		// Also rejects NaN, which no window can be scaled by.
		return fmt.Errorf("faults: %s factor %v is not a non-negative number", r.Site, r.Factor)
	}
	if r.Host != "" && !r.Site.HostScoped() {
		return fmt.Errorf("faults: %s is not host-scoped; host= does not apply", r.Site)
	}
	if r.Site == SiteLinkBandwidth && (r.Factor <= 0 || r.Factor >= 1) {
		return fmt.Errorf("faults: %s factor %v out of (0,1)", r.Site, r.Factor)
	}
	if r.Site == SiteNetlinkDelay && r.Delay <= 0 {
		return fmt.Errorf("faults: %s rule needs delay=<duration>", r.Site)
	}
	return nil
}

// Plan is an ordered set of rules, evaluated first-match per occurrence.
type Plan []Rule

// Validate checks every rule in the plan.
func (p Plan) Validate() error {
	for i, r := range p {
		if err := r.Validate(); err != nil {
			return fmt.Errorf("rule %d: %w", i+1, err)
		}
	}
	return nil
}

// Event is one audit-log entry: a fault that actually fired.
type Event struct {
	Site       Site
	At         time.Duration // virtual time the fault fired
	Occurrence uint64        // site occurrence counter (0 for windowed sites)
}

// ruleState is a rule plus its runtime bookkeeping.
type ruleState struct {
	Rule
	fired  uint64 // discrete: occurrences affected so far
	logged bool   // windowed: activation recorded once
}

// Injector evaluates a Plan against the virtual clock. The zero of
// *Injector (nil) is a valid no-op: no site ever fires.
//
// The injector is inert until Begin arms it (the migration engine arms it
// when a run starts, exactly like the provenance ledger), so rule times are
// relative to migration start and occurrence counters reset per run.
type Injector struct {
	clock *simclock.Clock
	rules []*ruleState
	occ   map[Site]uint64
	armed bool
	base  time.Duration
	log   []Event

	tracer  *obs.Tracer
	metrics *obs.Metrics
}

// NewInjector returns an injector for the plan. The plan must validate.
func NewInjector(clock *simclock.Clock, plan Plan) (*Injector, error) {
	if clock == nil {
		return nil, fmt.Errorf("faults: clock required")
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	inj := &Injector{clock: clock, occ: make(map[Site]uint64)}
	for _, r := range plan {
		rs := &ruleState{Rule: r}
		inj.rules = append(inj.rules, rs)
	}
	return inj, nil
}

// SetObs attaches a tracer and metrics registry: every injected fault is
// emitted as a fault.injected event on the faults track and counted under
// faults.injected (plus a per-site counter). Either argument may be nil.
func (i *Injector) SetObs(t *obs.Tracer, m *obs.Metrics) {
	if i == nil {
		return
	}
	i.tracer = t
	i.metrics = m
}

// Begin arms the injector for one migration: rule times become relative to
// now, occurrence counters and the audit log reset. A nil injector ignores
// the call.
func (i *Injector) Begin() {
	if i == nil {
		return
	}
	i.armed = true
	i.base = i.clock.Now()
	i.occ = make(map[Site]uint64)
	i.log = i.log[:0]
	for _, rs := range i.rules {
		rs.fired = 0
		rs.logged = false
	}
}

// Armed reports whether Begin has been called.
func (i *Injector) Armed() bool { return i != nil && i.armed }

// record appends to the audit log and mirrors the fault to obs.
func (i *Injector) record(site Site, occ uint64) {
	now := i.clock.Now()
	i.log = append(i.log, Event{Site: site, At: now, Occurrence: occ})
	i.tracer.Emit(obs.TrackFaults, obs.KindFault, string(site), nil,
		obs.Str("site", string(site)), obs.Uint64("occurrence", occ))
	if m := i.metrics; m != nil {
		m.Counter("faults.injected").Inc()
		m.Counter("faults." + string(site)).Inc()
	}
}

// Fire reports whether a discrete fault at site fires for this occurrence.
// Every call counts one occurrence of the site. The disarmed check is
// inlined into callers, so a fault-free run pays no call per check.
func (i *Injector) Fire(site Site) bool {
	if i == nil || !i.armed {
		return false
	}
	return i.fire(site) != nil
}

// FireRule is Fire returning the matched rule (for Delay and friends).
func (i *Injector) FireRule(site Site) (Rule, bool) {
	if i == nil || !i.armed {
		return Rule{}, false
	}
	if rs := i.fire(site); rs != nil {
		return rs.Rule, true
	}
	return Rule{}, false
}

// fire counts one occurrence of a discrete site on an armed injector and
// returns the rule that fired for it, or nil.
func (i *Injector) fire(site Site) *ruleState {
	i.occ[site]++
	n := i.occ[site]
	now := i.clock.Now()
	for _, rs := range i.rules {
		if rs.Site != site || rs.Site.Windowed() {
			continue
		}
		if now < i.base+rs.At {
			continue
		}
		limit := rs.Count
		if limit == 0 {
			limit = 1
		}
		if rs.fired >= limit {
			continue
		}
		if rs.Nth > 0 && n < rs.Nth {
			continue
		}
		rs.fired++
		i.record(site, n)
		return rs
	}
	return nil
}

// windowActive reports whether any rule of the windowed site covers now,
// returning the first covering rule.
func (i *Injector) windowActive(site Site) (*ruleState, bool) {
	if !i.Armed() {
		return nil, false
	}
	now := i.clock.Now()
	for _, rs := range i.rules {
		if rs.Site != site {
			continue
		}
		start := i.base + rs.At
		if now >= start && now < start+rs.For {
			if !rs.logged {
				rs.logged = true
				i.record(site, 0)
			}
			return rs, true
		}
	}
	return nil, false
}

// LinkDown reports whether a partition window covers the current virtual
// time: the link refuses transfers until it heals.
func (i *Injector) LinkDown() bool {
	_, down := i.windowActive(SiteLinkPartition)
	return down
}

// BandwidthFactor returns the product of the factors of all active
// bandwidth-collapse windows (1 when none is active).
func (i *Injector) BandwidthFactor() float64 {
	if !i.Armed() {
		return 1
	}
	f := 1.0
	now := i.clock.Now()
	for _, rs := range i.rules {
		if rs.Site != SiteLinkBandwidth {
			continue
		}
		start := i.base + rs.At
		if now >= start && now < start+rs.For {
			if !rs.logged {
				rs.logged = true
				i.record(SiteLinkBandwidth, 0)
			}
			f *= rs.Factor
		}
	}
	return f
}

// HostDown reports whether a host.crash window covers the named host at the
// current virtual time. While down, every receive at the host fails
// permanently and fabric ports dialled to it refuse transfers.
func (i *Injector) HostDown(host string) bool {
	if i == nil || !i.armed {
		return false
	}
	_, down := i.hostWindow(SiteHostCrash, host)
	return down
}

// HostDownUntil returns the latest end of the host.crash windows covering
// the named host now — the instant the host is expected back — and whether
// any window is active. The healing layer blacklists the host from
// destination re-selection until then.
func (i *Injector) HostDownUntil(host string) (time.Duration, bool) {
	if !i.Armed() {
		return 0, false
	}
	now := i.clock.Now()
	var until time.Duration
	down := false
	for _, rs := range i.rules {
		if rs.Site != SiteHostCrash || !rs.matchesHost(host) {
			continue
		}
		start := i.base + rs.At
		if now >= start && now < start+rs.For {
			down = true
			if end := start + rs.For; end > until {
				until = end
			}
		}
	}
	return until, down
}

// HostFlaky reports whether a host.flaky window covers the named host:
// every page receive at the host fails transiently until it passes.
func (i *Injector) HostFlaky(host string) bool {
	if i == nil || !i.armed {
		return false
	}
	_, flaky := i.hostWindow(SiteHostFlaky, host)
	return flaky
}

// hostWindow is windowActive with host matching on an armed injector: the
// first covering rule of the host-scoped site wins, and its activation is
// recorded once.
func (i *Injector) hostWindow(site Site, host string) (*ruleState, bool) {
	now := i.clock.Now()
	for _, rs := range i.rules {
		if rs.Site != site || !rs.matchesHost(host) {
			continue
		}
		start := i.base + rs.At
		if now >= start && now < start+rs.For {
			if !rs.logged {
				rs.logged = true
				i.record(site, 0)
			}
			return rs, true
		}
	}
	return nil, false
}

// After schedules fn on the injector's virtual clock — the delayed-delivery
// primitive the netlink bus uses, kept here so the bus stays clock-free.
func (i *Injector) After(d time.Duration, fn func()) {
	i.clock.AfterFunc(d, func(time.Duration) { fn() })
}

// Events returns the audit log of faults that fired this run, in firing
// order.
func (i *Injector) Events() []Event {
	if i == nil {
		return nil
	}
	return append([]Event(nil), i.log...)
}
