package netsim

import (
	"fmt"
	"math"
	"strings"
	"time"

	"javmm/internal/faults"
	"javmm/internal/obs"
	"javmm/internal/simclock"
)

// Fabric models a shared network: hosts (optionally NIC-capped) attached to
// named links, with concurrent transfers arbitrating bandwidth. Where Link
// charges each transfer n/bandwidth in isolation, a fabric port's transfers
// contend: every shared segment divides its capacity evenly among the
// transfers crossing it (progressive fair share), and a transfer's cost is
// integrated over the intervals between contender changes. All arbitration
// is event-driven on the virtual clock, so an N-tenant run is exactly as
// deterministic as a single-tenant one.
//
// Dial returns an ordinary *Link, so the migration engine and every existing
// call site work unchanged; arbitration-aware callers use Link.Transfer /
// Transfer.Wait instead of Send to observe contended durations.
type Fabric struct {
	clock   *simclock.Clock
	metrics *obs.Metrics
	tracer  *obs.Tracer

	hosts  map[string]*fabricHost
	order  []string // host insertion order (deterministic BFS)
	trunks []*trunk // NICs then shared links, insertion order
	flows  []*flowStat

	// hostFaults, when set, scopes host.crash windows onto the fabric: a
	// port dialled to a crashed host refuses admission with ErrHostDown.
	hostFaults *faults.Injector

	active []*Transfer // admission order — the deterministic settle order
	lastAt time.Duration
	timer  *simclock.Timer
	nextAt time.Duration
}

// flowStat is the per-port (per src->dst flow) accounting of a fabric:
// what the flow moved, and how much contended reality cost it beyond the
// uncontended ideal of its path's bottleneck bandwidth.
type flowStat struct {
	name    string
	idealBW uint64 // path bottleneck bandwidth, bytes/sec
	bytes   uint64
	sends   uint64
	// queueing is Σ max(0, contended − ideal) over completed transfers: the
	// extra time fair-share arbitration (and stalls) cost this flow.
	queueing time.Duration
	// stall is the subset of queueing spent at rate zero (partitions).
	stall time.Duration
}

type fabricHost struct {
	name  string
	nic   *trunk   // nil: uncapped NIC
	links []*trunk // shared links this host attaches to
}

// trunk is one capacity-carrying segment (a host NIC or a shared link).
type trunk struct {
	name      string
	bandwidth uint64 // bytes/sec
	latency   time.Duration
	shared    bool
	faults    *faults.Injector

	count     int // active transfers crossing this trunk
	bytesSent uint64
	sends     uint64
	busy      time.Duration // union of intervals with >=1 active transfer
	maxConc   int
	// settled is the integral of the trunk's aggregate settled rate over
	// time, in (float) bytes: the continuous twin of bytesSent. On an idle
	// fabric the two agree to within a sub-byte residue per completed
	// transfer (LinkUsage.ConservationError), which is the fabric's
	// byte-conservation invariant.
	settled float64
	// lastConc is the last concurrent-transfer count a contention event was
	// emitted for (shared trunks with a tracer attached).
	lastConc int
}

// stallRecheck bounds the event step whenever a rate can change outside the
// fabric's own event set: fault windows (partitions, bandwidth collapses)
// open and close at plan times the fabric cannot see, so integration falls
// back to this fixed, deterministic quantum while an injector is attached or
// a transfer is fully stalled.
const stallRecheck = time.Millisecond

// NewFabric returns an empty fabric on the given clock.
func NewFabric(clock *simclock.Clock) *Fabric {
	return &Fabric{clock: clock, hosts: make(map[string]*fabricHost)}
}

// SetMetrics attaches a metrics registry: each trunk accounts
// fabric.<name>.bytes_sent / .sends / .busy_ns counters, a
// fabric.<name>.active gauge of its concurrent-transfer count, a
// fabric.<name>.utilization gauge (settled aggregate rate over effective
// capacity — its time-weighted mean is the link's overall utilization) and a
// fabric.<name>.settled_bytes gauge carrying the continuous byte-
// conservation integral. A nil registry detaches.
func (f *Fabric) SetMetrics(m *obs.Metrics) { f.metrics = m }

// SetTracer attaches a tracer: every arbitrated transfer becomes a span on
// its flow's track ("fabric/<src>-><dst>", begin at admission, end at
// completion with duration/queueing/stall attached), and every change in a
// shared link's concurrent-transfer count an instant event on the link's
// track. A nil tracer detaches. Transfers on one port are serial (the engine
// waits on each), so per-flow spans nest trivially.
func (f *Fabric) SetTracer(t *obs.Tracer) { f.tracer = t }

// AddHost adds a host. nicBW, when non-zero, caps the host's aggregate
// in+out bandwidth (its NIC becomes a trunk on every path that touches the
// host); zero means the NIC is never the bottleneck.
func (f *Fabric) AddHost(name string, nicBW uint64) {
	if _, ok := f.hosts[name]; ok {
		panic(fmt.Sprintf("netsim: duplicate host %q", name))
	}
	h := &fabricHost{name: name}
	if nicBW > 0 {
		h.nic = &trunk{name: name + "/nic", bandwidth: nicBW}
		f.trunks = append(f.trunks, h.nic)
	}
	f.hosts[name] = h
	f.order = append(f.order, name)
}

// AddLink adds a named shared link with the given payload bandwidth and
// one-way latency, and attaches the named hosts to it. Every transfer whose
// path crosses the link contends for its bandwidth.
func (f *Fabric) AddLink(name string, bandwidth uint64, latency time.Duration, hosts ...string) {
	if bandwidth == 0 {
		panic("netsim: zero-bandwidth fabric link")
	}
	for _, t := range f.trunks {
		if t.name == name {
			panic(fmt.Sprintf("netsim: duplicate link %q", name))
		}
	}
	tk := &trunk{name: name, bandwidth: bandwidth, latency: latency, shared: true}
	f.trunks = append(f.trunks, tk)
	for _, hn := range hosts {
		f.attach(hn, tk)
	}
}

func (f *Fabric) attach(hostName string, tk *trunk) {
	h, ok := f.hosts[hostName]
	if !ok {
		panic(fmt.Sprintf("netsim: no host %q", hostName))
	}
	h.links = append(h.links, tk)
}

// SetLinkFaults attaches a fault injector to a shared link: a partition
// window stalls every tenant of the link (rates drop to zero until it
// heals), a bandwidth-collapse window shrinks everyone's fair share.
func (f *Fabric) SetLinkFaults(link string, inj *faults.Injector) {
	for _, t := range f.trunks {
		if t.name == link {
			t.faults = inj
			return
		}
	}
	panic(fmt.Sprintf("netsim: no link %q", link))
}

// SetHostFaults attaches a fault injector whose host.crash windows the
// fabric enforces at admission: Transfer and SendErr on a port dialled to a
// covered destination host fail fast with ErrHostDown instead of stalling.
// A nil injector detaches.
func (f *Fabric) SetHostFaults(inj *faults.Injector) { f.hostFaults = inj }

// Dial returns a point-to-point port from src to dst: a *Link whose
// transfers cross the (BFS-shortest, insertion-order-deterministic) path of
// trunks between the two hosts and contend with everything else on them.
// The port's nominal bandwidth is the path's bottleneck capacity and its
// latency the sum of per-segment latencies (floored at the caller-visible
// minimum of 1ns only if every segment is zero); per-port Modulator and
// fault injectors keep their Link semantics — the injector gates admission,
// the shared-link injectors govern in-flight rates.
func (f *Fabric) Dial(src, dst string) (*Link, error) {
	hs, ok := f.hosts[src]
	if !ok {
		return nil, fmt.Errorf("netsim: no host %q", src)
	}
	hd, ok := f.hosts[dst]
	if !ok {
		return nil, fmt.Errorf("netsim: no host %q", dst)
	}
	shared, err := f.route(hs, hd)
	if err != nil {
		return nil, err
	}
	var path []*trunk
	if hs.nic != nil {
		path = append(path, hs.nic)
	}
	path = append(path, shared...)
	if hd.nic != nil {
		path = append(path, hd.nic)
	}
	if len(path) == 0 {
		return nil, fmt.Errorf("netsim: %s->%s has no capacity-carrying segment (add a link or NIC caps)", src, dst)
	}
	bw := uint64(math.MaxUint64)
	var lat time.Duration
	for _, t := range path {
		if t.bandwidth < bw {
			bw = t.bandwidth
		}
		lat += t.latency
	}
	l := NewLink(f.clock, bw, lat)
	l.fabric = f
	l.path = path
	l.destHost = dst
	// Register the port as a named flow for per-flow fair-share accounting.
	// Repeat dials of the same pair get #2, #3, ... suffixes so every flow
	// name (and trace track) stays unique and deterministic in dial order.
	name := src + "->" + dst
	dup := 0
	for _, fl := range f.flows {
		if fl.name == name || strings.HasPrefix(fl.name, name+"#") {
			dup++
		}
	}
	if dup > 0 {
		name = fmt.Sprintf("%s#%d", name, dup+1)
	}
	l.flow = &flowStat{name: name, idealBW: bw}
	f.flows = append(f.flows, l.flow)
	return l, nil
}

// route BFS-walks the host/link bipartite graph and returns the shared links
// along the shortest src->dst path. Ties break by host/link insertion order.
// Route returns the names of the shared links a src→dst flow crosses, in
// path order (NIC trunks excluded). The orchestrator uses it for per-link
// admission accounting without opening a port.
func (f *Fabric) Route(src, dst string) ([]string, error) {
	hs, ok := f.hosts[src]
	if !ok {
		return nil, fmt.Errorf("netsim: no host %q", src)
	}
	hd, ok := f.hosts[dst]
	if !ok {
		return nil, fmt.Errorf("netsim: no host %q", dst)
	}
	shared, err := f.route(hs, hd)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(shared))
	for i, t := range shared {
		names[i] = t.name
	}
	return names, nil
}

func (f *Fabric) route(src, dst *fabricHost) ([]*trunk, error) {
	if src == dst {
		return nil, nil
	}
	type hop struct {
		host *fabricHost
		via  []*trunk
	}
	seen := map[*fabricHost]bool{src: true}
	frontier := []hop{{host: src}}
	for len(frontier) > 0 {
		var next []hop
		for _, h := range frontier {
			for _, lk := range h.host.links {
				for _, name := range f.order {
					peer := f.hosts[name]
					if seen[peer] || !hostOn(peer, lk) {
						continue
					}
					via := append(append([]*trunk(nil), h.via...), lk)
					if peer == dst {
						return via, nil
					}
					seen[peer] = true
					next = append(next, hop{host: peer, via: via})
				}
			}
		}
		frontier = next
	}
	return nil, fmt.Errorf("netsim: no path %s->%s", src.name, dst.name)
}

func hostOn(h *fabricHost, tk *trunk) bool {
	for _, lk := range h.links {
		if lk == tk {
			return true
		}
	}
	return false
}

// Transfer is one in-flight arbitrated transfer on a fabric port.
type Transfer struct {
	fabric    *Fabric
	port      *Link
	n         uint64
	remaining float64 // bytes still to move
	rate      float64 // bytes/sec under the current contender set
	start     time.Duration
	done      bool
	dur       time.Duration
	stall     time.Duration // time spent at rate zero (partitions)
	span      *obs.Span     // flow-track span when a tracer is attached
	waiters   []*simclock.Proc
}

// Arbitrated reports whether the link is a fabric port, i.e. whether
// Transfer contends for shared bandwidth. Plain NewLink links report false
// and keep the paper's private-link cost model bit-for-bit.
func (l *Link) Arbitrated() bool { return l.fabric != nil }

// Transfer admits n payload bytes onto the port's path and returns the
// in-flight transfer; Wait blocks (cooperatively, under a scheduler) until
// it completes. Admission fails with ErrPartitioned while the port's own
// injector holds the link down — the same retry contract as SendErr; a
// partition arriving mid-flight on a shared link instead stalls the transfer
// until the window heals. Calling Transfer on a non-fabric link panics: the
// caller must gate on Arbitrated().
func (l *Link) Transfer(n uint64) (*Transfer, error) {
	if l.fabric == nil {
		panic("netsim: Transfer on a non-fabric link (gate on Arbitrated)")
	}
	if err := l.refusal(); err != nil {
		return nil, err
	}
	return l.fabric.admit(l, n), nil
}

// admit settles the fabric to now, adds the transfer to the contender set
// and re-arbitrates every rate.
func (f *Fabric) admit(port *Link, n uint64) *Transfer {
	now := f.clock.Now()
	f.settle(now)
	tr := &Transfer{
		fabric:    f,
		port:      port,
		n:         n,
		remaining: float64(n),
		start:     now,
	}
	if f.tracer != nil && port.flow != nil {
		tr.span = f.tracer.Begin(obs.TrackFabric+"/"+port.flow.name,
			obs.KindTransfer, "transfer", obs.Uint64("bytes", n))
	}
	f.active = append(f.active, tr)
	f.recalc(now)
	return tr
}

// settle integrates every active transfer's progress over [lastAt, now] at
// the rates fixed by the last recalc, and accrues per-trunk busy time. The
// iteration order is the admission order — fixed, so the float arithmetic is
// deterministic.
func (f *Fabric) settle(now time.Duration) {
	dt := now - f.lastAt
	f.lastAt = now
	if dt <= 0 || len(f.active) == 0 {
		return
	}
	sec := dt.Seconds()
	for _, tr := range f.active {
		if tr.rate > 0 {
			moved := tr.rate * sec
			tr.remaining -= moved
			// The moved bytes settle onto every trunk of the path: the
			// continuous side of the byte-conservation invariant.
			for _, t := range tr.port.path {
				t.settled += moved
			}
		} else {
			tr.stall += dt
		}
	}
	for _, t := range f.trunks {
		if t.count > 0 {
			t.busy += dt
		}
		if f.metrics != nil {
			f.metrics.Gauge("fabric." + t.name + ".settled_bytes").Set(t.settled)
		}
	}
}

// completeEps absorbs the sub-byte float residue left by rounding completion
// times up to whole nanoseconds.
const completeEps = 1e-6

// recalc re-derives every transfer's fair-share rate from the current
// contender set, completes transfers that have no bytes left (which changes
// the set, so it loops to a fixed point), and schedules the next event.
func (f *Fabric) recalc(now time.Duration) {
	for {
		for _, t := range f.trunks {
			t.count = 0
		}
		for _, tr := range f.active {
			for _, t := range tr.port.path {
				t.count++
			}
		}
		for _, t := range f.trunks {
			if t.count > t.maxConc {
				t.maxConc = t.count
			}
			if f.metrics != nil {
				f.metrics.Gauge("fabric." + t.name + ".active").Set(float64(t.count))
			}
			if f.tracer != nil && t.shared && t.count != t.lastConc {
				f.tracer.Emit(obs.TrackFabric+"/"+t.name, obs.KindContention,
					"contention", nil, obs.Int("active", t.count))
			}
			t.lastConc = t.count
		}
		for _, tr := range f.active {
			tr.rate = math.Inf(1)
			for _, t := range tr.port.path {
				if share := t.effBandwidth() / float64(t.count); share < tr.rate {
					tr.rate = share
				}
			}
		}
		if f.metrics != nil {
			// Settled aggregate rate over effective capacity: the
			// utilization gauge whose time-weighted mean is the trunk's
			// overall utilization.
			for _, t := range f.trunks {
				agg := 0.0
				for _, tr := range f.active {
					for _, pt := range tr.port.path {
						if pt == t {
							agg += tr.rate
						}
					}
				}
				util := 0.0
				if bw := t.effBandwidth(); bw > 0 {
					util = agg / bw
				}
				f.metrics.Gauge("fabric." + t.name + ".utilization").Set(util)
			}
		}
		finished := false
		live := f.active[:0]
		for _, tr := range f.active {
			if tr.remaining <= completeEps {
				f.complete(tr, now)
				finished = true
			} else {
				live = append(live, tr)
			}
		}
		f.active = live
		if !finished {
			break
		}
	}
	f.schedule(now)
}

// effBandwidth is the trunk's current capacity: zero while a fault-injected
// partition covers it, scaled down during a bandwidth-collapse window.
func (t *trunk) effBandwidth() float64 {
	if t.faults.LinkDown() {
		return 0
	}
	bw := float64(t.bandwidth)
	if fct := t.faults.BandwidthFactor(); fct < 1 {
		bw *= fct
	}
	return bw
}

// complete finalizes a transfer at now: whole-byte accounting lands on the
// port's counters (Send's exact bookkeeping), on every trunk of its path and
// on its flow, and waiters are queued to resume.
func (f *Fabric) complete(tr *Transfer, now time.Duration) {
	tr.done = true
	tr.dur = now - tr.start
	if tr.n > 0 && tr.dur <= 0 {
		tr.dur = 1 // same floor as TransferTime: no free non-empty transfers
	}
	p := tr.port
	if m := p.metrics; m != nil {
		m.Counter("net.bytes_sent").Add(int64(tr.n))
		m.Counter("net.sends").Inc()
		m.Counter("net.busy_ns").AddDuration(tr.dur)
		if tr.dur > 0 {
			m.Histogram("net.bandwidth_bps").ObserveWeighted(
				float64(tr.n)/tr.dur.Seconds(), tr.dur)
		}
	}
	for _, t := range p.path {
		t.bytesSent += tr.n
		t.sends++
		if f.metrics != nil {
			f.metrics.Counter("fabric." + t.name + ".bytes_sent").Add(int64(tr.n))
			f.metrics.Counter("fabric." + t.name + ".sends").Inc()
		}
	}
	if fl := p.flow; fl != nil {
		fl.bytes += tr.n
		fl.sends++
		// Queueing is what contention cost beyond the flow's uncontended
		// ideal (its path-bottleneck transfer time); stall is the part spent
		// at rate zero.
		queue := tr.dur - idealTransferTime(tr.n, fl.idealBW)
		if queue < 0 {
			queue = 0
		}
		fl.queueing += queue
		fl.stall += tr.stall
		if tr.span != nil {
			tr.span.End(obs.Dur("duration", tr.dur),
				obs.Dur("queueing", queue), obs.Dur("stall", tr.stall))
			tr.span = nil
		}
	}
	waiters := tr.waiters
	tr.waiters = nil
	if s := f.clock.Scheduler(); s != nil {
		for _, w := range waiters {
			s.Ready(w)
		}
	}
}

// schedule arms the fabric's single timer for the earliest completion under
// current rates — or a fixed stall-recheck quantum when a rate can change at
// a time the fabric cannot predict (fault windows) or a transfer is fully
// stalled by a partition.
func (f *Fabric) schedule(now time.Duration) {
	if f.timer != nil {
		f.timer.Stop()
		f.timer = nil
	}
	if len(f.active) == 0 {
		return
	}
	next := time.Duration(math.MaxInt64)
	stalled, faulty := false, false
	for _, tr := range f.active {
		if tr.rate <= 0 {
			stalled = true
			continue
		}
		d := time.Duration(math.Ceil(tr.remaining / tr.rate * 1e9))
		if d < 1 {
			d = 1
		}
		if d < next {
			next = d
		}
		for _, t := range tr.port.path {
			if t.faults != nil {
				faulty = true
			}
		}
	}
	if (stalled || faulty) && next > stallRecheck {
		next = stallRecheck
	}
	f.nextAt = now + next
	f.timer = f.clock.AfterFunc(next, func(at time.Duration) {
		f.timer = nil
		f.settle(at)
		f.recalc(at)
	})
}

// Wait blocks until the transfer completes and returns its contended
// duration. Inside a scheduler process it parks cooperatively; outside one
// it drives the clock itself, advancing event to event — the caller-driven
// equivalent of "d := link.Send(n); clock.Advance(d)" with contention priced
// in. The error is always nil today (mid-flight faults stall rather than
// fail) and reserved for future cancellation.
func (tr *Transfer) Wait() (time.Duration, error) {
	c := tr.fabric.clock
	if s := c.Scheduler(); s != nil && s.Active() != nil {
		p := s.Active()
		for !tr.done {
			tr.waiters = append(tr.waiters, p)
			p.Park()
		}
		return tr.dur, nil
	}
	for !tr.done {
		if tr.fabric.timer == nil {
			panic("netsim: pending transfer with no scheduled fabric event")
		}
		c.Advance(tr.fabric.nextAt - c.Now())
	}
	return tr.dur, nil
}

// Duration returns the completed transfer's contended duration (zero while
// in flight).
func (tr *Transfer) Duration() time.Duration { return tr.dur }

// Bytes returns the transfer's payload size.
func (tr *Transfer) Bytes() uint64 { return tr.n }

// idealTransferTime is the uncontended cost of n bytes at bw. A non-empty
// transfer always costs at least 1ns: the float arithmetic rounds sub-ns
// costs (small payloads on very fast links) down to zero, which would let
// busy-time accounting and effective-bandwidth metrics record transfers
// that took no time at all.
func idealTransferTime(n, bw uint64) time.Duration {
	d := time.Duration(float64(n) / float64(bw) * float64(time.Second))
	if n > 0 && d <= 0 {
		d = 1
	}
	return d
}

// LinkUsage is one trunk's accounting in a FabricReport.
type LinkUsage struct {
	Name          string        `json:"name"`
	Bandwidth     uint64        `json:"bandwidth_bps"`
	BytesSent     uint64        `json:"bytes_sent"`
	Transfers     uint64        `json:"transfers"`
	Busy          time.Duration `json:"busy_ns"`
	MaxConcurrent int           `json:"max_concurrent"`
	// SettledBytes is the continuous byte integral (∫ aggregate rate dt);
	// Utilization the mean fraction of capacity in use while the trunk was
	// busy: SettledBytes / (Bandwidth × Busy).
	SettledBytes float64 `json:"settled_bytes"`
	Utilization  float64 `json:"utilization"`
}

// ConservationError is the byte-conservation residue: |settled − sent|.
// With no transfers in flight it is bounded by a sub-byte rounding residue
// per completed transfer (completion times round up to whole nanoseconds),
// i.e. at most one byte per transfer on any practical bandwidth.
func (u LinkUsage) ConservationError() float64 {
	return math.Abs(u.SettledBytes - float64(u.BytesSent))
}

// FlowUsage is one flow's (Dial port's) accounting in a FabricReport.
type FlowUsage struct {
	Name string `json:"name"`
	// Bandwidth is the flow's uncontended ideal: its path's bottleneck.
	Bandwidth uint64 `json:"bandwidth_bps"`
	BytesSent uint64 `json:"bytes_sent"`
	Transfers uint64 `json:"transfers"`
	// Queueing is the cumulative extra time fair-share arbitration cost the
	// flow beyond its ideal transfer times; Stall the subset spent fully
	// stalled (partitions).
	Queueing time.Duration `json:"queueing_ns"`
	Stall    time.Duration `json:"stall_ns"`
}

// FabricReport is the merged utilization view over every trunk (NICs and
// shared links) in insertion order, plus per-flow fair-share accounting in
// dial order — deterministic, so it participates in golden comparisons.
type FabricReport struct {
	Links []LinkUsage `json:"links"`
	Flows []FlowUsage `json:"flows,omitempty"`
}

// VerifyConservation checks every link's byte-conservation residue against
// the settle bound: the fixed-point arbiter's continuous byte integral may
// differ from the discrete send count by at most one byte per completed
// transfer (completion instants round up to whole nanoseconds) plus one byte
// of terminal float residue. A report that breaks this bound means the
// fair-share settling lost or invented bytes — the fleet runner asserts it
// after every plan.
func (r FabricReport) VerifyConservation() error {
	for _, u := range r.Links {
		if res := u.ConservationError(); res > float64(u.Transfers+1) {
			return fmt.Errorf(
				"netsim: link %s conservation residue %.3f bytes exceeds bound %d (sent %d bytes over %d transfers, settled %.3f)",
				u.Name, res, u.Transfers+1, u.BytesSent, u.Transfers, u.SettledBytes)
		}
	}
	return nil
}

// Link returns the named link's usage row, and whether it was present.
func (r FabricReport) Link(name string) (LinkUsage, bool) {
	for _, u := range r.Links {
		if u.Name == name {
			return u, true
		}
	}
	return LinkUsage{}, false
}

// Report settles the fabric to the current instant and returns per-trunk
// utilization and per-flow accounting.
func (f *Fabric) Report() FabricReport {
	f.settle(f.clock.Now())
	var rep FabricReport
	for _, t := range f.trunks {
		u := LinkUsage{
			Name:          t.name,
			Bandwidth:     t.bandwidth,
			BytesSent:     t.bytesSent,
			Transfers:     t.sends,
			Busy:          t.busy,
			MaxConcurrent: t.maxConc,
			SettledBytes:  t.settled,
		}
		if t.busy > 0 && t.bandwidth > 0 {
			u.Utilization = t.settled / (float64(t.bandwidth) * t.busy.Seconds())
		}
		rep.Links = append(rep.Links, u)
	}
	for _, fl := range f.flows {
		rep.Flows = append(rep.Flows, FlowUsage{
			Name:      fl.name,
			Bandwidth: fl.idealBW,
			BytesSent: fl.bytes,
			Transfers: fl.sends,
			Queueing:  fl.queueing,
			Stall:     fl.stall,
		})
	}
	return rep
}
