// Package netsim provides the network substrate for migration experiments:
// a bandwidth/latency-modelled Link driven by the virtual clock, and a real
// TCP page-stream protocol used by integration tests to move page contents
// between an actual source and destination.
//
// The paper's testbed is a gigabit Ethernet LAN between two blades (§5.1);
// the network is the bottleneck that makes pre-copy migration struggle
// (Figure 1). Link reproduces exactly that property: each transfer of n
// bytes costs n/bandwidth of virtual time, during which the guest keeps
// dirtying memory.
package netsim

import (
	"errors"
	"fmt"
	"time"

	"javmm/internal/faults"
	"javmm/internal/obs"
	"javmm/internal/simclock"
)

// ErrPartitioned is returned by SendErr while a fault-injected network
// partition covers the current virtual time. The transfer carries no bytes;
// the caller retries (with backoff) until the partition heals or its retry
// budget runs out.
var ErrPartitioned = errors.New("netsim: link partitioned")

// ErrHostDown is returned by a fabric port's Transfer/SendErr while a
// host.crash fault window covers the port's destination host: the host is
// gone, so the failure is permanent for this flow (unlike a partition, which
// heals). The migration engine treats it like a destination crash and aborts
// the move rather than retrying.
var ErrHostDown = errors.New("netsim: destination host down")

// Common effective bandwidths. A gigabit link moves 125 MB/s at line rate;
// after Ethernet/IP/TCP framing the payload rate observed by migration tools
// is ~117 MB/s, consistent with the paper's §4.2 arithmetic (950 MB in a bit
// over 7 s).
const (
	GigabitEffective    = 117 * 1000 * 1000 // bytes/sec
	TenGigabitEffective = 1170 * 1000 * 1000
)

// Link models a point-to-point network path with fixed latency and a
// (possibly time-varying) bandwidth. Link does not advance the clock itself:
// callers ask for the cost of a transfer and interleave clock advancement
// with guest execution (DESIGN.md §6).
type Link struct {
	clock     *simclock.Clock
	bandwidth uint64 // bytes per second, base value
	latency   time.Duration

	// Modulator, if non-nil, scales the base bandwidth at a given virtual
	// time; it returns a factor in (0, 1]. Experiments use it to model
	// background traffic on the migration path.
	Modulator func(now time.Duration) float64

	metrics *obs.Metrics
	faults  *faults.Injector

	// fabric/path/flow/destHost are set only on ports minted by Fabric.Dial;
	// a plain NewLink link never arbitrates and keeps the legacy cost model
	// exactly.
	fabric   *Fabric
	path     []*trunk
	flow     *flowStat
	destHost string
}

// SetMetrics attaches a metrics registry: Send accounts net.bytes_sent,
// net.sends and net.busy_ns counters, plus a net.bandwidth_bps histogram
// weighted by transfer duration (so its weighted mean is the effective
// utilized bandwidth). A nil registry detaches.
func (l *Link) SetMetrics(m *obs.Metrics) { l.metrics = m }

// SetFaults attaches a fault injector: partition windows make SendErr fail
// with ErrPartitioned and bandwidth-collapse windows scale Bandwidth by the
// rule's factor. A nil injector (the default) changes nothing.
func (l *Link) SetFaults(inj *faults.Injector) { l.faults = inj }

// NewLink returns a link with the given payload bandwidth (bytes/sec) and
// one-way latency.
func NewLink(clock *simclock.Clock, bandwidth uint64, latency time.Duration) *Link {
	if bandwidth == 0 {
		panic("netsim: zero-bandwidth link")
	}
	return &Link{clock: clock, bandwidth: bandwidth, latency: latency}
}

// Bandwidth returns the link's current payload bandwidth in bytes/sec,
// after modulation and any fault-injected bandwidth collapse.
func (l *Link) Bandwidth() uint64 {
	bw := l.bandwidth
	if l.Modulator != nil {
		bw = uint64(float64(bw) * checkModFactor(l.Modulator(l.clock.Now())))
	}
	if f := l.faults.BandwidthFactor(); f < 1 {
		bw = uint64(float64(bw) * f)
	}
	if bw == 0 {
		bw = 1
	}
	return bw
}

// checkModFactor validates a Modulator return value. The legal range is
// (0, 1]; anything else — including NaN, which slips through naive "f <= 0
// || f > 1" comparisons because every comparison with NaN is false — would
// corrupt transfer-cost arithmetic silently, so it panics instead.
func checkModFactor(f float64) float64 {
	if !(f > 0 && f <= 1) { // NaN fails this too: !(false) = panic
		panic(fmt.Sprintf("netsim: modulator factor %v out of (0,1]", f))
	}
	return f
}

// TransferTime returns the virtual time needed to push n payload bytes
// through the link at its current bandwidth, excluding latency. It is
// idealTransferTime, the cost formula fabric flows are measured against.
func (l *Link) TransferTime(n uint64) time.Duration {
	return idealTransferTime(n, l.Bandwidth())
}

// Send accounts for a transfer of n payload bytes and returns its duration
// (excluding latency). The caller advances the clock; Send only does the
// bookkeeping so that per-iteration transfer rates can be reported
// (Figure 1's "transfer rate" series).
func (l *Link) Send(n uint64) time.Duration {
	d := l.TransferTime(n)
	if m := l.metrics; m != nil {
		m.Counter("net.bytes_sent").Add(int64(n))
		m.Counter("net.sends").Inc()
		m.Counter("net.busy_ns").AddDuration(d)
		m.Histogram("net.bandwidth_bps").ObserveWeighted(float64(l.Bandwidth()), d)
	}
	return d
}

// SendErr is Send under fault injection: while a partition window is
// active it fails with ErrPartitioned, carrying no bytes and costing no
// busy time. The migration engine sends through this path so partitions
// surface as retryable errors; Send keeps the legacy always-succeeds
// contract for callers with no fault story (e.g. the replication stream).
func (l *Link) SendErr(n uint64) (time.Duration, error) {
	if err := l.refusal(); err != nil {
		return 0, err
	}
	return l.Send(n), nil
}

// refusal returns why a send must be refused now, counting the refusal in
// net.failed_sends, or nil when the send may go: ErrHostDown while the
// port's destination host is down, ErrPartitioned while a partition window
// holds the link down.
func (l *Link) refusal() error {
	var err error
	switch {
	case l.hostDown():
		err = ErrHostDown
	case l.faults.LinkDown():
		err = ErrPartitioned
	default:
		return nil
	}
	if m := l.metrics; m != nil {
		m.Counter("net.failed_sends").Inc()
	}
	return err
}

// hostDown reports whether the port's destination host is inside a
// host.crash fault window. Only fabric ports have a destination identity;
// plain links always report false.
func (l *Link) hostDown() bool {
	return l.fabric != nil && l.fabric.hostFaults.HostDown(l.destHost)
}

// RoundTrip returns the cost of a small control-message round trip: twice
// the latency. The migration workflow's control messages (skip-over queries,
// suspension-ready notifications) ride on this.
func (l *Link) RoundTrip() time.Duration { return 2 * l.latency }
