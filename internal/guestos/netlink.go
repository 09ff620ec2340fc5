// Package guestos implements the guest-side half of the application-assisted
// live migration framework (paper §3): the netlink-style message bus between
// the kernel and applications, the /proc control interface, and the Loadable
// Kernel Module (LKM) that owns the transfer bitmap, performs VA→PFN
// translation, and coordinates the migration workflow.
package guestos

import (
	"fmt"
	"strings"

	"javmm/internal/faults"
	"javmm/internal/mem"
	"javmm/internal/obs"
)

// AppID identifies an application process to the LKM, like a PID on the
// netlink socket.
type AppID int

// Netlink message types, mirroring Figure 4 of the paper.
type (
	// MsgQuerySkipAreas is multicast by the LKM when migration begins:
	// "skip-over areas?".
	MsgQuerySkipAreas struct{}

	// MsgPrepareSuspension is multicast by the LKM before the last
	// iteration: "prep. for suspension! skip-over areas?".
	MsgPrepareSuspension struct{}

	// MsgVMResumed is multicast by the LKM after the VM resumes at the
	// destination: "VM resumed!".
	MsgVMResumed struct{}

	// MsgReportAreas is an application's response to MsgQuerySkipAreas,
	// carrying the current VA ranges of its skip-over areas.
	MsgReportAreas struct {
		App   AppID
		Areas []mem.VARange
	}

	// MsgAreaShrunk notifies the LKM that VA ranges left a skip-over area
	// (paper §3.3.4: shrink must be reported immediately).
	MsgAreaShrunk struct {
		App  AppID
		Left []mem.VARange
	}

	// MsgSuspensionReady is an application's "ready for suspension!"
	// response, carrying the final VA ranges of its skip-over areas. For
	// JAVMM this is the post-GC young generation minus the occupied From
	// space (paper §4.3.2).
	MsgSuspensionReady struct {
		App   AppID
		Areas []mem.VARange
	}
)

// Socket is an application's endpoint on the netlink multicast group. The
// application receives LKM multicasts through the handler it subscribed with
// and sends messages to the kernel with Send.
type Socket struct {
	bus *Bus
	app AppID
}

// App returns the application ID bound to the socket.
func (s *Socket) App() AppID { return s.app }

// Send delivers a message from the application to the kernel (the LKM).
// Under fault injection a message can be silently dropped (netlink.loss) or
// delivered after a delay of virtual time (netlink.delay) — late messages
// arrive in whatever LKM state holds by then, exercising the workflow's
// invalid-message handling.
func (s *Socket) Send(msg any) error {
	if s.bus.kernel == nil {
		return fmt.Errorf("guestos: netlink send from app %d: no kernel receiver", s.app)
	}
	if s.bus.faults.Fire(faults.SiteNetlinkLoss) {
		s.bus.dropped++
		return nil
	}
	if t := s.bus.tracer; t != nil {
		t.Emit(obs.TrackNetlink, obs.KindNetlink, msgName(msg), nil,
			obs.Str("dir", "send"), obs.Int("app", int(s.app)))
	}
	if r, ok := s.bus.faults.FireRule(faults.SiteNetlinkDelay); ok {
		s.bus.delayed++
		bus, app := s.bus, s.app
		bus.faults.After(r.Delay, func() {
			if bus.kernel != nil {
				bus.toKernel++
				bus.kernel(app, msg)
			}
		})
		return nil
	}
	s.bus.toKernel++
	s.bus.kernel(s.app, msg)
	return nil
}

// Close removes the socket from the multicast group. A closed socket's
// application stops receiving LKM queries — from the framework's point of
// view it behaves like an application that exited.
func (s *Socket) Close() {
	delete(s.bus.subs, s.app)
}

// Bus is the netlink multicast group shared by the LKM and applications
// (paper §3.3.1: bi-directional, asynchronous, capable of multicasting).
type Bus struct {
	subs     map[AppID]func(msg any)
	kernel   func(from AppID, msg any)
	nextID   AppID
	toKernel uint64
	toApps   uint64
	dropped  uint64
	delayed  uint64
	tracer   *obs.Tracer
	faults   *faults.Injector
}

// SetTracer attaches a tracer: every kernel-bound send and every multicast
// is recorded as a netlink.msg event on the netlink track, named after the
// message type. A nil tracer detaches.
func (b *Bus) SetTracer(t *obs.Tracer) { b.tracer = t }

// SetFaults attaches a fault injector: kernel-bound sends and individual
// multicast deliveries become subject to netlink.loss (dropped) and
// netlink.delay (late delivery) rules. A nil injector changes nothing.
func (b *Bus) SetFaults(inj *faults.Injector) { b.faults = inj }

// msgName renders a message's type name without the package prefix
// ("MsgReportAreas", not "guestos.MsgReportAreas").
func msgName(msg any) string {
	name := fmt.Sprintf("%T", msg)
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		name = name[i+1:]
	}
	return name
}

// NewBus returns an empty multicast group.
func NewBus() *Bus {
	return &Bus{subs: make(map[AppID]func(msg any)), nextID: 1}
}

// BindKernel installs the kernel-side receiver (the LKM).
func (b *Bus) BindKernel(fn func(from AppID, msg any)) { b.kernel = fn }

// Subscribe adds an application to the multicast group and returns its
// socket. The handler receives every LKM multicast.
func (b *Bus) Subscribe(handler func(msg any)) *Socket {
	id := b.nextID
	b.nextID++
	b.subs[id] = handler
	return &Socket{bus: b, app: id}
}

// Multicast delivers msg to every subscribed application, in subscription
// order (deterministic iteration). Each delivery is individually subject to
// loss and delay faults, so one application can miss a query the others
// received.
func (b *Bus) Multicast(msg any) {
	if b.tracer != nil {
		b.tracer.Emit(obs.TrackNetlink, obs.KindNetlink, msgName(msg), nil,
			obs.Str("dir", "multicast"), obs.Int("subscribers", len(b.subs)))
	}
	// Iterate in AppID order for determinism.
	for id := AppID(1); id < b.nextID; id++ {
		h, ok := b.subs[id]
		if !ok {
			continue
		}
		if b.faults.Fire(faults.SiteNetlinkLoss) {
			b.dropped++
			continue
		}
		if r, ok := b.faults.FireRule(faults.SiteNetlinkDelay); ok {
			b.delayed++
			h := h
			b.faults.After(r.Delay, func() {
				b.toApps++
				h(msg)
			})
			continue
		}
		b.toApps++
		h(msg)
	}
}

// Subscribers returns the number of live subscriptions.
func (b *Bus) Subscribers() int { return len(b.subs) }

// Stats returns (messages to kernel, multicast deliveries to apps).
func (b *Bus) Stats() (toKernel, toApps uint64) { return b.toKernel, b.toApps }

// FaultStats returns (messages dropped, messages delayed) by injection.
func (b *Bus) FaultStats() (dropped, delayed uint64) { return b.dropped, b.delayed }
