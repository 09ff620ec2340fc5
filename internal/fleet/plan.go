package fleet

import (
	"fmt"
	"strconv"
	"strings"
)

// Batch plans: the declarative form operators hand the orchestrator.
// A plan is a list of directives; Compile resolves it against a cluster
// into concrete moves (VM, from-host, to-host) with deterministic best-fit
// destination choice, so the same plan on the same cluster always yields
// the same move list.

// DirectiveKind enumerates plan statement types.
type DirectiveKind string

// Plan directive kinds.
const (
	// DirectiveEvacuate moves every VM off one host.
	DirectiveEvacuate DirectiveKind = "evacuate"
	// DirectiveDrain evacuates every host in a rack; destinations are
	// chosen outside the rack.
	DirectiveDrain DirectiveKind = "drain"
	// DirectiveRebalance moves VMs off hosts whose RAM utilization exceeds
	// the target until every accounted host fits under it (or no move can
	// improve things).
	DirectiveRebalance DirectiveKind = "rebalance"
	// DirectiveMigrate moves one named VM to an explicit (or best-fit)
	// destination.
	DirectiveMigrate DirectiveKind = "migrate"
)

// Directive is one plan statement.
type Directive struct {
	Kind DirectiveKind
	// Target is the host (evacuate), rack (drain) or VM (migrate) name.
	Target string
	// Dest is the explicit destination host for migrate (empty = best fit).
	Dest string
	// TargetUtil is the rebalance utilization ceiling (default 0.6).
	TargetUtil float64
}

// Plan is a parsed batch plan.
type Plan struct {
	Directives []Directive
}

// Move is one concrete migration the compiled plan asks for.
type Move struct {
	VM   VMSpec
	From string
	To   string
}

// ParseMigrationPlan parses the plan grammar: statements separated by
// semicolons or newlines (# comments to end of line).
//
//	evacuate host H
//	drain rack R
//	rebalance [util 0.6]
//	migrate vm V [to H]
func ParseMigrationPlan(text string) (*Plan, error) {
	p := &Plan{}
	for _, stmt := range splitStatements(text) {
		toks := strings.Fields(stmt)
		d := Directive{}
		switch toks[0] {
		case "evacuate":
			if len(toks) != 3 || toks[1] != "host" {
				return nil, fmt.Errorf("fleet: %q: want \"evacuate host <name>\"", stmt)
			}
			d.Kind, d.Target = DirectiveEvacuate, toks[2]
		case "drain":
			if len(toks) != 3 || toks[1] != "rack" {
				return nil, fmt.Errorf("fleet: %q: want \"drain rack <name>\"", stmt)
			}
			d.Kind, d.Target = DirectiveDrain, toks[2]
		case "rebalance":
			d.Kind, d.TargetUtil = DirectiveRebalance, 0.6
			if len(toks) == 3 && toks[1] == "util" {
				u, err := strconv.ParseFloat(toks[2], 64)
				if err != nil || !(u > 0 && u <= 1) { // NaN fails both
					return nil, fmt.Errorf("fleet: %q: bad utilization %q", stmt, toks[2])
				}
				d.TargetUtil = u
			} else if len(toks) != 1 {
				return nil, fmt.Errorf("fleet: %q: want \"rebalance [util <frac>]\"", stmt)
			}
		case "migrate":
			if len(toks) != 3 && !(len(toks) == 5 && toks[3] == "to") {
				return nil, fmt.Errorf("fleet: %q: want \"migrate vm <name> [to <host>]\"", stmt)
			}
			if toks[1] != "vm" {
				return nil, fmt.Errorf("fleet: %q: want \"migrate vm <name> [to <host>]\"", stmt)
			}
			d.Kind, d.Target = DirectiveMigrate, toks[2]
			if len(toks) == 5 {
				d.Dest = toks[4]
			}
		default:
			return nil, fmt.Errorf("fleet: %q: unknown directive %q (want evacuate/drain/rebalance/migrate)", stmt, toks[0])
		}
		p.Directives = append(p.Directives, d)
	}
	if len(p.Directives) == 0 {
		return p, nil // an empty plan is valid: nothing to do
	}
	return p, nil
}

// placement tracks VM→host assignments and per-host free RAM while the
// compiler assigns destinations.
type placement struct {
	c     *Cluster
	onto  map[string]string // vm → assigned destination
	used  map[string]uint64 // host → resident+incoming RAM
	moved map[string]bool   // vm already scheduled to move
}

func newPlacement(c *Cluster) *placement {
	p := &placement{
		c:     c,
		onto:  map[string]string{},
		used:  map[string]uint64{},
		moved: map[string]bool{},
	}
	for _, h := range c.Hosts {
		p.used[h.Name] = c.usedRAM(h.Name)
	}
	return p
}

// freeRAM is the host's remaining capacity (MaxUint-ish for uncounted
// hosts).
func (p *placement) freeRAM(host string) uint64 {
	h, _ := p.c.Host(host)
	if h.RAMBytes == 0 {
		return ^uint64(0) >> 1
	}
	if p.used[host] >= h.RAMBytes {
		return 0
	}
	return h.RAMBytes - p.used[host]
}

// assign books the VM onto dest, tracking the post-plan placement: the
// destination gains the VM's memory and the source frees it. Transient
// double-residency during the copy is the runtime admission policy's
// concern, not the planner's.
func (p *placement) assign(vm VMSpec, dest string) {
	p.onto[vm.Name] = dest
	p.used[dest] += vm.memBytes()
	if p.used[vm.Host] >= vm.memBytes() {
		p.used[vm.Host] -= vm.memBytes()
	}
	p.moved[vm.Name] = true
}

// bestFit picks the destination with the most free RAM among hosts not in
// exclude, ties broken by declaration order. Returns a typed
// AdmissionError when no host fits.
func (p *placement) bestFit(vm VMSpec, exclude map[string]bool) (string, error) {
	best, bestFree := "", uint64(0)
	found := false
	for _, h := range p.c.Hosts {
		if h.Name == vm.Host || exclude[h.Name] {
			continue
		}
		free := p.freeRAM(h.Name)
		if free < vm.memBytes() {
			continue
		}
		if !found || free > bestFree {
			best, bestFree, found = h.Name, free, true
		}
	}
	if !found {
		return "", &AdmissionError{VM: vm.Name, Resource: "destination", Need: vm.memBytes()}
	}
	return best, nil
}

// Compile resolves the plan against the cluster into concrete moves, in
// deterministic directive-then-declaration order. Destination choice is
// best-fit by free RAM with capacity accounting across the whole batch;
// impossible placements surface as typed *AdmissionError values.
func (p *Plan) Compile(c *Cluster) ([]Move, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	pl := newPlacement(c)
	var moves []Move

	addMove := func(vm VMSpec, dest string) {
		pl.assign(vm, dest)
		moves = append(moves, Move{VM: vm, From: vm.Host, To: dest})
	}
	evacuate := func(host string, exclude map[string]bool) error {
		for _, vm := range c.vmsOn(host) {
			if pl.moved[vm.Name] {
				continue
			}
			dest, err := pl.bestFit(vm, exclude)
			if err != nil {
				return err
			}
			addMove(vm, dest)
		}
		return nil
	}

	for _, d := range p.Directives {
		switch d.Kind {
		case DirectiveEvacuate:
			if _, ok := c.Host(d.Target); !ok {
				return nil, fmt.Errorf("fleet: evacuate: unknown host %q", d.Target)
			}
			if err := evacuate(d.Target, map[string]bool{d.Target: true}); err != nil {
				return nil, err
			}
		case DirectiveDrain:
			hosts := c.RackHosts(d.Target)
			if len(hosts) == 0 {
				return nil, fmt.Errorf("fleet: drain: no hosts in rack %q", d.Target)
			}
			exclude := map[string]bool{}
			for _, h := range hosts {
				exclude[h] = true
			}
			for _, h := range hosts {
				if err := evacuate(h, exclude); err != nil {
					return nil, err
				}
			}
		case DirectiveRebalance:
			if err := rebalance(c, pl, d.TargetUtil, addMove); err != nil {
				return nil, err
			}
		case DirectiveMigrate:
			vm, ok := c.VM(d.Target)
			if !ok {
				return nil, fmt.Errorf("fleet: migrate: unknown VM %q", d.Target)
			}
			if pl.moved[vm.Name] {
				return nil, fmt.Errorf("fleet: migrate: VM %q already moved by an earlier directive", vm.Name)
			}
			dest := d.Dest
			if dest == "" {
				var err error
				if dest, err = pl.bestFit(vm, map[string]bool{vm.Host: true}); err != nil {
					return nil, err
				}
			} else {
				if _, ok := c.Host(dest); !ok {
					return nil, fmt.Errorf("fleet: migrate: unknown destination host %q", dest)
				}
				if dest == vm.Host {
					return nil, fmt.Errorf("fleet: migrate: VM %q is already on %q", vm.Name, dest)
				}
				if free := pl.freeRAM(dest); free < vm.memBytes() {
					return nil, &AdmissionError{
						VM: vm.Name, Resource: "ram", Name: dest,
						Need: vm.memBytes(), Have: free,
					}
				}
			}
			addMove(vm, dest)
		}
	}
	return moves, nil
}

// rebalance greedily moves VMs (smallest first) off hosts whose RAM
// utilization exceeds the target onto the least-utilized host with room,
// until every accounted host fits or no move helps. Deterministic: hosts
// and VMs are visited in declaration order.
func rebalance(c *Cluster, pl *placement, target float64, addMove func(VMSpec, string)) error {
	util := func(host string) float64 {
		h, _ := c.Host(host)
		if h.RAMBytes == 0 {
			return 0
		}
		return float64(pl.used[host]) / float64(h.RAMBytes)
	}
	for pass := 0; pass < len(c.VMs)+1; pass++ {
		moved := false
		for _, h := range c.Hosts {
			if h.RAMBytes == 0 || util(h.Name) <= target {
				continue
			}
			// Smallest still-resident VM first: least disruption per move.
			var pick *VMSpec
			for i := range c.VMs {
				vm := &c.VMs[i]
				if vm.Host != h.Name || pl.moved[vm.Name] {
					continue
				}
				if pick == nil || vm.memBytes() < pick.memBytes() {
					pick = vm
				}
			}
			if pick == nil {
				continue
			}
			// Least-utilized destination with room that stays under target.
			best, bestUtil := "", 0.0
			for _, d := range c.Hosts {
				if d.Name == h.Name {
					continue
				}
				if pl.freeRAM(d.Name) < pick.memBytes() {
					continue
				}
				du := util(d.Name)
				if d.RAMBytes > 0 &&
					float64(pl.used[d.Name]+pick.memBytes())/float64(d.RAMBytes) > target {
					continue
				}
				if best == "" || du < bestUtil {
					best, bestUtil = d.Name, du
				}
			}
			if best == "" {
				continue // no destination improves this host; leave it
			}
			addMove(*pick, best)
			moved = true
		}
		if !moved {
			return nil
		}
	}
	return nil
}
