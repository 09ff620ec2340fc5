package fleet

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"javmm/internal/netsim"
	"javmm/internal/simclock"
	"javmm/internal/workload"
)

// The cluster model: hosts with capacity grouped into racks, a link topology
// declared on the netsim fabric, and VM placements. It is the world the
// orchestrator plans over — batch plans name hosts and racks, admission
// control counts against link and host capacity, and Cluster.Fabric turns
// the declaration into the live arbitrated network every engine migrates
// across.

// HostSpec is one physical host.
type HostSpec struct {
	// Name identifies the host; Rack groups hosts for drain plans (empty =
	// rackless).
	Name string
	Rack string
	// CPUCores and RAMBytes bound placement: the sum of resident VM memory
	// may not exceed RAMBytes. Zero means uncounted (infinite).
	CPUCores int
	RAMBytes uint64
	// NICBandwidth, when non-zero, caps the host's NIC trunk on the fabric.
	NICBandwidth uint64
}

// LinkSpec is one shared fabric link.
type LinkSpec struct {
	Name      string
	Bandwidth uint64
	Latency   time.Duration
	Hosts     []string
}

// VMSpec is one VM placement.
type VMSpec struct {
	Name string
	Host string
	// Workload names a catalog profile (default derby).
	Workload string
	// MemBytes is the VM memory (default 2 GiB).
	MemBytes uint64
	// Tuned, when non-nil, replaces the catalog profile Workload names with
	// one tuned in code (say, a capped young generation).
	Tuned *workload.Profile
	// Cycle, when enabled, overrides the profile's activity cycle — the
	// quiet-phase structure the cycle-aware scheduler exploits.
	Cycle workload.CycleSpec
}

// Cluster is the whole declared topology.
type Cluster struct {
	Hosts []HostSpec
	Links []LinkSpec
	VMs   []VMSpec
}

// Host returns the named host spec, and whether it exists.
func (c *Cluster) Host(name string) (HostSpec, bool) {
	for _, h := range c.Hosts {
		if h.Name == name {
			return h, true
		}
	}
	return HostSpec{}, false
}

// VM returns the named VM spec, and whether it exists.
func (c *Cluster) VM(name string) (VMSpec, bool) {
	for _, v := range c.VMs {
		if v.Name == name {
			return v, true
		}
	}
	return VMSpec{}, false
}

// RackHosts returns the names of the hosts in a rack, in declaration order.
func (c *Cluster) RackHosts(rack string) []string {
	var out []string
	for _, h := range c.Hosts {
		if h.Rack == rack {
			out = append(out, h.Name)
		}
	}
	return out
}

// vmsOn returns the VMs resident on a host, in declaration order.
func (c *Cluster) vmsOn(host string) []VMSpec {
	var out []VMSpec
	for _, v := range c.VMs {
		if v.Host == host {
			out = append(out, v)
		}
	}
	return out
}

// usedRAM sums the memory of the VMs resident on a host.
func (c *Cluster) usedRAM(host string) uint64 {
	var used uint64
	for _, v := range c.VMs {
		if v.Host == host {
			used += v.memBytes()
		}
	}
	return used
}

func (v VMSpec) memBytes() uint64 {
	if v.MemBytes == 0 {
		return 2 << 30
	}
	return v.MemBytes
}

func (v VMSpec) workloadName() string {
	if v.Workload == "" {
		return "derby"
	}
	return v.Workload
}

// Profile resolves the VM's workload profile (Tuned, else the catalog
// entry) with its cycle override.
func (v VMSpec) Profile() (workload.Profile, error) {
	var prof workload.Profile
	if v.Tuned != nil {
		prof = *v.Tuned
	} else {
		var err error
		if prof, err = workload.Lookup(v.workloadName()); err != nil {
			return workload.Profile{}, err
		}
	}
	if v.Cycle.Enabled() {
		prof.Cycle = v.Cycle
	}
	return prof, nil
}

// Validate checks the topology: unique names, placements on declared hosts,
// link endpoints on declared hosts, RAM capacity respected, workloads and
// cycles well-formed. When no links are declared it synthesizes a default
// gigabit "backbone" connecting every host, so minimal clusters stay
// one-liners.
func (c *Cluster) Validate() error {
	if len(c.Hosts) == 0 {
		return fmt.Errorf("fleet: cluster declares no hosts")
	}
	hosts := make(map[string]bool, len(c.Hosts))
	for _, h := range c.Hosts {
		if h.Name == "" {
			return fmt.Errorf("fleet: host with empty name")
		}
		if hosts[h.Name] {
			return fmt.Errorf("fleet: duplicate host %q", h.Name)
		}
		hosts[h.Name] = true
	}
	if len(c.Links) == 0 && len(c.Hosts) >= 2 {
		// A single-host cluster legitimately has no links; plans against it
		// fail later with a typed destination-exhaustion error, not here.
		all := make([]string, len(c.Hosts))
		for i, h := range c.Hosts {
			all[i] = h.Name
		}
		c.Links = []LinkSpec{{
			Name:      "backbone",
			Bandwidth: netsim.GigabitEffective,
			Latency:   100 * time.Microsecond,
			Hosts:     all,
		}}
	}
	links := make(map[string]bool, len(c.Links))
	for _, l := range c.Links {
		if l.Name == "" {
			return fmt.Errorf("fleet: link with empty name")
		}
		if links[l.Name] {
			return fmt.Errorf("fleet: duplicate link %q", l.Name)
		}
		links[l.Name] = true
		if l.Bandwidth == 0 {
			return fmt.Errorf("fleet: link %q has zero bandwidth", l.Name)
		}
		if len(l.Hosts) < 2 {
			return fmt.Errorf("fleet: link %q connects %d hosts (need ≥ 2)", l.Name, len(l.Hosts))
		}
		for _, h := range l.Hosts {
			if !hosts[h] {
				return fmt.Errorf("fleet: link %q references unknown host %q", l.Name, h)
			}
		}
	}
	vms := make(map[string]bool, len(c.VMs))
	for _, v := range c.VMs {
		if v.Name == "" {
			return fmt.Errorf("fleet: VM with empty name")
		}
		if vms[v.Name] {
			return fmt.Errorf("fleet: duplicate VM %q", v.Name)
		}
		vms[v.Name] = true
		if !hosts[v.Host] {
			return fmt.Errorf("fleet: VM %q placed on unknown host %q", v.Name, v.Host)
		}
		if _, err := v.Profile(); err != nil {
			return fmt.Errorf("fleet: VM %q: %w", v.Name, err)
		}
		if err := v.Cycle.Validate(); err != nil {
			return fmt.Errorf("fleet: VM %q: %w", v.Name, err)
		}
	}
	for _, h := range c.Hosts {
		if h.RAMBytes == 0 {
			continue
		}
		if used := c.usedRAM(h.Name); used > h.RAMBytes {
			return fmt.Errorf("fleet: host %q overcommitted: %d MiB of VMs in %d MiB of RAM",
				h.Name, used>>20, h.RAMBytes>>20)
		}
	}
	return nil
}

// Fabric realizes the topology on a netsim fabric: one AddHost per host
// (with its NIC cap) and one AddLink per declared link.
func (c *Cluster) Fabric(clock *simclock.Clock) *netsim.Fabric {
	f := netsim.NewFabric(clock)
	for _, h := range c.Hosts {
		f.AddHost(h.Name, h.NICBandwidth)
	}
	for _, l := range c.Links {
		f.AddLink(l.Name, l.Bandwidth, l.Latency, l.Hosts...)
	}
	return f
}

// linkBandwidth returns the declared bandwidth of a link by name (0 when
// unknown).
func (c *Cluster) linkBandwidth(name string) uint64 {
	for _, l := range c.Links {
		if l.Name == name {
			return l.Bandwidth
		}
	}
	return 0
}

// bottleneckBandwidth is the uncontended path bottleneck for a from→to
// flow: the minimum over its route's links plus both endpoints' NIC caps.
func (c *Cluster) bottleneckBandwidth(route []string, from, to string) uint64 {
	bw := uint64(0)
	consider := func(b uint64) {
		if b > 0 && (bw == 0 || b < bw) {
			bw = b
		}
	}
	for _, name := range route {
		consider(c.linkBandwidth(name))
	}
	if h, ok := c.Host(from); ok {
		consider(h.NICBandwidth)
	}
	if h, ok := c.Host(to); ok {
		consider(h.NICBandwidth)
	}
	return bw
}

// ParseCluster parses the declarative cluster grammar: statements separated
// by semicolons or newlines, tokens by whitespace. Comments run from # to
// end of line.
//
//	host H [rack R] [ram 16G] [cores 16] [nic 1G]
//	link L bw 1G [lat 100us] hosts a,b,c
//	vm V on H [workload derby] [mem 2G] [cycle <period>/<quietStart>/<quietLen>/<factor>[/<phase>]]
//
// Sizes accept K/M/G/T binary suffixes; durations use Go syntax (100us,
// 1500ms); the cycle clause declares the VM's quiet window, e.g.
// "cycle 60s/40s/15s/0.1" (60 s period, quiet 40–55 s, 10 % activity).
func ParseCluster(text string) (*Cluster, error) {
	c := &Cluster{}
	for _, stmt := range splitStatements(text) {
		toks := strings.Fields(stmt)
		if len(toks) == 0 {
			continue
		}
		switch toks[0] {
		case "host":
			h, err := parseHost(toks[1:])
			if err != nil {
				return nil, fmt.Errorf("fleet: %q: %w", stmt, err)
			}
			c.Hosts = append(c.Hosts, h)
		case "link":
			l, err := parseLink(toks[1:])
			if err != nil {
				return nil, fmt.Errorf("fleet: %q: %w", stmt, err)
			}
			c.Links = append(c.Links, l)
		case "vm":
			v, err := parseVM(toks[1:])
			if err != nil {
				return nil, fmt.Errorf("fleet: %q: %w", stmt, err)
			}
			c.VMs = append(c.VMs, v)
		default:
			return nil, fmt.Errorf("fleet: %q: unknown statement %q (want host/link/vm)", stmt, toks[0])
		}
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

func splitStatements(text string) []string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		for _, stmt := range strings.Split(line, ";") {
			if s := strings.TrimSpace(stmt); s != "" {
				out = append(out, s)
			}
		}
	}
	return out
}

func parseHost(toks []string) (HostSpec, error) {
	if len(toks) == 0 {
		return HostSpec{}, fmt.Errorf("host needs a name")
	}
	h := HostSpec{Name: toks[0]}
	toks = toks[1:]
	for len(toks) > 0 {
		if len(toks) < 2 {
			return HostSpec{}, fmt.Errorf("dangling token %q", toks[0])
		}
		key, val := toks[0], toks[1]
		toks = toks[2:]
		var err error
		switch key {
		case "rack":
			h.Rack = val
		case "ram":
			h.RAMBytes, err = parseSize(val)
		case "cores":
			h.CPUCores, err = strconv.Atoi(val)
		case "nic":
			h.NICBandwidth, err = parseSize(val)
		default:
			return HostSpec{}, fmt.Errorf("unknown host attribute %q", key)
		}
		if err != nil {
			return HostSpec{}, fmt.Errorf("host %s %s: %w", key, val, err)
		}
	}
	return h, nil
}

func parseLink(toks []string) (LinkSpec, error) {
	if len(toks) == 0 {
		return LinkSpec{}, fmt.Errorf("link needs a name")
	}
	l := LinkSpec{Name: toks[0], Latency: 100 * time.Microsecond}
	toks = toks[1:]
	for len(toks) > 0 {
		if len(toks) < 2 {
			return LinkSpec{}, fmt.Errorf("dangling token %q", toks[0])
		}
		key, val := toks[0], toks[1]
		toks = toks[2:]
		var err error
		switch key {
		case "bw":
			l.Bandwidth, err = parseSize(val)
		case "lat":
			if l.Latency, err = time.ParseDuration(val); err == nil && l.Latency < 0 {
				err = fmt.Errorf("negative latency")
			}
		case "hosts":
			l.Hosts = strings.Split(val, ",")
		default:
			return LinkSpec{}, fmt.Errorf("unknown link attribute %q", key)
		}
		if err != nil {
			return LinkSpec{}, fmt.Errorf("link %s %s: %w", key, val, err)
		}
	}
	return l, nil
}

func parseVM(toks []string) (VMSpec, error) {
	if len(toks) < 3 || toks[1] != "on" {
		return VMSpec{}, fmt.Errorf("vm needs \"vm <name> on <host>\"")
	}
	v := VMSpec{Name: toks[0], Host: toks[2]}
	toks = toks[3:]
	for len(toks) > 0 {
		if len(toks) < 2 {
			return VMSpec{}, fmt.Errorf("dangling token %q", toks[0])
		}
		key, val := toks[0], toks[1]
		toks = toks[2:]
		var err error
		switch key {
		case "workload":
			v.Workload = val
		case "mem":
			v.MemBytes, err = parseSize(val)
		case "cycle":
			v.Cycle, err = parseCycle(val)
		default:
			return VMSpec{}, fmt.Errorf("unknown vm attribute %q", key)
		}
		if err != nil {
			return VMSpec{}, fmt.Errorf("vm %s %s: %w", key, val, err)
		}
	}
	return v, nil
}

// parseCycle parses period/quietStart/quietLen/factor[/phase].
func parseCycle(spec string) (workload.CycleSpec, error) {
	parts := strings.Split(spec, "/")
	if len(parts) != 4 && len(parts) != 5 {
		return workload.CycleSpec{}, fmt.Errorf("want period/quietStart/quietLen/factor[/phase]")
	}
	var c workload.CycleSpec
	var err error
	if c.Period, err = time.ParseDuration(parts[0]); err != nil {
		return workload.CycleSpec{}, err
	}
	if c.Period <= 0 {
		return workload.CycleSpec{}, fmt.Errorf("cycle period %v is not positive", c.Period)
	}
	if c.QuietStart, err = time.ParseDuration(parts[1]); err != nil {
		return workload.CycleSpec{}, err
	}
	if c.QuietLen, err = time.ParseDuration(parts[2]); err != nil {
		return workload.CycleSpec{}, err
	}
	if c.QuietFactor, err = strconv.ParseFloat(parts[3], 64); err != nil {
		return workload.CycleSpec{}, err
	}
	if len(parts) == 5 {
		if c.Phase, err = time.ParseDuration(parts[4]); err != nil {
			return workload.CycleSpec{}, err
		}
	}
	return c, c.Validate()
}

// parseSize parses a byte (or bytes/sec) size with optional binary
// K/M/G/T suffix: "2G", "512M", "125000000". A size past 2^64-1 is an
// error, not a silent wrap.
func parseSize(s string) (uint64, error) {
	if s == "" {
		return 0, fmt.Errorf("empty size")
	}
	mult := uint64(1)
	switch s[len(s)-1] {
	case 'K', 'k':
		mult = 1 << 10
	case 'M', 'm':
		mult = 1 << 20
	case 'G', 'g':
		mult = 1 << 30
	case 'T', 't':
		mult = 1 << 40
	}
	num := s
	if mult > 1 {
		num = s[:len(s)-1]
	}
	v, err := strconv.ParseUint(num, 10, 64)
	if err != nil || v > math.MaxUint64/mult {
		return 0, fmt.Errorf("bad size %q", s)
	}
	return v * mult, nil
}
