package fleet

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"
)

const testClusterText = `
# two racks, one backbone
host h1 rack a ram 8G nic 1G
host h2 rack a ram 8G
host h3 rack b ram 16G
host h4 rack b ram 16G
link backbone bw 117M lat 100us hosts h1,h2,h3,h4
vm web on h1 workload compress mem 1G cycle 60s/40s/15s/0.1
vm db on h1 workload derby mem 2G
vm batch on h2 workload mpeg mem 1G
`

func TestParseCluster(t *testing.T) {
	c, err := ParseCluster(testClusterText)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Hosts) != 4 || len(c.Links) != 1 || len(c.VMs) != 3 {
		t.Fatalf("parsed %d hosts, %d links, %d VMs", len(c.Hosts), len(c.Links), len(c.VMs))
	}
	h1, ok := c.Host("h1")
	if !ok || h1.Rack != "a" || h1.RAMBytes != 8<<30 || h1.NICBandwidth != 1<<30 {
		t.Fatalf("h1 = %+v", h1)
	}
	if got := c.RackHosts("b"); !reflect.DeepEqual(got, []string{"h3", "h4"}) {
		t.Fatalf("rack b hosts = %v", got)
	}
	l := c.Links[0]
	if l.Bandwidth != 117<<20 || l.Latency != 100*time.Microsecond || len(l.Hosts) != 4 {
		t.Fatalf("link = %+v", l)
	}
	web, ok := c.VM("web")
	if !ok || web.Host != "h1" || web.MemBytes != 1<<30 || web.Workload != "compress" {
		t.Fatalf("web = %+v", web)
	}
	if !web.Cycle.Enabled() || web.Cycle.Period != 60*time.Second ||
		web.Cycle.QuietStart != 40*time.Second || web.Cycle.QuietLen != 15*time.Second ||
		web.Cycle.QuietFactor != 0.1 {
		t.Fatalf("web cycle = %+v", web.Cycle)
	}
	prof, err := web.Profile()
	if err != nil {
		t.Fatal(err)
	}
	if prof.Name != "compress" || !prof.Cycle.Enabled() {
		t.Fatalf("resolved profile %q cycle %+v", prof.Name, prof.Cycle)
	}
}

func TestParseClusterDefaultsAndErrors(t *testing.T) {
	// No links declared: a default backbone is synthesized over all hosts.
	c, err := ParseCluster("host a; host b; vm v on a")
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Links) != 1 || c.Links[0].Name != "backbone" || len(c.Links[0].Hosts) != 2 {
		t.Fatalf("synthesized links = %+v", c.Links)
	}
	if v, _ := c.VM("v"); v.memBytes() != 2<<30 || v.workloadName() != "derby" {
		t.Fatalf("vm defaults = %+v", v)
	}

	for _, bad := range []string{
		"frob a",              // unknown statement
		"host a; host a",      // duplicate host
		"host a; vm v on zzz", // unknown placement
		"host a; link l bw 1G hosts a,zzz; vm v on a",    // unknown link host
		"host a; link l bw 1G hosts a",                   // single-ended link
		"host a ram 1G; vm v on a mem 2G",                // overcommit
		"host a; vm v on a workload nosuch",              // unknown workload
		"host a; vm v on a cycle 60s/70s/10s/0.1",        // quiet start past period
		"host a; vm v on a cycle 60s/0s/10s/1.5",         // factor out of range
		"host a ram",                                     // dangling attribute
		"host a nic 17179869184G",                        // 2^64: wraps to 0, an uncapped NIC
		"host a; vm v on a mem 16777216T",                // 2^64: wraps to 0, the 2 GiB default
		"host a ram 20000000T",                           // wraps to 3.5e18
		"host a; host b; link l bw 1G lat -5s hosts a,b", // negative latency
		"host a; vm v on a cycle 60s/40s/15s/NaN",        // NaN factor passes a range check
		"host a; vm v on a cycle 0s/0s/10s/0.5",          // a declared cycle with no period
	} {
		if _, err := ParseCluster(bad); err == nil {
			t.Errorf("ParseCluster(%q) succeeded, want error", bad)
		}
	}
}

func TestParsePlanAndCompileEvacuate(t *testing.T) {
	c, err := ParseCluster(testClusterText)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ParseMigrationPlan("evacuate host h1")
	if err != nil {
		t.Fatal(err)
	}
	moves, err := p.Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) != 2 {
		t.Fatalf("%d moves, want 2 (web, db)", len(moves))
	}
	// Best fit: h3 and h4 both have 16G free; ties break by declaration
	// order, and capacity accounting interleaves the two placements.
	if moves[0].VM.Name != "web" || moves[0].From != "h1" || moves[0].To != "h3" {
		t.Fatalf("move 0 = %+v", moves[0])
	}
	if moves[1].VM.Name != "db" || moves[1].To != "h4" {
		t.Fatalf("move 1 = %+v (want db onto the now-freer h4)", moves[1])
	}
	// Deterministic: compiling again yields the identical move list.
	again, err := p.Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(moves, again) {
		t.Fatal("recompiled plan diverges")
	}
}

func TestCompileDrainExcludesRack(t *testing.T) {
	c, err := ParseCluster(testClusterText)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ParseMigrationPlan("drain rack a")
	if err != nil {
		t.Fatal(err)
	}
	moves, err := p.Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) != 3 {
		t.Fatalf("%d moves, want all 3 VMs off rack a", len(moves))
	}
	for _, m := range moves {
		if m.To != "h3" && m.To != "h4" {
			t.Fatalf("drain placed %s on %s, inside the drained rack", m.VM.Name, m.To)
		}
	}
}

func TestCompileMigrateAndRebalance(t *testing.T) {
	c, err := ParseCluster(testClusterText)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ParseMigrationPlan("migrate vm batch to h3")
	if err != nil {
		t.Fatal(err)
	}
	moves, err := p.Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) != 1 || moves[0].VM.Name != "batch" || moves[0].To != "h3" {
		t.Fatalf("moves = %+v", moves)
	}

	// Rebalance: h1 carries 3G of 8G (37%); target 0.25 forces a move of
	// its smallest VM to the least-utilized host.
	p, err = ParseMigrationPlan("rebalance util 0.25")
	if err != nil {
		t.Fatal(err)
	}
	moves, err = p.Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) == 0 {
		t.Fatal("rebalance produced no moves for an over-target host")
	}
	if moves[0].VM.Name != "web" || moves[0].From != "h1" {
		t.Fatalf("rebalance moved %+v, want web off h1 (smallest first)", moves[0])
	}
}

func TestCompileCapacityExhaustionTyped(t *testing.T) {
	// Explicit destination without room: typed AdmissionError.
	c, err := ParseCluster("host a ram 8G; host b ram 1G; vm big on a mem 4G")
	if err != nil {
		t.Fatal(err)
	}
	p, err := ParseMigrationPlan("migrate vm big to b")
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.Compile(c)
	var adm *AdmissionError
	if !errors.As(err, &adm) {
		t.Fatalf("error %v (%T), want *AdmissionError", err, err)
	}
	if adm.Resource != "ram" || adm.Name != "b" || adm.Need != 4<<30 {
		t.Fatalf("AdmissionError = %+v", adm)
	}
	if !strings.Contains(adm.Error(), "4096 MiB") {
		t.Fatalf("error text %q lacks the shortfall", adm.Error())
	}

	// No destination at all (every other host full): typed too.
	c, err = ParseCluster("host a ram 8G; host b ram 1G; vm big on a mem 4G; vm filler on b mem 1G")
	if err != nil {
		t.Fatal(err)
	}
	p, err = ParseMigrationPlan("evacuate host a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err = p.Compile(c); !errors.As(err, &adm) {
		t.Fatalf("error %v, want *AdmissionError", err)
	}
	if adm.Resource != "destination" {
		t.Fatalf("AdmissionError resource = %q, want destination", adm.Resource)
	}
}

func TestParsePlanErrors(t *testing.T) {
	for _, bad := range []string{
		"evacuate h1",          // missing "host"
		"drain host h1",        // wrong keyword
		"rebalance util 1.5",   // out of range
		"rebalance util NaN",   // NaN passes a range check
		"migrate web to h3",    // missing "vm"
		"migrate vm web off",   // bad tail
		"defragment the array", // unknown directive
	} {
		if _, err := ParseMigrationPlan(bad); err == nil {
			t.Errorf("ParseMigrationPlan(%q) succeeded, want error", bad)
		}
	}
	p, err := ParseMigrationPlan("  # comments and blanks only\n\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Directives) != 0 {
		t.Fatalf("empty plan parsed %d directives", len(p.Directives))
	}
}
