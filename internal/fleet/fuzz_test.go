package fleet

import (
	"math/big"
	"strings"
	"testing"

	"javmm/internal/workload"
)

// Fuzz targets for the fleet's input grammars. The cluster grammar is the
// only way to declare a fleet from a command line, and the plan and breaker
// grammars ride along on the same flags, so each parser must never panic
// and may only accept what the orchestrator can run.

// FuzzParseCluster: parsing never panics; an accepted cluster passes
// Validate, every size is exactly its digits times its binary suffix (no
// wrap past 2^64), every latency is non-negative, and every declared cycle
// has a period and a factor in (0, 1].
func FuzzParseCluster(f *testing.F) {
	for _, s := range []string{
		testClusterText,
		"host a; host b; vm v on a",
		"host a nic 17179869184G",
		"host a; vm v on a mem 16777216T",
		"host a ram 20000000T",
		"host a; host b; link l bw 1G lat -5s hosts a,b",
		"host a; vm v on a cycle 60s/40s/15s/NaN",
		"host a; vm v on a cycle 0s/0s/10s/0.5",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		c, err := ParseCluster(text)
		if err != nil {
			return
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("accepted cluster fails Validate: %v", err)
		}
		checkSizes(t, text, c)
		for _, l := range c.Links {
			if l.Latency < 0 {
				t.Fatalf("link %q: negative latency %v", l.Name, l.Latency)
			}
		}
		for _, v := range c.VMs {
			cyc := v.Cycle
			if cyc != (workload.CycleSpec{}) &&
				!(cyc.Period > 0 && cyc.QuietFactor > 0 && cyc.QuietFactor <= 1) {
				t.Fatalf("vm %q: cycle %+v", v.Name, cyc)
			}
		}
	})
}

// checkSizes re-derives every size attribute of the text in arbitrary
// precision and compares it with the parsed field (the last occurrence of a
// repeated attribute wins, as in the parser).
func checkSizes(t *testing.T, text string, c *Cluster) {
	t.Helper()
	var hosts, links, vms int
	for _, stmt := range splitStatements(text) {
		toks := strings.Fields(stmt)
		var fields map[string]uint64
		switch toks[0] {
		case "host":
			h := c.Hosts[hosts]
			hosts++
			fields = map[string]uint64{"ram": h.RAMBytes, "nic": h.NICBandwidth}
			toks = toks[2:]
		case "link":
			l := c.Links[links]
			links++
			fields = map[string]uint64{"bw": l.Bandwidth}
			toks = toks[2:]
		case "vm":
			v := c.VMs[vms]
			vms++
			fields = map[string]uint64{"mem": v.MemBytes}
			toks = toks[4:]
		}
		last := map[string]string{}
		for k := 0; k+1 < len(toks); k += 2 {
			last[toks[k]] = toks[k+1]
		}
		for key, val := range last {
			got, ok := fields[key]
			if !ok {
				continue
			}
			if want := exactSize(val); want == nil || !want.IsUint64() || want.Uint64() != got {
				t.Fatalf("%q: %s %s parsed to %d, want %v", stmt, key, val, got, want)
			}
		}
	}
}

// exactSize is parseSize's reference: the digits times the binary suffix,
// without overflow (nil when the digits do not parse).
func exactSize(s string) *big.Int {
	mult := int64(1)
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
	if mult > 1 {
		s = s[:len(s)-1]
	}
	n, ok := new(big.Int).SetString(s, 10)
	if !ok {
		return nil
	}
	return n.Mul(n, big.NewInt(mult))
}

// FuzzParseMigrationPlan: parsing never panics, an accepted rebalance has a
// utilization target in (0, 1], and an accepted plan compiles (or refuses
// with an error) against a real cluster without panicking.
func FuzzParseMigrationPlan(f *testing.F) {
	for _, s := range []string{
		"evacuate host h1",
		"drain rack a; rebalance util 0.5; migrate vm web to h3",
		"rebalance",
		"rebalance util NaN",
		"rebalance util 1.5",
		"migrate vm db",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		p, err := ParseMigrationPlan(text)
		if err != nil {
			return
		}
		for _, d := range p.Directives {
			if d.Kind == DirectiveRebalance && !(d.TargetUtil > 0 && d.TargetUtil <= 1) {
				t.Fatalf("rebalance accepted with util %v", d.TargetUtil)
			}
		}
		c, err := ParseCluster(testClusterText)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = p.Compile(c) // a typed refusal is an answer; only a panic fails
	})
}

// FuzzParseBreakerPolicy: parsing never panics and every accepted policy
// round-trips through String.
func FuzzParseBreakerPolicy(f *testing.F) {
	for _, s := range []string{"3/2m/5m", "off", "2/30s/5s", "+3/1.5ns/2562047h47m16.854775807s", "0/1s/1s", "3/-1s/1s"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParseBreakerPolicy(s)
		if err != nil {
			return
		}
		q, err := ParseBreakerPolicy(p.String())
		if err != nil || q != p {
			t.Fatalf("ParseBreakerPolicy(%q) = %+v; its String %q parses to %+v, %v", s, p, p.String(), q, err)
		}
	})
}
