package faults

import (
	"reflect"
	"strings"
	"testing"
)

// parseSeeds covers every site, every option and the host= windows, plus
// malformed specs near the grammar's edges.
var parseSeeds = []string{
	"link.partition@10s,for=2s",
	"link.bandwidth@5s,for=1s,factor=0.1",
	"dest.receive#3,count=2",
	"netlink.delay#1,delay=50ms",
	"netlink.loss@1s#2",
	"lkm.handshake",
	"dest.crash@30s",
	"postcopy.fetch#4,count=3",
	"corrupt-page-stream#5",
	"host.crash@30s,for=2m,host=d1",
	"host.flaky@10s,for=45s",
	"host.flaky,for=1s,host= d2 ",
	"host.crash@1h,for=1ns,host=a=b",
	"dest.receive,host=d1",
	"link.bandwidth,for=1s,factor=NaN",
	"link.bandwidth,for=1s,factor=1",
	"dest.receive@-1s",
	"dest.receive,for=-1s",
	"netlink.delay,delay=-5ms",
	"dest.receive#0",
	"dest.receive,count=0",
	"bogus.site",
	"@1s",
	"#1",
	",",
	"dest.receive,,count=1",
	"dest.receive,count",
	"link.partition@1s@2s,for=1s",
}

// checkRoundTrip asserts what every accepted rule must satisfy: it
// validates, and formatting it with String parses back to the same rule.
func checkRoundTrip(t *testing.T, spec string, r Rule) {
	t.Helper()
	if err := r.Validate(); err != nil {
		t.Fatalf("ParseRule(%q) accepted a rule that fails validation: %v", spec, err)
	}
	back, err := ParseRule(r.String())
	if err != nil {
		t.Fatalf("ParseRule(%q) = %+v, but its format %q does not parse: %v", spec, r, r.String(), err)
	}
	if !reflect.DeepEqual(back, r) {
		t.Fatalf("round trip of %q changed the rule: %+v -> %q -> %+v", spec, r, r.String(), back)
	}
}

// FuzzParseRule checks the fault-rule grammar: parsing never panics, and
// whatever parses validates and round-trips through Rule.String. Run with
// `go test -fuzz FuzzParseRule ./internal/faults`; the seeds run as part of
// the normal test suite.
func FuzzParseRule(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		r, err := ParseRule(spec)
		if err != nil {
			return
		}
		checkRoundTrip(t, spec, r)
	})
}

// FuzzParsePlan checks plans: the input is split on ';' into specs. A plan
// either fails to parse or validates as a whole, and each of its rules
// round-trips; re-parsing the formatted specs yields the same plan.
func FuzzParsePlan(f *testing.F) {
	f.Add(strings.Join(parseSeeds[:10], ";"))
	f.Add("host.crash@30s,for=2m,host=d1;host.flaky@10s,for=45s,host=d2;dest.receive#2")
	f.Add("")
	f.Add(";")
	f.Add("dest.receive;bogus.site")
	f.Fuzz(func(t *testing.T, in string) {
		var specs []string
		if in != "" {
			specs = strings.Split(in, ";")
		}
		plan, err := ParsePlan(specs)
		if err != nil {
			return
		}
		if err := plan.Validate(); err != nil {
			t.Fatalf("ParsePlan(%q) accepted a plan that fails validation: %v", in, err)
		}
		if len(plan) != len(specs) {
			t.Fatalf("ParsePlan(%q) returned %d rules for %d specs", in, len(plan), len(specs))
		}
		formatted := make([]string, len(plan))
		for i, r := range plan {
			checkRoundTrip(t, specs[i], r)
			formatted[i] = r.String()
		}
		back, err := ParsePlan(formatted)
		if err != nil || !reflect.DeepEqual(back, plan) {
			t.Fatalf("plan round trip of %q: %v, %+v -> %+v", in, err, plan, back)
		}
	})
}
