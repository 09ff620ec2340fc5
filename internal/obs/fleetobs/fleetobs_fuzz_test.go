package fleetobs

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"javmm/internal/simclock"
)

// FuzzReadFleetSnapshotJSON: reading a fleet metrics snapshot never panics,
// and whatever it accepts re-exports stably: reading the first export and
// exporting again must give the same bytes.
func FuzzReadFleetSnapshotJSON(f *testing.F) {
	clock := simclock.New()
	c := New(clock)
	vm := c.AttachVM("vm0")
	vm.Metrics.Counter("migration.pages_sent").Add(1024)
	vm.Metrics.Gauge("workload.ops_per_sec").Set(0.25)
	clock.Advance(time.Second)
	vm.Metrics.Histogram("net.bandwidth_bps").Observe(1.17e8)
	c.FleetMetrics().Counter("fleet.heal.retries").Inc()
	var seed bytes.Buffer
	if err := WriteSnapshotJSON(&seed, c.Snapshot()); err != nil {
		f.Fatal(err)
	}
	for _, s := range []string{
		seed.String(),
		`{}`,
		`{"vms":null,"fleet":{"At":-1}}`,
		`{"vms":[{"name":"a","metrics":{"Counters":[{"Name":"c","Value":-9223372036854775808}]}},{"name":"a"}]}`,
		`{"fleet":{"Histograms":[{"Name":"h","Count":18446744073709551615,"Sum":-1e308,"P99":5e-324}]}}`,
		`{"vms":[{"name":"tab\there \"q\" é \u0001"}]} trailing`,
		`{"vms":{}}`,
		"{not json}",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		s, err := ReadSnapshotJSON(strings.NewReader(text))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := WriteSnapshotJSON(&first, s); err != nil {
			t.Fatal(err)
		}
		again, err := ReadSnapshotJSON(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("export of an accepted snapshot does not read back: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := WriteSnapshotJSON(&second, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("re-export differs:\nfirst:  %s\nsecond: %s", first.Bytes(), second.Bytes())
		}
	})
}
