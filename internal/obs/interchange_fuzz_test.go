package obs

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadJSONL: reading a trace never panics, and whatever it accepts
// re-exports stably. The first export normalizes the input (attrs sorted,
// JSON numbers typed as int64 or float64); reading that export and
// exporting again must then give the same bytes, so a trace that went
// through javmm-analyze once is a fixed point.
func FuzzReadJSONL(f *testing.F) {
	for _, s := range []string{
		`{"seq":0,"at_ns":0,"track":"migration","kind":"suspend","name":"vm-suspend","phase":"i"}`,
		`{"seq":2,"at_ns":4000000,"track":"migration","kind":"iteration","name":"iteration 1","phase":"E","attrs":{"took":1000000,"rate":1.5,"mode":"xen","last":false}}`,
		`{"seq":1,"attrs":{"x":-0.0}}`,
		`{"seq":1,"attrs":{"x":-0,"y":1e21,"z":18446744073709551615,"w":null}}`,
		`{"seq":1,"attrs":{"a":[1,"b",{"c":2}],"d":{"e":-0.0}}}`,
		`{"name":"tab\there \"quoted\" é \u0001"}` + "\n\n" + `null`,
		"{not json}",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		evs, err := ReadJSONL(strings.NewReader(text))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := WriteJSONL(&first, evs); err != nil {
			t.Fatal(err)
		}
		again, err := ReadJSONL(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("export of an accepted trace does not read back: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := WriteJSONL(&second, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("re-export differs:\nfirst:  %s\nsecond: %s", first.Bytes(), second.Bytes())
		}
	})
}
