package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Interchange formats: reading traces and metrics back from their exported
// forms (for offline tooling like javmm-analyze), and rendering a metrics
// snapshot in Prometheus text exposition format. Everything here is
// deterministic: parsed attributes are sorted by key, and all output is
// fixed-format — same input, byte-identical output.

// jsonlEvent mirrors one WriteJSONL line for decoding.
type jsonlEvent struct {
	Seq   int                        `json:"seq"`
	AtNs  int64                      `json:"at_ns"`
	Track string                     `json:"track"`
	Kind  string                     `json:"kind"`
	Name  string                     `json:"name"`
	Phase string                     `json:"phase"`
	Attrs map[string]json.RawMessage `json:"attrs"`
}

// ReadJSONL parses a trace written by WriteJSONL back into events.
// Attribute values come back as the JSON types allow: bool, string, int64
// (integral numbers) or float64 — Duration attrs, exported as integer
// nanoseconds, read back as int64. The one integral literal that is not an
// int64 is `-0`: WriteJSONL writes it only for a float64 negative zero, so
// it reads back as one. Attrs are sorted by key (JSON objects carry no
// order), and Data payloads are gone: they were never exported.
func ReadJSONL(r io.Reader) ([]Event, error) {
	var events []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		raw := strings.TrimSpace(sc.Text())
		if raw == "" {
			continue
		}
		var je jsonlEvent
		if err := json.Unmarshal([]byte(raw), &je); err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
		}
		e := Event{
			Seq:   je.Seq,
			At:    time.Duration(je.AtNs),
			Track: je.Track,
			Kind:  Kind(je.Kind),
			Name:  je.Name,
			Phase: Phase(je.Phase),
		}
		if len(je.Attrs) > 0 {
			keys := make([]string, 0, len(je.Attrs))
			for k := range je.Attrs {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				v, err := decodeAttrValue(je.Attrs[k])
				if err != nil {
					return nil, fmt.Errorf("obs: trace line %d, attr %q: %w", line, k, err)
				}
				e.Attrs = append(e.Attrs, Attr{Key: k, Val: v})
			}
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: reading trace: %w", err)
	}
	return events, nil
}

func decodeAttrValue(raw json.RawMessage) (any, error) {
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, err
	}
	if n, ok := v.(json.Number); ok {
		if i, err := strconv.ParseInt(n.String(), 10, 64); err == nil && (i != 0 || n[0] != '-') {
			return i, nil
		}
		return n.Float64()
	}
	return v, nil
}

// AttrValue returns the value of the named attribute, or nil when absent.
func (e Event) AttrValue(key string) any {
	for _, a := range e.Attrs {
		if a.Key == key {
			return a.Val
		}
	}
	return nil
}

// WriteMetricsJSON writes a snapshot as indented JSON, the machine-readable
// companion of the CLI's metrics table. Sections are sorted by construction,
// so the output is byte-deterministic.
func WriteMetricsJSON(w io.Writer, s MetricsSnapshot) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ReadMetricsJSON parses a snapshot written by WriteMetricsJSON.
func ReadMetricsJSON(r io.Reader) (MetricsSnapshot, error) {
	var s MetricsSnapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return MetricsSnapshot{}, fmt.Errorf("obs: reading metrics snapshot: %w", err)
	}
	return s, nil
}

// WritePrometheus renders a snapshot in Prometheus text exposition format
// (version 0.0.4), for scraping or offline ingestion. Instrument names are
// prefixed javmm_ and sanitized (dots become underscores). Counters map to
// counter metrics; gauges to a gauge plus a _timeweighted_mean companion;
// histograms to a summary with exact quantiles plus _min and _max gauges.
//
// Emission order is name-sorted per section regardless of the snapshot's
// slice order: Metrics.Snapshot sorts already, but snapshots also arrive
// from JSON files and hand construction, and the byte-identical-output
// guarantee (the trajectory tooling diffs this text) must not depend on the
// producer.
//
// WritePrometheus is the single-snapshot, unlabeled form of
// WritePrometheusLabeled; the two produce identical bytes for one snapshot
// with no labels.
func WritePrometheus(w io.Writer, s MetricsSnapshot) error {
	return WritePrometheusLabeled(w, []LabeledSnapshot{{Snapshot: s}})
}

// Label is one name/value pair identifying a labeled snapshot's origin,
// e.g. {vm derby-0} or {link backbone}.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// LabeledSnapshot pairs a metrics snapshot with the label set stamped onto
// every series rendered from it. A fleet exports one per VM registry plus
// one for the fleet-scoped registry.
type LabeledSnapshot struct {
	Labels   []Label         `json:"labels,omitempty"`
	Snapshot MetricsSnapshot `json:"snapshot"`
}

// WritePrometheusLabeled renders N labeled snapshots as one Prometheus text
// exposition: series sharing an instrument name merge into a single metric
// family (one # TYPE header) distinguished by their label sets — no
// name-mangling like vm0_downtime_ns. The output is fully deterministic
// regardless of producer order: sections run counters, gauges, histograms;
// family names sort within a section; rows within a family sort by their
// canonical (key-sorted) label rendering, ties broken by input order. Label
// keys are sanitized to the Prometheus alphabet and values escaped per the
// exposition format.
func WritePrometheusLabeled(w io.Writer, snaps []LabeledSnapshot) error {
	type source struct {
		labels string
		snap   MetricsSnapshot
	}
	srcs := make([]source, len(snaps))
	for i, ls := range snaps {
		srcs[i] = source{labels: canonicalLabels(ls.Labels), snap: ls.Snapshot.sortedCopy()}
	}

	// rows collects, per family name, every (labelset, source) pair holding
	// the instrument, pre-sorted for emission.
	type row struct {
		labels string
		src    int
	}
	collect := func(has func(MetricsSnapshot) []string) (names []string, rows map[string][]row) {
		rows = make(map[string][]row)
		for i, s := range srcs {
			for _, name := range has(s.snap) {
				if _, ok := rows[name]; !ok {
					names = append(names, name)
				}
				rows[name] = append(rows[name], row{labels: s.labels, src: i})
			}
		}
		sort.Strings(names)
		for _, rs := range rows {
			sort.SliceStable(rs, func(i, j int) bool { return rs[i].labels < rs[j].labels })
		}
		return names, rows
	}

	bw := bufio.NewWriter(w)
	series := func(name, labels, extraK, extraV, value string) {
		bw.WriteString(name)
		if labels != "" || extraK != "" {
			bw.WriteByte('{')
			bw.WriteString(labels)
			if extraK != "" {
				if labels != "" {
					bw.WriteByte(',')
				}
				bw.WriteString(extraK)
				bw.WriteString(`="`)
				bw.WriteString(extraV)
				bw.WriteByte('"')
			}
			bw.WriteByte('}')
		}
		bw.WriteByte(' ')
		bw.WriteString(value)
		bw.WriteByte('\n')
	}

	names, rows := collect(func(s MetricsSnapshot) []string {
		out := make([]string, len(s.Counters))
		for i, c := range s.Counters {
			out[i] = c.Name
		}
		return out
	})
	for _, name := range names {
		n := promName(name)
		fmt.Fprintf(bw, "# TYPE %s counter\n", n)
		for _, r := range rows[name] {
			v, _ := srcs[r.src].snap.Counter(name)
			series(n, r.labels, "", "", strconv.FormatInt(v, 10))
		}
	}

	names, rows = collect(func(s MetricsSnapshot) []string {
		out := make([]string, len(s.Gauges))
		for i, g := range s.Gauges {
			out[i] = g.Name
		}
		return out
	})
	gauge := func(s MetricsSnapshot, name string) GaugeSample {
		for _, g := range s.Gauges {
			if g.Name == name {
				return g
			}
		}
		return GaugeSample{}
	}
	for _, name := range names {
		n := promName(name)
		fmt.Fprintf(bw, "# TYPE %s gauge\n", n)
		for _, r := range rows[name] {
			series(n, r.labels, "", "", promFloat(gauge(srcs[r.src].snap, name).Value))
		}
		fmt.Fprintf(bw, "# TYPE %s_timeweighted_mean gauge\n", n)
		for _, r := range rows[name] {
			series(n+"_timeweighted_mean", r.labels, "", "",
				promFloat(gauge(srcs[r.src].snap, name).TimeWeightedMean))
		}
	}

	names, rows = collect(func(s MetricsSnapshot) []string {
		out := make([]string, len(s.Histograms))
		for i, h := range s.Histograms {
			out[i] = h.Name
		}
		return out
	})
	for _, name := range names {
		n := promName(name)
		fmt.Fprintf(bw, "# TYPE %s summary\n", n)
		for _, r := range rows[name] {
			h, _ := srcs[r.src].snap.Histogram(name)
			series(n, r.labels, "quantile", "0.5", promFloat(h.P50))
			series(n, r.labels, "quantile", "0.95", promFloat(h.P95))
			series(n, r.labels, "quantile", "0.99", promFloat(h.P99))
			series(n+"_sum", r.labels, "", "", promFloat(h.Sum))
			series(n+"_count", r.labels, "", "", strconv.FormatUint(h.Count, 10))
		}
		fmt.Fprintf(bw, "# TYPE %s_min gauge\n", n)
		for _, r := range rows[name] {
			h, _ := srcs[r.src].snap.Histogram(name)
			series(n+"_min", r.labels, "", "", promFloat(h.Min))
		}
		fmt.Fprintf(bw, "# TYPE %s_max gauge\n", n)
		for _, r := range rows[name] {
			h, _ := srcs[r.src].snap.Histogram(name)
			series(n+"_max", r.labels, "", "", promFloat(h.Max))
		}
	}
	return bw.Flush()
}

// canonicalLabels renders a label set in its canonical form: key-sorted,
// keys sanitized to the Prometheus alphabet, values escaped (backslash,
// quote, newline per the text exposition format). The empty set renders "".
func canonicalLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.SliceStable(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(promLabelKey(l.Key))
		b.WriteString(`="`)
		b.WriteString(promLabelValue(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

// promLabelKey sanitizes a label key into [a-zA-Z0-9_] (no javmm_ prefix:
// label keys are not metric names).
func promLabelKey(k string) string {
	var b strings.Builder
	for _, r := range k {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promLabelValue escapes a label value per the exposition format.
func promLabelValue(v string) string {
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// promName sanitizes an instrument name into the Prometheus alphabet
// [a-zA-Z0-9_:], with the javmm_ namespace prefix.
func promName(name string) string {
	var b strings.Builder
	b.WriteString("javmm_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == ':':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
