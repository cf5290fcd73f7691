package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders every family in Prometheus text exposition format
// (version 0.0.4): `# HELP` / `# TYPE` headers followed by one line per
// series, histograms expanded into cumulative `_bucket`/`_sum`/`_count`.
// Families appear in registration order; a scrape is a consistent snapshot
// per instrument (atomics), not across the whole registry — the usual
// Prometheus contract.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	bw := bufio.NewWriter(w)
	for _, name := range r.order {
		f := r.families[name]
		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " "))
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		for _, key := range f.order {
			switch m := f.series[key].(type) {
			case *Counter:
				fmt.Fprintf(bw, "%s%s %d\n", f.name, key, m.Value())
			case *Gauge:
				fmt.Fprintf(bw, "%s%s %s\n", f.name, key, formatFloat(m.Value()))
			case *GaugeFunc:
				fmt.Fprintf(bw, "%s%s %s\n", f.name, key, formatFloat(m.Value()))
			case *Histogram:
				labels := f.labels[key]
				var cum uint64
				for i, bound := range m.bounds {
					cum += m.counts[i].Load()
					fmt.Fprintf(bw, "%s_bucket%s %d\n", f.name, withLE(labels, formatFloat(bound)), cum)
				}
				cum += m.counts[len(m.bounds)].Load()
				fmt.Fprintf(bw, "%s_bucket%s %d\n", f.name, withLE(labels, "+Inf"), cum)
				fmt.Fprintf(bw, "%s_sum%s %s\n", f.name, key, formatFloat(m.Sum()))
				fmt.Fprintf(bw, "%s_count%s %d\n", f.name, key, m.Count())
			}
		}
	}
	return bw.Flush()
}

// Handler serves the registry as a scrape endpoint (GET /metrics).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// withLE renders a label set with the histogram `le` bound appended.
func withLE(labels Labels, le string) string {
	merged := make(Labels, len(labels)+1)
	for k, v := range labels {
		merged[k] = v
	}
	merged["le"] = le
	return renderLabels(merged)
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Sample is one parsed metric line.
type Sample struct {
	Name   string // family name as written (histograms keep _bucket/_sum/_count)
	Labels Labels
	Value  float64
}

// Key renders the sample back to its canonical `name{labels}` form.
func (s Sample) Key() string { return s.Name + renderLabels(s.Labels) }

// ParseText parses Prometheus text exposition format, validating the syntax
// strictly enough to catch malformed output: every sample line must parse,
// every sampled family must have been declared by a preceding # TYPE line,
// and histogram bucket counts must be cumulative. Returns samples in file
// order. It exists so tests (and the repo's own tooling) can scrape a
// /metrics endpoint without a prometheus dependency.
func ParseText(r io.Reader) ([]Sample, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	types := make(map[string]string)
	lastBucket := make(map[string]uint64) // series key sans le -> last cumulative count
	var samples []Sample
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) >= 3 && (fields[1] == "TYPE" || fields[1] == "HELP") {
				if fields[1] == "TYPE" {
					if len(fields) < 4 {
						return nil, fmt.Errorf("obs: line %d: malformed TYPE line %q", lineNo, line)
					}
					switch fields[3] {
					case "counter", "gauge", "histogram":
					default:
						return nil, fmt.Errorf("obs: line %d: unknown metric type %q", lineNo, fields[3])
					}
					types[fields[2]] = fields[3]
				}
				continue
			}
			continue // free-form comment
		}
		s, err := parseSampleLine(line)
		if err != nil {
			return nil, fmt.Errorf("obs: line %d: %w", lineNo, err)
		}
		base := s.Name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if fam := strings.TrimSuffix(s.Name, suffix); fam != s.Name && types[fam] == "histogram" {
				base = fam
				break
			}
		}
		if _, ok := types[base]; !ok {
			return nil, fmt.Errorf("obs: line %d: sample %q precedes its # TYPE declaration", lineNo, s.Name)
		}
		if strings.HasSuffix(s.Name, "_bucket") && types[base] == "histogram" {
			rest := make(Labels, len(s.Labels))
			for k, v := range s.Labels {
				if k != "le" {
					rest[k] = v
				}
			}
			key := base + renderLabels(rest)
			if c := uint64(s.Value); c < lastBucket[key] {
				return nil, fmt.Errorf("obs: line %d: non-cumulative histogram bucket for %s", lineNo, key)
			} else {
				lastBucket[key] = c
			}
		}
		samples = append(samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return samples, nil
}

// parseSampleLine splits `name{k="v",...} value` into a Sample.
func parseSampleLine(line string) (Sample, error) {
	var s Sample
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		return s, fmt.Errorf("malformed sample %q", line)
	} else {
		s.Name = rest[:i]
		rest = rest[i:]
	}
	if s.Name == "" {
		return s, fmt.Errorf("malformed sample %q", line)
	}
	if strings.HasPrefix(rest, "{") {
		end := strings.LastIndex(rest, "}") // the last: a quoted label value may hold one
		if end < 0 {
			return s, fmt.Errorf("unterminated label set in %q", line)
		}
		var err error
		if s.Labels, err = parseLabels(rest[1:end]); err != nil {
			return s, fmt.Errorf("%v in %q", err, line)
		}
		rest = rest[end+1:]
	}
	rest = strings.TrimSpace(rest)
	v, err := parseValue(rest)
	if err != nil {
		return s, fmt.Errorf("bad value %q in %q", rest, line)
	}
	s.Value = v
	return s, nil
}

func parseLabels(body string) (Labels, error) {
	if body == "" {
		return nil, nil
	}
	labels := make(Labels)
	for _, pair := range splitLabelPairs(body) {
		eq := strings.Index(pair, "=")
		if eq < 0 {
			return nil, fmt.Errorf("malformed label pair %q", pair)
		}
		k := pair[:eq]
		v := pair[eq+1:]
		if len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
			return nil, fmt.Errorf("unquoted label value in %q", pair)
		}
		labels[k] = unescapeLabelValue(v[1 : len(v)-1])
	}
	return labels, nil
}

// splitLabelPairs splits on commas outside quoted values.
func splitLabelPairs(body string) []string {
	var out []string
	depth := false // inside quotes
	start := 0
	for i := 0; i < len(body); i++ {
		switch body[i] {
		case '\\':
			i++
		case '"':
			depth = !depth
		case ',':
			if !depth {
				out = append(out, body[start:i])
				start = i + 1
			}
		}
	}
	if start < len(body) {
		out = append(out, body[start:])
	}
	return out
}

func unescapeLabelValue(v string) string {
	if !strings.Contains(v, `\`) {
		return v
	}
	var b strings.Builder
	for i := 0; i < len(v); i++ {
		if v[i] == '\\' && i+1 < len(v) {
			i++
			switch v[i] {
			case 'n':
				b.WriteByte('\n')
			default:
				b.WriteByte(v[i])
			}
			continue
		}
		b.WriteByte(v[i])
	}
	return b.String()
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// SampleValue returns the value of the sample whose Key() matches key, and
// whether it was found — the lookup tests use after scraping.
func SampleValue(samples []Sample, key string) (float64, bool) {
	for _, s := range samples {
		if s.Key() == key {
			return s.Value, true
		}
	}
	return 0, false
}

// SampleKeys returns every sample key, sorted (diagnostic aid for tests).
func SampleKeys(samples []Sample) []string {
	keys := make([]string, 0, len(samples))
	for _, s := range samples {
		keys = append(keys, s.Key())
	}
	sort.Strings(keys)
	return keys
}
