package export

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestMetricName(t *testing.T) {
	cases := map[string]string{
		"serve.queries":           "snl_serve_queries",
		"serve.cache.hits":        "snl_serve_cache_hits",
		"core.derivations.out/2":  "snl_core_derivations_out_2",
		"already_fine":            "snl_already_fine",
		"weird name-with:symbols": "snl_weird_name_with_symbols",
	}
	for in, want := range cases {
		if got := MetricName(in); got != want {
			t.Fatalf("MetricName(%q) = %q, want %q", in, got, want)
		}
	}
}

// goldenRegistry builds the fixed registry the golden file pins: one of
// each metric kind plus a sanitization collision ("a b" vs "a.b").
func goldenRegistry() *obs.Registry {
	r := obs.NewRegistry()
	r.Counter("serve.queries").Add(42)
	r.Counter("serve.cache.hits").Add(10)
	r.Counter("a b").Add(1)
	r.Counter("a.b").Add(2)
	r.Gauge("nodes.live", func() int64 { return 9 })
	r.Provide(func(emit func(string, int64)) { emit("nsim.messages", 123) })
	h := r.Histogram("serve.query_latency", []int64{1, 2, 4})
	h.Observe(1)
	h.Observe(3)
	h.Observe(100)
	return r
}

func TestWriteMetricsGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMetrics(&buf, goldenRegistry().Families()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "metrics.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to regenerate): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("encoder output drifted from golden file:\n--- got ---\n%s--- want ---\n%s", buf.Bytes(), want)
	}
}

func TestWriteMetricsNilRegistry(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMetrics(&buf, (*obs.Registry)(nil).Families()); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("nil registry should encode to an empty page, got %q", buf.String())
	}
}

var (
	promTypeRe   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram)$`)
	promSampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{le="(\+Inf|[0-9]+)"\})? (-?[0-9]+)$`)
)

// parsePromText is a strict miniature parser for the subset of the
// Prometheus text format the encoder emits. It returns family → type
// and family → samples, failing the test on any malformed line,
// sample without a preceding TYPE line, duplicate family, or
// non-monotone histogram buckets.
func parsePromText(t *testing.T, page string) (types map[string]string, samples map[string][]string) {
	t.Helper()
	types = make(map[string]string)
	samples = make(map[string][]string)
	var lastBucket = make(map[string]int64)
	for ln, line := range strings.Split(page, "\n") {
		if line == "" {
			continue
		}
		if m := promTypeRe.FindStringSubmatch(line); m != nil {
			if _, dup := types[m[1]]; dup {
				t.Fatalf("line %d: duplicate family %q", ln+1, m[1])
			}
			types[m[1]] = m[2]
			continue
		}
		m := promSampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d: malformed sample %q", ln+1, line)
		}
		name, le, val := m[1], m[3], m[4]
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(name, suffix); base != name && types[base] == "histogram" {
				family = base
			}
		}
		if _, ok := types[family]; !ok {
			t.Fatalf("line %d: sample %q without a TYPE line", ln+1, line)
		}
		if le != "" {
			v, _ := strconv.ParseInt(val, 10, 64)
			if v < lastBucket[family] {
				t.Fatalf("line %d: histogram %q buckets not cumulative", ln+1, family)
			}
			lastBucket[family] = v
		}
		samples[family] = append(samples[family], line)
	}
	return types, samples
}

func TestWriteMetricsParses(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMetrics(&buf, goldenRegistry().Families()); err != nil {
		t.Fatal(err)
	}
	types, samples := parsePromText(t, buf.String())
	for name, typ := range map[string]string{
		"snl_serve_queries":       "counter",
		"snl_nodes_live":          "gauge",
		"snl_nsim_messages":       "gauge",
		"snl_serve_query_latency": "histogram",
	} {
		if types[name] != typ {
			t.Fatalf("family %q: type %q, want %q (types %v)", name, types[name], typ, types)
		}
	}
	// Histogram shape: one bucket per bound, +Inf, _sum, _count.
	hist := samples["snl_serve_query_latency"]
	if len(hist) != 6 {
		t.Fatalf("histogram series = %v, want 3 buckets + Inf + sum + count", hist)
	}
	wantLines := []string{
		`snl_serve_query_latency_bucket{le="1"} 1`,
		`snl_serve_query_latency_bucket{le="2"} 1`,
		`snl_serve_query_latency_bucket{le="4"} 2`,
		`snl_serve_query_latency_bucket{le="+Inf"} 3`,
		`snl_serve_query_latency_sum 104`,
		`snl_serve_query_latency_count 3`,
	}
	for i, want := range wantLines {
		if hist[i] != want {
			t.Fatalf("histogram line %d = %q, want %q", i, hist[i], want)
		}
	}
	// Collision: "a b" sorts before "a.b", so it claims snl_a_b.
	if got := samples["snl_a_b"]; len(got) != 1 || got[0] != "snl_a_b 1" {
		t.Fatalf("collision winner = %v, want the sort-first name's value 1", got)
	}
}

func TestWriteMetricsSorted(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMetrics(&buf, goldenRegistry().Families()); err != nil {
		t.Fatal(err)
	}
	var counterFamilies []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasSuffix(line, " counter") {
			counterFamilies = append(counterFamilies, line)
		}
	}
	if !sort.StringsAreSorted(counterFamilies) {
		t.Fatalf("counter families not sorted: %v", counterFamilies)
	}
}

// Guard against the encoder emitting a value format Prometheus would
// reject for large counters.
func TestWriteMetricsLargeValues(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("big").Add(1 << 62)
	var buf bytes.Buffer
	if err := WriteMetrics(&buf, r.Families()); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("snl_big %d\n", int64(1)<<62)
	if !strings.Contains(buf.String(), want) {
		t.Fatalf("page %q missing %q", buf.String(), want)
	}
}
