// Package export turns the in-process observability layer (internal/obs)
// into live, pull-based surfaces: a Prometheus text-format encoder over
// the registry and an admin HTTP server (/metrics, /healthz, /snapshot,
// /trace, /trace/query/<id>, pprof). It serves totals only: rates are
// the readers' to derive — snltop from consecutive /snapshot polls,
// Prometheus with rate() — so the layer runs no goroutine besides the
// HTTP server.
//
// The export path shares no locks with the serve read path: the metric
// pages read one registry sample (Source.Sample), which may wait for a
// sync but never for a query, so a scrape can never block a query and
// an unconfigured admin server costs the hot path nothing.
package export

import (
	"bufio"
	"io"
	"sort"
	"strconv"

	"repro/internal/obs"
)

// MetricName sanitizes a dotted registry name into a Prometheus metric
// name: every character outside [a-zA-Z0-9_] becomes '_', and the
// result is prefixed "snl_" (which also guarantees a legal leading
// character). "serve.cache.hits" → "snl_serve_cache_hits",
// "core.derivations.out/2" → "snl_core_derivations_out_2".
func MetricName(name string) string {
	b := make([]byte, 0, len(name)+4)
	b = append(b, "snl_"...)
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			b = append(b, c)
		default:
			b = append(b, '_')
		}
	}
	return string(b)
}

// WriteMetrics encodes one registry sample in Prometheus text
// exposition format (version 0.0.4): live counters as counters, gauges
// and provider samples as gauges, and histograms as native histogram
// families — cumulative `_bucket{le="..."}` series (inclusive upper
// bounds, matching the obs.Histogram convention), a `le="+Inf"`
// bucket, `_sum`, and `_count`. Families are emitted in sorted name
// order; if two registry names sanitize to the same metric name, the
// first in sort order wins and the rest are dropped (exposing a
// duplicate family would make the whole page unparseable).
func WriteMetrics(w io.Writer, f obs.Families) error {
	bw := bufio.NewWriter(w)
	seen := make(map[string]bool)

	writeScalars := func(m map[string]int64, typ string) {
		names := make([]string, 0, len(m))
		for name := range m {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			mn := MetricName(name)
			if seen[mn] {
				continue
			}
			seen[mn] = true
			bw.WriteString("# TYPE ")
			bw.WriteString(mn)
			bw.WriteString(" ")
			bw.WriteString(typ)
			bw.WriteString("\n")
			bw.WriteString(mn)
			bw.WriteString(" ")
			bw.WriteString(strconv.FormatInt(m[name], 10))
			bw.WriteString("\n")
		}
	}
	writeScalars(f.Counters, "counter")
	writeScalars(f.Gauges, "gauge")

	names := make([]string, 0, len(f.Hists))
	for name := range f.Hists {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		mn := MetricName(name)
		if seen[mn] {
			continue
		}
		seen[mn] = true
		h := f.Hists[name]
		bw.WriteString("# TYPE ")
		bw.WriteString(mn)
		bw.WriteString(" histogram\n")
		var cum int64
		for i, b := range h.Bounds {
			cum += h.Counts[i]
			bw.WriteString(mn)
			bw.WriteString(`_bucket{le="`)
			bw.WriteString(strconv.FormatInt(b, 10))
			bw.WriteString(`"} `)
			bw.WriteString(strconv.FormatInt(cum, 10))
			bw.WriteString("\n")
		}
		bw.WriteString(mn)
		bw.WriteString(`_bucket{le="+Inf"} `)
		bw.WriteString(strconv.FormatInt(h.Count, 10))
		bw.WriteString("\n")
		bw.WriteString(mn)
		bw.WriteString("_sum ")
		bw.WriteString(strconv.FormatInt(h.Sum, 10))
		bw.WriteString("\n")
		bw.WriteString(mn)
		bw.WriteString("_count ")
		bw.WriteString(strconv.FormatInt(h.Count, 10))
		bw.WriteString("\n")
	}
	return bw.Flush()
}
