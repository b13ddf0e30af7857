package export

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	snlog "repro"
	"repro/internal/datalog/ast"
	"repro/internal/datalog/eval"
	"repro/internal/serve"
)

// TestObsExportSmoke is `make obs-export-smoke`: a live serving
// session with the admin server on an ephemeral port, scraped over
// real HTTP. Pins the acceptance surface — /healthz answers, /metrics
// parses as Prometheus text and carries the serve counter families
// (queries, cache hits/misses, batch flushes) and the query-latency
// histogram buckets.
func TestObsExportSmoke(t *testing.T) {
	ctx := context.Background()
	s, err := serve.Open(ctx, `
.base link/2.
reach(X, Y) :- link(X, Y).
reach(X, Z) :- reach(X, Y), link(Y, Z).
.query reach/2.
`, snlog.Grid(3), serve.Options{Deploy: []snlog.Option{snlog.WithSeed(3)}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	adm, err := StartAdmin("127.0.0.1:0", Source{Sample: s.Families, Spans: s.Spans()})
	if err != nil {
		t.Fatal(err)
	}
	defer adm.Close()

	// Drive some traffic so every asserted family has real values:
	// writes (batch flush), a cold query (miss + eval), a repeat (hit).
	for _, f := range [][2]string{{"a", "b"}, {"b", "c"}} {
		if err := s.Inject(0, eval.NewTuple("link", ast.Symbol(f[0]), ast.Symbol(f[1]))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Query(ctx, "reach(a, X)"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query(ctx, "reach(a, X)"); err != nil {
		t.Fatal(err)
	}

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + adm.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	if code, body := get("/healthz"); code != 200 || body != "ok\n" {
		t.Fatalf("/healthz = %d %q", code, body)
	}

	code, page := get("/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	types, samples := parsePromText(t, page)
	for family, typ := range map[string]string{
		"snl_serve_queries":           "counter",
		"snl_serve_cache_hits":        "counter",
		"snl_serve_cache_misses":      "counter",
		"snl_serve_batch_flushes":     "counter",
		"snl_serve_batch_flush_size":  "counter",
		"snl_serve_read_concurrency":  "gauge",
		"snl_serve_query_latency":     "histogram",
		"snl_serve_query_spans_parse": "counter",
	} {
		if types[family] != typ {
			t.Errorf("family %s: type %q, want %q", family, types[family], typ)
		}
	}
	for _, want := range []string{
		"snl_serve_queries 2",
		"snl_serve_cache_hits 1",
		"snl_serve_cache_misses 1",
		`snl_serve_query_latency_bucket{le="+Inf"} 2`,
		"snl_serve_query_latency_count 2",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if len(samples["snl_serve_query_latency"]) < 4 {
		t.Errorf("query-latency histogram has no buckets: %v", samples["snl_serve_query_latency"])
	}
}

// /metrics and /snapshot sample providers that read the cluster's
// state, which a sync writes: scraped while a writer syncs, both pages
// must answer from a sample taken between runs. Run under -race (make
// race covers this package).
func TestMetricsScrapeDuringSyncs(t *testing.T) {
	ctx := context.Background()
	s, err := serve.Open(ctx, `
.base link/2.
reach(X, Y) :- link(X, Y).
reach(X, Z) :- reach(X, Y), link(Y, Z).
`, snlog.Grid(3), serve.Options{BatchDelay: -1, Deploy: []snlog.Option{snlog.WithSeed(3)}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	adm, err := StartAdmin("127.0.0.1:0", Source{Sample: s.Families})
	if err != nil {
		t.Fatal(err)
	}
	defer adm.Close()

	done := make(chan error, 1)
	go func() {
		for i := 0; i < 40; i++ {
			l := eval.NewTuple("link", ast.Symbol(fmt.Sprintf("v%d", i)), ast.Symbol(fmt.Sprintf("v%d", i+1)))
			if err := s.Inject(i%9, l); err != nil {
				done <- err
				return
			}
			if _, err := s.Sync(ctx); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for scrapes := 0; ; scrapes++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			if scrapes == 0 {
				t.Fatal("no scrape ran beside the syncs")
			}
			return
		default:
		}
		for _, path := range []string{"/metrics", "/snapshot"} {
			resp, err := http.Get("http://" + adm.Addr() + path)
			if err != nil {
				t.Fatalf("GET %s: %v", path, err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != 200 || (path == "/metrics" && !strings.Contains(string(body), "snl_nsim_messages")) {
				t.Fatalf("GET %s: %d %v\n%s", path, resp.StatusCode, err, body)
			}
		}
	}
}
