package export

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
)

func adminSource() Source {
	r := goldenRegistry()
	tr := obs.NewTrace(64)
	tr.Record(obs.Event{At: 1, Kind: obs.EvSend, Node: 1, Peer: 2, Pred: "join", Size: 8})
	tr.Record(obs.Event{At: 2, Kind: obs.EvRecv, Node: 2, Peer: 1, Pred: "join", Size: 8})
	tr.Record(obs.Event{At: 3, Kind: obs.EvDerive, Node: 2, Peer: -1, Pred: "out"})
	sp := obs.NewSpanRing(16)
	for _, stage := range []string{"parse", "cache_probe", "eval", "respond"} {
		sp.Record(obs.Span{Trace: 7, Stage: stage, DurUs: 5})
	}
	return Source{Sample: r.Families, Trace: tr, Spans: sp}
}

func get(t *testing.T, srv *httptest.Server, path string) (int, string, http.Header) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header
}

func TestAdminEndpoints(t *testing.T) {
	srv := httptest.NewServer(NewHandler(adminSource()))
	defer srv.Close()

	code, body, hdr := get(t, srv, "/healthz")
	if code != 200 || body != "ok\n" {
		t.Fatalf("/healthz: %d %q", code, body)
	}
	_ = hdr

	code, body, hdr = get(t, srv, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics: %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("/metrics content type %q", ct)
	}
	types, _ := parsePromText(t, body)
	if types["snl_serve_queries"] != "counter" || types["snl_serve_query_latency"] != "histogram" {
		t.Fatalf("/metrics families = %v", types)
	}

	code, body, _ = get(t, srv, "/snapshot")
	if code != 200 {
		t.Fatalf("/snapshot: %d", code)
	}
	var snap map[string]int64
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/snapshot not JSON: %v", err)
	}
	if snap["serve.queries"] != 42 || snap["serve.query_latency.count"] != 3 {
		t.Fatalf("/snapshot = %v", snap)
	}

	code, body, _ = get(t, srv, "/trace?kind=send,recv&n=10")
	if code != 200 {
		t.Fatalf("/trace: %d", code)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) != 2 {
		t.Fatalf("/trace lines = %q", body)
	}
	var ev struct {
		Kind string `json:"kind"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil || ev.Kind != "send" {
		t.Fatalf("/trace line 0 = %q (err %v)", lines[0], err)
	}

	// Tail limit applies after filtering.
	code, body, _ = get(t, srv, "/trace?n=1")
	if code != 200 || strings.Count(strings.TrimSpace(body), "\n") != 0 {
		t.Fatalf("/trace?n=1 = %d %q", code, body)
	}
	if !strings.Contains(body, `"kind":"derive"`) {
		t.Fatalf("/trace?n=1 should hold the newest event, got %q", body)
	}

	if code, body, _ = get(t, srv, "/trace?kind=bogus"); code != 400 {
		t.Fatalf("/trace?kind=bogus = %d %q", code, body)
	}
	if code, body, _ = get(t, srv, "/trace?n=-3"); code != 400 {
		t.Fatalf("/trace?n=-3 = %d %q", code, body)
	}

	code, body, _ = get(t, srv, "/trace/query/7")
	if code != 200 {
		t.Fatalf("/trace/query/7: %d %q", code, body)
	}
	var spans []obs.Span
	if err := json.Unmarshal([]byte(body), &spans); err != nil {
		t.Fatalf("/trace/query/7 not JSON: %v", err)
	}
	if len(spans) != 4 || spans[0].Stage != "parse" || spans[3].Stage != "respond" {
		t.Fatalf("/trace/query/7 spans = %+v", spans)
	}

	if code, _, _ = get(t, srv, "/trace/query/999"); code != 404 {
		t.Fatalf("/trace/query/999 = %d, want 404", code)
	}
	if code, _, _ = get(t, srv, "/trace/query/abc"); code != 400 {
		t.Fatalf("/trace/query/abc = %d, want 400", code)
	}

	// pprof index is wired.
	if code, _, _ = get(t, srv, "/debug/pprof/"); code != 200 {
		t.Fatalf("/debug/pprof/ = %d", code)
	}
}

// Every surface must serve (not panic) over a zero Source — the state
// snlogd has before anything is registered.
func TestAdminEmptySource(t *testing.T) {
	srv := httptest.NewServer(NewHandler(Source{}))
	defer srv.Close()
	for path, want := range map[string]int{
		"/metrics":       200,
		"/healthz":       200,
		"/snapshot":      200,
		"/trace":         200,
		"/trace/query/1": 404,
	} {
		if code, body, _ := get(t, srv, path); code != want {
			t.Fatalf("%s over empty source = %d %q, want %d", path, code, body, want)
		}
	}
}

func TestStartAdmin(t *testing.T) {
	a, err := StartAdmin("127.0.0.1:0", adminSource())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	resp, err := http.Get("http://" + a.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || string(body) != "ok\n" {
		t.Fatalf("healthz over StartAdmin = %d %q", resp.StatusCode, body)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + a.Addr() + "/healthz"); err == nil {
		t.Fatal("server should be down after Close")
	}
}
