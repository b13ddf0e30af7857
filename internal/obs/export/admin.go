package export

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// Source is what the admin server exposes. All fields are optional:
// a nil Sample serves empty metric pages, a nil Trace an empty trace
// tail, a nil Spans ring a 404 for every query trace. Sample takes one
// registry sample; a registry whose providers read state another
// goroutine writes needs a guarded one (serve.Session.Families waits
// for the sync in progress), otherwise Registry.Families does. None of
// the fields are owned by the server — they are the same live handles
// the daemon hands its cluster and session.
type Source struct {
	Sample func() obs.Families
	Trace  *obs.Trace
	Spans  *obs.SpanRing
}

// sample takes one registry sample; empty without a Sample.
func (src Source) sample() obs.Families {
	if src.Sample == nil {
		return obs.Families{}
	}
	return src.Sample()
}

// NewHandler builds the admin HTTP handler over src:
//
//	/metrics              Prometheus text format (WriteMetrics)
//	/healthz              200 "ok"
//	/snapshot             obs.Snapshot JSON (flat name → value map)
//	/trace?kind=&n=       JSONL tail of the event trace ring
//	/trace/query/<id>     span records of one traced query (JSON array)
//	/debug/pprof/...      net/http/pprof
//
// The metric pages read one Sample each; the trace pages read the
// rings' own snapshots. None touches a lock a query holds.
func NewHandler(src Source) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WriteMetrics(w, src.sample())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/snapshot", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.Encode(src.sample().Snapshot().Counters)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, req *http.Request) {
		f := obs.Filter{Node: obs.AnyNode}
		if ks := req.URL.Query().Get("kind"); ks != "" {
			for _, name := range strings.Split(ks, ",") {
				k, ok := obs.ParseKind(strings.TrimSpace(name))
				if !ok {
					http.Error(w, "unknown trace kind: "+name, http.StatusBadRequest)
					return
				}
				f.Kinds = append(f.Kinds, k)
			}
		}
		n := 256
		if ns := req.URL.Query().Get("n"); ns != "" {
			v, err := strconv.Atoi(ns)
			if err != nil || v < 0 {
				http.Error(w, "bad n: "+ns, http.StatusBadRequest)
				return
			}
			n = v
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		src.Trace.WriteTailJSONL(w, f, n)
	})
	mux.HandleFunc("/trace/query/", func(w http.ResponseWriter, req *http.Request) {
		idStr := strings.TrimPrefix(req.URL.Path, "/trace/query/")
		id, err := strconv.ParseInt(idStr, 10, 64)
		if err != nil {
			http.Error(w, "bad trace id: "+idStr, http.StatusBadRequest)
			return
		}
		spans := src.Spans.ByTrace(id)
		if len(spans) == 0 {
			http.Error(w, "no spans for trace "+idStr+" (unknown, evicted, or spans disabled)", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(spans)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Admin is a running admin HTTP server.
type Admin struct {
	ln  net.Listener
	srv *http.Server
}

// StartAdmin binds addr (":8090", "127.0.0.1:0", ...) and serves the
// admin handler on it in a background goroutine. The returned Admin
// reports the bound address (useful with port 0) and shuts the server
// down on Close.
func StartAdmin(addr string, src Source) (*Admin, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{
		Handler:      NewHandler(src),
		ReadTimeout:  30 * time.Second,
		WriteTimeout: 60 * time.Second,
	}
	a := &Admin{ln: ln, srv: srv}
	go srv.Serve(ln)
	return a, nil
}

// Addr returns the listener's bound address.
func (a *Admin) Addr() string { return a.ln.Addr().String() }

// Close stops the server and closes the listener.
func (a *Admin) Close() error { return a.srv.Close() }
