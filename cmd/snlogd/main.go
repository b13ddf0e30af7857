// Command snlogd is the long-lived query-serving daemon: it compiles a
// program onto a simulated deployment, opens a serving session
// (internal/serve) and answers point queries, injections, deletions,
// provenance explanations and subscriptions for many concurrent clients
// over newline-delimited JSON on TCP.
//
// Usage:
//
//	snlogd -listen 127.0.0.1:7654 program.snl
//	snlogd -grid 6 -seed 1 program.snl
//	echo '{"id":1,"op":"query","arg":"reach(a, X)"}' | nc 127.0.0.1 7654
//
// The wire protocol is documented in internal/serve/wire.go; the REPL
// (snlogrepl -connect ADDR) and serve.Client speak it. On SIGINT or
// SIGTERM the daemon drains connections and exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"

	snlog "repro"
	"repro/internal/obs/export"
	"repro/internal/serve"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7654", "TCP listen address")
	grid := flag.Int("grid", 4, "deploy on an m x m grid")
	seed := flag.Int64("seed", 1, "simulation seed")
	cache := flag.Int("cache", 0, "result cache entries (0 = default 256, negative = disabled)")
	loss := flag.Float64("loss", 0, "radio loss rate [0, 1)")
	noProv := flag.Bool("no-provenance", false, "skip provenance capture (explain disabled)")
	batch := flag.Int("batch", 0, "write batch size: the Nth buffered write flushes (0 = default 64, 1 = apply immediately)")
	batchDelay := flag.Duration("batch-delay", 0, "write batch deadline (0 = default 2ms, negative = size/freshness flushes only)")
	stale := flag.Int64("stale", 0, "default staleness bound for queries that don't set one: max unapplied writes a served answer may omit (0 = always fresh, negative = unbounded)")
	admin := flag.String("admin", "", "admin HTTP listen address (/metrics, /healthz, /snapshot, /trace, pprof); empty = disabled")
	traceCap := flag.Int("trace", 0, "event trace ring capacity for the admin /trace endpoint (0 = no trace)")
	spans := flag.Int("spans", 0, "per-query span ring capacity for /trace/query/<id> (0 = default 4096, negative = disabled)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: snlogd [flags] program.snl")
		flag.Usage()
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	deploy := []snlog.Option{snlog.WithSeed(*seed)}
	if *loss != 0 {
		deploy = append(deploy, snlog.WithLoss(*loss))
	}
	if *traceCap > 0 {
		deploy = append(deploy, snlog.WithTrace(*traceCap))
	}
	s, err := serve.Open(context.Background(), string(src), snlog.Grid(*grid), serve.Options{
		Deploy:       deploy,
		CacheSize:    *cache,
		BatchSize:    *batch,
		BatchDelay:   *batchDelay,
		NoProvenance: *noProv,
		Spans:        *spans,
	})
	if err != nil {
		fatal(err)
	}
	defer s.Close()

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	srv := serve.NewServer(s, ln, serve.WithDefaultMaxLag(*stale))
	fmt.Printf("snlogd: serving %s on %s (%d nodes)\n", flag.Arg(0), srv.Addr(), s.Cluster().Size())

	// Live telemetry is strictly opt-in: without -admin no HTTP listener
	// binds, and the serve path is byte-for-byte the pre-admin daemon
	// (pinned by make obs-guard).
	if *admin != "" {
		adm, err := export.StartAdmin(*admin, export.Source{
			Sample: s.Families,
			Trace:  s.Cluster().Trace(),
			Spans:  s.Spans(),
		})
		if err != nil {
			fatal(err)
		}
		defer adm.Close()
		fmt.Printf("snlogd: admin on http://%s (metrics, snapshot, trace, pprof)\n", adm.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("snlogd: shutting down")
	if err := srv.Close(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "snlogd:", err)
	os.Exit(1)
}
