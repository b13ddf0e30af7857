GO ?= go

.PHONY: all build test vet race bench serve-smoke obs-guard obs-export-smoke fuzz-smoke profile trace-e1 goldens goldens-diff loc verify

all: verify

build:
	$(GO) build ./...

# bench/ is a nested module (the repository's benchmark, BENCHMARK.json),
# so ./... does not reach it: its smoke test runs all six workloads at
# seconds size, traced and untraced, each checked against the
# centralized oracle.
test:
	$(GO) test ./...
	cd bench && $(GO) test ./...

# gofmt -l prints the files it would rewrite (bench/ included); any
# name is a failure.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l:"; echo "$$unformatted"; exit 1; fi

# The window/eval index structures are shared per node runtime; the serve
# layer multiplexes concurrent sessions and wire clients over one
# cluster, its misses probe the published view (an eval.Database) side
# by side under a read lock, and store their answers in the cache before
# leaving it, while a missing index is built under the write lock; the
# admin endpoint samples its metrics beside the syncs; snlogrepl's
# remote tests drive a Server and a Client together (the session's
# deadline timer, the client's read loop delivering events); prove them
# race-free on every verify.
race:
	$(GO) test -race ./internal/core/... ./internal/serve/... ./internal/obs/... ./internal/datalog/eval/... ./cmd/snlogrepl/...

bench:
	$(GO) test -bench . -benchmem -run '^$$' ./...

# End-to-end smoke of the serving stack: snlogd's exact wire surface —
# open, query, cache hit, inject, delete, explain, subscribe, stats —
# over a real TCP connection.
serve-smoke:
	$(GO) test -run 'TestServeSmoke' -count=1 -v ./internal/serve/

# The disabled-observability overhead guards: the E1 m=18 hot loop must
# stay within 5 % of its allocation baseline (1.148 allocs/event, logged
# by each test) when Observe was never called, when metrics are on but
# provenance is off, and with the telemetry export layer linked in but
# no admin endpoint configured. Their sibling holds E5's logicJ run — the
# node runtime's join path — to its own baseline (1.998 allocs/event once
# deployed; deploying and injecting it, 1,676 allocations) the same way,
# and TestHotQueryAllocs holds one snlogd cache-hit round trip over TCP
# (client encode, server, client decode) to its baseline (8 allocs).
# TestWireDecodeAllocs pins the codec's decode share of it: the
# 30-tuple answer frame decodes in exactly 1 allocation (its []string),
# the query frame in none, a pushed event frame in 1 (its Event).
# TestQueryAllocs pins the server's share in-process: a Session.query
# hit makes at most 1 allocation (the goal's argument slice), Query adds
# only the answer copy, and a cache-off miss of each BenchmarkColdQuery
# shape (bf, fb, bb) stays under 20.
# TestReplicaHeapBytes holds the heap a windowed E1 m=18 run retains at
# quiescence over the same deployment left idle, per injected tuple, to
# its baseline (1,877 B) the same way. The three fell (1.154, 2.185,
# 1,945 B) when the engine stopped keeping a union of the derived set.
# TestSPTHeapBytes does the same for logicJ on Grid(16), per injected
# adjacency fact (1,521 B; 2,074.7 B while nodes kept their settled
# candidates and replica tables built an index on their first probe).
# TestJoinPathAllocations pins the join path where the cost is paid: one
# extension is one allocation, a whole local-mode join phase allocates
# only its candidate (its partials come from the engine's slab, released
# and zeroed on return), and a join flood already seen costs nothing.
# TestEventLoopAllocs holds the simulator's event loop to growth only: a
# 100 k-event run whose queue stays under 1 k events makes at most 64
# mallocs in total, so a recycled event slot costs nothing, and
# TestKindCountsAllocs holds 100 k transmissions over 5 kinds to none
# once the queue has grown (the per-kind counters are presized).
# TestWalkerHopAllocs: once a walker has its path, one more store, join
# or result hop through the transport's advance — arrival test, next
# hop, per-kind count — makes 0 allocations.
# These three and the E1/E5 guards count with internal/mallocs.Count: the
# exact process-wide malloc delta (never divided by a run count), taken
# with GOMAXPROCS pinned to 1 after debug.FreeOSMemory, so that neither
# another goroutine nor the runtime's background scavenger allocates
# inside the window.
obs-guard:
	$(GO) test -run 'TestObsDisabledOverheadE1|TestProvDisabledOverheadE1|TestAdminDisabledOverheadE1|TestJoinAllocsSPT|TestReplicaHeapBytes|TestSPTHeapBytes' -v ./internal/experiments/
	$(GO) test -run 'TestHotQueryAllocs|TestWireDecodeAllocs|TestQueryAllocs' -v ./internal/serve/
	$(GO) test -run 'TestJoinPathAllocations|TestWalkerHopAllocs' -v ./internal/core/
	$(GO) test -run 'TestEventLoopAllocs|TestKindCountsAllocs' -v ./internal/nsim/

# End-to-end smoke of the live-telemetry surface: a serving session with
# the admin server on an ephemeral port, scraped over real HTTP —
# /healthz answers and /metrics parses as Prometheus text carrying the
# serve counter families and latency buckets.
obs-export-smoke:
	$(GO) test -run 'TestObsExportSmoke' -count=1 -v ./internal/obs/export/

# Short coverage-guided fuzz passes: the Datalog front-end (Parse must
# never panic, accepted programs round-trip; the byte-offset lexer gives
# the rune lexer's tokens and errors), term keys (AppendKey's quote fast
# path gives strconv.AppendQuote's bytes), the serve wire codec (the
# frame reader and encoding/json agree on every line: the reader takes
# only lines it decodes as json.Unmarshal does and hands it every other
# one; frames re-encode to json.Marshal's bytes, error codes and facts
# round-trip) and the greedy next hop (the
# winner-first scan picks the hop of the one-loop reference on random
# graphs, Down sets and paths) and the maintainer's envelope (over
# link timelines for left- and right-recursive reach, the three
# maintenance modes agree while CheckLocallyNonRecursive has passed
# after every op so far). The 5s budgets are smoke
# tests; run with a longer -fuzztime to actually hunt.
fuzz-smoke:
	$(GO) test ./internal/datalog/parser -run '^$$' -fuzz FuzzParse -fuzztime 5s
	$(GO) test ./internal/datalog/parser -run '^$$' -fuzz FuzzLexer -fuzztime 5s
	$(GO) test ./internal/datalog/ast -run '^$$' -fuzz FuzzAppendKey -fuzztime 5s
	$(GO) test ./internal/serve -run '^$$' -fuzz FuzzWire -fuzztime 5s
	$(GO) test ./internal/routing -run '^$$' -fuzz FuzzNextHopGreedyAvoid -fuzztime 5s
	$(GO) test ./internal/datalog/eval -run '^$$' -fuzz FuzzMaintainerEnvelope -fuzztime 5s

# CPU + heap profiles of the three headline hot loops: the E1 join
# pipeline, a 64x64 sliding-window join long enough for walker routing
# to show at its real share (join_window's shape: E1's runs are a few
# thousand events) and the E5 shortest-path tree (recursion through the
# node runtime's join path over the simulator's event queue; 300 runs,
# so the queue and key rendering show at their real share). Inspect with
# `go tool pprof profiles/<name>.cpu.pprof`.
profile:
	mkdir -p profiles
	$(GO) test -run '^$$' -bench 'BenchmarkE1JoinApproaches' -benchtime 3x \
		-cpuprofile profiles/e1.cpu.pprof -memprofile profiles/e1.mem.pprof -o profiles/e1.test .
	$(GO) test -run '^$$' -bench 'BenchmarkJoinWindowGrid64' -benchtime 8x \
		-cpuprofile profiles/joinwindow.cpu.pprof -memprofile profiles/joinwindow.mem.pprof -o profiles/joinwindow.test .
	$(GO) test -run '^$$' -bench 'BenchmarkE5SPT' -benchtime 300x \
		-cpuprofile profiles/e5.cpu.pprof -memprofile profiles/e5.mem.pprof -o profiles/e5.test .
	@echo "profiles written to profiles/ (go tool pprof profiles/e1.cpu.pprof)"

# Export an observed-E1 event trace as JSONL plus the counter snapshot,
# cross-checking trace aggregates against the registry.
trace-e1:
	$(GO) run ./cmd/snbench -trace trace_e1.jsonl

# Record the outputs a behaviour-preserving change must leave
# byte-identical in $(GOLDENS): snbench's quick sweep with its "(N.NNs)"
# wall-time headers stripped, the observed-E1 trace (summary and JSONL),
# one explained tuple and the histograms, and what each examples/*
# program prints (all are seeded). A refactor compares them with its
# parent's: `make goldens-diff BASE=<parent>`.
GOLDENS ?= goldens

goldens:
	mkdir -p $(GOLDENS)
	$(GO) build -o $(GOLDENS)/snbench.bin ./cmd/snbench
	cd $(GOLDENS) && ./snbench.bin -quick | sed -E 's/ \([0-9.]+s\) ===$$/ ===/' > quick.txt
	cd $(GOLDENS) && ./snbench.bin -trace trace.jsonl > trace.txt
	cd $(GOLDENS) && ./snbench.bin -explain 'j(n3,3)' > explain.txt
	cd $(GOLDENS) && ./snbench.bin -hist > hist.txt
	rm $(GOLDENS)/snbench.bin
	for ex in examples/*/; do n=$$(basename $$ex); \
		$(GO) build -o $(GOLDENS)/$$n.bin ./$$ex && (cd $(GOLDENS) && ./$$n.bin > example_$$n.txt) && \
		rm $(GOLDENS)/$$n.bin || exit 1; done

# Record the goldens at BASE (any commit, branch or tag; default HEAD,
# i.e. the last commit against the working tree) and here, and diff
# them: BASE's are made in a git clone of this repository in a temporary
# directory, removed afterwards, by this Makefile's goldens recipe, so
# both sides record the same outputs. The clone is local; nothing is
# fetched. Exits nonzero, printing the differences, when any output
# differs.
BASE ?= HEAD

goldens-diff:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	git clone -q . "$$tmp/base" && git -C "$$tmp/base" checkout -q $(BASE) && \
	$(MAKE) -s -C "$$tmp/base" -f $(CURDIR)/Makefile goldens GO=$(GO) && \
	$(MAKE) -s goldens && \
	diff -r "$$tmp/base/goldens" $(GOLDENS) && echo "goldens at $(BASE) and here are identical"

# Print the Go line deltas between BASE and the working tree, new
# untracked files included: added, removed and net lines, non-test and
# test apart, per top-level package (internal/<pkg>, cmd/<cmd>, the
# root package as "."), with bench/ (its own module) on its own line
# after the total of the rest. `make loc BASE=<ref>`.
loc:
	@{ git diff --numstat --no-renames $(BASE) -- '*.go'; \
	  git ls-files --others --exclude-standard -- '*.go' | xargs -r wc -l | \
	    awk '$$2 != "total" { print $$1 "\t0\t" $$2 }'; } | \
	awk -F'\t' ' \
	  { n = split($$3, p, "/"); \
	    k = p[1] == "bench" ? "bench/" : n == 1 ? "." : n == 2 ? p[1] : p[1] "/" p[2]; \
	    t = $$3 ~ /_test\.go$$/; \
	    add[k, t] += $$1; del[k, t] += $$2; seen[k] = 1 } \
	  function row(name, a0, d0, a1, d1) { \
	    printf "%-26s %+7d %+7d %+7d   %+7d %+7d %+7d\n", name, a0, -d0, a0 - d0, a1, -d1, a1 - d1 } \
	  END { printf "%-26s %23s   %23s\n", "package", "non-test: + - net", "test: + - net"; \
	    m = 0; for (k in seen) if (k != "bench/") keys[++m] = k; \
	    for (i = 2; i <= m; i++) for (j = i; j > 1 && keys[j - 1] > keys[j]; j--) { x = keys[j]; keys[j] = keys[j - 1]; keys[j - 1] = x } \
	    for (i = 1; i <= m; i++) { k = keys[i]; row(k, add[k, 0], del[k, 0], add[k, 1], del[k, 1]); \
	      for (t = 0; t < 2; t++) { ta[t] += add[k, t]; td[t] += del[k, t] } } \
	    row("total (bench/ apart)", ta[0], td[0], ta[1], td[1]); \
	    k = "bench/"; row(k, add[k, 0], del[k, 0], add[k, 1], del[k, 1]) }'

verify: build test vet race serve-smoke obs-guard obs-export-smoke fuzz-smoke
