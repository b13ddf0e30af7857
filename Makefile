GO ?= go

.PHONY: all build test vet race bench serve-smoke obs-guard obs-export-smoke fuzz-smoke profile trace-e1 verify

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
# cluster; prove them race-free on every verify.
race:
	$(GO) test -race ./internal/core/... ./internal/serve/...

bench:
	$(GO) test -bench . -benchmem -run '^$$' ./...

# End-to-end smoke of the serving stack: snlogd's exact wire surface —
# open, query, cache hit, inject, delete, explain, subscribe, stats —
# over a real TCP connection.
serve-smoke:
	$(GO) test -run 'TestServeSmoke' -count=1 -v ./internal/serve/

# The disabled-observability overhead guards: the E1 m=18 hot loop must
# stay within 5 % of its allocation baseline (1.240 allocs/event, logged
# by each test) when Observe was never called, when metrics are on but
# provenance is off, and with the telemetry export layer linked in but
# no admin endpoint configured. Their sibling holds E5's logicJ run — the
# node runtime's join path — to its own baseline (3.957) the same way,
# and TestHotQueryAllocs holds one snlogd cache-hit round trip over TCP
# (client encode, server, client decode) to its baseline (8 allocs).
# TestQueryAllocs pins the server's share in-process: a Session.query
# hit makes at most 1 allocation (the goal's argument slice), Query adds
# only the answer copy, and a cache-off miss of each BenchmarkColdQuery
# shape (bf, fb, bb) stays under 20.
# TestReplicaHeapBytes holds the heap a windowed E1 m=18 run retains at
# quiescence over the same deployment left idle, per injected tuple, to
# its baseline (1,945 B) the same way.
# TestJoinPathAllocations pins the join path where the cost is paid: one
# extension is one allocation, a whole local-mode join phase allocates
# only its candidate (its partials come from the engine's slab, released
# and zeroed on return), and a seen flood frame costs nothing.
obs-guard:
	$(GO) test -run 'TestObsDisabledOverheadE1|TestProvDisabledOverheadE1|TestAdminDisabledOverheadE1|TestJoinAllocsSPT|TestReplicaHeapBytes' -v ./internal/experiments/
	$(GO) test -run 'TestHotQueryAllocs|TestQueryAllocs' -v ./internal/serve/
	$(GO) test -run TestJoinPathAllocations -v ./internal/core/

# End-to-end smoke of the live-telemetry surface: a serving session with
# the admin server on an ephemeral port, scraped over real HTTP —
# /healthz answers and /metrics parses as Prometheus text carrying the
# serve counter families and latency buckets.
obs-export-smoke:
	$(GO) test -run 'TestObsExportSmoke' -count=1 -v ./internal/obs/export/

# Short coverage-guided fuzz passes: the Datalog front-end (Parse must
# never panic, accepted programs round-trip; the byte-offset lexer gives
# the rune lexer's tokens and errors) and the serve wire codec
# (newline-delimited JSON requests/responses, error codes and facts
# round-trip; no input wedges the decoder). The 5s budgets are smoke
# tests; run with a longer -fuzztime to actually hunt.
fuzz-smoke:
	$(GO) test ./internal/datalog/parser -run '^$$' -fuzz FuzzParse -fuzztime 5s
	$(GO) test ./internal/datalog/parser -run '^$$' -fuzz FuzzLexer -fuzztime 5s
	$(GO) test ./internal/serve -run '^$$' -fuzz FuzzWire -fuzztime 5s

# CPU + heap profiles of the two headline hot loops (the E1 join
# pipeline and the E13 batched-link simulator). Inspect with
# `go tool pprof profiles/<name>.cpu.pprof`.
profile:
	mkdir -p profiles
	$(GO) test -run '^$$' -bench 'BenchmarkE1JoinApproaches' -benchtime 3x \
		-cpuprofile profiles/e1.cpu.pprof -memprofile profiles/e1.mem.pprof -o profiles/e1.test .
	$(GO) test -run '^$$' -bench 'BenchmarkE13Batching' -benchtime 3x \
		-cpuprofile profiles/e13.cpu.pprof -memprofile profiles/e13.mem.pprof -o profiles/e13.test .
	@echo "profiles written to profiles/ (go tool pprof profiles/e1.cpu.pprof)"

# Export an observed-E1 event trace as JSONL plus the counter snapshot,
# cross-checking trace aggregates against the registry.
trace-e1:
	$(GO) run ./cmd/snbench -trace trace_e1.jsonl

verify: build test vet race serve-smoke obs-guard obs-export-smoke fuzz-smoke
