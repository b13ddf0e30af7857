// Package serve is the query-serving subsystem: the long-lived front
// door between a deployed deductive program and its users. It reports
// what the network has derived: the paper hashes every derived tuple to
// a home node, Theorems 1–3 make those records the answer to every goal
// at quiescence, and the engine keeps their union as one indexed
// database (core.Engine.DerivedDB) — a query is a probe of it, windows
// and faults included, and there is no second evaluator behind it.
//
// A Session wraps a running cluster behind a concurrent, context-aware
// client API built as a read/write-phase state machine: any number of
// Query/Explain calls proceed concurrently (under a shared read lock)
// against the last quiesced deployment state, while writes (Inject /
// DeleteAt) enqueue into a bounded buffer that is applied and synced
// as ONE coalesced batch — flushed when the buffer fills
// (Options.BatchSize), when the batch deadline expires
// (Options.BatchDelay), or when an incoming query demands freshness.
// Queries are fresh by default; QueryStale opts into answering from
// the last quiesced snapshot with a reported freshness bound instead
// of waiting for the in-flight batch. Repeated queries hit a sharded
// result cache keyed on the canonical goal; an entry is good while the
// goal predicate's change counter stands still (cache.go).
//
// Command snlogd exposes the same operations to many concurrent
// clients over newline-delimited JSON on TCP (server.go); Client is
// the matching Go client (client.go).
package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	snlog "repro"
	"repro/internal/core"
	"repro/internal/datalog/ast"
	"repro/internal/datalog/eval"
	"repro/internal/obs"
)

// ErrClosed is returned by every operation on a closed session.
var ErrClosed = errors.New("serve: session closed")

// Defaults for the zero Options value.
const (
	defaultCacheSize  = 256
	defaultBatchSize  = 64
	defaultBatchDelay = 2 * time.Millisecond
	defaultSpanRing   = 4096
)

// subBuffer is the per-subscription channel capacity: how far a
// subscriber may fall behind the writers before it loses updates. A full
// subscriber drops them and counts them under serve.subs.dropped.
const subBuffer = 64

// cacheShards is the number of independently locked result-cache
// shards (canonical-goal hash partitioned); a power of two.
const cacheShards = 8

// Options configures a serving session.
type Options struct {
	// Deploy is passed through to snlog.Deploy (scheme, seed, loss,
	// faults, ...).
	Deploy []snlog.Option
	// CacheSize caps the result cache (entries, summed across shards);
	// 0 means the default (256). Negative disables caching.
	CacheSize int
	// BatchSize bounds the write buffer: the BatchSize-th buffered
	// write flushes the batch synchronously. 0 means the default (64);
	// 1 applies every write immediately (no coalescing).
	BatchSize int
	// BatchDelay is the deadline for a non-empty write buffer: a
	// background flusher applies the batch this long after its first
	// write, so writes are never stranded waiting for a query. 0 means
	// the default (2ms); negative disables the deadline (size- and
	// freshness-triggered flushes only — deterministic, used by the
	// benchmarks and property tests).
	BatchDelay time.Duration
	// NoProvenance skips attaching the provenance graph. Explain then
	// returns an error; Query and the cache are unaffected.
	NoProvenance bool
	// Spans caps the per-query span ring (span records, summed over all
	// retained queries); 0 means the default (4096). Negative disables
	// span capture — trace ids are still allocated and echoed over the
	// wire, but /trace/query/<id> has nothing to show.
	Spans int
}

// Freshness reports how fresh a served answer is.
type Freshness struct {
	// Lag is the number of accepted writes not yet reflected in the
	// answer (0 = the answer is the deductive closure of every write
	// acknowledged before the query).
	Lag int64
	// AsOf is the virtual time of the quiesced snapshot that answered.
	AsOf int64
}

// flush reasons, indexed into Session.flushReasons.
const (
	flushSize     = iota // buffer reached BatchSize
	flushDeadline        // BatchDelay expired on a non-empty buffer
	flushFresh           // a query demanded freshness beyond its lag bound
	flushExplicit        // Sync, Subscribe, Replay, Close
	flushReasonCount
)

// Span stages, indexed into Session.spanStage. The names double as
// the obs.Span Stage strings and the "serve.query.spans.<stage>"
// counter suffixes; counters are pre-resolved at Open so the per-span
// cost on the query path is one atomic add, not a map lookup.
const (
	stParse      = iota // goal parse + validation
	stCacheProbe        // sharded result-cache lookup (note: "hit"/"miss")
	stEval              // on a miss: the indexed probe of the derived set
	stExplain           // provenance walk (Explain only)
	stRespond           // post-read bookkeeping until the answer is returned
	stageCount
)

var stageNames = [stageCount]string{
	"parse", "cache_probe", "eval", "explain", "respond",
}

// opKind distinguishes buffered write operations.
type opKind uint8

const (
	opInsert opKind = iota
	opInsertAt
	opDeleteAt
)

// writeOp is one buffered, validated write.
type writeOp struct {
	seq   int64
	kind  opKind
	at    int64
	node  int
	tuple eval.Tuple // Keyed
}

// Session is one served deployment: a cluster, the sharded result
// cache, the write buffer, and the subscriber fan-out. All methods are
// safe for concurrent use by many goroutines ("clients").
//
// Concurrency contract (the read/write-phase state machine): mu held
// shared (RLock) is the read phase — the cluster is quiescent and its
// derived set and change counters stand still, so any number of
// Query/Explain calls proceed concurrently. mu held exclusive (Lock)
// is the write phase — the coalesced batch is applied, the cluster
// runs to quiescence (moving the counters of the predicates it
// changes, which is what invalidates cache entries) and subscription
// deltas fan out. Writes themselves never take mu exclusively: they
// validate under RLock, append to the buffer under bmu, and return;
// only the flush pays the sync.
type Session struct {
	mu     sync.RWMutex
	c      *snlog.Cluster
	prog   *ast.Program
	known  map[string]bool // core.KnownPredKeys(prog), computed once
	opts   Options
	closed bool

	cache *shardedCache
	// probeMu serialises cache-miss probes of the derived set: a probe
	// builds the hash index over its binding pattern on first use, the
	// one mutation on the read path. Only the probe is held under it —
	// not the copy, not the encode — and the write phase never takes it.
	probeMu sync.Mutex

	subs    map[int]*Subscription
	nextSub int
	watched map[string]*watch // by subscribed predicate

	// Write buffer. bmu orders enqueues against drains; enqSeq is the
	// last accepted write's sequence number (stored while bmu is
	// held), appliedSeq the last applied-and-synced one (stored while
	// mu is held exclusively). Lag = enqSeq - appliedSeq.
	bmu        sync.Mutex
	pending    []writeOp
	nextSeq    int64 // under bmu
	enqSeq     atomic.Int64
	appliedSeq atomic.Int64
	lastEnd    atomic.Int64 // virtual time of the last quiesce

	kick chan struct{} // wakes the deadline flusher on 0->1 buffer
	done chan struct{} // closed by Close; stops the flusher

	readers    atomic.Int64 // queries/explains currently inside the read phase
	readerPeak atomic.Int64

	// Per-query tracing: every Query/QueryStale/Explain ingress gets a
	// trace id (client-chosen over the wire, or allocated here) and its
	// stages append spans to a shared fixed-capacity ring.
	nextTrace atomic.Int64
	spans     *obs.SpanRing
	spanStage [stageCount]*obs.Counter

	// counters (registered on the cluster's registry, so they appear
	// in Snapshot next to nsim.*/core.*).
	queries      *obs.Counter
	hits         *obs.Counter
	misses       *obs.Counter
	evictions    *obs.Counter
	subDrops     *obs.Counter
	batchWrites  *obs.Counter
	batchFlushes *obs.Counter
	batchElided  *obs.Counter
	applyErrors  *obs.Counter
	staleServed  *obs.Counter
	flushReasons [flushReasonCount]*obs.Counter
	batchSizes   *obs.Histogram
	latency      *obs.Histogram
}

// Open compiles src onto the topology and wraps the deployment in a
// serving session. The context bounds Open itself (deployment is
// synchronous and fast; ctx is checked before and after). Provenance
// is attached by default so Explain works; see Options.NoProvenance.
func Open(ctx context.Context, src string, t snlog.Topology, opts Options) (*Session, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	deployOpts := opts.Deploy
	if !opts.NoProvenance {
		deployOpts = append(append([]snlog.Option(nil), deployOpts...), snlog.WithProvenance())
	}
	c, err := snlog.Deploy(t, src, deployOpts...)
	if err != nil {
		return nil, err
	}
	if opts.CacheSize == 0 {
		opts.CacheSize = defaultCacheSize
	}
	if opts.BatchSize == 0 {
		opts.BatchSize = defaultBatchSize
	}
	if opts.BatchSize < 1 {
		opts.BatchSize = 1
	}
	if opts.BatchDelay == 0 {
		opts.BatchDelay = defaultBatchDelay
	}
	reg := c.Registry()
	prog := c.Engine.Analysis().Program
	s := &Session{
		c:       c,
		prog:    prog,
		known:   core.KnownPredKeys(prog),
		opts:    opts,
		subs:    make(map[int]*Subscription),
		watched: make(map[string]*watch),
		kick:    make(chan struct{}, 1),
		done:    make(chan struct{}),

		queries:      reg.Counter("serve.queries"),
		hits:         reg.Counter("serve.cache.hits"),
		misses:       reg.Counter("serve.cache.misses"),
		evictions:    reg.Counter("serve.cache.evictions"),
		subDrops:     reg.Counter("serve.subs.dropped"),
		batchWrites:  reg.Counter("serve.batch.writes"),
		batchFlushes: reg.Counter("serve.batch.flushes"),
		batchElided:  reg.Counter("serve.batch.elided"),
		applyErrors:  reg.Counter("serve.batch.apply_errors"),
		staleServed:  reg.Counter("serve.stale.served"),
		// Batch sizes: 1 .. 2048 exponential ladder.
		batchSizes: reg.Histogram("serve.batch.size", obs.ExpBuckets(1, 2, 12)),
		// Query latency in microseconds: 1µs .. ~4s exponential ladder.
		latency: reg.Histogram("serve.query_latency", obs.ExpBuckets(1, 2, 22)),
	}
	s.flushReasons[flushSize] = reg.Counter("serve.batch.flush.size")
	s.flushReasons[flushDeadline] = reg.Counter("serve.batch.flush.deadline")
	s.flushReasons[flushFresh] = reg.Counter("serve.batch.flush.fresh")
	s.flushReasons[flushExplicit] = reg.Counter("serve.batch.flush.explicit")
	for i, name := range stageNames {
		s.spanStage[i] = reg.Counter("serve.query.spans." + name)
	}
	spanCap := opts.Spans
	if spanCap == 0 {
		spanCap = defaultSpanRing
	}
	if spanCap > 0 {
		s.spans = obs.NewSpanRing(spanCap)
	}
	reg.Gauge("serve.read_concurrency", func() int64 { return s.readers.Load() })
	reg.Gauge("serve.read_concurrency.peak", func() int64 { return s.readerPeak.Load() })
	if opts.CacheSize > 0 {
		s.cache = newShardedCache(opts.CacheSize, cacheShards, s.evictions)
	}
	// Establish the initial quiescent snapshot (program-declared facts
	// settle here) so reads never need to run the cluster. No reader,
	// writer or subscriber exists yet, so runLocked needs no lock.
	s.runLocked()
	go s.flusher()
	if err := ctx.Err(); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// Cluster exposes the wrapped deployment (read-mostly: drive mutations
// through the session, which owns the write phase).
func (s *Session) Cluster() *snlog.Cluster { return s.c }

// Snapshot samples every metric of the deployment plus the serving
// counters (serve.queries, serve.cache.*, serve.batch.*,
// serve.query_latency.*).
func (s *Session) Snapshot() snlog.Snapshot { return s.c.Snapshot() }

// Lag reports the current freshness gap: accepted writes not yet
// applied and synced.
func (s *Session) Lag() int64 { return s.enqSeq.Load() - s.appliedSeq.Load() }

// Close shuts the session: the remaining write batch is applied (every
// acknowledged write reaches the deployment), subscriptions are
// closed, and every later operation returns ErrClosed. Idempotent.
func (s *Session) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.flushLocked(flushExplicit)
	s.closed = true
	for id, sub := range s.subs {
		close(sub.ch)
		delete(s.subs, id)
	}
	s.mu.Unlock()
	close(s.done)
	return nil
}

// Inject generates a base fact at a node, now. Validation failures
// return the typed sentinels (snlog.ErrUnknownPredicate, ...)
// immediately and buffer nothing; an accepted write is buffered and
// applied with the next coalesced batch.
func (s *Session) Inject(node int, t eval.Tuple) error {
	_, err := s.enqueue(opInsert, 0, node, t)
	return err
}

// InjectAt generates a base fact at a node at an absolute virtual
// time.
func (s *Session) InjectAt(at int64, node int, t eval.Tuple) error {
	_, err := s.enqueue(opInsertAt, at, node, t)
	return err
}

// DeleteAt deletes a previously injected base fact at its source node
// at an absolute virtual time. Answers change when the batch holding
// the deletion is applied (the session's view is the state at
// quiescence, after the deletion has fired).
func (s *Session) DeleteAt(at int64, node int, t eval.Tuple) error {
	_, err := s.enqueue(opDeleteAt, at, node, t)
	return err
}

// enqueue validates a write, appends it to the batch buffer and
// returns its sequence number (the wire's batch ack). The write is
// applied by the next flush: when this write fills the buffer the
// caller flushes synchronously, otherwise the first write of a batch
// arms the deadline flusher.
func (s *Session) enqueue(kind opKind, at int64, node int, t eval.Tuple) (int64, error) {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return 0, ErrClosed
	}
	if err := s.c.Validate(node, t); err != nil {
		s.mu.RUnlock()
		return 0, err
	}
	t = t.Keyed()
	s.bmu.Lock()
	s.nextSeq++
	seq := s.nextSeq
	s.pending = append(s.pending, writeOp{seq: seq, kind: kind, at: at, node: node, tuple: t})
	n := len(s.pending)
	s.enqSeq.Store(seq)
	s.bmu.Unlock()
	s.mu.RUnlock()
	s.batchWrites.Inc()
	if n >= s.opts.BatchSize {
		// This writer pays the coalesced apply+sync for the whole
		// batch. A concurrent Close may have drained the buffer first;
		// the write was applied there, so ErrClosed is not a failure.
		if _, err := s.flush(flushSize); err != nil && !errors.Is(err, ErrClosed) {
			return seq, err
		}
	} else if n == 1 && s.opts.BatchDelay > 0 {
		select {
		case s.kick <- struct{}{}:
		default:
		}
	}
	return seq, nil
}

// flusher is the deadline arm of the batch state machine: BatchDelay
// after a batch's first write it applies whatever has accumulated, so
// a write never waits indefinitely for a query to force freshness.
func (s *Session) flusher() {
	if s.opts.BatchDelay <= 0 {
		return
	}
	for {
		select {
		case <-s.done:
			return
		case <-s.kick:
			t := time.NewTimer(s.opts.BatchDelay)
			select {
			case <-s.done:
				t.Stop()
				return
			case <-t.C:
				s.flush(flushDeadline) // no-op if a size/fresh flush won the race
			}
		}
	}
}

// flush applies the buffered batch under the exclusive lock.
func (s *Session) flush(reason int) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	return s.flushLocked(reason), nil
}

// flushLocked drains the write buffer, applies every operation in
// acceptance order, runs the cluster to quiescence once for the whole
// batch, publishes the new freshness horizon and fans out
// subscription deltas. Caller holds mu exclusively. Outside exclusive
// sections the cluster is always quiescent, so an empty buffer means
// there is nothing to do.
func (s *Session) flushLocked(reason int) int64 {
	s.bmu.Lock()
	ops := s.pending
	s.pending = nil
	s.bmu.Unlock()
	if len(ops) == 0 {
		return s.lastEnd.Load()
	}
	for _, op := range s.elideRedundant(ops) {
		s.applyLocked(op)
	}
	s.batchFlushes.Inc()
	s.flushReasons[reason].Inc()
	s.batchSizes.Observe(int64(len(ops)))
	end := s.runLocked()
	s.appliedSeq.Store(ops[len(ops)-1].seq)
	return end
}

// elideRedundant drops buffered inserts that repeat an earlier insert
// in the same batch exactly (same kind, time, node and tuple key) —
// the sensor-network common case of a node redundantly re-reporting a
// reading it already reported. A repeat insert is not a no-op at the
// engine level: it earns a fresh generation stamp, a full storage and
// join cascade across the deployment and a duplicate result delta, all
// without changing any query answer. Eliding it inside one coalesced
// batch is therefore observation-equivalent. A key that is also
// deleted somewhere in the batch is applied verbatim: which
// generations that deletion retracts is the engine's business. The
// freshness horizon is untouched: elision happens after acceptance, so
// appliedSeq still advances over the elided ops.
func (s *Session) elideRedundant(ops []writeOp) []writeOp {
	if len(ops) < 2 {
		return ops
	}
	var deleted map[string]bool
	for _, op := range ops {
		if op.kind == opDeleteAt {
			if deleted == nil {
				deleted = make(map[string]bool)
			}
			deleted[op.tuple.Key()] = true
		}
	}
	type opSig struct {
		kind opKind
		at   int64
		node int
		key  string
	}
	seen := make(map[opSig]bool, len(ops))
	kept := ops[:0]
	for _, op := range ops {
		if op.kind != opDeleteAt {
			sig := opSig{kind: op.kind, at: op.at, node: op.node, key: op.tuple.Key()}
			if seen[sig] && !deleted[op.tuple.Key()] {
				s.batchElided.Inc()
				continue
			}
			seen[sig] = true
		}
		kept = append(kept, op)
	}
	return kept
}

// applyLocked replays one buffered write against the cluster. Caller
// holds mu exclusively.
func (s *Session) applyLocked(op writeOp) {
	var err error
	switch op.kind {
	case opInsert:
		err = s.c.Inject(op.node, op.tuple)
	case opInsertAt:
		err = s.c.InjectAt(op.at, op.node, op.tuple)
	case opDeleteAt:
		err = s.c.DeleteAt(op.at, op.node, op.tuple)
	}
	if err != nil {
		// Unreachable by construction: enqueue validated against the
		// same immutable program and topology. Count it rather than
		// lose it silently.
		s.applyErrors.Inc()
	}
}

// Replay schedules the Replay-based repair pass (requires
// snlog.WithReplayLog) and runs it. Repair rebuilds the derived set
// wholesale and moves every predicate's change counter on the way, so
// no cached answer outlives it. Buffered writes are applied first so
// the repair sees the full acknowledged timeline.
func (s *Session) Replay() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.flushLocked(flushExplicit)
	if err := s.c.Replay(); err != nil {
		return err
	}
	s.runLocked()
	return nil
}

// Sync applies the buffered write batch, runs the cluster to
// quiescence, delivers pending subscription updates, and returns the
// virtual end time.
func (s *Session) Sync(ctx context.Context) (int64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return s.flush(flushExplicit)
}

// qtrace carries one query's trace through its stages: step appends a
// span covering the time since the previous step and bumps the stage's
// counter. The zero-cost discipline lives in the callee (SpanRing and
// Counter are nil-safe), so the query path is identical whether span
// capture is on or off.
type qtrace struct {
	s     *Session
	id    int64
	start time.Time
	last  time.Time
}

// beginTrace opens a trace. id 0 (a local caller, or a wire request
// without trace_id) allocates the next session-unique id; a nonzero id
// is the client's own correlation key, echoed back verbatim.
func (s *Session) beginTrace(id int64, start time.Time) qtrace {
	if id == 0 {
		id = s.nextTrace.Add(1)
	}
	return qtrace{s: s, id: id, start: start, last: start}
}

func (q *qtrace) step(stage int, note string) {
	now := time.Now()
	q.s.spans.Record(obs.Span{
		Trace:   q.id,
		Stage:   stageNames[stage],
		StartUs: q.last.Sub(q.start).Microseconds(),
		DurUs:   now.Sub(q.last).Microseconds(),
		Note:    note,
	})
	q.s.spanStage[stage].Inc()
	q.last = now
}

// Spans exposes the per-query span ring (nil when Options.Spans is
// negative) — the admin endpoint's /trace/query/<id> source.
func (s *Session) Spans() *obs.SpanRing { return s.spans }

// Query answers a point query: goal is a literal such as
// "path(n0, X)". The goal is validated on the shared core.ParseGoal
// path, any in-flight write batch is applied (Query is fresh — the
// answer reflects every write acknowledged before the call), and the
// answer is served from the sharded result cache while the goal
// predicate's derived set has not changed since it was stored —
// otherwise from an indexed probe of the derived set the network
// maintains (bound arguments pick the index). Answers come back in
// canonical order; the returned slice is the caller's to keep.
// Concurrent queries proceed in parallel under the shared read lock.
func (s *Session) Query(ctx context.Context, goal string) ([]eval.Tuple, error) {
	answers, _, err := s.QueryStale(ctx, goal, 0)
	return answers, err
}

// QueryStale answers like Query but tolerates bounded staleness: if
// at most maxLag accepted writes are unapplied it answers from the
// last quiesced snapshot without waiting for the in-flight batch, and
// reports the actual freshness bound. A negative maxLag means
// unbounded. maxLag 0 is Query.
func (s *Session) QueryStale(ctx context.Context, goal string, maxLag int64) ([]eval.Tuple, Freshness, error) {
	answers, fr, _, err := s.QueryTraced(ctx, goal, maxLag, 0)
	return answers, fr, err
}

// QueryTraced is QueryStale plus trace correlation: traceID 0 lets the
// session allocate one, a nonzero id is the caller's correlation key.
// Either way the effective id is returned alongside the answer, and
// the query's stage spans land in Spans() under that id.
func (s *Session) QueryTraced(ctx context.Context, goal string, maxLag, traceID int64) ([]eval.Tuple, Freshness, int64, error) {
	e, fr, tid, err := s.query(ctx, goal, staleLag(maxLag), traceID)
	if err != nil {
		return nil, fr, tid, err
	}
	return append([]eval.Tuple(nil), e.answers...), fr, tid, nil
}

func staleLag(maxLag int64) int64 {
	if maxLag < 0 {
		return math.MaxInt64
	}
	return maxLag
}

// query is the one query path. It returns the entry holding the answer
// — the cached one on a hit; on a miss a fresh one, stored unless the
// cache is off — whose fields are immutable: Query and its siblings copy
// the answers out, the server writes the entry's encoding.
func (s *Session) query(ctx context.Context, goal string, maxLag, tid int64) (*cacheEntry, Freshness, int64, error) {
	start := time.Now()
	qt := s.beginTrace(tid, start)
	if err := ctx.Err(); err != nil {
		return nil, Freshness{}, qt.id, err
	}
	lit, err := core.ParseGoal(s.prog, goal) // prog is immutable: no lock
	if err != nil {
		return nil, Freshness{}, qt.id, err
	}
	qt.step(stParse, "")
	if s.Lag() > maxLag {
		if _, err := s.flush(flushFresh); err != nil {
			return nil, Freshness{}, qt.id, err
		}
	}
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil, Freshness{}, qt.id, ErrClosed
	}
	s.enterRead()
	s.queries.Inc()
	// The key renders into a stack buffer: only a miss, storing its
	// entry, makes it a string.
	var keyBuf [128]byte
	key := core.AppendCanonicalGoal(keyBuf[:0], lit)
	e := s.cache.get(key, s.c.Engine.DerivedVersion)
	if e != nil {
		s.hits.Inc()
		qt.step(stCacheProbe, "hit")
	} else {
		s.misses.Inc()
		qt.step(stCacheProbe, "miss")
		pred := lit.PredKey()
		e = &cacheEntry{key: string(key), pred: pred, ver: s.c.Engine.DerivedVersion(pred)}
		s.probeMu.Lock()
		e.answers = s.c.Engine.DerivedDB().Match(lit)
		s.probeMu.Unlock()
		qt.step(stEval, "")
		s.cache.put(e)
	}
	fr := Freshness{Lag: s.Lag(), AsOf: s.lastEnd.Load()}
	s.readers.Add(-1)
	s.mu.RUnlock()
	if fr.Lag > 0 {
		s.staleServed.Inc()
	}
	qt.step(stRespond, "")
	s.latency.Observe(time.Since(start).Microseconds())
	return e, fr, qt.id, nil
}

// enterRead tracks read-phase concurrency for the
// serve.read_concurrency gauges. Caller holds mu shared and pairs
// this with readers.Add(-1).
func (s *Session) enterRead() {
	cur := s.readers.Add(1)
	for {
		peak := s.readerPeak.Load()
		if cur <= peak || s.readerPeak.CompareAndSwap(peak, cur) {
			return
		}
	}
}

// Explain answers "why is this tuple derived": the goal must be
// ground, and the session must have provenance attached (the
// default). Buffered writes are applied first (Explain is fresh);
// the provenance walk itself runs in the concurrent read phase.
func (s *Session) Explain(ctx context.Context, goal string) (*snlog.ExplainTree, error) {
	tree, _, err := s.explain(ctx, goal, 0)
	return tree, err
}

// ExplainTraced is Explain plus trace correlation, mirroring
// QueryTraced: the effective trace id is returned and the walk's spans
// land in Spans() under it.
func (s *Session) ExplainTraced(ctx context.Context, goal string, traceID int64) (*snlog.ExplainTree, int64, error) {
	return s.explain(ctx, goal, traceID)
}

func (s *Session) explain(ctx context.Context, goal string, tid int64) (*snlog.ExplainTree, int64, error) {
	qt := s.beginTrace(tid, time.Now())
	if err := ctx.Err(); err != nil {
		return nil, qt.id, err
	}
	lit, err := core.ParseGoal(s.prog, goal)
	if err != nil {
		return nil, qt.id, err
	}
	for _, a := range lit.Args {
		if !a.Ground() {
			return nil, qt.id, fmt.Errorf("serve: explain %s: goal must be ground: %w", goal, core.ErrNotGround)
		}
	}
	qt.step(stParse, "")
	if s.Lag() > 0 {
		if _, err := s.flush(flushFresh); err != nil {
			return nil, qt.id, err
		}
	}
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil, qt.id, ErrClosed
	}
	s.enterRead()
	tree, err := s.c.Explain(lit.Predicate, lit.Args...)
	s.readers.Add(-1)
	s.mu.RUnlock()
	qt.step(stExplain, "")
	qt.step(stRespond, "")
	return tree, qt.id, err
}

// Subscribe watches a derived predicate ("name/arity"): after every
// batch apply (Query-forced, size, deadline or Sync) the
// subscription's channel carries one Update per derived tuple that
// appeared or disappeared since the previous sync. The baseline is
// the state at subscribe time, with any buffered writes applied
// first. A subscriber that falls behind its buffer loses updates
// (counted under serve.subs.dropped); Close the subscription when
// done.
func (s *Session) Subscribe(pred string) (*Subscription, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if !s.prog.IsDerived(pred) {
		if s.known[pred] {
			return nil, fmt.Errorf("serve: subscribe %s: %w", pred, core.ErrBasePredicate)
		}
		return nil, fmt.Errorf("serve: subscribe %s: %w", pred, core.ErrUnknownPredicate)
	}
	// Baseline at the current quiescent state so the subscriber sees
	// only changes from now on.
	s.flushLocked(flushExplicit)
	if _, ok := s.watched[pred]; !ok {
		s.watched[pred] = &watch{ver: s.c.Engine.DerivedVersion(pred), seen: tuplesByKey(s.c.Results(pred))}
	}
	id := s.nextSub
	s.nextSub++
	sub := &Subscription{
		s:    s,
		id:   id,
		pred: pred,
		ch:   make(chan Update, subBuffer),
	}
	s.subs[id] = sub
	return sub, nil
}

// Update is one derived-predicate change delivered to a subscriber.
type Update struct {
	// Insert is true when the tuple appeared, false when it was
	// deleted.
	Insert bool
	Tuple  eval.Tuple
}

// watch is what a subscribed predicate's subscribers last saw: its
// derived set, and the change counter it was read at.
type watch struct {
	ver  uint64
	seen map[string]eval.Tuple
}

// Subscription is a live watch on one derived predicate.
type Subscription struct {
	s    *Session
	id   int
	pred string
	ch   chan Update
}

// C is the update stream. It is closed when the subscription or the
// session closes.
func (sub *Subscription) C() <-chan Update { return sub.ch }

// Pred returns the watched predicate key.
func (sub *Subscription) Pred() string { return sub.pred }

// Close detaches the subscription and closes its channel. Idempotent.
func (sub *Subscription) Close() {
	sub.s.mu.Lock()
	defer sub.s.mu.Unlock()
	if _, live := sub.s.subs[sub.id]; live {
		delete(sub.s.subs, sub.id)
		close(sub.ch)
	}
}

// runLocked runs the simulation to quiescence and fans out
// derived-state diffs to subscribers, skipping every predicate whose
// change counter did not move. It drops the engine's query-transition
// log: the session answers from the derived view and never reads it,
// and a long-lived session would otherwise keep every transition.
// Caller holds mu exclusively.
func (s *Session) runLocked() int64 {
	end := s.c.Run()
	s.c.Engine.ResultLog = nil
	s.lastEnd.Store(end)
	for pred, w := range s.watched {
		ver := s.c.Engine.DerivedVersion(pred)
		if ver == w.ver {
			continue
		}
		prev, cur := w.seen, tuplesByKey(s.c.Results(pred))
		w.ver, w.seen = ver, cur
		var ups []Update
		for k, t := range prev {
			if _, live := cur[k]; !live {
				ups = append(ups, Update{Insert: false, Tuple: t})
			}
		}
		for k, t := range cur {
			if _, had := prev[k]; !had {
				ups = append(ups, Update{Insert: true, Tuple: t})
			}
		}
		if len(ups) == 0 {
			continue
		}
		sort.Slice(ups, func(i, j int) bool {
			if ups[i].Insert != ups[j].Insert {
				return !ups[i].Insert // deletions first
			}
			return ups[i].Tuple.Key() < ups[j].Tuple.Key()
		})
		for _, sub := range s.subs {
			if sub.pred != pred {
				continue
			}
			for _, u := range ups {
				select {
				case sub.ch <- u:
				default:
					s.subDrops.Inc()
				}
			}
		}
	}
	return end
}

// tuplesByKey indexes tuples by canonical key.
func tuplesByKey(ts []eval.Tuple) map[string]eval.Tuple {
	m := make(map[string]eval.Tuple, len(ts))
	for _, t := range ts {
		t = t.Keyed()
		m[t.Key()] = t
	}
	return m
}
