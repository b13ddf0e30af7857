// Package serve is the query-serving subsystem: the long-lived front
// door between a deployed deductive program and its users. It reports
// what the network has derived: the paper hashes every derived tuple to
// a home node, Theorems 1–3 make those records the answer to every goal
// at quiescence; a session counts the engine's log of their changes
// into the deployment's one indexed copy of them (core.View) — a query
// is a probe of it, windows and faults included, with no second evaluator.
//
// A Session wraps a running cluster behind a concurrent, context-aware
// client API. Writes (Inject / DeleteAt) enqueue into a bounded buffer
// that is applied and synced as ONE coalesced batch — flushed when the
// buffer fills (Options.BatchSize), when the batch deadline's timer
// fires (Options.BatchDelay), or when an incoming query demands
// freshness. A session runs no goroutine of its own: the deadline is a
// time.AfterFunc timer, and its callback runs only while it fires.
// A sync runs the cluster to quiescence without holding readers off;
// only its last step, publishing the sync's net changes to the view,
// takes the locks queries take. The view sits behind a read-write
// lock: misses probe it side by side under the read side, and a publish
// applies the transitions under the write side. The answers cached from
// it sit behind a mutex of their own, which a query holds only for its
// cache lookup and a miss only for its store, still inside its read of
// the view; a publish holds it to drop the cached answers of every
// predicate the transitions touched (cache.go). No query waits for a
// run: Query waits only for the flush of writes acknowledged before it,
// and QueryStale opts into answering from the last published set with
// a reported freshness bound instead. Subscribers are fed the same net
// transitions.
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
	"slices"
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

// Options configures a serving session.
type Options struct {
	// Deploy is passed through to snlog.Deploy (scheme, seed, loss,
	// faults, ...).
	Deploy []snlog.Option
	// CacheSize caps the result cache in entries; 0 means the default
	// (256). Negative disables caching.
	CacheSize int
	// BatchSize bounds the write buffer: the BatchSize-th buffered
	// write flushes the batch synchronously. 0 means the default (64);
	// 1 applies every write immediately (no coalescing).
	BatchSize int
	// BatchDelay is the deadline for a non-empty write buffer: a
	// batch's first write arms a timer that applies the batch this long
	// after it, so writes are never stranded waiting for a query. 0 means
	// the default (2ms); negative disables the deadline (size- and
	// freshness-triggered flushes only — deterministic, used by the
	// benchmarks and property tests).
	BatchDelay time.Duration
	// NoProvenance deploys with provenance capture off. Explain then
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
	stCacheProbe        // result-cache lookup (note: "hit"/"miss")
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

// Session is one served deployment: a cluster, the published view, the
// result cache, the write buffer, and the subscriber fan-out. All
// methods are safe for concurrent use by many goroutines ("clients").
//
// Concurrency contract: runMu serialises everything that drives or
// walks the engine — a flush (apply the batch, run to quiescence),
// Replay, Explain, Subscribe, Close and the metric samples — and guards
// subs. Queries never take it. viewMu guards view: a miss probes it
// under the read side (eval.Database.MatchRead, which writes nothing),
// and takes the write side only to build an index the probe found
// missing; a publish applies its transitions under the write side. mu
// guards cache: a hit holds it for its lookup, a miss for its store
// (inside its viewMu section, so no publish lands between probe and
// store), a publish for the drop of stale entries.
// The freshness horizon (appliedSeq, lastEnd) moves holding both, so
// either one reads it consistent with what it guards. Writes validate
// against the immutable program and topology without a lock, append to
// the buffer under bmu, and return; only the flush pays the sync. A
// batch's first write arms the deadline timer under bmu, where Close
// stops it, so none is armed after Close; its callback is a flush like
// any other. Lock order: runMu, viewMu, mu, bmu.
type Session struct {
	runMu  sync.Mutex
	viewMu sync.RWMutex
	mu     sync.Mutex
	c      *snlog.Cluster
	opts   Options
	closed atomic.Bool // stored holding runMu and bmu

	// view is the derived set as of the last publish, the deployment's
	// only copy (written holding runMu, its database holding viewMu too).
	// cache holds answers probed from it (cache.go), under mu.
	view  *core.View
	cache map[string]*cacheEntry

	subs    map[int64]*Subscription
	nextSub int64 // the last subscription's id; ids start at 1

	// Write buffer. bmu orders enqueues against drains; enqSeq is the
	// last accepted write's sequence number (stored while bmu is
	// held), appliedSeq the last one published (stored while mu is
	// held). Lag = enqSeq - appliedSeq. deadline, under bmu, is the
	// batch deadline's timer, made by the first batch that arms it (nil
	// while none has, and always when BatchDelay < 0).
	bmu        sync.Mutex
	pending    []writeOp
	nextSeq    int64 // under bmu
	deadline   *time.Timer
	enqSeq     atomic.Int64
	appliedSeq atomic.Int64
	lastEnd    atomic.Int64 // virtual time of the last published quiesce

	readers    atomic.Int64 // queries between their cache lookup and their answer
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
//
// Open runs the deployment to quiescence before it returns, and that
// run drains every scheduled event: with snlog.WithFaults, the whole
// fault schedule plays out before the first write, so no served write
// can fall inside a crash window. Syncing to a horizon instead
// (ROADMAP item 4(c)) is the fix.
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
	s := &Session{
		c:     c,
		opts:  opts,
		cache: make(map[string]*cacheEntry),
		subs:  make(map[int64]*Subscription),

		queries:      reg.Counter("serve.queries"),
		hits:         reg.Counter("serve.cache.hits"),
		misses:       reg.Counter("serve.cache.misses"),
		evictions:    reg.Counter("serve.cache.evictions"),
		subDrops:     reg.Counter("serve.subs.dropped"),
		batchWrites:  reg.Counter("serve.batch.writes"),
		batchFlushes: reg.Counter("serve.batch.flushes"),
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
	// Every derived predicate is logged from the first run on, which is
	// published onto an empty view as a sync is; nothing else holds s yet.
	for _, pred := range c.Engine.Analysis().Program.DerivedPredicates() {
		c.Engine.Watch(pred)
	}
	s.view = core.NewView()
	s.runLocked(0)
	if err := ctx.Err(); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// Cluster exposes the wrapped deployment. The session runs it on every
// sync, without a lock readers hold: read it only while no sync can
// run, and drive mutations through the session.
func (s *Session) Cluster() *snlog.Cluster { return s.c }

// Snapshot samples every metric of the deployment plus the serving
// counters (serve.queries, serve.cache.*, serve.batch.*,
// serve.query_latency.*).
func (s *Session) Snapshot() snlog.Snapshot { return s.Families().Snapshot() }

// Families samples the deployment's registry between syncs: the
// simulator's and the node runtime's providers read state a run writes,
// so sampling waits for the sync in progress. It is the admin
// endpoint's source (export.Source.Sample).
func (s *Session) Families() obs.Families {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	return s.c.Registry().Families()
}

// Lag reports the current freshness gap: accepted writes not yet
// applied, synced and published.
func (s *Session) Lag() int64 { return s.enqSeq.Load() - s.appliedSeq.Load() }

// Close shuts the session: the batch deadline's timer is stopped, the
// remaining write batch is applied (every acknowledged write reaches
// the deployment), subscriptions are closed, and every later operation
// returns ErrClosed. Idempotent.
func (s *Session) Close() error {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	if s.closed.Load() {
		return nil
	}
	// Closed first, under bmu, so no write is appended and no deadline
	// armed after the drain. A callback already firing finds the
	// session closed and does nothing.
	s.bmu.Lock()
	s.closed.Store(true)
	if s.deadline != nil {
		s.deadline.Stop()
	}
	s.bmu.Unlock()
	s.flushLocked(flushExplicit)
	for _, sub := range s.subs {
		sub.detach()
	}
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
// arms the deadline timer.
func (s *Session) enqueue(kind opKind, at int64, node int, t eval.Tuple) (int64, error) {
	if err := s.c.Validate(node, t); err != nil {
		return 0, err
	}
	t = t.Keyed()
	s.bmu.Lock()
	if s.closed.Load() {
		s.bmu.Unlock()
		return 0, ErrClosed
	}
	s.nextSeq++
	seq := s.nextSeq
	s.pending = append(s.pending, writeOp{seq: seq, kind: kind, at: at, node: node, tuple: t})
	n := len(s.pending)
	s.enqSeq.Store(seq)
	if n == 1 && s.opts.BatchSize > 1 && s.opts.BatchDelay > 0 {
		// The batch's first write arms its deadline. If a size or fresh
		// flush drains the batch first, the deadline's flush finds the
		// buffer empty and does nothing.
		if s.deadline == nil {
			s.deadline = time.AfterFunc(s.opts.BatchDelay, func() { s.flush(flushDeadline) })
		} else {
			s.deadline.Reset(s.opts.BatchDelay)
		}
	}
	s.bmu.Unlock()
	s.batchWrites.Inc()
	if n >= s.opts.BatchSize {
		// This writer pays the coalesced apply+sync for the whole
		// batch. A concurrent Close may have drained the buffer first;
		// the write was applied there, so ErrClosed is not a failure.
		if _, err := s.flush(flushSize); err != nil && !errors.Is(err, ErrClosed) {
			return seq, err
		}
	}
	return seq, nil
}

// flush applies the buffered batch under runMu.
func (s *Session) flush(reason int) (int64, error) {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	if s.closed.Load() {
		return 0, ErrClosed
	}
	return s.flushLocked(reason), nil
}

// flushLocked drains the write buffer, applies every operation in
// acceptance order, runs the cluster to quiescence once for the whole
// batch and publishes the result (runLocked). Caller holds runMu.
// Outside runMu the cluster is always quiescent, so an empty buffer
// means there is nothing to do.
func (s *Session) flushLocked(reason int) int64 {
	s.bmu.Lock()
	ops := s.pending
	s.pending = nil
	s.bmu.Unlock()
	if len(ops) == 0 {
		return s.lastEnd.Load()
	}
	for _, op := range ops {
		s.applyLocked(op)
	}
	s.batchFlushes.Inc()
	s.flushReasons[reason].Inc()
	s.batchSizes.Observe(int64(len(ops)))
	return s.runLocked(ops[len(ops)-1].seq)
}

// applyLocked replays one buffered write against the cluster. Caller
// holds runMu.
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

// Replay schedules Cluster.Replay's repair pass and runs it: every
// node re-launches its own base generations, read off its replica
// store, so any deployment can replay. Repair rebuilds the engine's
// derived set wholesale; what it publishes is the net change, so a
// cached answer outlives it exactly when its predicate came back as it
// was. Buffered writes are applied first so the repair sees the full
// acknowledged timeline.
func (s *Session) Replay() error {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	if s.closed.Load() {
		return ErrClosed
	}
	s.flushLocked(flushExplicit)
	s.c.Replay()
	s.runLocked(s.appliedSeq.Load())
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

// qtrace carries one query's trace through its stages: step bumps the
// stage's counter and, when the session keeps a span ring, appends a
// span covering the time since the previous step. With no ring
// (Options.Spans < 0) a step reads no clock.
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
	q.s.spanStage[stage].Inc()
	if q.s.spans == nil {
		return
	}
	now := time.Now()
	q.s.spans.Record(obs.Span{
		Trace:   q.id,
		Stage:   stageNames[stage],
		StartUs: q.last.Sub(q.start).Microseconds(),
		DurUs:   now.Sub(q.last).Microseconds(),
		Note:    note,
	})
	q.last = now
}

// Spans exposes the per-query span ring (nil when Options.Spans is
// negative) — the admin endpoint's /trace/query/<id> source.
func (s *Session) Spans() *obs.SpanRing { return s.spans }

// Query answers a point query: goal is a literal such as
// "path(n0, X)". The goal is validated on the shared core.ParseGoal
// path, any in-flight write batch is applied (Query is fresh — the
// answer reflects every write acknowledged before the call), and the
// answer is served from the result cache while the goal
// predicate's published set has not changed since it was stored —
// otherwise from an indexed probe of the derived set the network
// maintains, as last published (bound arguments pick the index).
// Answers come back in canonical order; the returned slice is the
// caller's to keep. Queries proceed beside a sync; concurrent misses
// probe side by side, and queries take turns only for the cache lookup
// and a miss's store.
func (s *Session) Query(ctx context.Context, goal string) ([]eval.Tuple, error) {
	answers, _, err := s.QueryStale(ctx, goal, 0)
	return answers, err
}

// QueryStale answers like Query but tolerates bounded staleness: if
// at most maxLag accepted writes are unpublished it answers from the
// last published set without waiting for the in-flight batch, and
// reports the actual freshness bound. A negative maxLag means
// unbounded. maxLag 0 is Query.
func (s *Session) QueryStale(ctx context.Context, goal string, maxLag int64) ([]eval.Tuple, Freshness, error) {
	e, fr, _, err := s.query(ctx, goal, staleLag(maxLag), 0)
	if err != nil {
		return nil, fr, err
	}
	return append([]eval.Tuple(nil), e.answers...), fr, nil
}

func staleLag(maxLag int64) int64 {
	if maxLag < 0 {
		return math.MaxInt64
	}
	return maxLag
}

// query is the one query path. It returns the entry holding the answer
// — the cached one on a hit; on a miss a fresh one, stored unless the
// cache is off — whose fields are immutable: Query and QueryStale copy
// the answers out, the server writes the entry's encoding. tid 0
// allocates a trace id, a nonzero one is the caller's correlation key;
// the effective id is returned, and the stage spans land in Spans()
// under it.
func (s *Session) query(ctx context.Context, goal string, maxLag, tid int64) (*cacheEntry, Freshness, int64, error) {
	start := time.Now()
	qt := s.beginTrace(tid, start)
	if err := ctx.Err(); err != nil {
		return nil, Freshness{}, qt.id, err
	}
	lit, err := s.c.Engine.ParseGoal(goal) // the program is immutable: no lock
	if err != nil {
		return nil, Freshness{}, qt.id, err
	}
	qt.step(stParse, "")
	if s.Lag() > maxLag {
		if _, err := s.flush(flushFresh); err != nil {
			return nil, Freshness{}, qt.id, err
		}
	}
	if s.closed.Load() {
		return nil, Freshness{}, qt.id, ErrClosed
	}
	s.queries.Inc()
	// The key renders into a stack buffer: only a miss, storing its
	// entry, makes it a string.
	var keyBuf [128]byte
	key := core.AppendCanonicalGoal(keyBuf[:0], lit)
	s.enterRead()
	var e *cacheEntry
	var fr Freshness
	if s.opts.CacheSize > 0 {
		s.mu.Lock()
		if e = s.cache[string(key)]; e != nil {
			fr = s.freshness()
		}
		s.mu.Unlock()
	}
	if e != nil {
		s.hits.Inc()
		qt.step(stCacheProbe, "hit")
	} else {
		s.misses.Inc()
		qt.step(stCacheProbe, "miss")
		e, fr = s.miss(lit, key)
		qt.step(stEval, "")
	}
	s.readers.Add(-1)
	if fr.Lag > 0 {
		s.staleServed.Inc()
	}
	qt.step(stRespond, "")
	s.latency.Observe(time.Since(start).Microseconds())
	return e, fr, qt.id, nil
}

// miss probes the published view for lit under viewMu's read side,
// beside other misses, and stores the answer under key before leaving
// it: a publish needs the write side, so none lands between probe and
// store, and a stored answer is always what a fresh probe of the
// published view returns. A goal whose index is missing (never probed,
// or dropped by a compaction) builds it under the write side and
// probes and stores there.
func (s *Session) miss(lit ast.Literal, key []byte) (*cacheEntry, Freshness) {
	s.viewMu.RLock()
	if answers, ok := s.view.MatchRead(lit); ok {
		e, fr := s.keep(lit, key, answers)
		s.viewMu.RUnlock()
		return e, fr
	}
	s.viewMu.RUnlock()
	s.viewMu.Lock()
	e, fr := s.keep(lit, key, s.view.Match(lit))
	s.viewMu.Unlock()
	return e, fr
}

// keep stores a miss's answers to lit under key (unless the cache is
// off) and returns them with the view's freshness. Caller holds viewMu,
// either side, since the probe.
func (s *Session) keep(lit ast.Literal, key []byte, answers []eval.Tuple) (*cacheEntry, Freshness) {
	e := &cacheEntry{pred: lit.PredKey(), answers: answers}
	if s.opts.CacheSize > 0 {
		s.mu.Lock()
		s.store(string(key), e)
		s.mu.Unlock()
	}
	return e, s.freshness()
}

// freshness is the bound an answer from the published view carries.
// Caller holds viewMu or mu: a publish moves appliedSeq and lastEnd
// holding both.
func (s *Session) freshness() Freshness {
	return Freshness{Lag: s.Lag(), AsOf: s.lastEnd.Load()}
}

// enterRead counts a query in flight for the serve.read_concurrency
// gauges: from just before its cache lookup until its answer is in hand
// (a miss's probe and store included), so concurrent misses count
// together. Caller pairs this with readers.Add(-1).
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
// default). Buffered writes are applied first (Explain is fresh). The
// provenance walk reads the engine's own records, so it is serialised
// with syncs (under runMu); queries proceed beside it.
func (s *Session) Explain(ctx context.Context, goal string) (*snlog.ExplainTree, error) {
	tree, _, err := s.explain(ctx, goal, 0)
	return tree, err
}

// ExplainTraced is Explain plus trace correlation: traceID 0 lets the
// session allocate one, a nonzero id is the caller's correlation key;
// the effective id is returned and the walk's spans land in Spans()
// under it.
func (s *Session) ExplainTraced(ctx context.Context, goal string, traceID int64) (*snlog.ExplainTree, int64, error) {
	return s.explain(ctx, goal, traceID)
}

func (s *Session) explain(ctx context.Context, goal string, tid int64) (*snlog.ExplainTree, int64, error) {
	qt := s.beginTrace(tid, time.Now())
	if err := ctx.Err(); err != nil {
		return nil, qt.id, err
	}
	lit, err := s.c.Engine.ParseGoal(goal)
	if err != nil {
		return nil, qt.id, err
	}
	for _, a := range lit.Args {
		if !a.Ground() {
			return nil, qt.id, fmt.Errorf("serve: explain %s: goal must be ground: %w", goal, core.ErrNotGround)
		}
	}
	qt.step(stParse, "")
	s.runMu.Lock()
	if s.closed.Load() {
		s.runMu.Unlock()
		return nil, qt.id, ErrClosed
	}
	s.flushLocked(flushFresh)
	tree, err := s.c.Explain(lit.Predicate, lit.Args...)
	s.runMu.Unlock()
	qt.step(stExplain, "")
	qt.step(stRespond, "")
	return tree, qt.id, err
}

// Subscribe watches a derived predicate ("name/arity"): after every
// batch apply (Query-forced, size, deadline or Sync) the
// subscription's channel carries one Update per derived tuple that
// appeared or disappeared since the previous sync. Updates start from
// the state at subscribe time, with any buffered writes applied
// first. A subscriber that falls behind its buffer loses updates
// (counted under serve.subs.dropped); Close the subscription when
// done.
func (s *Session) Subscribe(pred string) (*Subscription, error) {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	if s.closed.Load() {
		return nil, ErrClosed
	}
	switch derived, err := s.c.Engine.ClassifyPred(pred); {
	case err != nil:
		return nil, fmt.Errorf("serve: subscribe %s: %w", pred, err)
	case !derived:
		return nil, fmt.Errorf("serve: subscribe %s: %w", pred, core.ErrBasePredicate)
	}
	// Apply the buffered writes first, so the subscriber sees only
	// changes from the current quiescent state on.
	s.flushLocked(flushExplicit)
	s.nextSub++
	sub := &Subscription{s: s, id: s.nextSub, pred: pred, ch: make(chan Update, subBuffer)}
	s.subs[sub.id] = sub
	return sub, nil
}

// Update is one derived-predicate change delivered to a subscriber.
type Update struct {
	// Insert is true when the tuple appeared, false when it was
	// deleted.
	Insert bool
	Tuple  eval.Tuple
}

// Subscription is a live watch on one derived predicate. Its id,
// unique in the session from 1 on, names it on the wire too.
type Subscription struct {
	s    *Session
	id   int64
	pred string
	ch   chan Update
}

// C is the update stream. It is closed when the subscription or the
// session closes.
func (sub *Subscription) C() <-chan Update { return sub.ch }

// Pred returns the subscribed predicate key.
func (sub *Subscription) Pred() string { return sub.pred }

// Close detaches the subscription and closes its channel. Idempotent.
func (sub *Subscription) Close() {
	s := sub.s
	s.runMu.Lock()
	defer s.runMu.Unlock()
	if _, live := s.subs[sub.id]; live {
		sub.detach()
	}
}

// detach removes a live subscription and closes its channel. Caller
// holds runMu.
func (sub *Subscription) detach() {
	delete(sub.s.subs, sub.id)
	close(sub.ch)
}

// runLocked runs the simulation to quiescence and publishes what it
// derived, as of write seq: the view nets the engine's log by home count
// outside every lock readers take, applies the net changes under viewMu
// (holding misses off), then drops the cached answers of every
// predicate they touched under mu (holding hits off), and fans them out
// to subscribers, removals first and then by key. The log is dropped,
// so a long-lived session keeps none. Caller holds runMu.
func (s *Session) runLocked(seq int64) int64 {
	end := s.c.Run()
	changes := s.view.Net(s.c.Engine.ResultLog)
	s.c.Engine.ResultLog = nil
	var predBuf [8]string
	touched := predBuf[:0] // the distinct predicates of changes
	for _, ev := range changes {
		if !slices.Contains(touched, ev.Tuple.Pred) {
			touched = append(touched, ev.Tuple.Pred)
		}
	}
	s.viewMu.Lock()
	s.view.Apply(changes)
	s.mu.Lock()
	s.dropCached(touched)
	s.appliedSeq.Store(seq)
	s.lastEnd.Store(end)
	s.mu.Unlock()
	s.viewMu.Unlock()
	for _, sub := range s.subs {
		for _, ev := range changes {
			if ev.Tuple.Pred != sub.pred {
				continue
			}
			select {
			case sub.ch <- Update{Insert: ev.Insert, Tuple: ev.Tuple}:
			default:
				s.subDrops.Inc()
			}
		}
	}
	return end
}
