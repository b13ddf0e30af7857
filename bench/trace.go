package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/nsim"
)

// span is one timed call the harness made into a layer. Spans of one
// run share Run; Parent 0 marks a root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Run     string `json:"run"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// aggregate stands for many short spans of one name under one parent:
// a million individual handler spans would measure the tracer.
type aggregate struct {
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Count   int64  `json:"count"`
	TotalNs int64  `json:"total_ns"`
	MaxNs   int64  `json:"max_ns"`
}

// maxSpans bounds the retained per-request spans of the serve
// workloads; later requests only count towards Dropped.
const maxSpans = 20000

// tracer keeps spans in memory until write. A nil tracer records
// nothing, which is the untraced run.
type tracer struct {
	mu      sync.Mutex
	run     string
	t0      time.Time
	spans   []span
	aggs    []aggregate
	dropped int64
	tags    map[int64]int // a request's wire trace id -> its span
}

func newTracer(run string) *tracer {
	return &tracer{run: run, t0: time.Now(), tags: map[int64]int{}}
}

// start opens a span and returns its id (0 when not recorded).
func (t *tracer) start(parent int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name, StartNs: now})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.mu.Unlock()
}

// tag remembers the wire trace id of the request a span covers.
func (t *tracer) tag(id int, traceID int64) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.tags[traceID] = id
	t.mu.Unlock()
}

// child records a span whose bounds were measured elsewhere (the
// server-side stages of a request), clamped into its parent.
func (t *tracer) child(parent int, name string, startNs, durNs int64) {
	if t == nil || parent == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent-1]
	if startNs < p.StartNs {
		startNs = p.StartNs
	}
	endNs := startNs + durNs
	if endNs > p.EndNs {
		endNs = p.EndNs
	}
	if len(t.spans) >= maxSpans || endNs < startNs {
		t.dropped++
		return
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Run: t.run, Name: name, StartNs: startNs, EndNs: endNs})
}

func (t *tracer) aggregate(a aggregate) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.aggs = append(t.aggs, a)
	t.mu.Unlock()
}

// selfTimes attributes every nanosecond of the root spans to exactly
// one name: a span's self time is its duration minus what its child
// spans and aggregates cover.
func (t *tracer) selfTimes() (self map[string]int64, wallNs int64) {
	self = make(map[string]int64)
	covered := make(map[int]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			covered[s.Parent] += s.EndNs - s.StartNs
		} else {
			wallNs += s.EndNs - s.StartNs
		}
	}
	for _, a := range t.aggs {
		covered[a.Parent] += a.TotalNs
		self[a.Name] += a.TotalNs
	}
	for _, s := range t.spans {
		self[s.Name] += s.EndNs - s.StartNs - covered[s.ID]
	}
	return self, wallNs
}

type traceFile struct {
	Run        string           `json:"run"`
	Workload   string           `json:"workload"`
	Seed       int64            `json:"seed"`
	Env        environment      `json:"env"`
	WallNs     int64            `json:"wall_ns"`
	SelfNs     map[string]int64 `json:"self_ns"`
	SelfSumNs  int64            `json:"self_sum_ns"`
	Dropped    int64            `json:"dropped_spans"`
	Aggregates []aggregate      `json:"aggregates"`
	Spans      []span           `json:"spans"`
}

// write stores the trace as dir/trace-<workload>.json and returns the
// share of the wall time the layer self-times add up to.
func (t *tracer) write(dir, workload string, seed int64) (float64, error) {
	self, wall := t.selfTimes()
	var sum int64
	for _, v := range self {
		sum += v
	}
	sort.Slice(t.aggs, func(i, j int) bool { return t.aggs[i].Name < t.aggs[j].Name })
	f := traceFile{
		Run: t.run, Workload: workload, Seed: seed, Env: currentEnv(),
		WallNs: wall, SelfNs: self, SelfSumNs: sum, Dropped: t.dropped,
		Aggregates: t.aggs, Spans: t.spans,
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	b, err := json.Marshal(f)
	if err != nil {
		return 0, err
	}
	if err := os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), b, 0o644); err != nil {
		return 0, err
	}
	return ratio(float64(sum), float64(wall)), nil
}

// handlerTimes aggregates the time spent inside node handlers per
// message kind and timer key. The simulator is single-threaded (and
// the serving session runs it under its write lock), so no lock here.
type handlerTimes struct {
	recv  map[string]*aggregate
	timer map[string]*aggregate
}

func newHandlerTimes() *handlerTimes {
	return &handlerTimes{recv: map[string]*aggregate{}, timer: map[string]*aggregate{}}
}

func (h *handlerTimes) add(m map[string]*aggregate, prefix, key string, d time.Duration) {
	a := m[key]
	if a == nil {
		a = &aggregate{Name: prefix + key}
		m[key] = a
	}
	a.Count++
	a.TotalNs += int64(d)
	if int64(d) > a.MaxNs {
		a.MaxNs = int64(d)
	}
}

// recvBusy sums the handler time of the given receive kinds (all receive
// kinds when none is named) in seconds.
func (h *handlerTimes) recvBusy(kinds ...string) float64 {
	var ns int64
	if len(kinds) == 0 {
		for _, a := range h.recv {
			ns += a.TotalNs
		}
	}
	for _, k := range kinds {
		if a := h.recv[k]; a != nil {
			ns += a.TotalNs
		}
	}
	return float64(ns) / 1e9
}

func (h *handlerTimes) timerBusy() float64 {
	var ns int64
	for _, a := range h.timer {
		ns += a.TotalNs
	}
	return float64(ns) / 1e9
}

// metrics reports the handler time per message kind, the core.*_busy_s
// family.
func (h *handlerTimes) metrics(m map[string]float64) {
	m["core.handler_busy_s"] = h.recvBusy() + h.timerBusy()
	m["core.store_busy_s"] = h.recvBusy("store")
	m["core.join_busy_s"] = h.recvBusy("join")
	m["core.result_busy_s"] = h.recvBusy("result")
	m["core.timer_busy_s"] = h.timerBusy()
}

func (h *handlerTimes) aggregates(parent int) []aggregate {
	var out []aggregate
	for _, m := range []map[string]*aggregate{h.recv, h.timer} {
		for _, a := range m {
			a.Parent = parent
			out = append(out, *a)
		}
	}
	return out
}

// timedApp decorates a node's handler: nsim.Node.App is the only
// boundary inside Run that is reachable from outside the engine.
type timedApp struct {
	inner nsim.Handler
	h     *handlerTimes
}

func (a *timedApp) Init(n *nsim.Node) { a.inner.Init(n) }

func (a *timedApp) Receive(n *nsim.Node, m *nsim.Message) {
	kind := m.Kind
	t0 := time.Now()
	a.inner.Receive(n, m)
	a.h.add(a.h.recv, "core.recv.", kind, time.Since(t0))
}

func (a *timedApp) Timer(n *nsim.Node, key string, data interface{}) {
	t0 := time.Now()
	a.inner.Timer(n, key, data)
	a.h.add(a.h.timer, "core.timer.", key, time.Since(t0))
}

// instrument wraps every node's handler of a deployed network.
func instrument(nw *nsim.Network) *handlerTimes {
	h := newHandlerTimes()
	for _, n := range nw.Nodes() {
		if n.App != nil {
			n.App = &timedApp{inner: n.App, h: h}
		}
	}
	return h
}
