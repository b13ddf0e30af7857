package obs

import "sync"

// Span is one timed stage of a served query. The serving layer
// allocates a trace id at query ingress (Query/QueryStale/Explain) and
// appends one span per stage — parse, cache_probe, eval (on a miss),
// respond — so an operator can see where a specific query's latency
// went. Offsets and durations are microseconds relative to the query's
// ingress time; Note carries a small stage-specific annotation
// ("hit"/"miss" on the cache probe).
// Value-typed and JSON-tagged: the admin endpoint serves a trace's
// spans verbatim at /trace/query/<id>.
type Span struct {
	Trace   int64  `json:"trace"`
	Stage   string `json:"stage"`
	StartUs int64  `json:"start_us"`
	DurUs   int64  `json:"dur_us"`
	Note    string `json:"note,omitempty"`
}

// SpanRing is a fixed-capacity ring buffer of query spans, the
// per-query counterpart of Trace's per-event ring: when full, the
// oldest spans are overwritten, and Total keeps counting so eviction
// is detectable. The nil ring is a valid disabled ring — Record on nil
// is a single branch — which is how the serving layer turns span
// capture off without branching on configuration.
type SpanRing struct {
	mu    sync.Mutex
	buf   []Span
	start int
	n     int
	total int64
}

// NewSpanRing returns a ring retaining up to capacity spans
// (minimum 1).
func NewSpanRing(capacity int) *SpanRing {
	if capacity < 1 {
		capacity = 1
	}
	return &SpanRing{buf: make([]Span, capacity)}
}

// Record appends a span, evicting the oldest when full. No-op on a
// nil receiver.
func (r *SpanRing) Record(sp Span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.n < len(r.buf) {
		r.buf[(r.start+r.n)%len(r.buf)] = sp
		r.n++
	} else {
		r.buf[r.start] = sp
		r.start = (r.start + 1) % len(r.buf)
	}
	r.total++
	r.mu.Unlock()
}

// Len returns the number of retained spans (0 on nil).
func (r *SpanRing) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Total returns the number of spans ever recorded, including evicted
// ones (0 on nil).
func (r *SpanRing) Total() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Spans returns the retained spans in recording order.
func (r *SpanRing) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, r.n)
	for i := 0; i < r.n; i++ {
		out[i] = r.buf[(r.start+i)%len(r.buf)]
	}
	return out
}

// ByTrace returns the retained spans of one trace id in recording
// order — empty (never an error) when the trace was never recorded or
// its spans have been evicted.
func (r *SpanRing) ByTrace(id int64) []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Span
	for i := 0; i < r.n; i++ {
		if sp := r.buf[(r.start+i)%len(r.buf)]; sp.Trace == id {
			out = append(out, sp)
		}
	}
	return out
}
