package obs

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
type SpanRing struct{ ring[Span] }

// NewSpanRing returns a ring retaining up to capacity spans
// (minimum 1).
func NewSpanRing(capacity int) *SpanRing {
	return &SpanRing{newRing[Span](capacity)}
}

// Record appends a span, evicting the oldest when full. No-op on a
// nil receiver.
func (r *SpanRing) Record(sp Span) {
	if r != nil {
		r.record(sp)
	}
}

// Len returns the number of retained spans (0 on nil).
func (r *SpanRing) Len() int {
	if r == nil {
		return 0
	}
	return r.len()
}

// Total returns the number of spans ever recorded, including evicted
// ones (0 on nil).
func (r *SpanRing) Total() int64 {
	if r == nil {
		return 0
	}
	return r.count()
}

// Spans returns the retained spans in recording order.
func (r *SpanRing) Spans() []Span {
	if r == nil {
		return nil
	}
	return r.matching(nil)
}

// ByTrace returns the retained spans of one trace id in recording
// order — empty (never an error) when the trace was never recorded or
// its spans have been evicted.
func (r *SpanRing) ByTrace(id int64) []Span {
	if r == nil {
		return nil
	}
	return r.matching(func(sp Span) bool { return sp.Trace == id })
}
