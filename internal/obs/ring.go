package obs

import "sync"

// ring is the fixed-capacity buffer behind Trace and SpanRing: when
// full, the oldest value is overwritten, and total keeps counting so
// eviction is detectable. Its methods take the lock; the wrappers own
// nil-receiver safety.
type ring[T any] struct {
	mu    sync.Mutex
	buf   []T
	start int   // index of the oldest retained value
	n     int   // retained values
	total int64 // values ever recorded
}

func newRing[T any](capacity int) ring[T] {
	return ring[T]{buf: make([]T, max(capacity, 1))}
}

// push appends v, evicting the oldest when full. Caller holds mu.
func (r *ring[T]) push(v T) {
	if r.n < len(r.buf) {
		r.buf[(r.start+r.n)%len(r.buf)] = v
		r.n++
	} else {
		r.buf[r.start] = v
		r.start = (r.start + 1) % len(r.buf)
	}
	r.total++
}

func (r *ring[T]) record(v T) {
	r.mu.Lock()
	r.push(v)
	r.mu.Unlock()
}

func (r *ring[T]) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

func (r *ring[T]) count() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

func (r *ring[T]) dropped() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total - int64(r.n)
}

// matching returns the retained values keep accepts, oldest first;
// nil keep accepts everything.
func (r *ring[T]) matching(keep func(T) bool) []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []T
	if keep == nil {
		out = make([]T, 0, r.n)
	}
	for i := 0; i < r.n; i++ {
		if v := r.buf[(r.start+i)%len(r.buf)]; keep == nil || keep(v) {
			out = append(out, v)
		}
	}
	return out
}
