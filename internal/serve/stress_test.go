package serve

import (
	"context"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	snlog "repro"
	"repro/internal/datalog/eval"
)

// itemSrc is deliberately monotone (insert-only schedule, no
// negation): derived state only grows, so every reader can assert
// monotonicity of what it sees.
const itemSrc = `
.base item/1.
seen(X) :- item(X).
.query seen/1.
`

// TestWireConcurrentReadersWriterStress drives the full TCP wire — not
// the in-process Session — with one writer connection, several reader
// connections issuing bounded-stale queries, and a subscriber
// connection, all concurrent. Run under -race (make race covers this
// package). Asserted:
//
//   - no lost subscribe deltas: every one of the writer's inserts
//     arrives at the subscriber exactly once (and the server dropped
//     nothing);
//   - monotone freshness bounds per reader: answer counts and AsOf
//     never go backwards, and reported lag is never negative;
//   - the final fresh answer is the full write set;
//   - on a second session, where a writer cycles the insert, sync and
//     delete of a chain's tail link, every stale answer a reader gets
//     is the snlog.Eval closure of the chain with or without the tail
//     (a sync's run is never visible half done), and after the closing
//     sync the answer is the closure without it.
func TestWireConcurrentReadersWriterStress(t *testing.T) {
	s := openSession(t, itemSrc, Options{BatchSize: 8})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(s, ln)
	t.Cleanup(func() { srv.Close() })

	const (
		writes  = 40
		readers = 4
	)
	ctx := context.Background()

	// Subscriber first, so its baseline predates every write.
	subClient := dialClient(t, srv)
	sub, err := subClient.Subscribe(ctx, "seen/1", writes*2)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, readers+1)
	stop := make(chan struct{})

	// One writer: distinct inserts, periodic syncs, final sync.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		c, err := Dial(srv.Addr().String())
		if err != nil {
			errs <- err
			return
		}
		defer c.Close()
		for i := 0; i < writes; i++ {
			if err := c.Inject(ctx, i%9, fmt.Sprintf("item(i%d)", i)); err != nil {
				errs <- fmt.Errorf("writer inject %d: %w", i, err)
				return
			}
			if i%8 == 7 {
				if _, err := c.Sync(ctx); err != nil {
					errs <- fmt.Errorf("writer sync: %w", err)
					return
				}
			}
		}
		if _, err := c.Sync(ctx); err != nil {
			errs <- fmt.Errorf("writer final sync: %w", err)
		}
	}()

	// Readers: unbounded-stale queries; monotone counts, AsOf, lag>=0.
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c, err := Dial(srv.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			var lastCount int
			var lastAsOf int64
			for done := false; !done; {
				select {
				case <-stop:
					done = true // one final pass after the writer finishes
				default:
				}
				tuples, fr, err := c.QueryStale(ctx, "seen(X)", -1)
				if err != nil {
					errs <- fmt.Errorf("reader %d query: %w", r, err)
					return
				}
				if fr.Lag < 0 {
					errs <- fmt.Errorf("reader %d: negative lag %d", r, fr.Lag)
					return
				}
				if len(tuples) < lastCount {
					errs <- fmt.Errorf("reader %d: answers went backwards %d -> %d (monotone schedule)", r, lastCount, len(tuples))
					return
				}
				if fr.AsOf < lastAsOf {
					errs <- fmt.Errorf("reader %d: AsOf went backwards %d -> %d", r, lastAsOf, fr.AsOf)
					return
				}
				lastCount, lastAsOf = len(tuples), fr.AsOf
			}
			// Fresh read: must see the complete write set.
			tuples, fr, err := c.QueryStale(ctx, "seen(X)", 0)
			if err != nil {
				errs <- fmt.Errorf("reader %d final: %w", r, err)
				return
			}
			if len(tuples) != writes || fr.Lag != 0 {
				errs <- fmt.Errorf("reader %d final: %d answers lag %d, want %d answers lag 0", r, len(tuples), fr.Lag, writes)
			}
		}(r)
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Every insert delta arrives, exactly once, none dropped.
	got := map[string]bool{}
	deadline := time.After(5 * time.Second)
	for len(got) < writes {
		select {
		case ev := <-sub.C():
			if !ev.Insert {
				t.Fatalf("deletion delta on an insert-only schedule: %+v", ev)
			}
			if got[ev.Tuple] {
				t.Fatalf("duplicate delta %q", ev.Tuple)
			}
			got[ev.Tuple] = true
		case <-deadline:
			t.Fatalf("timed out with %d/%d deltas", len(got), writes)
		}
	}
	if n := s.Snapshot().Get("serve.subs.dropped"); n != 0 {
		t.Errorf("serve.subs.dropped = %d, want 0", n)
	}
	// And the read path really ran concurrently at least once is too
	// timing-dependent to assert; what is deterministic is that the
	// gauge machinery tracked the readers.
	if s.readerPeak.Load() < 1 {
		t.Error("read-concurrency peak gauge never moved")
	}
	tailChurn(t)
}

// tailChurn is the stress test's oracle phase: a writer connection
// injects the tail link of a chain, syncs and deletes it again, cycle
// after cycle, while a reader connection asks reach(X, Y) with
// unbounded staleness.
func tailChurn(t *testing.T) {
	srv, _ := startServerOpts(t, reachSrc, Options{BatchSize: 8})
	ctx := context.Background()
	var chain []eval.Tuple
	for i := 0; i < 4; i++ {
		chain = append(chain, link(fmt.Sprintf("c%d", i), fmt.Sprintf("c%d", i+1)))
	}
	tail := link("c4", "c5")
	closure := func(facts []eval.Tuple) string {
		db, err := snlog.Eval(reachSrc, facts)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, tup := range db.Tuples("reach/2") {
			out = append(out, tup.String())
		}
		return strings.Join(out, " ")
	}
	without, with := closure(chain), closure(append(chain[:len(chain):len(chain)], tail))
	w := dialClient(t, srv)
	for i, l := range chain {
		if err := w.Inject(ctx, i, l.String()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	answer := func(c *Client, maxLag int64) string {
		got, _, err := c.QueryStale(ctx, "reach(X, Y)", maxLag)
		if err != nil {
			t.Error(err)
		}
		sort.Strings(got)
		return strings.Join(got, " ")
	}
	r := dialClient(t, srv)
	stop := make(chan struct{})
	var reads int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for done := false; !done; reads++ {
			select {
			case <-stop:
				done = true
			default:
			}
			if got := answer(r, -1); got != with && got != without {
				t.Errorf("stale read %d: %s\nwant the closure with the tail (%s) or without it (%s)", reads, got, with, without)
				return
			}
		}
	}()
	for i := 0; i < 30; i++ {
		if err := w.Inject(ctx, i%9, tail.String()); err != nil {
			t.Fatal(err)
		}
		now, err := w.Sync(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.DeleteAt(ctx, now+1, i%9, tail.String()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if got := answer(r, 0); got != without {
		t.Errorf("after the closing sync: %s, want %s", got, without)
	}
	t.Logf("tail churn: %d stale reads over 30 write cycles", reads)
}

// Snapshot samples the providers of the simulator and the node runtime,
// which read state a sync writes: a Snapshot taken while another
// goroutine syncs must wait for the sync rather than read that state
// mid-run. Run under -race (make race).
func TestSnapshotDuringSync(t *testing.T) {
	s := openSession(t, reachSrc, Options{BatchDelay: -1})
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.Snapshot()
		}
	}()
	ctx := context.Background()
	for i := 0; i < 30; i++ {
		if err := s.Inject(i%9, link(fmt.Sprintf("v%d", i), fmt.Sprintf("v%d", i+1))); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Sync(ctx); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	<-done
}
