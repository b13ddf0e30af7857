package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	snlog "repro"
	"repro/internal/core"
)

func startServer(t *testing.T, src string) (*Server, *Session) {
	t.Helper()
	return startServerOpts(t, src, Options{})
}

func startServerOpts(t *testing.T, src string, opts Options) (*Server, *Session) {
	t.Helper()
	s := openSession(t, src, opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(s, ln)
	t.Cleanup(func() { srv.Close() })
	return srv, s
}

func dialClient(t *testing.T, srv *Server) *Client {
	t.Helper()
	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// One client exercising the full wire surface end to end: inject,
// query (twice — second from cache), explain, stats, delete, requery.
// `make serve-smoke` runs exactly this test.
func TestServeSmoke(t *testing.T) {
	srv, _ := startServer(t, reachSrc)
	c := dialClient(t, srv)
	ctx := context.Background()

	if err := c.Ping(ctx); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"link(a, b)", "link(b, c)"} {
		if err := c.Inject(ctx, 0, f); err != nil {
			t.Fatalf("inject %s: %v", f, err)
		}
	}
	got, err := c.Query(ctx, "reach(a, X)")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("reach(a, X) = %v", got)
	}
	if _, err := c.Query(ctx, "reach(a, Y)"); err != nil {
		t.Fatal(err)
	}
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats["serve.cache.hits"] != 1 {
		t.Errorf("serve.cache.hits = %d, want 1 (second query cached)", stats["serve.cache.hits"])
	}
	if stats["serve.queries"] != 2 {
		t.Errorf("serve.queries = %d, want 2", stats["serve.queries"])
	}
	expl, err := c.Explain(ctx, "reach(a, c)")
	if err != nil {
		t.Fatal(err)
	}
	if expl == "" {
		t.Error("empty explain")
	}
	if err := c.DeleteAt(ctx, 100, 0, "link(b, c)"); err != nil {
		t.Fatal(err)
	}
	got, err = c.Query(ctx, "reach(a, X)")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Errorf("after delete: %v, want [reach(a, b)]", got)
	}
}

// Typed sentinels survive the wire: the client reconstructs an error
// that errors.Is-matches the same sentinel the in-process API returns.
func TestWireTypedErrors(t *testing.T) {
	srv, _ := startServer(t, reachSrc)
	c := dialClient(t, srv)
	ctx := context.Background()
	cases := []struct {
		name string
		call func() error
		want error
	}{
		{"query base", func() error { _, err := c.Query(ctx, "link(a, X)"); return err }, core.ErrBasePredicate},
		{"query arity", func() error { _, err := c.Query(ctx, "reach(X)"); return err }, core.ErrArity},
		{"query unknown", func() error { _, err := c.Query(ctx, "ghost(X)"); return err }, core.ErrUnknownPredicate},
		{"query malformed", func() error { _, err := c.Query(ctx, "reach(X"); return err }, core.ErrBadGoal},
		{"inject derived", func() error { return c.Inject(ctx, 0, "reach(a, b)") }, core.ErrDerivedPredicate},
		{"inject bad node", func() error { return c.Inject(ctx, -1, "link(a, b)") }, core.ErrBadNode},
		{"inject non-ground", func() error { return c.Inject(ctx, 0, "link(X, b)") }, core.ErrNotGround},
		{"explain non-ground", func() error { _, err := c.Explain(ctx, "reach(a, X)"); return err }, core.ErrNotGround},
	}
	for _, tc := range cases {
		if err := tc.call(); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want errors.Is(%v)", tc.name, err, tc.want)
		}
	}
}

func TestWireSubscription(t *testing.T) {
	srv, _ := startServer(t, reachSrc)
	c := dialClient(t, srv)
	ctx := context.Background()
	sub, err := c.Subscribe(ctx, "reach/2", 16)
	if err != nil {
		t.Fatal(err)
	}
	// The wire names a subscription by its Subscription's id, from 1.
	if sub.id != 1 {
		t.Errorf("first wire subscription id = %d, want 1", sub.id)
	}
	if err := c.Inject(ctx, 0, "link(a, b)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-sub.C():
		if !ev.Insert || ev.Tuple != "reach(a, b)" {
			t.Errorf("event = %+v", ev)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no subscription event delivered")
	}
	if err := sub.Close(); err != nil {
		t.Fatal(err)
	}
	// After unsubscribe, further changes deliver nothing.
	if err := c.Inject(ctx, 0, "link(b, c)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	select {
	case ev, open := <-sub.C():
		if open {
			t.Errorf("event after unsubscribe: %+v", ev)
		}
	case <-time.After(100 * time.Millisecond):
	}
}

// Many concurrent clients against one daemon, each on its own
// connection, interleaving the full op mix. Run under -race.
func TestConcurrentWireClients(t *testing.T) {
	srv, s := startServer(t, reachSrc)
	const clients = 6
	var wg sync.WaitGroup
	errs := make(chan error, clients*4)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := Dial(srv.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			ctx := context.Background()
			a := fmt.Sprintf("w%d", id)
			b := fmt.Sprintf("w%d", (id+1)%clients)
			sub, err := c.Subscribe(ctx, "reach/2", 256)
			if err != nil {
				errs <- err
				return
			}
			for j := 0; j < 8; j++ {
				if err := c.Inject(ctx, id%9, fmt.Sprintf("link(%s, %s)", a, b)); err != nil {
					errs <- fmt.Errorf("client %d inject: %w", id, err)
				}
				if _, err := c.Query(ctx, fmt.Sprintf("reach(%s, X)", a)); err != nil {
					errs <- fmt.Errorf("client %d query: %w", id, err)
				}
				for drained := false; !drained; {
					select {
					case <-sub.C():
					default:
						drained = true
					}
				}
			}
			sub.Close()
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// The ring is fully linked: every node reaches every other.
	got, err := s.Query(context.Background(), "reach(w0, X)")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != clients {
		t.Errorf("final reach(w0, X) = %d answers, want %d", len(got), clients)
	}
}

// The daemon wrapper deploys via the same Options path the tests use;
// pin that Open rejects a bad program instead of serving garbage.
func TestOpenRejectsBadProgram(t *testing.T) {
	_, err := Open(context.Background(), "p(X) :- q(Y).", snlog.Grid(2), Options{})
	if err == nil {
		t.Fatal("unsafe program accepted")
	}
}

// Write acks and freshness bounds travel the wire: a write is
// acknowledged as batched with its sequence number, sync reports the
// applied sequence, and a stale query reports its lag.
func TestWireBatchAckAndStaleQuery(t *testing.T) {
	s := openSession(t, reachSrc, Options{BatchSize: 1024, BatchDelay: -1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(s, ln)
	t.Cleanup(func() { srv.Close() })
	c := dialClient(t, srv)
	ctx := context.Background()

	// Raw call so the ack fields are visible.
	resp, err := c.call(ctx, &Request{Op: "inject", Node: 0, Arg: "link(a, b)"})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Batched || resp.Seq != 1 {
		t.Errorf("inject ack = batched=%v seq=%d, want batched seq 1", resp.Batched, resp.Seq)
	}

	// Stale query: served from the pre-write snapshot, lag reported.
	tuples, fr, err := c.QueryStale(ctx, "reach(a, X)", -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 0 || fr.Lag != 1 {
		t.Errorf("stale query = %v lag %d, want no answers lag 1", tuples, fr.Lag)
	}

	// Sync applies the batch and reports the applied sequence.
	resp, err = c.call(ctx, &Request{Op: "sync"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Seq != 1 {
		t.Errorf("sync applied seq = %d, want 1", resp.Seq)
	}

	// Fresh query (the default) sees the write and reports lag 0.
	tuples, fr, err = c.QueryStale(ctx, "reach(a, X)", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 1 || fr.Lag != 0 {
		t.Errorf("fresh query = %v lag %d, want 1 answer lag 0", tuples, fr.Lag)
	}
}

// WithDefaultMaxLag makes plain Query calls tolerate staleness without
// the client opting in (the snlogd -stale flag).
func TestWireDefaultMaxLag(t *testing.T) {
	s := openSession(t, reachSrc, Options{BatchSize: 1024, BatchDelay: -1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(s, ln, WithDefaultMaxLag(-1))
	t.Cleanup(func() { srv.Close() })
	c := dialClient(t, srv)
	ctx := context.Background()

	if err := c.Inject(ctx, 0, "link(a, b)"); err != nil {
		t.Fatal(err)
	}
	// Plain Query inherits the server's unbounded staleness: the
	// buffered write stays buffered.
	got, err := c.Query(ctx, "reach(a, X)")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("default-stale query = %v, want pre-write snapshot", got)
	}
	if s.Lag() != 1 {
		t.Errorf("lag = %d, want 1 (query must not have flushed)", s.Lag())
	}
	// A per-request fresh query overrides the server default.
	got, fr, err := c.QueryStale(ctx, "reach(a, X)", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || fr.Lag != 0 {
		t.Errorf("fresh override = %v lag %d, want 1 answer lag 0", got, fr.Lag)
	}
}

func TestServerCloseDropsClients(t *testing.T) {
	srv, _ := startServer(t, reachSrc)
	c := dialClient(t, srv)
	ctx := context.Background()
	if err := c.Ping(ctx); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	if err := c.Ping(cctx); err == nil {
		t.Error("ping succeeded after server close")
	}
}
