package serve

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Regression: the client used to leak its event-dispatch goroutine
// when the server closed the connection while a subscription was
// live — the read loop exited but nothing ended the dispatcher. Now
// the read loop delivers events itself and is the client's only
// goroutine, and Close is idempotent. Goroutine count must return to
// the pre-dial baseline.
func TestClientNoGoroutineLeakOnServerDrop(t *testing.T) {
	s := openSession(t, reachSrc, Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(s, ln)

	baseline := runtime.NumGoroutine()

	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sub, err := c.Subscribe(ctx, "reach/2", 16)
	if err != nil {
		t.Fatal(err)
	}

	// Server drops every connection mid-subscribe.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	// The subscription channel closes on its own (connection failure,
	// no client Close needed yet).
	select {
	case _, open := <-sub.C():
		if open {
			t.Error("subscription delivered an event after server drop")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("subscription channel not closed after server drop")
	}

	// Close after the drop: must not hang, must be idempotent.
	if err := c.Close(); err != nil && err != ErrClosed {
		// The first Close may surface the dead connection; that's fine.
		t.Logf("first Close: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Errorf("second Close = %v, want nil", err)
	}
	if err := sub.Close(); err != nil {
		t.Errorf("sub.Close after client close = %v, want nil", err)
	}

	// The client's goroutine (its read loop) must be gone.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines: %d > baseline %d after close\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Close before any subscription: same invariant, simpler path.
func TestClientCloseIdempotent(t *testing.T) {
	srv, _ := startServer(t, reachSrc)
	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("first Close = %v", err)
	}
	if err := c.Close(); err != nil {
		t.Errorf("second Close = %v, want nil", err)
	}
	// Calls after Close fail fast with the terminal error.
	if err := c.Ping(context.Background()); err == nil {
		t.Error("ping succeeded on a closed client")
	}
}

// Regression: the read loop used to skip a frame it could not decode,
// so the call waiting for it hung for as long as its context allowed —
// forever under snlogrepl -connect's context.Background(). Now such a
// frame fails the connection with an error that names it.
func TestClientUndecodableFrameFailsCall(t *testing.T) {
	for _, frame := range []string{"not json", `{"id":1,"ok":tr`} {
		t.Run(frame, func(t *testing.T) {
			local, remote := net.Pipe()
			defer remote.Close()
			go func() { // a "server" that answers the ping with frame
				if bufio.NewScanner(remote).Scan() {
					remote.Write([]byte(frame + "\n"))
				}
			}()
			c := NewClient(local)
			defer c.Close()
			done := make(chan error, 1)
			go func() { done <- c.Ping(context.Background()) }()
			select {
			case err := <-done:
				if err == nil {
					t.Fatal("ping succeeded on an undecodable reply")
				}
				if want := fmt.Sprintf("%q", frame); !strings.Contains(err.Error(), want) {
					t.Fatalf("error %q does not name the frame %s", err, want)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("ping still waiting 5s after an undecodable reply")
			}
		})
	}
}

// waitGoroutines waits up to 5s for the goroutine count to fall to n.
func waitGoroutines(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > n {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines: %d > %d\n%s", runtime.NumGoroutine(), n, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// A Client runs one goroutine, its read loop, and Close waits it out.
func TestNewClientStartsOneGoroutine(t *testing.T) {
	local, remote := net.Pipe()
	defer remote.Close()
	before := runtime.NumGoroutine()
	c := NewClient(local)
	if got := runtime.NumGoroutine() - before; got != 1 {
		c.Close()
		t.Fatalf("NewClient started %d goroutines, want 1", got)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, before)
}

// The read loop hands events to a ClientSub in the order the session
// published them: a burst of syncs, one insertion each, read
// concurrently, arrives whole and in order. 48 events fit both the
// session's subscription buffer and the client's, so none is dropped.
func TestClientSubEventsInPublishOrder(t *testing.T) {
	const n = 48
	srv, s := startServer(t, reachSrc)
	c := dialClient(t, srv)
	sub, err := c.Subscribe(context.Background(), "reach/2", n)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan []string, 1)
	go func() {
		var evs []string
		for len(evs) < n {
			select {
			case ev := <-sub.C():
				if !ev.Insert {
					evs = append(evs, "- "+ev.Tuple)
				} else {
					evs = append(evs, ev.Tuple)
				}
			case <-time.After(5 * time.Second):
				got <- evs
				return
			}
		}
		got <- evs
	}()
	want := make([]string, n)
	for i := range want {
		a, b := fmt.Sprintf("s%d", i), fmt.Sprintf("t%d", i)
		if err := s.Inject(0, link(a, b)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Sync(context.Background()); err != nil {
			t.Fatal(err)
		}
		want[i] = fmt.Sprintf("reach(%s, %s)", a, b)
	}
	if evs := <-got; strings.Join(evs, "; ") != strings.Join(want, "; ") {
		t.Fatalf("events out of publish order or lost:\n got %q\nwant %q", evs, want)
	}
}

// frameConn hands its reader one frame per Read. The client's read loop
// reads through a bufio.Scanner, which calls Read only once it has
// handled every frame it holds, so a Read means the read loop is done
// with every earlier frame. see is called with each frame as it is
// handed over.
type frameConn struct {
	net.Conn
	r    *bufio.Reader
	rest []byte
	see  func(frame []byte)
}

func (f *frameConn) Read(p []byte) (int, error) {
	if len(f.rest) == 0 {
		frame, err := f.r.ReadBytes('\n')
		if len(frame) == 0 {
			return 0, err
		}
		f.see(frame)
		f.rest = frame
	}
	n := copy(p, f.rest)
	f.rest = f.rest[n:]
	return n, nil
}

// A client loses none of its own subscription's events. One connection
// injects and syncs in a loop, so every sync publishes an event to every
// live subscription; another dials, subscribes and closes 300 times.
// Each event frame reaching the subscriber's read loop must find its
// subscription registered, unless the test has already closed it: the
// server writes the subscribe response before the subscription's first
// event, and the read loop registers the subscription as it reads that
// response, before it reads the next frame.
func TestSubscribeLosesNoEvents(t *testing.T) {
	srv, _ := startServer(t, reachSrc)
	writer := dialClient(t, srv)
	ctx := context.Background()
	stop := make(chan struct{})
	wrote := make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				wrote <- nil
				return
			default:
			}
			if err := writer.Inject(ctx, 0, fmt.Sprintf("link(s%d, t%d)", i, i)); err != nil {
				wrote <- err
				return
			}
			if _, err := writer.Sync(ctx); err != nil {
				wrote <- err
				return
			}
		}
	}()

	var mu sync.Mutex
	closed := map[int64]bool{} // subscriptions the test has closed
	events, lost := 0, 0
	for round := 0; round < 300; round++ {
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		var client atomic.Pointer[Client]
		fc := &frameConn{Conn: conn, r: bufio.NewReader(conn)}
		fc.see = func(frame []byte) {
			var resp Response
			if decodeResponse(string(frame), &resp) != nil || resp.Event == nil {
				return
			}
			c := client.Load()
			mu.Lock()
			c.mu.Lock()
			events++
			if c.subs[resp.Event.Sub] == nil && !closed[resp.Event.Sub] {
				lost++
			}
			c.mu.Unlock()
			mu.Unlock()
		}
		c := NewClient(fc)
		client.Store(c)
		sub, err := c.Subscribe(ctx, "reach/2", 1024)
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		closed[sub.id] = true
		mu.Unlock()
		if err := sub.Close(); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	close(stop)
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	t.Logf("%d events reached the subscriber's read loop", events)
	if events == 0 {
		t.Fatal("no event reached a subscriber: the test no longer races the writer")
	}
	if lost != 0 {
		t.Errorf("%d events for a live subscription found it unregistered", lost)
	}
}
