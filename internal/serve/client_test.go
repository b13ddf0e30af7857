package serve

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Regression: the client used to leak its event-dispatch goroutine
// when the server closed the connection while a subscription was
// live — the read loop exited but nothing ended the pump. Now the
// read loop closes the event channel on exit, the pump drains and
// stops, and Close is idempotent. Goroutine count must return to the
// pre-dial baseline.
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

	// Both client goroutines (read loop + pump) must be gone.
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
