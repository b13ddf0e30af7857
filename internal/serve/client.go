package serve

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
)

// Client is the Go side of the wire protocol: it multiplexes requests
// from any number of goroutines over one connection to snlogd and
// routes pushed subscription events to their ClientSub. The REPL's
// -connect mode and the serve tests ride on it.
//
// Lifecycle: a Client runs one goroutine, the read loop. It owns the
// connection's inbound side: it hands each response to its caller and
// each pushed event to its ClientSub, without blocking. Whatever ends
// the connection — Close, a server-side drop, a read error — the read
// loop fails every pending call and subscription and exits: no
// goroutine outlives the connection. Close is idempotent and waits for
// the read loop.
type Client struct {
	conn net.Conn

	wmu  sync.Mutex
	wbuf []byte // the request frame being written, reused under wmu

	nextID atomic.Int64

	mu      sync.Mutex
	pending map[int64]pendingCall
	subs    map[int64]*ClientSub
	err     error // terminal read error, ErrClosed after Close
	closed  bool

	readDone chan struct{} // closed when the read loop exits
}

// pendingCall is a request awaiting its response. A subscribe's carries
// the stream to register under the id its response names.
type pendingCall struct {
	ch  chan *Response
	sub *ClientSub
}

// Dial connects to an snlogd address.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection.
func NewClient(conn net.Conn) *Client {
	c := &Client{
		conn:     conn,
		pending:  make(map[int64]pendingCall),
		subs:     make(map[int64]*ClientSub),
		readDone: make(chan struct{}),
	}
	go c.readLoop()
	return c
}

// Close drops the connection; in-flight calls fail with ErrClosed,
// subscription channels close, and the read loop is waited out.
// Idempotent: the second and later calls return nil immediately.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	c.fail(ErrClosed)
	err := c.conn.Close()
	<-c.readDone // the closed connection ends the read loop
	return err
}

// readLoop decodes every frame of the connection. A frame it cannot
// decode fails the connection: its caller could never be answered. An
// event is looked up and sent under mu — the lock ClientSub.Close and
// fail close channels under — so a send never races a close; a
// subscriber whose buffer is full loses the event, as on the server. A
// subscribe's stream is registered as its response is read, before the
// next frame: the server writes a subscription's events after that
// response, so none arrives for an id the loop does not know.
func (c *Client) readLoop() {
	defer close(c.readDone)
	sc := bufio.NewScanner(c.conn)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var err error
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		line := string(sc.Bytes()) // the decoded strings share this copy
		resp := new(Response)
		if derr := decodeResponse(line, resp); derr != nil {
			err = fmt.Errorf("serve: undecodable frame %.64q: %w", line, derr)
			break
		}
		c.mu.Lock()
		if ev := resp.Event; ev != nil {
			if sub := c.subs[ev.Sub]; sub != nil {
				select {
				case sub.ch <- *ev:
				default:
				}
			}
			c.mu.Unlock()
			continue
		}
		p := c.pending[resp.ID]
		delete(c.pending, resp.ID)
		if p.sub != nil && resp.OK {
			p.sub.id = resp.Sub
			c.subs[resp.Sub] = p.sub
		}
		c.mu.Unlock()
		if p.ch != nil {
			p.ch <- resp
		}
	}
	if err == nil {
		err = sc.Err()
	}
	if err == nil {
		err = ErrClosed
	}
	c.fail(err)
}

// fail terminates every pending call and subscription.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	pending := c.pending
	c.pending = make(map[int64]pendingCall)
	for _, p := range pending {
		close(p.ch)
	}
	// Close subscription channels under mu: the read loop looks subs up
	// and sends under the same lock, so after this section it can
	// neither find nor send on a closed channel.
	for id, s := range c.subs {
		delete(c.subs, id)
		close(s.ch)
	}
	c.mu.Unlock()
}

// call sends one request and waits for its response or ctx.
func (c *Client) call(ctx context.Context, req *Request) (*Response, error) {
	return c.callSub(ctx, req, nil)
}

// callSub is call; a non-nil sub is registered by the read loop under
// the id a successful response names.
func (c *Client) callSub(ctx context.Context, req *Request, sub *ClientSub) (*Response, error) {
	req.ID = c.nextID.Add(1)
	ch := make(chan *Response, 1)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return nil, err
	}
	c.pending[req.ID] = pendingCall{ch, sub}
	c.mu.Unlock()

	c.wmu.Lock()
	c.wbuf = appendRequest(c.wbuf[:0], req)
	_, err := c.conn.Write(c.wbuf)
	c.wmu.Unlock()
	if err != nil {
		c.mu.Lock()
		delete(c.pending, req.ID)
		c.mu.Unlock()
		return nil, err
	}
	select {
	case resp, ok := <-ch:
		if !ok {
			c.mu.Lock()
			err := c.err
			c.mu.Unlock()
			if err == nil {
				err = ErrClosed
			}
			return nil, err
		}
		if !resp.OK {
			return nil, CodeError(resp.Code, resp.Error)
		}
		return resp, nil
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.pending, req.ID)
		c.mu.Unlock()
		return nil, ctx.Err()
	}
}

// Ping round-trips a no-op.
func (c *Client) Ping(ctx context.Context) error {
	_, err := c.call(ctx, &Request{Op: "ping"})
	return err
}

// Query answers a point query; tuples come back in source syntax. The
// answer is as fresh as the server's default staleness bound (fresh
// unless snlogd runs with -stale).
func (c *Client) Query(ctx context.Context, goal string) ([]string, error) {
	resp, err := c.call(ctx, &Request{Op: "query", Arg: goal})
	if err != nil {
		return nil, err
	}
	return resp.Tuples, nil
}

// QueryStale answers a point query tolerating up to maxLag
// acknowledged-but-unapplied writes (negative = unbounded; 0 = fresh,
// overriding any server-side default bound), and reports the served
// answer's freshness bound.
func (c *Client) QueryStale(ctx context.Context, goal string, maxLag int64) ([]string, Freshness, error) {
	tuples, fr, _, err := c.QueryTraced(ctx, goal, maxLag, 0)
	return tuples, fr, err
}

// QueryTraced is QueryStale plus trace correlation: traceID 0 lets the
// server allocate an id, a nonzero id is the caller's own correlation
// key. The effective id comes back with the answer and keys the span
// records on the daemon's admin endpoint (/trace/query/<id>).
func (c *Client) QueryTraced(ctx context.Context, goal string, maxLag, traceID int64) ([]string, Freshness, int64, error) {
	resp, err := c.call(ctx, &Request{Op: "query", Arg: goal, Stale: true, MaxLag: maxLag, TraceID: traceID})
	if err != nil {
		return nil, Freshness{}, 0, err
	}
	return resp.Tuples, Freshness{Lag: resp.Lag, AsOf: resp.AsOf}, resp.TraceID, nil
}

// Inject generates a base fact ("link(a, b)") at a node, now. A nil
// error means the write was validated and accepted into the server's
// coalesced batch; Sync forces it through.
func (c *Client) Inject(ctx context.Context, node int, fact string) error {
	_, err := c.call(ctx, &Request{Op: "inject", Node: node, Arg: fact})
	return err
}

// InjectAt generates a base fact at an absolute virtual time.
func (c *Client) InjectAt(ctx context.Context, at int64, node int, fact string) error {
	_, err := c.call(ctx, &Request{Op: "inject_at", At: at, Node: node, Arg: fact})
	return err
}

// DeleteAt deletes a previously injected base fact.
func (c *Client) DeleteAt(ctx context.Context, at int64, node int, fact string) error {
	_, err := c.call(ctx, &Request{Op: "delete_at", At: at, Node: node, Arg: fact})
	return err
}

// Sync applies the server's buffered write batch and runs the
// deployment to quiescence; returns the virtual time.
func (c *Client) Sync(ctx context.Context) (int64, error) {
	resp, err := c.call(ctx, &Request{Op: "sync"})
	if err != nil {
		return 0, err
	}
	return resp.Time, nil
}

// Explain renders the provenance tree of a ground goal.
func (c *Client) Explain(ctx context.Context, goal string) (string, error) {
	resp, err := c.call(ctx, &Request{Op: "explain", Arg: goal})
	if err != nil {
		return "", err
	}
	return resp.Explain, nil
}

// Stats samples the daemon's metric snapshot.
func (c *Client) Stats(ctx context.Context) (map[string]int64, error) {
	resp, err := c.call(ctx, &Request{Op: "stats"})
	if err != nil {
		return nil, err
	}
	return resp.Stats, nil
}

// ClientSub is a client-side subscription stream.
type ClientSub struct {
	c  *Client
	id int64
	ch chan Event
}

// C is the event stream; it closes when the subscription, client or
// connection closes.
func (s *ClientSub) C() <-chan Event { return s.ch }

// Close cancels the subscription server-side. Idempotent; returns nil
// if the subscription (or the whole client) is already closed.
func (s *ClientSub) Close() error {
	s.c.mu.Lock()
	_, live := s.c.subs[s.id]
	if live {
		delete(s.c.subs, s.id)
		close(s.ch) // under mu: the read loop can no longer find the sub
	}
	s.c.mu.Unlock()
	if !live {
		return nil
	}
	_, err := s.c.call(context.Background(), &Request{Op: "unsubscribe", Sub: s.id})
	return err
}

// Subscribe watches a derived predicate ("reach/2"); buffer bounds the
// local event channel (<=0 means 64).
func (c *Client) Subscribe(ctx context.Context, pred string, buffer int) (*ClientSub, error) {
	if buffer <= 0 {
		buffer = 64
	}
	sub := &ClientSub{c: c, ch: make(chan Event, buffer)}
	if _, err := c.callSub(ctx, &Request{Op: "subscribe", Arg: pred}, sub); err != nil {
		// ctx may have ended after the read loop registered it.
		c.mu.Lock()
		if c.subs[sub.id] == sub {
			delete(c.subs, sub.id)
		}
		c.mu.Unlock()
		return nil, err
	}
	return sub, nil
}
