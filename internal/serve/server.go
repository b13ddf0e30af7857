package serve

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
)

// Server exposes a Session to many concurrent clients over the wire
// protocol (wire.go): one goroutine per connection decodes requests,
// the session serializes the actual work, and subscription pumps push
// updates. cmd/snlogd is the standalone daemon wrapper.
type Server struct {
	s  *Session
	ln net.Listener

	// defaultMaxLag is applied to queries that don't set Request.Stale
	// themselves: 0 serves every query fresh (the default), n > 0
	// serves from the last quiesced snapshot as long as at most n
	// acknowledged writes are unapplied.
	defaultMaxLag int64

	mu     sync.Mutex
	conns  map[net.Conn]bool
	closed bool
	wg     sync.WaitGroup
}

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithDefaultMaxLag makes queries that don't opt in themselves
// tolerate up to maxLag unapplied writes (negative = unbounded). The
// snlogd -stale flag maps here. Per-request Stale/MaxLag overrides.
func WithDefaultMaxLag(maxLag int64) ServerOption {
	return func(srv *Server) { srv.defaultMaxLag = maxLag }
}

// NewServer starts serving the session on the listener. The returned
// server owns the listener; Close stops accepting, drops every
// connection and waits for the handlers (the session itself stays
// open — the caller owns it).
func NewServer(s *Session, ln net.Listener, opts ...ServerOption) *Server {
	srv := &Server{s: s, ln: ln, conns: make(map[net.Conn]bool)}
	for _, o := range opts {
		o(srv)
	}
	srv.wg.Add(1)
	go srv.acceptLoop()
	return srv
}

// Addr returns the listen address.
func (srv *Server) Addr() net.Addr { return srv.ln.Addr() }

// Close stops the server and waits for every connection handler.
func (srv *Server) Close() error {
	srv.mu.Lock()
	if srv.closed {
		srv.mu.Unlock()
		srv.wg.Wait()
		return nil
	}
	srv.closed = true
	for c := range srv.conns {
		c.Close()
	}
	srv.mu.Unlock()
	err := srv.ln.Close()
	srv.wg.Wait()
	return err
}

func (srv *Server) acceptLoop() {
	defer srv.wg.Done()
	for {
		conn, err := srv.ln.Accept()
		if err != nil {
			return
		}
		srv.mu.Lock()
		if srv.closed {
			srv.mu.Unlock()
			conn.Close()
			return
		}
		srv.conns[conn] = true
		srv.wg.Add(1)
		srv.mu.Unlock()
		go srv.handle(conn)
	}
}

// connState is the per-connection handler state: a frame buffer
// guarded by a write lock (request responses and subscription pumps
// interleave) and the connection's live subscriptions, by their
// Subscription's id, which is also their wire id.
type connState struct {
	srv  *Server
	conn net.Conn

	wmu sync.Mutex
	buf []byte // the frame being written, reused under wmu

	smu  sync.Mutex
	subs map[int64]*Subscription
	wg   sync.WaitGroup
}

// send writes one frame; tuples, if non-nil, is the answer's encoding.
func (cs *connState) send(r *Response, tuples []byte) error {
	cs.wmu.Lock()
	defer cs.wmu.Unlock()
	cs.buf = appendResponse(cs.buf[:0], r, tuples)
	_, err := cs.conn.Write(cs.buf)
	return err
}

func (srv *Server) handle(conn net.Conn) {
	defer srv.wg.Done()
	cs := &connState{
		srv:  srv,
		conn: conn,
		subs: make(map[int64]*Subscription),
	}
	defer func() {
		cs.smu.Lock()
		for _, sub := range cs.subs {
			sub.Close()
		}
		cs.subs = nil
		cs.smu.Unlock()
		cs.wg.Wait()
		conn.Close()
		srv.mu.Lock()
		delete(srv.conns, conn)
		srv.mu.Unlock()
	}()
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var req Request
		if err := decodeRequest(string(sc.Bytes()), &req); err != nil {
			// Answered under the request's id when that was readable.
			cs.send(&Response{ID: req.ID, Error: "bad request: " + err.Error(), Code: CodeBadRequest}, nil)
			continue
		}
		resp, tuples, sub := cs.dispatch(&req)
		resp.ID = req.ID
		if err := cs.send(resp, tuples); err != nil {
			return
		}
		if sub != nil {
			// Only now: the client learns the subscription's id from the
			// response, so its first event must follow it. Updates
			// published meanwhile wait in the subscription's buffer.
			cs.wg.Add(1)
			go cs.pump(sub)
		}
	}
}

// dispatch runs one request. A query's tuples come back encoded: the
// answer entry's memo. A subscribe returns its new subscription, whose
// pump the caller starts once the response is written.
func (cs *connState) dispatch(req *Request) (*Response, []byte, *Subscription) {
	s := cs.srv.s
	ctx := context.Background()
	switch req.Op {
	case "ping":
		return &Response{OK: true}, nil, nil
	case "query":
		maxLag := cs.srv.defaultMaxLag
		if req.Stale {
			maxLag = req.MaxLag // 0 = explicitly fresh, < 0 = unbounded
		}
		e, fr, tid, err := s.query(ctx, req.Arg, staleLag(maxLag), req.TraceID)
		if err != nil {
			return errResponse(err), nil, nil
		}
		return &Response{OK: true, Lag: fr.Lag, AsOf: fr.AsOf, TraceID: tid}, e.encoded(), nil
	case "inject", "inject_at", "delete_at":
		t, err := ParseFact(req.Arg)
		if err != nil {
			return errResponse(err), nil, nil
		}
		var kind opKind
		switch req.Op {
		case "inject":
			kind = opInsert
		case "inject_at":
			kind = opInsertAt
		default:
			kind = opDeleteAt
		}
		seq, err := s.enqueue(kind, req.At, req.Node, t)
		if err != nil {
			return errResponse(err), nil, nil
		}
		// The ack means "validated and accepted": the apply+sync rides
		// the coalesced batch. Seq lets a client await it via sync.
		return &Response{OK: true, Batched: true, Seq: seq}, nil, nil
	case "sync":
		end, err := s.Sync(ctx)
		if err != nil {
			return errResponse(err), nil, nil
		}
		return &Response{OK: true, Time: end, Seq: s.appliedSeq.Load()}, nil, nil
	case "explain":
		tree, tid, err := s.ExplainTraced(ctx, req.Arg, req.TraceID)
		if err != nil {
			return errResponse(err), nil, nil
		}
		return &Response{OK: true, Explain: tree.String(), TraceID: tid}, nil, nil
	case "subscribe":
		sub, err := s.Subscribe(req.Arg)
		if err != nil {
			return errResponse(err), nil, nil
		}
		cs.smu.Lock()
		if cs.subs == nil { // connection tearing down
			cs.smu.Unlock()
			sub.Close()
			return errResponse(ErrClosed), nil, nil
		}
		cs.subs[sub.id] = sub
		cs.smu.Unlock()
		return &Response{OK: true, Sub: sub.id}, nil, sub
	case "unsubscribe":
		cs.smu.Lock()
		sub := cs.subs[req.Sub]
		delete(cs.subs, req.Sub)
		cs.smu.Unlock()
		if sub == nil {
			return &Response{OK: false, Error: fmt.Sprintf("unknown subscription %d", req.Sub), Code: CodeBadRequest}, nil, nil
		}
		sub.Close()
		return &Response{OK: true}, nil, nil
	case "stats":
		snap := s.Snapshot()
		return &Response{OK: true, Stats: snap.Counters}, nil, nil
	default:
		return &Response{OK: false, Error: fmt.Sprintf("unknown op %q", req.Op), Code: CodeBadRequest}, nil, nil
	}
}

// pump forwards one subscription's updates to the connection.
func (cs *connState) pump(sub *Subscription) {
	defer cs.wg.Done()
	for u := range sub.C() {
		r := &Response{OK: true, Event: &Event{Sub: sub.id, Insert: u.Insert, Tuple: u.Tuple.String()}}
		if cs.send(r, nil) != nil {
			sub.Close()
			return
		}
	}
}

func errResponse(err error) *Response {
	return &Response{OK: false, Error: err.Error(), Code: ErrorCode(err)}
}
