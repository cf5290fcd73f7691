// GET /v2/stream, the second carrier of /v2/batch frames: the routing tier's
// hop to a replica without an HTTP request per op. The upgraded connection
// carries frames lock-step — one MsgBatch in, then exactly the frame POST
// /v2/batch answers, from the same readWireFrame and serveBatchFrame — so
// frames need no sequence number. A MsgCall — any other request the tier
// makes — is answered by the Handler stack. NewStreamTransport is the client.
package httpapi

import (
	"bufio"
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"cs2p/internal/wire"
)

// streamTimeout bounds a call through NewStreamTransport, as NewClient's does.
const streamPath, streamProto, streamTimeout = "/v2/stream", "cs2p-wire", 5 * time.Second

// callFraming is a MsgCall's header and longest route: readBody caps its body.
const callFraming = wire.HeaderLen + 2 + math.MaxUint16

// handleStream answers the 101 and hands the connection to serveStream: the
// request ends, so an open stream is not in flight nor a latency sample.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	w.Header()["Upgrade"] = []string{streamProto}
	if !strings.EqualFold(r.Header.Get("Upgrade"), streamProto) {
		s.writeWire(w, http.StatusUpgradeRequired, wire.AppendError(nil, http.StatusUpgradeRequired, "Upgrade: "+streamProto+" required"))
		return
	}
	w.Header().Set("Connection", "Upgrade")
	w.WriteHeader(http.StatusSwitchingProtocols) // Hijack flushes it
	if conn, brw, err := http.NewResponseController(w).Hijack(); err == nil && s.track(conn, true) {
		go s.serveStream(conn, brw.Reader)
	} else if err == nil {
		_ = conn.Close() // Run has ended the streams
	}
}

// serveStream serves frames until the peer closes the stream, a frame is
// malformed (answered with its MsgError first) or stalls mid-frame past
// RequestTimeout, or Run ends the streams. Past every middleware, it recovers
// a panic itself, as a 500 MsgError.
func (s *Server) serveStream(conn net.Conn, br *bufio.Reader) {
	defer func() {
		if v := recover(); v != nil {
			s.panicked("GET "+streamPath, v)
			_, _ = conn.Write(wire.AppendError(nil, http.StatusInternalServerError, "internal server error"))
		}
		_ = conn.Close()
		s.track(conn, false)
	}()
	for lim := s.wireLimits(); !s.connsShut.Load() && s.serveFrame(conn, br, lim); {
	}
}

// serveFrame reads and answers one frame, and reports whether the stream goes
// on. An idle stream waits with no deadline and holds no scratch; a frame not
// already whole in the buffer is read under RequestTimeout. A frame is counted
// before its reply is written, its bytes too unless the stack counted them.
func (s *Server) serveFrame(conn net.Conn, br *bufio.Reader, lim wire.Limits) bool {
	if _, err := br.Peek(1); err != nil {
		return false // the peer closed the idle stream, or Run woke it to end it
	}
	sc := opScratchPool.Get().(*opScratch)
	defer opScratchPool.Put(sc)
	b, _ := br.Peek(br.Buffered())
	if _, n, err := wire.PeekHeader(b, wire.Limits{}); err != nil || len(b) < wire.HeaderLen+n {
		s.armRead(conn)
		defer func() { _ = conn.SetReadDeadline(time.Time{}) }()
	}
	f, err := readWireFrame(br, &sc.body, wire.Limits{MaxFrameBytes: lim.MaxFrameBytes + callFraming})
	if err == nil && f.Type != wire.MsgCall && len(sc.body) > lim.MaxFrameBytes {
		err = wire.ErrOversize
	}
	if errors.Is(err, wire.ErrTruncated) {
		return false // ended or stalled mid-frame: no one is reading a reply
	}
	var status int
	switch {
	case err != nil:
		status = wireDecodeError(sc, err)
	case f.Type == wire.MsgCall:
		status = s.serveCall(sc, f)
	default:
		status = s.serveBatchFrame(sc, f, lim)
	}
	if s.sm.streamFrames.Inc(); f.Type != wire.MsgCall || status != http.StatusOK {
		s.sm.bytesIn.Add(len(sc.body))
		s.sm.bytesOut.Add(len(sc.out))
	}
	_, err = conn.Write(sc.out)
	return err == nil && status == http.StatusOK
}

// serveCall runs a MsgCall through the stack as a request with no headers and
// a background context, its reply a MsgCallResult in sc.out, and returns 200:
// the stream goes on. A frame whose route is not a request is a MsgError.
func (s *Server) serveCall(sc *opScratch, f wire.Frame) int {
	route, body, err := wire.DecodeCall(f.Payload)
	if err != nil {
		return wireDecodeError(sc, err)
	}
	method, target, _ := strings.Cut(string(route), " ")
	req, err := http.NewRequest(method, target, nil) // what it refuses is no request
	if err != nil {
		return wireError(sc, http.StatusBadRequest, "malformed call route: "+err.Error())
	}
	c := memCallPool.Get().(*memCall)
	defer memCallPool.Put(c)
	clear(c.reqHdr)
	c.out = wire.AppendCallResult(sc.out[:0], 0, nil)
	s.stack.Load().(http.Handler).ServeHTTP(c, c.request(req.Method, *req.URL, body))
	sc.out, c.out = wire.AppendCallResult(c.out[:0], cmp.Or(c.status, http.StatusOK), c.out[wire.HeaderLen+2:]), nil
	return http.StatusOK
}

// memCall is a request served from memory, a MsgCall's or a lane's: its own
// body and the http.ResponseWriter it answers through, the reply's body going
// into out after whatever the caller put there, its headers into hdr.
type memCall struct {
	bytes.Reader // the request body
	req          http.Request
	url          url.URL
	reqHdr       http.Header
	vals         []string // backs reqHdr's values on a lane
	buf          []byte   // a lane's request as read
	reply        byteSink // and its reply as written, with
	date         []byte   // the Date value, formatted at most once a second
	dateSec      int64
	hdr          http.Header
	out          []byte
	status       int
}

var memCallPool = sync.Pool{New: func() any { return &memCall{reqHdr: http.Header{}, hdr: http.Header{}} }}

// request readies c for a new reply to method u with body, reqHdr, no context.
func (c *memCall) request(method string, u url.URL, body []byte) *http.Request {
	c.Reset(body)
	c.url, c.req = u, http.Request{Method: method, URL: &c.url, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: c.reqHdr, Body: c, ContentLength: int64(len(body)), Host: u.Host}
	if len(body) == 0 {
		c.req.Body = http.NoBody
	}
	clear(c.hdr)
	c.status = 0
	return &c.req
}

func (c *memCall) Close() error         { return nil }
func (c *memCall) Header() http.Header  { return c.hdr }
func (c *memCall) WriteHeader(code int) { c.status = cmp.Or(c.status, code) }
func (c *memCall) Write(b []byte) (int, error) {
	c.status, c.out = cmp.Or(c.status, http.StatusOK), append(c.out, b...)
	return len(b), nil
}

// track registers (open) or forgets a connection Run owns, a lane's or a
// stream's; registering fails once Run has ended them.
func (s *Server) track(conn net.Conn, open bool) bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	switch {
	case !open:
		delete(s.conns, conn)
		s.connWG.Done()
	case !s.connsShut.Load():
		s.conns[conn] = struct{}{}
		s.connWG.Add(1)
		return true
	}
	return false
}

// armRead bounds conn's reads by RequestTimeout from now, unless Run has ended
// its connections and set their deadline, and reports true.
func (s *Server) armRead(conn net.Conn) bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if s.cfg.RequestTimeout > 0 && !s.connsShut.Load() {
		_ = conn.SetReadDeadline(time.Now().Add(s.cfg.RequestTimeout))
	}
	return true
}

// closeConns ends every connection Run owns — lanes, and streams, which are
// beyond http.Server.Shutdown — and waits for them: an idle one wakes now, one
// serving a request or frame ends once its reply is written, or at deadline
// if that write is stuck.
func (s *Server) closeConns(deadline time.Time) {
	s.connMu.Lock()
	s.connsShut.Store(true)
	for conn := range s.conns {
		_ = conn.SetReadDeadline(time.Now())
		_ = conn.SetWriteDeadline(deadline)
	}
	s.connMu.Unlock()
	s.connWG.Wait()
}

// NewStreamTransport is the routing tier's carrier to its replicas. A POST
// /v2/batch frame rides a stream to its host — pooled LIFO, dialed on demand —
// and the reply frame is the body, whose Close pools the stream again; any
// other POST, PUT or DELETE to a /v1 path rides as a MsgCall, answered with
// status and body, no headers. The rest, and any call to an https or
// port-less URL, go to http.DefaultTransport. Every call is bounded at 5 s:
// set no http.Client.Timeout over it, which costs a goroutine per request
// over any RoundTripper but *http.Transport. A transport error fails the call
// with no HTTP status and closes the stream and its host's idle ones; a
// written frame is never retried.
func NewStreamTransport() http.RoundTripper {
	return &streamTransport{next: &http.Client{Transport: http.DefaultTransport, Timeout: streamTimeout}, idle: map[string][]*stream{}}
}

type streamTransport struct {
	next *http.Client // delegated calls: its Timeout is a context deadline on an *http.Transport
	mu   sync.Mutex
	idle map[string][]*stream // by host, most recently used last
	gen  int                  // CloseIdleConnections calls: an older stream is not pooled again
}

// stream is one client end; frame holds a call's request, then its reply.
type stream struct {
	t           *streamTransport
	host        string
	gen         int
	conn        net.Conn
	br          *bufio.Reader
	frame, body []byte // body: a MsgCall's request body
}

// streamReply is a call's response; its body's first Close pools the stream.
type streamReply struct {
	http.Response
	bytes.Reader
	st    *stream
	reuse bool
}

func (r *streamReply) Close() error {
	if st := r.st; st != nil {
		r.st = nil
		st.t.put(st, r.reuse)
	}
	return nil
}

func (t *streamTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	route, ok := streamed(req)
	if !ok {
		resp, err := t.next.Do(req)
		if ue, ok := err.(*url.Error); ok {
			err = ue.Err // the caller's http.Client names the request
		}
		return resp, err
	}
	body := cmp.Or[io.ReadCloser](req.Body, http.NoBody) // a DELETE has none
	defer body.Close()
	st, err := t.get(req.URL.Host)
	if err == nil {
		var resp *http.Response
		if resp, err = st.call(req, body, route); err == nil {
			return resp, nil
		}
		_ = st.conn.Close()
		t.closeIdle(st.host)
	}
	return nil, fmt.Errorf("stream to %s: %w", req.URL.Host, err)
}

// streamed reports whether req rides a stream and, for a MsgCall, its route.
func streamed(req *http.Request) (route string, ok bool) {
	u, m := req.URL, req.Method
	switch {
	case u.Scheme != "http" || u.Port() == "":
	case m == http.MethodPost && u.Path == "/v2/batch":
		return "", req.Body != nil
	case strings.HasPrefix(u.Path, "/v1/") && (m == http.MethodPost || m == http.MethodPut || m == http.MethodDelete):
		route = m + " " + u.RequestURI() // escaped: an id's %2F survives
		return route, len(route) <= math.MaxUint16
	}
	return "", false
}

// call writes req's frame — body as itself, or in a MsgCall under route — and
// reads the reply frame, under the connection's deadline alone: the request's
// context is not watched.
func (st *stream) call(req *http.Request, body io.Reader, route string) (*http.Response, error) {
	var err error
	if route == "" {
		st.frame, err = readCapped(body, st.frame, maxReplyBytes)
	} else if st.body, err = readCapped(body, st.body, maxReplyBytes); err == nil {
		st.frame = wire.AppendCall(st.frame[:0], route, st.body)
	}
	if err != nil {
		return nil, err
	}
	var f wire.Frame
	_ = st.conn.SetDeadline(time.Now().Add(streamTimeout))
	if _, err = st.conn.Write(st.frame); err == nil {
		f, err = readWireFrame(st.br, &st.frame, wire.Limits{MaxFrameBytes: maxReplyBytes})
	}
	if err != nil {
		return nil, err
	}
	r := &streamReply{st: st, reuse: f.Type != wire.MsgError} // the server closes a stream after a MsgError
	r.Response = http.Response{StatusCode: http.StatusOK, Body: r, Request: req}
	reply := st.frame
	switch f.Type {
	case wire.MsgError:
		if code, _, err := wire.DecodeError(f.Payload); err == nil && code != 0 {
			r.StatusCode = code
		}
	case wire.MsgCallResult:
		if r.StatusCode, reply, err = wire.DecodeCallResult(f.Payload); err != nil {
			return nil, err
		}
	}
	r.ContentLength = int64(len(reply))
	r.Reset(reply)
	return &r.Response, nil
}

// get takes the host's most recently used idle stream, or dials one: a
// connection, upgraded.
func (t *streamTransport) get(host string) (*stream, error) {
	t.mu.Lock()
	if idle := t.idle[host]; len(idle) > 0 {
		st := idle[len(idle)-1]
		idle[len(idle)-1], t.idle[host] = nil, idle[:len(idle)-1]
		t.mu.Unlock()
		return st, nil
	}
	st := &stream{t: t, host: host, gen: t.gen}
	t.mu.Unlock()
	conn, err := net.DialTimeout("tcp", host, streamTimeout)
	if err != nil {
		return nil, err
	}
	st.conn, st.br = conn, bufio.NewReader(conn)
	_ = conn.SetDeadline(time.Now().Add(streamTimeout))
	_, err = fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: %s\r\nConnection: Upgrade\r\nUpgrade: %s\r\n\r\n", streamPath, host, streamProto)
	if err == nil {
		var resp *http.Response
		if resp, err = http.ReadResponse(st.br, nil); err == nil && resp.StatusCode != http.StatusSwitchingProtocols {
			err = fmt.Errorf("upgrade answered %s", resp.Status)
		}
	}
	if err != nil {
		_ = conn.Close()
		return nil, err
	}
	return st, nil
}

// put pools a stream after its call, or closes it.
func (t *streamTransport) put(st *stream, reuse bool) {
	t.mu.Lock()
	if reuse = reuse && st.gen == t.gen; reuse {
		t.idle[st.host] = append(t.idle[st.host], st)
	}
	t.mu.Unlock()
	if !reuse {
		_ = st.conn.Close()
	}
}

// CloseIdleConnections closes the idle streams now and the busy ones as they
// come back.
func (t *streamTransport) CloseIdleConnections() { t.closeIdle("") }

// closeIdle closes host's idle streams; host "" closes every idle stream now
// and every busy one as it comes back.
func (t *streamTransport) closeIdle(host string) {
	t.mu.Lock()
	var sts []*stream
	for h, idle := range t.idle {
		if host == "" || h == host {
			sts = append(sts, idle...)
			delete(t.idle, h)
		}
	}
	if host == "" {
		t.gen++
	}
	t.mu.Unlock()
	for _, st := range sts {
		_ = st.conn.Close()
	}
}
