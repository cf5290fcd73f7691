package httpapi

import (
	"bufio"
	"bytes"
	"cmp"
	"io"
	"net"
	"net/http"
	"net/textproto"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"time"
)

// lanePaths are the request lines a lane serves, POSTs to the six routes a
// player calls, with their paths. Those handlers never watch the request's
// context, so the lane passes none, as a stream's MsgCall does.
var lanePaths = map[string]string{}

func init() {
	for _, path := range [...]string{"/v1/predict", "/v1/session/start", "/v1/log", "/v2/observe", "/v2/predict", "/v2/batch"} {
		lanePaths["POST "+path+" HTTP/1.1\r\n"] = path
	}
}

// laneBytes classes bytes as net/http reads a head, a bit a class: a token's,
// a Host value's, and any other value's (the lane takes none past '~').
var laneBytes = func() (t [256]uint8) {
	for i, set := range [...]string{"!#$%&'*+-.^_`|~", "!$%&'()*+,-.:;=[]_~", "\t !\"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~"} {
		for _, c := range set + "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz" {
			t[c] |= 1 << i
		}
	}
	return t
}()

const tokenBytes, hostBytes, valueBytes = 1, 2, 4

// allOf reports whether every byte of s is of class.
func allOf(s string, class uint8) bool {
	for i := range len(s) {
		if laneBytes[s[i]]&class == 0 {
			return false
		}
	}
	return true
}

// laneHead is the head of a request a lane serves.
type laneHead struct {
	path, host string
	n, body    int  // the head's length and the body's
	close      bool // the request asked for Connection: close
}

// frameHead judges the head at the front of b: the lane's (ok), not yet whole
// (more), or net/http's. The lane's has a line of lanePaths, CRLFs, one Host,
// one Content-Length of digits up to max, no header twice, and no obs-fold,
// Transfer-Encoding, Expect, Upgrade, Pragma, or Connection but close or
// keep-alive. Its headers but Host go in c.reqHdr, as net/http's do.
func frameHead(b []byte, max int64, c *memCall) (h laneHead, ok, more bool) {
	for h.n = 0; ; {
		j := bytes.IndexByte(b[h.n:], '\n')
		if j < 0 || j == 0 || b[h.n+j-1] != '\r' {
			return h, false, j < 0 // a bare LF: net/http's, not waiting for a CRLF CRLF
		}
		if h.n += j + 1; h.path == "" {
			if h.path = lanePaths[string(b[:h.n])]; h.path == "" {
				return h, false, false
			}
		} else if j == 1 {
			break
		}
	}
	lines := string(b[len("POST ")+len(h.path)+len(" HTTP/1.1\r\n") : h.n-2])
	clear(c.reqHdr)
	c.vals = c.vals[:0]
	for lines != "" {
		var line string
		line, lines, _ = strings.Cut(lines, "\r\n")
		name, v, colon := strings.Cut(line, ":")
		key, v := textproto.CanonicalMIMEHeaderKey(name), strings.Trim(v, " \t")
		if _, twice := c.reqHdr[key]; twice || !colon || name == "" || !allOf(name, tokenBytes) || !allOf(v, valueBytes) ||
			key == "Host" && !allOf(v, hostBytes) || key == "Transfer-Encoding" || key == "Expect" || key == "Upgrade" ||
			key == "Pragma" || key == "Connection" && !strings.EqualFold(v, "close") && !strings.EqualFold(v, "keep-alive") {
			return h, false, false
		}
		c.vals = append(c.vals, v)
		c.reqHdr[key] = c.vals[len(c.vals)-1 : len(c.vals) : len(c.vals)]
	}
	n, err := strconv.ParseUint(c.reqHdr.Get("Content-Length"), 10, 63)
	h.host, h.body, h.close = c.reqHdr.Get("Host"), int(n), strings.EqualFold(c.reqHdr.Get("Connection"), "close")
	_, hosted := c.reqHdr["Host"]
	delete(c.reqHdr, "Host")
	return h, hosted && err == nil && n <= uint64(max), false
}

// serveLane serves conn until it ends, or a request comes that the lane does
// not serve: then net/http gets the rest. It recovers a panic itself.
func (s *Server) serveLane(conn net.Conn, handoff *handoffListener) {
	br := bufio.NewReader(conn)
	var rest io.Reader // what net/http reads, once the lane hands conn over
	defer func() {
		if v := recover(); v != nil && v != http.ErrAbortHandler {
			s.panicked("a lane request", v)
		}
		if s.track(conn, false); rest != nil {
			select {
			case handoff.conns <- &handedConn{conn, rest}:
				return
			case <-handoff.closed: // the http.Server has shut down
			}
		}
		_ = conn.Close()
	}()
	// Between requests, as net/http, wait for four bytes and skip CR and LF.
	for lead, keep := 1, true; keep && !s.connsShut.Load(); lead = 4 {
		b, err := br.Peek(lead)
		if err != nil {
			return // the peer closed the idle connection, or Run woke it to end it
		}
		if lead == 4 {
			_, _ = br.Discard(len(b) - len(bytes.TrimLeft(b, "\r\n")))
		}
		rest, keep = s.serveLaneRequest(conn, br)
	}
}

// serveLaneRequest serves the request at the front of br, or returns what
// net/http is to read, and reports whether the lane goes on. A request not
// whole in the buffer is read under RequestTimeout, its body as it arrives: a
// stall is cut without a reply, and a peer that ends mid-request is handed over.
func (s *Server) serveLaneRequest(conn net.Conn, br *bufio.Reader) (rest io.Reader, keep bool) {
	c := memCallPool.Get().(*memCall)
	defer memCallPool.Put(c)
	b, _ := br.Peek(br.Buffered())
	h, ok, more := frameHead(b, s.cfg.MaxBodyBytes, c)
	armed := false
	for ; more && len(b) < br.Size(); h, ok, more = frameHead(b, s.cfg.MaxBodyBytes, c) {
		armed = armed || s.armRead(conn)
		if _, err := br.Peek(len(b) + 1); err == io.EOF {
			return br, false // net/http answers a head cut short
		} else if err != nil {
			return nil, false
		}
		b, _ = br.Peek(br.Buffered())
	}
	if !ok { // net/http's, as is a head that outgrows the buffer
		return br, false
	}
	need := h.n + h.body
	if br.Buffered() < need {
		armed = armed || s.armRead(conn)
	}
	for c.buf = c.buf[:0]; len(c.buf) < need; {
		c.buf = slices.Grow(c.buf, min(need-len(c.buf), max(br.Buffered(), 512)))
		n, err := br.Read(c.buf[len(c.buf):min(cap(c.buf), need)])
		if c.buf = c.buf[:len(c.buf)+n]; err == io.EOF {
			return io.MultiReader(bytes.NewReader(bytes.Clone(c.buf)), br), false
		} else if err != nil {
			return nil, false
		}
	}
	if armed {
		_ = conn.SetReadDeadline(time.Time{})
	}
	req := c.request(http.MethodPost, url.URL{Path: h.path}, c.buf[h.n:])
	req.Close, req.Host, req.RequestURI = h.close, h.host, h.path
	c.out = c.out[:0]
	s.stack.Load().(http.Handler).ServeHTTP(c, req)
	// net/http closes a connection whose handler left 256 KiB or more unread.
	keep = c.frameReply(h.close || s.connsShut.Load() || c.Len() >= 256<<10)
	_, err := conn.Write(c.reply)
	return nil, keep && err == nil
}

// frameReply puts c's reply in c.reply as net/http frames one whose handler
// sets no framing header: status line, the handler's headers, Date,
// Content-Length (chunked past the 2048 bytes net/http buffers, neither if
// bodiless), a sniffed Content-Type if none is set, Connection: close if closing.
func (c *memCall) frameReply(closing bool) bool {
	code, body := cmp.Or(c.status, http.StatusOK), c.out
	bodyless, chunked := code < 200 || code == http.StatusNoContent || code == http.StatusNotModified, len(c.out) > 2048
	if bodyless {
		body, chunked = nil, false
	}
	c.reply = append(strconv.AppendInt(append(c.reply[:0], "HTTP/1.1 "...), int64(code), 10), ' ')
	c.reply = append(append(c.reply, http.StatusText(code)...), "\r\n"...)
	_ = c.hdr.Write(&c.reply)
	if now := time.Now(); now.Unix() != c.dateSec {
		c.date, c.dateSec = now.UTC().AppendFormat(c.date[:0], http.TimeFormat), now.Unix()
	}
	b := append(append(append(c.reply, "Date: "...), c.date...), "\r\n"...)
	if !bodyless && !chunked {
		b = append(strconv.AppendInt(append(b, "Content-Length: "...), int64(len(body)), 10), "\r\n"...)
	}
	if _, typed := c.hdr["Content-Type"]; !typed && len(body) > 0 {
		b = append(append(append(b, "Content-Type: "...), http.DetectContentType(body)...), "\r\n"...)
	}
	if closing {
		b = append(b, "Connection: close\r\n"...)
	}
	if chunked {
		b = strconv.AppendInt(append(b, "Transfer-Encoding: chunked\r\n\r\n"...), int64(len(body)), 16)
		body = append(body, "\r\n0\r\n\r\n"...)
	}
	c.reply = append(append(b, "\r\n"...), body...)
	return !closing
}

// byteSink is a []byte that http.Header.Write appends to.
type byteSink []byte

func (b *byteSink) Write(p []byte) (int, error)       { *b = append(*b, p...); return len(p), nil }
func (b *byteSink) WriteString(s string) (int, error) { *b = append(*b, s...); return len(s), nil }

// handedConn is a connection a lane gave net/http: reads drain rest first.
type handedConn struct {
	net.Conn
	rest io.Reader
}

func (c *handedConn) Read(p []byte) (int, error) { return c.rest.Read(p) }

// handoffListener serves Run's http.Server what lanes hand over; it closes once.
type handoffListener struct {
	net.Listener // its Addr
	conns        chan net.Conn
	closed       chan struct{}
}

func (l *handoffListener) Close() error { close(l.closed); return nil }

func (l *handoffListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}
