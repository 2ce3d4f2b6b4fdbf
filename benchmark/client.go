package main

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"
)

// conn is a frozen minimal HTTP/1.1 client over one keep-alive connection:
// it builds requests into a reused buffer and reads responses into another,
// so the client's share of every measurement is small and does not move when
// net/http's client does.
type conn struct {
	c    net.Conn
	br   *bufio.Reader
	req  []byte
	resp []byte
}

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (c *conn) close() { _ = c.c.Close() }

var errMalformed = errors.New("malformed HTTP response")

// roundTrip sends method prefix+sid+suffix with an optional JSON body and
// returns the status and the body, which is valid until the next call.
func (c *conn) roundTrip(method, prefix string, sid []byte, suffix string, body []byte) (int, []byte, error) {
	b := append(c.req[:0], method...)
	b = append(b, ' ')
	b = append(b, prefix...)
	b = append(b, sid...)
	b = append(b, suffix...)
	b = append(b, " HTTP/1.1\r\nHost: bench\r\n"...)
	if body != nil {
		b = append(b, "Content-Type: application/json\r\nContent-Length: "...)
		b = strconv.AppendInt(b, int64(len(body)), 10)
		b = append(b, "\r\n"...)
	}
	b = append(b, "\r\n"...)
	b = append(b, body...)
	c.req = b
	if _, err := c.c.Write(b); err != nil {
		return 0, nil, err
	}

	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 12 {
		return 0, nil, errMalformed
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, errMalformed
	}
	length, chunked := -1, false
	for {
		if line, err = c.br.ReadSlice('\n'); err != nil {
			return 0, nil, err
		}
		if len(line) <= 2 {
			break
		}
		if v, ok := headerValue(line, "content-length:"); ok {
			if length, err = strconv.Atoi(string(v)); err != nil {
				return 0, nil, errMalformed
			}
		} else if v, ok := headerValue(line, "transfer-encoding:"); ok && bytes.EqualFold(v, []byte("chunked")) {
			chunked = true
		}
	}
	c.resp = c.resp[:0]
	switch {
	case chunked:
		for {
			if line, err = c.br.ReadSlice('\n'); err != nil {
				return 0, nil, err
			}
			n, err := strconv.ParseUint(string(bytes.TrimSpace(line)), 16, 31)
			if err != nil {
				return 0, nil, errMalformed
			}
			if err := c.readBody(int(n) + 2); err != nil { // chunk + CRLF (or the final CRLF)
				return 0, nil, err
			}
			c.resp = c.resp[:len(c.resp)-2]
			if n == 0 {
				break
			}
		}
	case length >= 0:
		if err := c.readBody(length); err != nil {
			return 0, nil, err
		}
	default:
		return 0, nil, errMalformed
	}
	return status, c.resp, nil
}

func (c *conn) readBody(n int) error {
	have := len(c.resp)
	if cap(c.resp) < have+n {
		c.resp = append(make([]byte, 0, 2*(have+n)), c.resp...)
	}
	c.resp = c.resp[:have+n]
	_, err := io.ReadFull(c.br, c.resp[have:])
	return err
}

// headerValue returns the trimmed value of a header line whose name matches
// the lower-case name (with its colon), case-insensitively.
func headerValue(line []byte, name string) ([]byte, bool) {
	if len(line) < len(name) || !bytes.EqualFold(line[:len(name)], []byte(name)) {
		return nil, false
	}
	return bytes.TrimSpace(line[len(name):]), true
}

// client is the closed-loop caller walking the seeded schedule: it waits for
// each reply before sending the next request, closes and recreates its
// session every sessionOps ops, and checks every response against the
// oracle.
type client struct {
	*conn
	names  [len(opNames)]string // span names, "<server|fleet>.<op>"
	t      *traffic
	pos    int    // position in the cycle
	ops    int    // ops issued, the span op id
	sid    []byte // live session id, nil before the first op
	lat    []time.Duration
	failed int
}

func newClient(addr, target string, t *traffic) (*client, error) {
	cn, err := dial(addr)
	if err != nil {
		return nil, err
	}
	c := &client{conn: cn, t: t, lat: make([]time.Duration, 0, len(t.cycle))}
	for k, n := range opNames {
		c.names[k] = target + "." + n
	}
	return c, nil
}

// renew closes the live session, if any, and opens a fresh one. Session
// churn is part of the traffic but not an op: it is untimed, and a failure
// is counted as a failed op.
func (c *client) renew() bool {
	if c.sid != nil {
		if status, _, err := c.roundTrip("DELETE", "/session/", c.sid, "", nil); err != nil || status != http.StatusOK {
			return false
		}
	}
	status, resp, err := c.roundTrip("POST", "/session", nil, "", nil)
	if err != nil || status != http.StatusCreated {
		return false
	}
	id, ok := sessionID(resp)
	c.sid = append(c.sid[:0], id...)
	return ok
}

// endSession closes the live session at the end of a slice, so every slice
// starts on fresh sessions and leaves the daemon idle: live_heap_mb then never
// depends on which overlays happened to be live. A cycle is whole sessions;
// the skip to the next session boundary only matters after a failed renew.
func (c *client) endSession() {
	if c.sid == nil {
		return
	}
	if status, _, err := c.roundTrip("DELETE", "/session/", c.sid, "", nil); err != nil || status != http.StatusOK {
		c.failed++
	}
	c.sid = nil
	c.pos += (sessionOps - c.pos%sessionOps) % sessionOps
}

func sessionID(resp []byte) ([]byte, bool) {
	i := bytes.Index(resp, []byte(`"id":"`))
	if i < 0 {
		return nil, false
	}
	id := resp[i+len(`"id":"`):]
	j := bytes.IndexByte(id, '"')
	return id[:max(j, 0)], j > 0
}

// step issues the next op of the schedule.
func (c *client) step(tr *tracer) {
	pos := c.pos % len(c.t.cycle)
	c.pos++
	if pos%sessionOps == 0 && !c.renew() {
		c.failed++
		c.pos += sessionOps - 1 // the rest of this session's ops have nothing to run on
		return
	}
	op := c.t.cycle[pos]
	c.ops++
	id := tr.begin(c.names[op.kind], -1, c.ops, 1)
	t0 := time.Now()
	status, resp, err := c.do(op)
	el := time.Since(t0)
	tr.end(id)
	if err != nil || !c.t.exp[pos].check(op.kind, status, resp) {
		c.failed++
		return
	}
	c.lat = append(c.lat, el)
}

func (c *client) do(op opSpec) (int, []byte, error) {
	switch op.kind {
	case opECO:
		return c.roundTrip("POST", "/session/", c.sid, "/eco", c.t.bodies[op.body])
	case opRead:
		return c.roundTrip("GET", "/session/", c.sid, "/slacks", nil)
	case opReadScn:
		return c.roundTrip("GET", "/session/", c.sid, scnSuffix, nil)
	default: // opBaseRead
		return c.roundTrip("GET", "/slacks", nil, "", nil)
	}
}

// scnSuffix reads the session's view in the daemon's first corner.
var scnSuffix = "/slacks?scenario=" + scenarios8[0].Name
