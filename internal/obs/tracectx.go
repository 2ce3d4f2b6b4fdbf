package obs

import (
	"encoding/binary"
	"encoding/hex"
	"strconv"
	"sync/atomic"
	"time"
)

// Trace context: the cross-process identity layer over the span tracer.
//
// The tracer's span ids are process-local int64s — cheap to mint, meaningless
// outside the process. Crossing the router→replica HTTP boundary needs stable
// identifiers, so each span also projects to a *wire id*: a 64-bit mix of the
// tracer's per-process seed and the local id, deterministic within a process
// and (probabilistically) unique across the fleet. A request's identity is a
// 128-bit TraceID minted once at the edge; TraceID + wire id travel in a
// W3C-style traceparent header:
//
//	traceparent: 00-<32 hex trace-id>-<16 hex parent-span-id>-01
//
// A replica parses the header, opens its serve span with StartRemote, and the
// stitched exporter (stitch.go) later joins both processes' span streams into
// one connected tree keyed by the shared TraceID.

// TraceID is a 128-bit request identity, hex-encoded as 32 characters on the
// wire. The zero value means "no trace".
type TraceID [2]uint64

// IsZero reports whether t is the absent trace id.
func (t TraceID) IsZero() bool { return t[0] == 0 && t[1] == 0 }

// String returns the 32-character lowercase hex form.
func (t TraceID) String() string {
	var b [32]byte
	putHex64(b[:16], t[0])
	putHex64(b[16:], t[1])
	return string(b[:])
}

// MarshalJSON renders the trace id as its 32-hex string, the form recorded in
// flight-recorder dumps and bench reports.
func (t TraceID) MarshalJSON() ([]byte, error) {
	var b [34]byte
	b[0] = '"'
	putHex64(b[1:17], t[0])
	putHex64(b[17:33], t[1])
	b[33] = '"'
	return b[:], nil
}

// UnmarshalJSON parses the 32-hex string form.
func (t *TraceID) UnmarshalJSON(b []byte) error {
	if len(b) == 34 && b[0] == '"' && b[33] == '"' {
		hi, ok1 := parseHex64(string(b[1:17]))
		lo, ok2 := parseHex64(string(b[17:33]))
		if ok1 && ok2 {
			*t = TraceID{hi, lo}
			return nil
		}
	}
	*t = TraceID{}
	return nil
}

// ParseTraceID parses the 32-character hex form. Returns false on malformed
// input or the all-zero id.
func ParseTraceID(s string) (TraceID, bool) {
	if len(s) != 32 {
		return TraceID{}, false
	}
	hi, ok1 := parseHex64(s[:16])
	lo, ok2 := parseHex64(s[16:])
	id := TraceID{hi, lo}
	if !ok1 || !ok2 || id.IsZero() {
		return TraceID{}, false
	}
	return id, true
}

// SpanContext is the cross-process coordinate of one span: the request's
// TraceID plus the span's wire id. The zero value means "no context".
type SpanContext struct {
	Trace TraceID
	Span  uint64
}

// IsZero reports whether sc carries no trace.
func (sc SpanContext) IsZero() bool { return sc.Trace.IsZero() }

// traceIDState seeds NewTraceID: a per-process random-ish base (boot time
// through the splitmix64 finalizer) plus an atomic counter, so concurrent
// mints never collide within a process and two processes booted apart in time
// diverge immediately.
var (
	traceCtr  atomic.Uint64
	traceSeed = mix64(uint64(time.Now().UnixNano()) ^ 0x6a09e667f3bcc908)
)

// NewTraceID mints a fresh non-zero trace id.
func NewTraceID() TraceID {
	c := traceCtr.Add(1)
	id := TraceID{mix64(traceSeed ^ c), mix64(c*0x9e3779b97f4a7c15 + traceSeed)}
	if id.IsZero() {
		id[1] = 1
	}
	return id
}

// Traceparent renders sc as a W3C traceparent header value
// (version 00, sampled flag set). Empty string for the zero context — callers
// can unconditionally set-if-nonempty.
func Traceparent(sc SpanContext) string {
	if sc.Trace.IsZero() {
		return ""
	}
	var b [55]byte
	b[0], b[1], b[2] = '0', '0', '-'
	putHex64(b[3:19], sc.Trace[0])
	putHex64(b[19:35], sc.Trace[1])
	b[35] = '-'
	putHex64(b[36:52], sc.Span)
	b[52], b[53], b[54] = '-', '0', '1'
	return string(b[:])
}

// ParseTraceparent parses a traceparent header value. Only version 00 with a
// non-zero trace id is accepted; the trailing flags byte is tolerated but
// ignored (this engine always records). Allocation-free.
func ParseTraceparent(s string) (SpanContext, bool) {
	if len(s) != 55 || s[0] != '0' || s[1] != '0' || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return SpanContext{}, false
	}
	hi, ok1 := parseHex64(s[3:19])
	lo, ok2 := parseHex64(s[19:35])
	sp, ok3 := parseHex64(s[36:52])
	sc := SpanContext{Trace: TraceID{hi, lo}, Span: sp}
	if !ok1 || !ok2 || !ok3 || sc.Trace.IsZero() {
		return SpanContext{}, false
	}
	return sc, true
}

// putHex64 writes v as 16 lowercase hex characters into dst.
func putHex64(dst []byte, v uint64) {
	var raw [8]byte
	binary.BigEndian.PutUint64(raw[:], v)
	hex.Encode(dst, raw[:])
}

// parseHex64 parses exactly 16 hex characters, either case. With an explicit
// base ParseUint takes neither a sign, a prefix nor underscores.
func parseHex64(s string) (uint64, bool) {
	if len(s) != 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(s, 16, 64)
	return v, err == nil
}

// mix64 is the splitmix64 finalizer — the same full-avalanche mix the fleet
// uses for key redraws, reused here to spread sequential ids over 64 bits.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
