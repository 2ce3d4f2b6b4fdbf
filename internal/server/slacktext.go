package server

// The slack text cache: GET /session/{id}/slacks answers a full endpoint
// slack vector, and in a sizing loop almost every element of it is bit-equal
// to the committed base slack the previous read already rendered. So the
// manager keeps, per base lane view a session can read (each scenario lane —
// the nominal one through its index, so "" and its name share an entry — and
// merged), the lane's committed slacks next to their JSON text, and a read
// copies text for every endpoint whose float64 bits match and formats only the
// rest.
//
// The cache is keyed by value: an entry is a (float64, its text) pair, and a
// pair is true whatever epoch it was rendered at. A stale or foreign entry
// can only lower the hit rate, never put a wrong byte on the wire, so
// overlays, structural sessions and commits need no invalidation hook; a lane
// is rebuilt when the base it was read from has been replaced, to win the
// hits back.

import (
	"bytes"
	"math"
	"net/http"
	"strconv"
	"sync/atomic"
)

// laneText is one lane's committed slacks as text. Immutable once published.
type laneText struct {
	epoch uint64    // the base it was read from
	base  []float64 // clamped as jsonSlack clamps; a NaN is held as 0
	// text[off[i]:off[i+1]] is base[i] as encoding/json renders a float64,
	// then a comma: a run of matching endpoints is one copy.
	off  []uint32
	text []byte
}

// slackText is the manager's cache and its counters.
type slackText struct {
	lanes    []atomic.Pointer[laneText] // scenario lanes, then merged
	hits     atomic.Int64               // endpoints answered by copying
	formats  atomic.Int64               // endpoints a read formatted
	rebuilds atomic.Int64
}

// laneText returns the text of lane's committed slacks, rendering it first
// when there is none for the current base or for n endpoints. Concurrent
// readers may each render it; the entries are interchangeable.
func (m *Manager) laneText(lane, n int) *laneText {
	slot := &m.slackText.lanes[len(m.slackText.lanes)-1]
	if lane != mergedLane {
		slot = &m.slackText.lanes[lane]
	}
	if t := slot.Load(); t != nil && t.epoch == m.Epoch() && len(t.base) == n {
		return t
	}
	m.mu.RLock()
	epoch, base := m.epoch, laneSlacksInto(m.eng, nil, lane, nil)
	m.mu.RUnlock()
	t := renderLaneText(base)
	t.epoch = epoch
	slot.Store(t)
	m.slackText.rebuilds.Add(1)
	return t
}

// renderLaneText clamps base in place and renders it.
func renderLaneText(base []float64) *laneText {
	t := &laneText{base: base, off: make([]uint32, len(base)+1), text: make([]byte, 0, 20*len(base))}
	for i, v := range base {
		v = jsonSlack(v)
		if math.IsNaN(v) {
			// No text: hold a pair a NaN read never matches, so the read
			// formats it and fails as encoding/json does.
			v = 0
		}
		base[i] = v
		t.text, _ = appendJSONFloat(t.text, v)
		t.text = append(t.text, ',')
		t.off[i+1] = uint32(len(t.text))
	}
	return t
}

// bytes reports what the cached lanes hold.
func (c *slackText) bytes() (n int) {
	for i := range c.lanes {
		if t := c.lanes[i].Load(); t != nil {
			n += 8*len(t.base) + 4*len(t.off) + cap(t.text)
		}
	}
	return n
}

// appendSlacks appends slacks as the elements of a JSON array, comma
// separated, copying the text of every endpoint whose bits are the cached
// ones. It reports how many it formatted, and ok=false on a value JSON cannot
// carry.
func (t *laneText) appendSlacks(dst []byte, slacks []float64) (_ []byte, formatted int, ok bool) {
	if len(slacks) == 0 {
		return dst, 0, true
	}
	cached := t.base[:min(len(t.base), len(slacks))]
	for i := 0; i < len(slacks); {
		j := i
		for j < len(cached) && math.Float64bits(slacks[j]) == math.Float64bits(cached[j]) {
			j++
		}
		if j > i {
			dst = append(dst, t.text[t.off[i]:t.off[j]]...)
			i = j
			continue
		}
		if dst, ok = appendJSONFloat(dst, slacks[i]); !ok {
			return dst, formatted, false
		}
		dst = append(dst, ',')
		formatted++
		i++
	}
	return dst[:len(dst)-1], formatted, true // less the last comma
}

// appendJSONFloat appends f as encoding/json encodes a float64: the shortest
// decimal that round-trips, in exponent form below 1e-6 and from 1e21 up,
// with a two-digit negative exponent's leading zero dropped. ok is false for
// NaN and ±Inf, which encoding/json refuses.
func appendJSONFloat(dst []byte, f float64) (_ []byte, ok bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, true
}

var slacksToken = []byte(`"slacks":[`)

// writeSessionSlacks answers 200 with resp, its "slacks" array being slacks
// (already clamped) of lane — byte for byte what WriteJSON writes for resp
// with Slacks set. Everything but the array is encoding/json's, encoded
// around an empty array and split at the "slacks":[ token, which cannot occur
// inside a JSON string (its quotes would be escaped); the array is stitched
// from the lane's text rather than handed back to encoding/json as a
// Marshaler, whose compact pass re-scans every byte of it.
func (s *Server) writeSessionSlacks(w http.ResponseWriter, resp *sessionSlacks, lane int, slacks []float64) {
	m := s.mgr
	t := m.laneText(lane, len(slacks))
	e := encPool.Get().(*respEnc)
	defer encPool.Put(e)
	e.buf.Reset()
	resp.Slacks = []float64{}
	var body []byte
	if err := e.enc.Encode(resp); err == nil {
		frame := e.buf.Bytes()
		cut := bytes.Index(frame, slacksToken) + len(slacksToken)
		out, formatted, ok := t.appendSlacks(append(e.out[:0], frame[:cut]...), slacks)
		e.out = append(out, frame[cut:]...)
		if ok {
			body = e.out
			m.slackText.hits.Add(int64(len(slacks) - formatted))
			m.slackText.formats.Add(int64(formatted))
		}
	}
	writeBody(w, http.StatusOK, body)
}
