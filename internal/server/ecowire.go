package server

// The ECO request path's wire codecs. A what-if body is decoded in one pass
// when it is what json.Marshal writes for an ECORequest, and the response's
// "changed" list is written without reflection; every other body goes to
// encoding/json, and every response byte is the one WriteJSON would write.

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"unicode/utf8"
)

// decodeECO decodes data into req in one pass when data is an ECORequest as
// json.Marshal writes one — the keys of every object it names, in field
// order, without whitespace (but trailing), non-empty arrays, strings without
// escapes, numbers encoding/json stores into their fields — and reports
// whether it did. req must be empty and zero to capacity, as ecoReqPool hands
// it out; on false it is left so, and the caller decodes data with
// unmarshalFirst, whose value and error every other input keeps. Each field
// is written from the same literal by the same strconv call as encoding/json
// uses, so an input taken here decodes to encoding/json's value.
func decodeECO(data []byte, req *ECORequest) bool {
	d := ecoDecoder{b: data}
	rzs, arcs := req.Resizes, req.Arcs
	if d.request(&rzs, &arcs) {
		req.Resizes, req.Arcs = rzs, arcs
		return true
	}
	clear(req.Resizes[:cap(req.Resizes)])
	clear(req.Arcs[:cap(req.Arcs)])
	return false
}

// ecoDecoder is decodeECO's cursor over its input.
type ecoDecoder struct {
	b []byte
	i int
}

// request reads the whole body, appending its batches to rzs and arcs.
func (d *ecoDecoder) request(rzs *[]ResizeReq, arcs *[]ArcECO) bool {
	if !d.lit(`{`) {
		return false
	}
	arcsKey := `"arcs":[`
	if d.lit(`"resizes":[`) {
		for ok := true; ok; ok = d.lit(`,`) {
			var rz ResizeReq
			if !d.lit(`{"cell":`) || !d.str(&rz.Cell) || !d.lit(`,"lib":`) || !d.str(&rz.Lib) || !d.lit(`}`) {
				return false
			}
			*rzs = append(*rzs, rz)
		}
		if !d.lit(`]`) {
			return false
		}
		arcsKey = `,"arcs":[`
	}
	if !d.lit(arcsKey) {
		return d.lit(`}`) && d.end()
	}
	for ok := true; ok; ok = d.lit(`,`) {
		var a ArcECO
		if !d.lit(`{"arc":`) || !d.int32(&a.Arc) ||
			!d.lit(`,"rise":{"Mean":`) || !d.float(&a.Rise.Mean) || !d.lit(`,"Std":`) || !d.float(&a.Rise.Std) ||
			!d.lit(`},"fall":{"Mean":`) || !d.float(&a.Fall.Mean) || !d.lit(`,"Std":`) || !d.float(&a.Fall.Std) ||
			!d.lit(`}}`) {
			return false
		}
		*arcs = append(*arcs, a)
	}
	return d.lit(`]}`) && d.end()
}

// lit consumes s if the input continues with it.
func (d *ecoDecoder) lit(s string) bool {
	if len(d.b)-d.i < len(s) || string(d.b[d.i:d.i+len(s)]) != s {
		return false
	}
	d.i += len(s)
	return true
}

// end reports whether only JSON whitespace is left.
func (d *ecoDecoder) end() bool {
	for _, c := range d.b[d.i:] {
		if c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return false
		}
	}
	return true
}

// str reads a string without escapes or control characters, in valid UTF-8:
// one whose text encoding/json stores unchanged.
func (d *ecoDecoder) str(dst *string) bool {
	if !d.lit(`"`) {
		return false
	}
	j := d.i
	for ; j < len(d.b) && d.b[j] != '"'; j++ {
		if c := d.b[j]; c < ' ' || c == '\\' {
			return false
		}
	}
	if j == len(d.b) || !utf8.Valid(d.b[d.i:j]) {
		return false
	}
	*dst = string(d.b[d.i:j])
	d.i = j + 1
	return true
}

// number reads a JSON number literal, reporting whether it has a fraction or
// an exponent.
func (d *ecoDecoder) number() (lit []byte, frac, ok bool) {
	b, i := d.b, d.i
	digits := func() int {
		n := 0
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			n++
		}
		return n
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case digits() == 0:
		return nil, false, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		if digits() == 0 {
			return nil, false, false
		}
		frac = true
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if digits() == 0 {
			return nil, false, false
		}
		frac = true
	}
	lit, d.i = b[d.i:i], i
	return lit, frac, true
}

// int32 reads an integer into dst as encoding/json does: the literal through
// strconv.ParseInt, refused out of int32's range and with a fraction or an
// exponent.
func (d *ecoDecoder) int32(dst *int32) bool {
	lit, frac, ok := d.number()
	if !ok || frac {
		return false
	}
	n, err := strconv.ParseInt(string(lit), 10, 32)
	*dst = int32(n)
	return err == nil
}

// float reads a number into dst as encoding/json does: the literal through
// strconv.ParseFloat, refused out of float64's range.
func (d *ecoDecoder) float(dst *float64) bool {
	lit, _, ok := d.number()
	if !ok {
		return false
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	*dst = f
	return err == nil
}

// deltaTNSToken opens the field ECOResult.Changed follows.
var deltaTNSToken = []byte(`"delta_tns":`)

// writeECOResult answers 200 with res, byte for byte what WriteJSON writes
// for it, without reflecting over res.Changed: encoding/json encodes the rest
// with Changed omitted, and the "changed" array is spliced in after the
// number "delta_tns" holds — no string precedes it — each base slack copied
// from the nominal lane's text cache where its bits are the cached ones, and
// every other number formatted as encoding/json formats it.
func (s *Server) writeECOResult(w http.ResponseWriter, res *ECOResult) {
	changed := res.Changed
	if len(changed) == 0 {
		WriteJSON(w, http.StatusOK, res)
		return
	}
	m := s.mgr
	t := m.laneText(m.nom, m.numEndpoints())
	e := encPool.Get().(*respEnc)
	defer encPool.Put(e)
	e.buf.Reset()
	res.Changed = nil
	err := e.enc.Encode(res)
	res.Changed = changed
	var body []byte
	if err == nil {
		frame := e.buf.Bytes()
		cut := bytes.Index(frame, deltaTNSToken) + len(deltaTNSToken)
		cut += bytes.IndexByte(frame[cut:], ',')
		out, ok := t.appendChanged(append(e.out[:0], frame[:cut]...), changed)
		e.out = append(out, frame[cut:]...)
		if ok {
			body = e.out
		}
	}
	writeBody(w, http.StatusOK, body)
}

// appendChanged appends `,"changed":` and changed as encoding/json encodes an
// []EndpointSlack. ok is false on a slack JSON cannot carry.
func (t *laneText) appendChanged(dst []byte, changed []EndpointSlack) (_ []byte, ok bool) {
	dst = append(dst, `,"changed":[`...)
	for i := range changed {
		es := &changed[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(append(dst, `{"endpoint":`...), int64(es.Endpoint), 10)
		if es.Pin != "" {
			dst = appendJSONString(append(dst, `,"pin":`...), es.Pin)
		}
		if dst, ok = t.appendSlack(append(dst, `,"slack":`...), es.Endpoint, es.Slack); !ok {
			return dst, false
		}
		if dst, ok = t.appendSlack(append(dst, `,"base_slack":`...), es.Endpoint, es.Base); !ok {
			return dst, false
		}
		dst = append(dst, '}')
	}
	return append(dst, ']'), true
}

// appendSlack appends v, endpoint ep's slack, copying the cached text when
// its bits are the ones cached for ep.
func (t *laneText) appendSlack(dst []byte, ep int, v float64) ([]byte, bool) {
	if uint(ep) < uint(len(t.base)) && math.Float64bits(v) == math.Float64bits(t.base[ep]) {
		return append(dst, t.text[t.off[ep]:t.off[ep+1]-1]...), true // less its comma
	}
	return appendJSONFloat(dst, v)
}

// appendJSONString appends s quoted as encoding/json quotes a string: as it
// is when it is printable ASCII that HTML escaping leaves alone, through
// encoding/json otherwise.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(dst, q...)
		}
	}
	return append(append(append(dst, '"'), s...), '"')
}
