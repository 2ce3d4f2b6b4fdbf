package shell

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"insta/internal/obs"
)

// serve runs one request through the shell the way both daemons' route
// wrappers do: Begin, the handler on the Req, End.
func serve(s *Shell, r *http.Request, h func(rq *Req)) (rec *httptest.ResponseRecorder, code int, d time.Duration) {
	rec = httptest.NewRecorder()
	rq := s.Begin("serve", rec, r)
	h(rq)
	code, d = rq.End("route")
	return rec, code, d
}

func get() *http.Request { return httptest.NewRequest("GET", "/slacks", nil) }

// sloCounts reads the tracker's widest window.
func sloCounts(s *Shell) (total, bad uint64) {
	burn := s.Burn()
	b := burn[len(burn)-1]
	return b.Total, b.Bad
}

// TestStatusCaptureOneRecordOneSample: End reports the status the handler
// sent — 200 when it never wrote a header, the first one when it wrote two —
// and every request leaves exactly one flight-recorder record carrying it and
// one SLO sample, bad only from 500 up.
func TestStatusCaptureOneRecordOneSample(t *testing.T) {
	s := New(Options{})
	for i, tc := range []struct {
		name    string
		h       func(rq *Req)
		code    int
		sloBad  bool
		wantOut int // what the client sees
	}{
		{"header never written", func(rq *Req) {}, 200, false, 200},
		{"body without a header", func(rq *Req) { _, _ = rq.Write([]byte("ok")) }, 200, false, 200},
		{"404", func(rq *Req) { rq.WriteHeader(404) }, 404, false, 404},
		{"503", func(rq *Req) { rq.WriteHeader(503) }, 503, true, 503},
		{"first of two wins", func(rq *Req) { rq.WriteHeader(409); rq.WriteHeader(500) }, 409, false, 409},
	} {
		total0, bad0 := sloCounts(s)
		rec, code, d := serve(s, get(), tc.h)
		if code != tc.code || rec.Code != tc.wantOut {
			t.Fatalf("%s: End reports %d and the client saw %d, want %d and %d", tc.name, code, rec.Code, tc.code, tc.wantOut)
		}
		if got := s.Flight.Total(); got != uint64(i+1) {
			t.Fatalf("%s: %d records after %d requests", tc.name, got, i+1)
		}
		recs := s.Flight.Snapshot()
		if r := recs[len(recs)-1]; r.Status != int32(tc.code) || r.Route != "route" || r.TotalNs != int64(d) || r.Replica != -1 {
			t.Fatalf("%s: recorded %+v, want status %d on route %q taking %v with no replica", tc.name, r, tc.code, "route", d)
		}
		if tc.sloBad {
			bad0++
		}
		if total, bad := sloCounts(s); total != total0+1 || bad != bad0 {
			t.Fatalf("%s: SLO holds %d samples, %d bad; want %d, %d", tc.name, total, bad, total0+1, bad0)
		}
	}
}

// TestHandleFieldsReachTheRecord: what a side leaves on the Req is what its
// record says, and the serve time is the total less the admission wait.
func TestHandleFieldsReachTheRecord(t *testing.T) {
	s := New(Options{})
	_, _, d := serve(s, get(), func(rq *Req) {
		rq.Shard, rq.Replica, rq.QueueNs, rq.Epoch, rq.TopoGen = "abc", 3, 1500, 7, 2
	})
	r := s.Flight.Snapshot()[0]
	if r.Shard != "abc" || r.Replica != 3 || r.QueueNs != 1500 || r.Epoch != 7 || r.TopoGen != 2 || r.ServeNs != int64(d)-1500 {
		t.Fatalf("recorded %+v for a request taking %v", r, d)
	}
}

// TestTraceparentJoinedOrMinted: a request without a usable Traceparent gets a
// fresh trace id, one with it keeps the caller's; either way the response
// echoes the id the record carries, and with a tracer the echo names the
// request's own span, under the caller's.
func TestTraceparentJoinedOrMinted(t *testing.T) {
	caller := obs.SpanContext{Trace: obs.NewTraceID(), Span: 0xabcdef}
	for _, tr := range []*obs.Tracer{nil, obs.NewTracer()} {
		s := New(Options{Tracer: tr})
		seen := map[obs.TraceID]bool{}
		for _, header := range []string{"", "not-a-traceparent"} {
			r := get()
			if header != "" {
				r.Header.Set("Traceparent", header)
			}
			rec, _, _ := serve(s, r, func(rq *Req) {})
			echo, ok := obs.ParseTraceparent(rec.Header().Get("Traceparent"))
			recs := s.Flight.Snapshot()
			if !ok || echo.Trace.IsZero() || seen[echo.Trace] || recs[len(recs)-1].Trace != echo.Trace {
				t.Fatalf("tracer %v, header %q: echoed %q, recorded %v; want one fresh id in both", tr != nil, header, rec.Header().Get("Traceparent"), recs[len(recs)-1].Trace)
			}
			seen[echo.Trace] = true
		}

		r := get()
		r.Header.Set("Traceparent", obs.Traceparent(caller))
		var rq *Req
		rec, _, _ := serve(s, r, func(q *Req) { rq = q })
		echo, _ := obs.ParseTraceparent(rec.Header().Get("Traceparent"))
		recs := s.Flight.Snapshot()
		if echo.Trace != caller.Trace || recs[len(recs)-1].Trace != caller.Trace {
			t.Fatalf("tracer %v: joined request echoed trace %v and recorded %v, want the caller's %v", tr != nil, echo.Trace, recs[len(recs)-1].Trace, caller.Trace)
		}
		if down := rq.Downstream(nil); down != rec.Header().Get("Traceparent") {
			t.Fatalf("tracer %v: an attempt without a span goes out as %q, want the request's own %q", tr != nil, down, rec.Header().Get("Traceparent"))
		}
		if tr == nil {
			if rq.Span() != nil || echo.Span != caller.Span {
				t.Fatalf("without a tracer the request has span %v and echoes span %x, want none and the caller's %x", rq.Span(), echo.Span, caller.Span)
			}
			continue
		}
		if rq.Span() == nil || echo.Span == caller.Span || echo != rq.Span().Context() {
			t.Fatalf("with a tracer the echo %+v must name the request's own span %+v", echo, rq.Span().Context())
		}
		spans := tr.TraceSpans(caller.Trace)
		if len(spans) != 1 || spans[0].Name != "serve" || spans[0].Parent != caller.Span {
			t.Fatalf("the joined trace holds %+v, want one ended serve span under the caller's %x", spans, caller.Span)
		}
	}
}

// TestNilShell: the shell switched off still captures status and time, and
// touches neither the response headers nor any recorder.
func TestNilShell(t *testing.T) {
	var s *Shell
	rec, code, d := serve(s, get(), func(rq *Req) { rq.WriteHeader(418) })
	if code != 418 || d < 0 || rec.Header().Get("Traceparent") != "" {
		t.Fatalf("nil shell: status %d in %v, Traceparent %q", code, d, rec.Header().Get("Traceparent"))
	}
	if s.FlightSummary() != nil || s.Burn() != nil {
		t.Fatal("nil shell reports a recorder or an SLO")
	}
}

// TestMountRoutes: the flight recorder's dump and pprof are mounted, GET only;
// without a recorder the dump route still exists and answers 501.
func TestMountRoutes(t *testing.T) {
	do := func(s *Shell, method, path string) *httptest.ResponseRecorder {
		mux := http.NewServeMux()
		s.Mount(mux)
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(method, path, nil))
		return rec
	}
	s := New(Options{FlightSize: 8, FlightPin: time.Hour})
	serve(s, get(), func(rq *Req) { rq.WriteHeader(502) })
	if sum := s.FlightSummary(); sum == nil || sum.Size != 8 || sum.Total != 1 || sum.PinThreshold != 3600 {
		t.Fatalf("flight summary %+v", sum)
	}

	rec := do(s, "GET", "/debug/flightrecorder")
	var dump struct {
		Total  int             `json:"total"`
		Recent []obs.ReqRecord `json:"recent"`
		Pinned []struct {
			Rec obs.ReqRecord `json:"rec"`
		} `json:"pinned"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &dump); err != nil || rec.Code != 200 {
		t.Fatalf("dump: status %d, %v: %s", rec.Code, err, rec.Body)
	}
	if dump.Total != 1 || len(dump.Recent) != 1 || dump.Recent[0].Status != 502 || len(dump.Pinned) != 1 || dump.Pinned[0].Rec != dump.Recent[0] {
		t.Fatalf("dump %+v, want the one 502 in the ring and pinned", dump)
	}
	for path, want := range map[string]int{
		"/debug/pprof/":        200,
		"/debug/pprof/cmdline": 200,
		"/debug/pprof/symbol":  200,
		"/debug/pprof/heap":    200, // through the index
		"/debug/nothing":       404,
	} {
		if got := do(s, "GET", path).Code; got != want {
			t.Errorf("GET %s: %d, want %d", path, got, want)
		}
	}
	if got := do(s, "POST", "/debug/flightrecorder").Code; got != 405 {
		t.Errorf("POST /debug/flightrecorder: %d, want 405", got)
	}

	off := New(Options{FlightSize: -1})
	serve(off, get(), func(rq *Req) {}) // records nowhere, still samples the SLO
	if total, _ := sloCounts(off); total != 1 || off.FlightSummary() != nil {
		t.Fatalf("recorder off: %d SLO samples, summary %+v", total, off.FlightSummary())
	}
	if rec := do(off, "GET", "/debug/flightrecorder"); rec.Code != 501 || !strings.Contains(rec.Body.String(), "disabled") {
		t.Fatalf("recorder off: dump answers %d %s", rec.Code, rec.Body)
	}
}
