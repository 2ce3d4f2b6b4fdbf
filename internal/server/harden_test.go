package server_test

// Edge hardening: what the daemon refuses from its callers (oversized bodies,
// delays no engine can propagate), that a refused batch leaves nothing behind,
// and that a base read describes one epoch even while commits land.

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"insta/internal/num"
	"insta/internal/obs"
	"insta/internal/obs/shell"
	"insta/internal/server"
)

// badDelays are the annotations ApplyECO and ApplyTopo must refuse.
var badDelays = []struct {
	name string
	d    num.Dist
}{
	{"NaN mean", num.Dist{Mean: math.NaN(), Std: 1}},
	{"+Inf mean", num.Dist{Mean: math.Inf(1), Std: 1}},
	{"-Inf mean", num.Dist{Mean: math.Inf(-1), Std: 1}},
	{"negative sigma", num.Dist{Mean: 10, Std: -0.5}},
	{"NaN sigma", num.Dist{Mean: 10, Std: math.NaN()}},
	{"Inf sigma", num.Dist{Mean: 10, Std: math.Inf(1)}},
}

// TestECORejectsUnpropagatableDelays: a non-finite mean or a negative or
// non-finite sigma is refused before anything is applied — also when it sits
// behind valid arcs in the same batch — for both kinds of daemon.
func TestECORejectsUnpropagatableDelays(t *testing.T) {
	good := num.Dist{Mean: 12, Std: 0.7}
	for _, kind := range managerKinds {
		mgr, _ := newKindManager(t, kind.corners, "des", 6, 1, server.Options{})
		sess, err := mgr.Create()
		if err != nil {
			t.Fatal(err)
		}
		for _, bad := range badDelays {
			for _, arcs := range [][]server.ArcECO{
				{{Arc: 3, Rise: bad.d, Fall: good}},
				{{Arc: 3, Rise: good, Fall: good}, {Arc: 9, Rise: good, Fall: bad.d}},
			} {
				if _, err := sess.ApplyECO(server.ECORequest{Arcs: arcs}); err == nil {
					t.Fatalf("%s/%s: ApplyECO accepted %+v", kind.name, bad.name, arcs)
				}
			}
			res, err := sess.Result()
			if err != nil || res.TouchedArcs != 0 || len(res.Changed) != 0 {
				t.Fatalf("%s/%s: rejected ECO left %+v behind (err %v)", kind.name, bad.name, res, err)
			}
		}
		sess.Close()
	}
}

// TestEmptyECORefusedInProcess: ApplyECO itself refuses an empty batch, with
// the text the HTTP route answers, and counts no ECO batch for it.
func TestEmptyECORefusedInProcess(t *testing.T) {
	mgr, _ := newTestManager(t, "des", 6, 1, server.Options{})
	sess, err := mgr.Create()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	before := mgr.Counters().ECOs
	for _, req := range []server.ECORequest{{}, {Arcs: []server.ArcECO{}, Resizes: []server.ResizeReq{}}} {
		if _, err := sess.ApplyECO(req); err == nil || err.Error() != "server: empty ECO batch" {
			t.Fatalf("ApplyECO(%+v): err %v, want the empty-batch refusal", req, err)
		}
	}
	if got := mgr.Counters().ECOs; got != before {
		t.Fatalf("refused empty batches counted %d ECO batches", got-before)
	}
}

// TestTopoRejectsUnpropagatableDelays is the same refusal on the structural
// route, where a bad annotate rides in a batch with a valid buffer insertion:
// the session must not even convert to structural.
func TestTopoRejectsUnpropagatableDelays(t *testing.T) {
	mgr, s := newTestManager(t, "des", 6, 1, server.Options{})
	defer mgr.Close()
	sess, err := mgr.Create()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	good := num.Dist{Mean: 12, Std: 0.7}
	buffer := server.TopoOp{Op: "buffer", Arc: firstNetArc(t, s, 0)}
	for _, bad := range badDelays {
		req := server.TopoRequest{Ops: []server.TopoOp{buffer, {Op: "annotate", Arc: 3, Rise: good, Fall: bad.d}}}
		if _, err := sess.ApplyTopo(req); err == nil {
			t.Fatalf("%s: ApplyTopo accepted the batch", bad.name)
		}
	}
	for _, op := range []server.TopoOp{
		{Op: "buffer", Arc: buffer.Arc, Frac: math.NaN()},
		{Op: "move", Cell: s.B.D.Cells[0].Name, X: math.NaN(), Y: 1},
		{Op: "move", Cell: s.B.D.Cells[0].Name, X: 1, Y: math.Inf(1)},
	} {
		if _, err := sess.ApplyTopo(server.TopoRequest{Ops: []server.TopoOp{op}}); err == nil {
			t.Fatalf("ApplyTopo accepted %+v", op)
		}
	}
	if tc := mgr.TopoCountersSnapshot(); tc.Edits != 0 {
		t.Fatalf("rejected batches counted %d structural edits", tc.Edits)
	}
	// Still an annotation session: after an ECO, a structural batch is refused
	// for the overlay's annotations, which a session holding structural edits
	// would fold into its working engine.
	if _, err := sess.ApplyECO(server.ECORequest{Arcs: []server.ArcECO{{Arc: 3, Rise: good, Fall: good}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.ApplyTopo(server.TopoRequest{Ops: []server.TopoOp{buffer}}); err != server.ErrPendingAnnotations {
		t.Fatalf("session converted to structural by a rejected batch: err %v", err)
	}
}

// TestStructuralECORejectionRecordsNoResize: an ECO batch on a session
// holding structural edits records its resizes for the commit's netlist
// replay only once it is in, and once. Naming the arc of a buffer the
// session's own unbuffer bypassed refuses nothing any more — arc ids are
// permanent, the arc is a stub that drives nothing — so the batch is accepted,
// the stub's annotation moves no endpoint slack, and the commit replays the
// batch's resize into the signoff netlist exactly one time.
func TestStructuralECORejectionRecordsNoResize(t *testing.T) {
	mgr, s := newTestManager(t, "des", 6, 1, server.Options{})
	defer mgr.Close()
	sess, err := mgr.Create()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	// Commit two buffers, then bypass the first in a new structural batch.
	var first int32
	for i := 0; i < 2; i++ {
		res, err := sess.ApplyTopo(server.TopoRequest{Ops: []server.TopoOp{{Op: "buffer", Arc: firstNetArc(t, s, 4*i)}}})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = int32(res.NewArcs[0])
		}
	}
	if _, err := sess.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.ApplyTopo(server.TopoRequest{Ops: []server.TopoOp{{Op: "unbuffer", Arc: first}}}); err != nil {
		t.Fatal(err)
	}

	before, err := sess.Slacks()
	if err != nil {
		t.Fatal(err)
	}
	d := num.Dist{Mean: 500, Std: 10}
	stub := []server.ArcECO{{Arc: first, Rise: d, Fall: d}}
	if _, err := sess.ApplyECO(server.ECORequest{Arcs: stub}); err != nil {
		t.Fatalf("ECO on a bypassed buffer's arc: %v", err)
	}
	if after, err := sess.Slacks(); err != nil || !slices.Equal(after, before) {
		t.Fatalf("annotating a bypassed buffer's arc moved an endpoint slack (err %v)", err)
	}

	rz := resizeECOs(s, 211, 1)[0].Resizes[0]
	cell, _ := s.Ref.D.CellByName(rz.Cell)
	libBefore := s.Ref.D.Cells[cell].LibCell
	want, _ := s.Ref.Lib.CellByName(rz.Lib)
	if want == libBefore {
		t.Fatal("changelist resize is a no-op — vacuous")
	}
	if _, err := sess.ApplyECO(server.ECORequest{Resizes: []server.ResizeReq{rz}, Arcs: stub}); err != nil {
		t.Fatalf("resize batch naming a bypassed buffer's arc: %v", err)
	}
	if got := s.Ref.D.Cells[cell].LibCell; got != libBefore {
		t.Fatalf("the preview resized the signoff netlist: %s is lib cell %d, was %d", rz.Cell, got, libBefore)
	}
	if _, err := sess.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := s.Ref.D.Cells[cell].LibCell; got != want {
		t.Fatalf("accepted batch's resize was not replayed at commit: %s is lib cell %d, want %d", rz.Cell, got, want)
	}
	// Undo it behind the session's back: a second commit must not redo it.
	if _, err := s.Ref.ResizeCell(cell, libBefore); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := s.Ref.D.Cells[cell].LibCell; got != libBefore {
		t.Fatalf("the resize was replayed by a second commit: %s is lib cell %d, want %d", rz.Cell, got, libBefore)
	}
}

// TestOversizedBodyRejected: /eco and /topo bodies past the cap answer 413
// without being buffered, and the daemon keeps serving.
func TestOversizedBodyRejected(t *testing.T) {
	mgr, _ := newTestManager(t, "des", 6, 1, server.Options{})
	srv := httptest.NewServer(server.New(mgr, "des").Handler())
	defer srv.Close()
	c := srv.Client()
	code, m := postJSON(t, c, srv.URL+"/session", nil)
	if code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	var id string
	json.Unmarshal(m["id"], &id)

	// Valid JSON all the way, so only the size can be what is refused.
	huge := []byte(`{"arcs":[` + strings.Repeat(`{"arc":1,"rise":{"mean":1,"std":0},"fall":{"mean":1,"std":0}},`, 170_000) +
		`{"arc":1,"rise":{"mean":1,"std":0},"fall":{"mean":1,"std":0}}]}`)
	if len(huge) <= 8<<20 {
		t.Fatalf("test body is only %d bytes", len(huge))
	}
	for _, route := range []string{"eco", "topo"} {
		resp, err := c.Post(srv.URL+"/session/"+id+"/"+route, "application/json", bytes.NewReader(huge))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s with a %d-byte body: status %d, want 413", route, len(huge), resp.StatusCode)
		}
	}
	d := num.Dist{Mean: 5, Std: 0.1}
	if code, m := postJSON(t, c, srv.URL+"/session/"+id+"/eco",
		server.ECORequest{Arcs: []server.ArcECO{{Arc: 1, Rise: d, Fall: d}}}); code != http.StatusOK {
		t.Fatalf("eco after the oversized ones: %d %v", code, m)
	}
}

// TestECOBodyLeavesNothingForTheNext: ECO bodies are decoded into a pooled
// request, and encoding/json decodes into the elements a slice already holds
// — so a body that leaves fields out must read them as zero, not as what the
// body before it said, also past the end of a shorter batch. (Under -race
// sync.Pool drops at random and most posts decode into a new request; the
// plain run is the one that reuses.)
func TestECOBodyLeavesNothingForTheNext(t *testing.T) {
	mgr, s := newTestManager(t, "des", 6, 1, server.Options{})
	h := server.New(mgr, "des").Handler()
	post := func(sess *server.Session, body string) (int, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/session/"+sess.ID+"/eco", strings.NewReader(body)))
		return rec.Code, rec.Body.String()
	}
	create := func() *server.Session {
		sess, err := mgr.Create()
		if err != nil {
			t.Fatal(err)
		}
		return sess
	}
	full, err := json.Marshal(slowArcs(mgr.Engine(), mgr.Engine().NumArcs(), 3, 64, 2))
	if err != nil {
		t.Fatal(err)
	}
	// Two arcs with no "fall" and no sigma: through the API that is a zero
	// fall delay and a zero sigma. Before it, a full batch, and one whose
	// repeated key leaves elements filled in beyond its final length.
	partial := `{"arcs":[{"arc":11,"rise":{"mean":7}},{"arc":3,"rise":{"mean":40}}]}`
	want, err := create().ApplyECO(server.ECORequest{Arcs: []server.ArcECO{
		{Arc: 11, Rise: num.Dist{Mean: 7}}, {Arc: 3, Rise: num.Dist{Mean: 40}}}})
	if err != nil {
		t.Fatal(err)
	}
	wantBody, _ := json.Marshal(want)
	for i := 0; i < 8; i++ {
		if code, body := post(create(), string(full)); code != http.StatusOK {
			t.Fatalf("full batch: %d %s", code, body)
		}
		if code, body := post(create(), `{"arcs":[{"arc":1},{"arc":2,"rise":{"mean":1,"std":30},"fall":{"mean":90,"std":30}},{"arc":5}],"arcs":[{"arc":9}]}`); code != http.StatusOK {
			t.Fatalf("repeated key: %d %s", code, body)
		}
		if code, body := post(create(), partial); code != http.StatusOK || body != string(wantBody)+"\n" {
			t.Fatalf("a batch without fall delays, after a full one: %d, not what the API answers for it\n got: %.300s\nwant: %.300s", code, body, wantBody)
		}
	}
	rz := resizeECOs(s, 31, 1)[0].Resizes[0]
	for i := 0; i < 8; i++ {
		full, _ := json.Marshal(server.ECORequest{Resizes: []server.ResizeReq{rz}})
		if code, body := post(create(), string(full)); code != http.StatusOK {
			t.Fatalf("resize: %d %s", code, body)
		}
		code, body := post(create(), `{"resizes":[{"cell":"`+rz.Cell+`"}]}`)
		if code != http.StatusBadRequest || !strings.Contains(body, `unknown library cell \"\"`) {
			t.Fatalf("a resize without a lib, after a full one: %d %s", code, body)
		}
	}
}

// TestHTTPServerBoundsHeaderReads: the server both daemons listen with gives
// a connection a bounded time to deliver its request headers, and a bounded
// time to deliver headers and body, while leaving the handler's response
// unbounded.
func TestHTTPServerBoundsHeaderReads(t *testing.T) {
	h := http.NewServeMux()
	srv := server.NewHTTPServer("127.0.0.1:0", h)
	if srv.ReadHeaderTimeout <= 0 {
		t.Fatal("no ReadHeaderTimeout: a slowloris client holds its connection for ever")
	}
	if srv.ReadTimeout < srv.ReadHeaderTimeout {
		t.Fatalf("ReadTimeout %v below ReadHeaderTimeout %v: a client trickling its body holds its connection for ever", srv.ReadTimeout, srv.ReadHeaderTimeout)
	}
	if srv.WriteTimeout != 0 {
		t.Fatalf("WriteTimeout %v would cap a long what-if or commit", srv.WriteTimeout)
	}
	if srv.IdleTimeout <= 90*time.Second {
		t.Fatalf("IdleTimeout %v not above the router's 90 s IdleConnTimeout: it would reuse connections the replica closed", srv.IdleTimeout)
	}
	if srv.Addr != "127.0.0.1:0" || srv.Handler != http.Handler(h) {
		t.Fatalf("NewHTTPServer dropped its arguments: %+v", srv)
	}
}

// TestBaseReadIsOneEpoch (run under -race by ci.sh): while one goroutine
// commits in a loop, every GET /slacks must describe a single epoch — its
// wns/tns are the ones the commit that produced its epoch reported, and its
// worst endpoint's slack is its wns. Five separately locked reads used to let
// a commit land in between.
func TestBaseReadIsOneEpoch(t *testing.T) {
	for _, kind := range managerKinds {
		t.Run(kind.name, func(t *testing.T) { baseReadIsOneEpoch(t, kind.corners) })
	}
}

func baseReadIsOneEpoch(t *testing.T, corners bool) {
	mgr, s := newKindManager(t, corners, "des", 6, 2, server.Options{})
	defer mgr.Close()
	srv := httptest.NewServer(server.New(mgr, "des").Handler())
	defer srv.Close()

	type figures struct{ wns, tns float64 }
	// Every eighth commit is structural: it swaps the engine object itself
	// under the readers, not just its figures.
	const commits = 40
	var bufArcs [commits / 8]int32
	for i := range bufArcs {
		bufArcs[i] = firstNetArc(t, s, 5*i)
	}
	byEpoch := map[uint64]figures{0: {mgr.BaseWNS(), mgr.BaseTNS()}}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		sess, err := mgr.Create()
		if err != nil {
			t.Error(err)
			return
		}
		defer sess.Close()
		for i := 0; i < commits; i++ {
			scale := 1.3
			if i%2 == 1 {
				scale = 1 / 1.3
			}
			var err error
			if i%8 == 7 {
				_, err = sess.ApplyTopo(server.TopoRequest{Ops: []server.TopoOp{{Op: "buffer", Arc: bufArcs[i/8]}}})
			} else {
				_, err = sess.ApplyDeltas(arcDeltas(mgr.Engine(), int32(i%5), 23, scale))
			}
			if err != nil {
				t.Error(err)
				return
			}
			res, err := sess.Commit()
			if err != nil {
				t.Error(err)
				return
			}
			byEpoch[res.Epoch] = figures{res.WNS, res.TNS} // read after wg.Wait
		}
	}()

	type read struct {
		Epoch uint64                 `json:"epoch"`
		WNS   float64                `json:"wns"`
		TNS   float64                `json:"tns"`
		Worst []server.EndpointSlack `json:"worst"`
	}
	var reads []read
	for stop := false; !stop; {
		select {
		case <-done:
			stop = true // one more read, of the final epoch
		default:
		}
		resp, err := srv.Client().Get(srv.URL + "/slacks?worst=1")
		if err != nil {
			t.Fatal(err)
		}
		var r read
		err = json.NewDecoder(resp.Body).Decode(&r)
		resp.Body.Close()
		if err != nil || len(r.Worst) != 1 {
			t.Fatalf("slacks payload: %+v (err %v)", r, err)
		}
		reads = append(reads, r)
	}
	wg.Wait()
	seen := map[uint64]bool{}
	for _, r := range reads {
		want, ok := byEpoch[r.Epoch]
		if !ok || r.WNS != want.wns || r.TNS != want.tns {
			t.Fatalf("read at epoch %d reports wns/tns %v/%v, that epoch's commit reported %+v", r.Epoch, r.WNS, r.TNS, want)
		}
		if r.WNS < 0 && r.Worst[0].Slack != r.WNS {
			t.Fatalf("read at epoch %d: worst slack %v is not its wns %v — slacks of another epoch", r.Epoch, r.Worst[0].Slack, r.WNS)
		}
		seen[r.Epoch] = true
	}
	if len(seen) < 3 {
		t.Logf("reader saw only %d distinct epochs over %d reads", len(seen), len(reads))
	}
	if reads[len(reads)-1].Epoch != commits {
		t.Fatalf("last read is of epoch %d, want %d", reads[len(reads)-1].Epoch, commits)
	}
}

// TestIntQueryOverflowIsDefault: ?worst=, ?top= and ?dur= were read by a digit
// loop that wrapped silently, so a 20-digit value became whatever it
// overflowed to. A value no int holds is now the parameter's default, like
// any other malformed one.
func TestIntQueryOverflowIsDefault(t *testing.T) {
	mgr, _ := newTestManager(t, "des", 6, 1, server.Options{})
	s := server.New(mgr, "des")
	s.Observe(shell.New(shell.Options{Tracer: obs.NewTracer()}))
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	const huge = "99999999999999999999" // > 2^64: wrapped to 7766279631452241919 before
	for _, bad := range []string{huge, "18446744073709551617", "-3", "+3", "3x"} {
		var sl struct {
			Worst []server.EndpointSlack `json:"worst"`
		}
		getJSON(t, srv.URL+"/slacks?worst="+bad, &sl)
		if len(sl.Worst) != 0 {
			t.Fatalf("?worst=%s listed %d endpoints, want the default (none)", bad, len(sl.Worst))
		}
		var gr struct {
			Stages []server.StageGrad `json:"stages"`
		}
		getJSON(t, srv.URL+"/gradients?top="+bad, &gr)
		if len(gr.Stages) != 32 {
			t.Fatalf("?top=%s returned %d stages, want the default 32", bad, len(gr.Stages))
		}
		resp, err := http.Get(srv.URL + "/debug/trace?dur=" + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("?dur=%s: status %d, want 400", bad, resp.StatusCode)
		}
	}
}
