#!/bin/sh
# ci.sh — the checks a PR must pass, in the order a failure is cheapest:
#
#   1. gofmt, go vet — `gofmt -l .` must list nothing, then static analysis
#                      over every package; and internal/batch, the shim the
#                      frozen benchmark/ calls, has no other importer than
#                      server/manager.go and snap/snap.go (its two
#                      compatibility points); and a session commit stays the
#                      one writer of the served base: no Manager.Exclusive,
#                      no exported PropagateIncremental; and a commit only
#                      adopts what its preview computed, early view too: no
#                      propagateIncremental (the in-place commit wave,
#                      gone); and an ECO on a
#                      structural session stays in its overlay: no
#                      edit.fold into a topo batch, no engineFigures; and
#                      a structural batch has one in-place path behind one
#                      core call, Engine.Patch: no inPlace or owned
#                      parameter, no exported Reseed,
#                      CompileIncrementalPatched or CheckRowUnits; and a
#                      released overlay goes back whole to its engine's one
#                      pool: no chunkPool or indexPool
#   2. go build      — everything compiles, including cmd/ and examples/
#   3. go test       — full suite (unit + determinism + differential + the
#                      paper-artifact check (TestArtifactsMatchResults in
#                      cmd/insta-paper: results/table1_fig6, fig7_fig8,
#                      table3_fig9 and pocv_validation rendered in process
#                      on one worker, every deterministic cell equal to the
#                      committed file byte for byte; durations, Fig. 7's
#                      speed-up and Fig. 9's overhead line masked) + a
#                      commit adopting its preview equal to a cold run
#                      (TestCommitEqualsCold: the base's late and early
#                      queues, setup and hold slacks and critical startpoints
#                      after a commit over a current preview and one over a
#                      preview rebased across another commit, S = 1 and 3,
#                      hold on and off, Workers 1 and 4) and what a served
#                      commit launches (TestCommitAdoptsPreview: over a
#                      current preview no cone wave and a slack pass over
#                      just its changed endpoints — with hold on, and a hold
#                      slack pass over just the endpoints whose early queues
#                      it moved — over a stale one one overlay wave) and a
#                      hold engine's preview (TestOverlayPreviewsEarlyView:
#                      the overlay's early queues a cold run's, pin by pin,
#                      and its commit no wave) + the
#                      four golden-digest files — core, refsta, topo and hier,
#                      the last pinning extracted block models and the
#                      flat-vs-composed comparison of three chip
#                      configurations; core's has a deep-K companion,
#                      block-5 at K = 64 and 128, where row capacities
#                      differ from K most — + the packed-tail contract of every
#                      queue writer + the row-capacity invariants on every
#                      block preset + the derived-pin layout on every block
#                      preset — the rule, every replayed row one hop of its
#                      parent's, no derived pin owning a slot, cold and
#                      across a buffer insertion and bypass, patched into a
#                      fork and in place + the dead-pin layout on every
#                      block preset — liveness equal to a reverse search from
#                      the endpoints, no dead pin owning a slot, a dead pin
#                      revived by a reseed, a dead pin's rebuilt reads equal
#                      to a live engine's + the exact endpoint walker of
#                      internal/exact, which shares no Top-K machinery, equal
#                      to refsta within 1e-9 on every unedited block preset
#                      and to the engine bit for bit through a 200-step
#                      block-2 edit script at K = 128, and on block-1 never
#                      above the K = 1 engine's slack, strictly below it
#                      wherever K = 1 and K = 32 disagree (truncation can only
#                      raise a slack) + the same walker auditing the serving
#                      layer: every lane of two sessions of an {ss,tt,ff}
#                      manager over block-2 at K = 128, through a 60-step
#                      script of ECOs, buffer, unbuffer, annotate, repower
#                      and move batches, commits of both kinds and
#                      rollbacks, bit for bit after every step, and the base
#                      after every commit (one resolver, one apply path and
#                      one overlay rebase behind all of it) — hold slacks
#                      too, with hold on: every structural working engine's
#                      after every step of its session and the base's after
#                      every commit — and a session
#                      rebased across a same-size unbuffer commit, walked at
#                      every endpoint its re-annotated driver reaches + the
#                      ECO response writer against encoding/json
#                      (TestECOResultBodyIsEncodingJSON: random results,
#                      ±1e30 clamps, exponent-form values, pin names that
#                      need escaping, byte for byte) +
#                      zero-alloc full passes,
#                      bare and with a disabled tracer attached), including the
#                      nominal-lane differential of the serving layer: a
#                      daemon holds one lane-strided engine, and a manager over
#                      an {ss,tt,ff} engine must answer every nominal query bit
#                      for bit like a manager over a bare single-lane engine;
#                      and the two speed floors no benchmark rung holds yet,
#                      each inside its own package: a steady-state structural edit
#                      >= 10x a cold rebuild on block-1 (internal/topo) and
#                      composed chip-16x analysis >= 10x flat (internal/hier,
#                      next to that row's accuracy check). Every other timing
#                      claim is a rung of benchmark/ (DESIGN.md §12), measured
#                      there and nowhere else
#  3b. go test -fuzz — 10 s of FuzzMergeTopK: up to four packed parent queues
#                      merged into one destination through the kernels'
#                      indexed merge (a startpoint is looked up, not scanned
#                      for) and through the scanning Algorithm-2 reference kept
#                      in internal/core/queue_ref_test.go, compared after
#                      every parent — the destination a row of c slots and
#                      each parent a row of its own length, as the engine
#                      sizes them (c between the parents' distinct
#                      startpoints and K), against the reference's K-slot
#                      queue: the three planes the kernels store (mean,
#                      sigma, startpoint) bit for bit on the first c slots
#                      and nothing live past them, the ordering key they
#                      derive from a live slot equal to the fourth plane the
#                      reference still stores, -Inf there exactly where the
#                      slot is empty — and the startpoint index itself exact:
#                      current and right for every queued startpoint, current
#                      for no other — with every parent, when the input asks,
#                      a derived pin's queues replayed through one or two
#                      shifted-copy hops, each hop bit for bit the scanning
#                      reference's queue fed the row before it (the
#                      checked-in corpus under internal/core/testdata/fuzz/
#                      runs in step 3 already);
#                      then 10 s of FuzzParseScenarios: any -corners value
#                      errors or resolves to >= 1 scenario with unique names,
#                      none "" or "merged", and finite positive scales, and
#                      the list written back as name:delay/sigma/rc fields
#                      parses to the same list;
#                      then 10 s of FuzzJSONFloat: the float formatter behind
#                      GET /session/{id}/slacks — cached text and fresh floats
#                      alike — against encoding/json, byte for byte, for any
#                      float64 bit pattern; then 10 s of FuzzDecodeECO: the
#                      one-pass decoder of POST /session/{id}/eco bodies
#                      either declines, leaving the request as it was, or
#                      yields exactly encoding/json's value with no error;
#                      then 10 s of FuzzTopoSession:
#                      op batches decoded from bytes — inserts, bypasses and
#                      annotations, annotate-only batches included, the
#                      first among them — drive one working engine, a fork of
#                      the base, through its one way in, topo.Edit (one
#                      patched recompile, one reseed, in place) — no
#                      panic, a rejected batch changes nothing, and after
#                      every accepted one the working engine is
#                      bit-identical to a cold compile of tables the fuzzer
#                      advances itself by each batch's arc edits (a working
#                      engine keeps no tables), and every arc id handed
#                      out so far still names its row and pins in both
#                      (arc ids are permanent: a removed buffer is bypassed,
#                      not compacted away); then one target per decoder of
#                      bytes from outside the process, 10 s each:
#                      FuzzDecodeModel (a block-model payload decodes only if
#                      it re-encodes byte for byte and names pins and ports
#                      that exist), FuzzSnapRoundTrip (a snapshot decodes
#                      to a typed error or re-encodes byte for byte and runs),
#                      FuzzReadTables (a circuitops TSV document never
#                      panics Read, one it accepts writes back to itself and
#                      either fails core.Compile with an error or compiles to
#                      a State that passes Validate and runs), FuzzReadSDC
#                      (an SDC document over a generated netlist never panics
#                      sdcio.Read, and one it accepts writes back through
#                      sdcio.Write and reads again to equal constraints; the
#                      seeds include the NaN/Inf documents Read once accepted)
#                      and FuzzReadSPEF (a SPEF document over block-5's
#                      netlist never panics spef.Read, and one it accepts
#                      writes back through spef.Write and reads again to equal
#                      parasitics; the seeds are block-5's generated SPEF and
#                      the non-finite, out-of-order and repeated-net documents
#                      Read rejects) and FuzzReadVerilog (a structural Verilog
#                      document never panics vlog.Read, and one it accepts
#                      writes back through vlog.Write and reads again to an
#                      equal design: cells, pins, nets, ports, clock nodes,
#                      edges and positions bit for bit; the seeds are a
#                      generated netlist, the garbage documents Read rejects
#                      and one bad number per //insta: pragma field) and
#                      FuzzLibertyRead (a Liberty document never panics
#                      libertyio.Read, and a library it accepts writes back
#                      through libertyio.Write and reads again to an equal
#                      library; the seeds are synthetic cells with their
#                      tables cut to 2×2 and a minimal one-cell document).
#                      Each target may spend at most 1 s minimizing an input
#                      it found interesting (-fuzzminimizetime; with the
#                      default, 60 s, FuzzReadSDC, FuzzSnapRoundTrip and
#                      FuzzLibertyRead spent most of their window minimizing)
#   4. go test -race — short-mode race check of the scheduler, and its kernel
#                      panic containment twenty times over (a panic on a
#                      helper or on the caller is raised on the caller after
#                      every helper has stopped); the reference
#                      engine's full update, which runs every level and the
#                      endpoint slack walk on a pool of GOMAXPROCS
#                      participants, each merging into its own arena (the
#                      block-5 golden digest, and the same digest at
#                      GOMAXPROCS 1, 2 and 8 with hold on, in
#                      internal/refsta); the engine kernels that run on the
#                      scheduler at S = 1, 3 and 17 — one view, one recompute,
#                      one cone wave and one slack walk behind forward, hold,
#                      commit and overlay — (including what an overlay
#                      borrows from its base engine, held for as long as it
#                      is needed: a merge scratch set per wave, eight
#                      overlays taking theirs at once, and whole released
#                      overlays with their rows and indices, eight
#                      goroutines looping create, preview, Release through
#                      the engine's pool while a ninth resets and
#                      re-applies on storage it keeps, every preview
#                      bit-identical to the same preview run alone, both in
#                      internal/core, next to the pooled-scratch overlay-reuse
#                      differential under 8 concurrent sessions over an
#                      {ss,tt,ff} engine), the serving
#                      layer's session manager over its one engine (including
#                      the base-read-is-one-epoch test: commits in a loop
#                      against GET /slacks), the telemetry layer (tracer /
#                      registry / flight recorder / SLO tracker), the
#                      snapshot codec/cache and the boot path over it
#                      (internal/cmdutil), the levelizer, and the fleet router
#                      — including the hedge-race trace test, where the losing
#                      attempt's span ends concurrently with the request's
#                      root span, and the in-process {ss,tt,ff} fleet of
#                      server.Daemons
#                      (TestInprocFleetServesCorners: two daemons assembled
#                      from the daemon flag set behind the router, byte-equal
#                      to a lone one) next to the daemon teardown test
#                      (structural commit, Close, no goroutine left, the
#                      committed base in the snapshot cache); then the
#                      router's two request-body tests twenty times over
#                      (a pooled body buffer is not reused while the
#                      transport may still be sending from it), and session
#                      poisoning ten times over (a panic in one session's
#                      preview answers 500 and closes that session, while a
#                      second session and the base, read throughout, stay
#                      bit-identical and the overlay row gauge counts only
#                      the live session's rows; in internal/core's run above,
#                      an overlay wave that panics part-way leaves its rows
#                      counted, so a Reset gives back exactly what it held),
#                      and a handler panic ten times over (a panic that
#                      escapes a handler answers 500 and is accounted for:
#                      the in-flight gauge back at 0, the 500 counted under
#                      its route and pinned by the flight recorder)
#   5. load smoke    — 100 concurrent ECO requests against a live
#                      server.Daemon — assembled from the daemon flag set,
#                      request shell on, as insta-served and every
#                      insta-router replica run it — under -race must
#                      complete with zero errors, and 8 concurrently
#                      committing sessions must land the sequential result
#                      bit for bit — each single-corner and {ss,tt,ff}
#                      (nominal = lane tt), the shapes the daemons and the
#                      benchmark run in
#
# Run from the repo root: ./ci.sh
set -eu

echo "== gofmt -l + go vet =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt -l is not empty:" >&2
	echo "$unformatted" >&2
	exit 1
fi
go vet ./...
batch_importers=$(git grep --untracked -l '"insta/internal/batch"' -- '*.go' ':!benchmark/' | tr '\n' ' ')
if [ "$batch_importers" != "internal/server/manager.go internal/snap/snap.go " ]; then
	echo "internal/batch is the benchmark's shim; outside benchmark/ only internal/server/manager.go and internal/snap/snap.go may import it, not: $batch_importers" >&2
	exit 1
fi
if git grep --untracked -n -e 'func (m \*Manager) Exclusive' -e 'func (e \*Engine) PropagateIncremental' -- '*.go'; then
	echo "a session commit is the one writer of the served base: Manager.Exclusive and an exported PropagateIncremental must stay gone" >&2
	exit 1
fi
if git grep --untracked -n -e 'propagateIncremental' -- '*.go'; then
	echo "a commit only adopts its preview, late and early view alike: the in-place commit wave (propagateIncremental) must stay gone" >&2
	exit 1
fi
if git grep --untracked -n -e 'func (e \*edit) fold' -e 'engineFigures' -- '*.go'; then
	echo "a session's ECOs preview in its overlay, structural or not: edit.fold and engineFigures must stay gone" >&2
	exit 1
fi
if git grep --untracked -n -E -e '\b(inPlace|owned) bool\b' -e 'func \(e \*Engine\) (Reseed|CheckRowUnits)\(' -e 'func CompileIncrementalPatched\(' -- '*.go'; then
	echo "a structural batch runs in place on a fork, through Engine.Patch: no inPlace/owned parameter, no exported Reseed, CompileIncrementalPatched or CheckRowUnits" >&2
	exit 1
fi
if git grep --untracked -n -E -e '\b(chunkPool|indexPool)\b' -- '*.go'; then
	echo "a released overlay goes back whole to its engine's one pool (Engine.overlays): no chunkPool or indexPool" >&2
	exit 1
fi

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

echo "== go test -fuzz FuzzMergeTopK (10s, indexed merge vs the scanning Algorithm-2 reference) =="
go test ./internal/core -run '^$' -fuzz FuzzMergeTopK -fuzztime 10s -fuzzminimizetime 1s
echo "== go test -fuzz FuzzParseScenarios (10s, -corners values: refused, or valid scenarios that round-trip) =="
go test ./internal/core -run '^$' -fuzz FuzzParseScenarios -fuzztime 10s -fuzzminimizetime 1s
echo "== go test -fuzz FuzzJSONFloat (10s, the session reads' float formatter vs encoding/json) =="
go test ./internal/server -run '^$' -fuzz FuzzJSONFloat -fuzztime 10s -fuzzminimizetime 1s
echo "== go test -fuzz FuzzDecodeECO (10s, the one-pass ECO body decoder: declines, or encoding/json's value) =="
go test ./internal/server -run '^$' -fuzz FuzzDecodeECO -fuzztime 10s -fuzzminimizetime 1s
echo "== go test -fuzz FuzzTopoSession (10s, structural op batches vs a cold compile of self-advanced tables, arc ids permanent) =="
go test ./internal/topo -run '^$' -fuzz FuzzTopoSession -fuzztime 10s -fuzzminimizetime 1s
echo "== go test -fuzz FuzzDecodeModel (10s, block-model payloads: canonical and in range) =="
go test ./internal/hier -run '^$' -fuzz FuzzDecodeModel -fuzztime 10s -fuzzminimizetime 1s
echo "== go test -fuzz FuzzSnapRoundTrip (10s, snapshots: typed error or byte-identical re-encode) =="
go test ./internal/snap -run '^$' -fuzz FuzzSnapRoundTrip -fuzztime 10s -fuzzminimizetime 1s
echo "== go test -fuzz FuzzReadTables (10s, circuitops TSV: no panic, round trip, accepted documents compile and run) =="
go test ./internal/circuitops -run '^$' -fuzz FuzzReadTables -fuzztime 10s -fuzzminimizetime 1s
echo "== go test -fuzz FuzzReadSDC (10s, SDC text: no panic, accepted documents round-trip) =="
go test ./internal/sdcio -run '^$' -fuzz FuzzReadSDC -fuzztime 10s -fuzzminimizetime 1s
echo "== go test -fuzz FuzzReadSPEF (10s, SPEF text: no panic, accepted documents round-trip) =="
go test ./internal/spef -run '^$' -fuzz FuzzReadSPEF -fuzztime 10s -fuzzminimizetime 1s
echo "== go test -fuzz FuzzReadVerilog (10s, structural Verilog: no panic, accepted documents round-trip) =="
go test ./internal/vlog -run '^$' -fuzz FuzzReadVerilog -fuzztime 10s -fuzzminimizetime 1s
echo "== go test -fuzz FuzzLibertyRead (10s, Liberty text: no panic, accepted libraries round-trip) =="
go test ./internal/libertyio -run '^$' -fuzz FuzzLibertyRead -fuzztime 10s -fuzzminimizetime 1s

echo "== go test -race (sched + levelize + refsta + core + topo + server + obs + snap + cmdutil + fleet + hier, short) =="
go test -race -short ./internal/sched/... ./internal/levelize/... ./internal/refsta/... ./internal/core/... ./internal/topo/... ./internal/server/... ./internal/obs/... ./internal/snap/... ./internal/cmdutil/... ./internal/fleet/... ./internal/hier/...
go test -race -count=20 -run 'TestRouterRefusesOversizedBody|TestForwardBodyNotReusedWhileInFlight' ./internal/fleet/
go test -race -count=20 -run 'TestRunPanicIsRaisedOnCaller' ./internal/sched/
go test -race -count=10 -run 'TestSessionPanicPoisonsOnlyThatSession|TestHandlerPanicAnswers500' ./internal/server/

echo "== serve load smoke (-race, 100 concurrent ECO requests against a server.Daemon; single-corner and {ss,tt,ff}) =="
go test -race -run 'TestServeLoadSmoke|TestServeConcurrentSessionsBitIdentical' ./internal/server/

echo "ci.sh: all checks passed"
