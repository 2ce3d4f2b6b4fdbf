#!/bin/sh
# ci.sh — the checks a PR must pass, in the order a failure is cheapest:
#
#   1. gofmt, go vet — `gofmt -l .` must list nothing, then static analysis
#                      over every package; and internal/batch, the shim the
#                      frozen benchmark/ calls, has no other importer than
#                      server/manager.go and snap/snap.go (its two
#                      compatibility points)
#   2. go build      — everything compiles, including cmd/ and examples/
#   3. go test       — full suite (unit + determinism + differential + golden
#                      digests + the packed-tail contract of every queue
#                      writer + zero-alloc full passes, bare and with a
#                      disabled tracer attached), including the
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
#                      every parent: the three planes the kernels store (mean,
#                      sigma, startpoint) bit for bit, the ordering key they
#                      derive from a live slot equal to the fourth plane the
#                      reference still stores, -Inf there exactly where the
#                      slot is empty — and the startpoint index itself exact:
#                      current and right for every queued startpoint, current
#                      for no other (the checked-in corpus under
#                      internal/core/testdata/fuzz/ runs in step 3 already);
#                      then 10 s of FuzzJSONFloat: the float formatter behind
#                      GET /session/{id}/slacks — cached text and fresh floats
#                      alike — against encoding/json, byte for byte, for any
#                      float64 bit pattern; then 10 s of FuzzTopoSession:
#                      op batches decoded from bytes — inserts, bypasses and
#                      annotations, annotate-only batches included, a
#                      session's first among them — drive one session through
#                      its one way in, Session.Apply (one patched recompile,
#                      one reseed) — no panic, a rejected batch changes
#                      nothing, and after every accepted one the session
#                      engine is bit-identical to a cold compile of its
#                      tables and every arc id handed out so far still names
#                      its row and pins (arc ids are permanent: a removed
#                      buffer is bypassed, not compacted away)
#   4. go test -race — short-mode race check of the scheduler; the reference
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
#                      overlays taking theirs at once, and row chunks and
#                      look-up indices per overlay lifetime, eight
#                      goroutines looping create, preview, Release through
#                      the engine's pools while a ninth resets and
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
#                      transport may still be sending from it)
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

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

echo "== go test -fuzz FuzzMergeTopK (10s, indexed merge vs the scanning Algorithm-2 reference) =="
go test ./internal/core -run '^$' -fuzz FuzzMergeTopK -fuzztime 10s
echo "== go test -fuzz FuzzJSONFloat (10s, the session reads' float formatter vs encoding/json) =="
go test ./internal/server -run '^$' -fuzz FuzzJSONFloat -fuzztime 10s
echo "== go test -fuzz FuzzTopoSession (10s, structural op batches vs a cold compile, arc ids permanent) =="
go test ./internal/topo -run '^$' -fuzz FuzzTopoSession -fuzztime 10s

echo "== go test -race (sched + levelize + refsta + core + topo + server + obs + snap + cmdutil + fleet + hier, short) =="
go test -race -short ./internal/sched/... ./internal/levelize/... ./internal/refsta/... ./internal/core/... ./internal/topo/... ./internal/server/... ./internal/obs/... ./internal/snap/... ./internal/cmdutil/... ./internal/fleet/... ./internal/hier/...
go test -race -count=20 -run 'TestRouterRefusesOversizedBody|TestForwardBodyNotReusedWhileInFlight' ./internal/fleet/

echo "== serve load smoke (-race, 100 concurrent ECO requests against a server.Daemon; single-corner and {ss,tt,ff}) =="
go test -race -run 'TestServeLoadSmoke|TestServeConcurrentSessionsBitIdentical' ./internal/server/

echo "ci.sh: all checks passed"
