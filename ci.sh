#!/bin/sh
# ci.sh — the checks a PR must pass, in the order a failure is cheapest:
#
#   1. gofmt, go vet — `gofmt -l .` must list nothing, then static analysis
#                      over every package
#   2. go build      — everything compiles, including cmd/ and examples/
#   3. go test       — full suite (unit + determinism + differential + golden
#                      digests + the packed-tail contract of every queue
#                      writer + zero-alloc full passes + bench regression
#                      smoke), including the
#                      nominal-lane differential of the serving layer: a
#                      daemon holds one lane-strided engine, and a manager over
#                      batch{ss,tt,ff} must answer every nominal query bit for
#                      bit like a manager over a bare single-lane engine. The
#                      nine root bench_*_test.go harnesses rewrite their
#                      tracked BENCH_*.json only under INSTA_BENCH=1, which
#                      this script exports once below; with it emptied the
#                      step ends by checking that the suite left those files
#                      untouched.
#                      BENCH_batch gates the scenario-batched subsystem at
#                      >= 2x the per-corner rebuild loop at S=3, and BENCH_snap
#                      gates warm snapshot boot (snap.Open) at >= 10x faster
#                      than the cold parse+signoff+extract+compile build
#  3b. go test -fuzz — 10 s of FuzzInsertTopK: the kernels' fill-tracked Top-K
#                      insert against the Algorithm-2 reference kept in
#                      internal/core/queue_ref_test.go after every insert: the
#                      three planes the kernels store (mean, sigma, startpoint)
#                      bit for bit, and the ordering key they derive from a
#                      live slot equal to the fourth plane the reference still
#                      stores, -Inf there exactly where the slot is empty (the
#                      checked-in corpus under internal/core/testdata/fuzz/
#                      runs in step 3 already)
#   4. go test -race — short-mode race check of the scheduler, the engine
#                      kernels that run on it at S = 1, 3 and 17 — one view,
#                      one recompute, one cone wave and one slack walk behind
#                      forward, hold, commit and overlay — (including
#                      the pooled-scratch overlay-reuse differential under 8
#                      concurrent sessions in internal/batch), the serving
#                      layer's session manager over its one engine (including
#                      the base-read-is-one-epoch test: commits in a loop
#                      against GET /slacks), the telemetry layer (tracer /
#                      registry / flight recorder / SLO tracker), the
#                      snapshot codec/cache, and the fleet router — including
#                      the hedge-race trace test, where the losing attempt's
#                      span ends concurrently with the request's root span,
#                      and the in-process {ss,tt,ff} fleet of server.Daemons
#                      (TestInprocFleetServesCorners: two daemons assembled
#                      from the daemon flag set behind the router, byte-equal
#                      to a lone one) next to the daemon teardown test
#                      (structural commit, Close, no goroutine left, the
#                      committed base in the snapshot cache)
#   5. load smoke    — 100 concurrent ECO requests against a live
#                      server.Daemon — assembled from the daemon flag set,
#                      request shell on, as insta-served and every
#                      insta-router replica run it — under -race must
#                      complete with zero errors, and 8 concurrently
#                      committing sessions must land the sequential result
#                      bit for bit — each single-corner and {ss,tt,ff}
#                      (nominal = lane tt), the shapes the daemons and the
#                      benchmark run in
#   6. obs gate      — the disabled-tracer overhead bench re-runs with the
#                      strict < 1% bound (INSTA_OBS_GATE=1), rewriting
#                      BENCH_obs.json; the same run asserts the per-request
#                      flight-recorder and SLO burn-rate bookkeeping is
#                      allocation-free (0 allocs/op) and checks the burn-rate
#                      arithmetic fixture
#   7. sched gate    — the scheduler bench re-runs with the hard parallel
#                      parity bound armed (INSTA_SCHED_GATE=1): pool_w4 must
#                      not lose to pool_w1 on block-1 (speedup >= 1.0),
#                      rewriting BENCH_sched.json
#   8. gc gate       — the GC/allocation harness re-runs with the hard
#                      limits armed (INSTA_GC_GATE=1): ~0 allocs/op on the
#                      session-read / ECO-preview / incremental hot paths,
#                      bounded worst-case GC pause and per-request allocation
#                      count under closed-loop HTTP load, rewriting
#                      BENCH_gc.json
#   9. fleet gate    — the fleet bench re-runs with the latency bounds armed
#                      (INSTA_FLEET_GATE=1): fleet-of-4 p99 <= single-daemon
#                      p99 on the heavy-tailed closed-loop workload, hedged
#                      base-read p99 < unhedged against a straggler replica,
#                      plus the unconditional gates (zero errors, zero
#                      dropped sessions through a rolling snapshot swap, and
#                      well-formed trace IDs on the slowest-request list),
#                      rewriting BENCH_fleet.json
#  10. topo gate     — the structural-ECO bench re-runs with the tentpole
#                      bound armed (INSTA_TOPO_GATE=1): a steady-state
#                      incremental edit batch (buffer insertions + patched
#                      recompile + in-place reseed) must beat the cold
#                      compile-and-propagate rebuild of the edited block-1
#                      netlist by >= 10x, bit-identical to it, rewriting
#                      BENCH_topo.json
#  11. hier gate     — the hierarchical bench re-runs with the tentpole
#                      bounds armed (INSTA_HIER_GATE=1): on every stitched
#                      chip preset the hierarchical WNS/TNS and recovered
#                      per-endpoint slacks must land inside the documented
#                      model-error bound of the flattened ground truth, and
#                      composed analysis must beat flat compile+propagate by
#                      >= 10x at chip-16x, rewriting BENCH_hier.json
#
# Run from the repo root: ./ci.sh
set -eu

# The bench harnesses record their reports in the tracked BENCH_*.json files
# only when this is 1; a plain `go test ./...` keeps the worktree clean.
# `INSTA_BENCH= ./ci.sh` runs the same checks without recording.
export INSTA_BENCH="${INSTA_BENCH-1}"

echo "== gofmt -l + go vet =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt -l is not empty:" >&2
	echo "$unformatted" >&2
	exit 1
fi
go vet ./...

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...
if [ "$INSTA_BENCH" != 1 ]; then
	git diff --exit-code -- 'BENCH_*.json'
fi

echo "== go test -fuzz FuzzInsertTopK (10s, fill-tracked insert vs the Algorithm-2 reference) =="
go test ./internal/core -run '^$' -fuzz FuzzInsertTopK -fuzztime 10s

echo "== go test -race (sched + core + batch + topo + server + obs + snap + fleet + hier, short) =="
go test -race -short ./internal/sched/... ./internal/core/... ./internal/batch/... ./internal/topo/... ./internal/server/... ./internal/obs/... ./internal/snap/... ./internal/fleet/... ./internal/hier/...

echo "== serve load smoke (-race, 100 concurrent ECO requests against a server.Daemon; single-corner and {ss,tt,ff}) =="
go test -race -run 'TestServeLoadSmoke|TestServeConcurrentSessionsBitIdentical' ./internal/server/

echo "== obs overhead gate (disabled tracer < 1%) =="
INSTA_OBS_GATE=1 go test -run TestObsBenchRegression .

echo "== sched parallel parity gate (pool_w4 >= pool_w1 on block-1) =="
INSTA_SCHED_GATE=1 go test -run TestSchedBenchRegression .

echo "== gc/alloc gate (zero-alloc hot paths, bounded pauses) =="
INSTA_GC_GATE=1 go test -run TestGCBenchRegression .

echo "== fleet gate (fleet p99 <= single p99, hedged reads, zero-drop rolling swap) =="
INSTA_FLEET_GATE=1 go test -run TestFleetBenchRegression .

echo "== topo gate (incremental structural edit >= 10x cold rebuild) =="
INSTA_TOPO_GATE=1 go test -run TestTopoBenchRegression .

echo "== hier gate (composed analysis >= 10x flat at chip-16x, within model-error bound) =="
INSTA_HIER_GATE=1 go test -run TestHierBenchRegression .

echo "ci.sh: all checks passed"
