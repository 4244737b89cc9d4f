#!/bin/sh
# Pre-commit gate: everything CI runs, in the order it fails fastest.
#
#   build          — the whole module must compile
#   source lines   — print the non-test Go source line count: every
#                    *.go outside bench/, *_test.go excluded, testdata
#                    included; the one definition ROADMAP.md's line
#                    deltas quote
#   gofmt -l       — every tracked .go file (fixtures included) must be
#                    gofmt-clean, as CI requires
#   go vet         — the stock toolchain checks
#   go test ./...  — unit, property, golden and paper-gate tests; the
#                    solarvet lint gate (lint_test.go) runs here too, so
#                    a tree that passes this script is lint-clean
#   bench module   — vet and short-test the separate solarcore/bench
#                    module, which ./... does not reach, so a root-side
#                    change that breaks the benchmark fails here
#   solarvet -json — the full static-analysis report, written to
#                    artifacts/solarvet-report.json (the gitignored
#                    artifacts/ directory; CI uploads it); the gate
#                    itself already ran inside go test, this step
#                    preserves the machine-readable evidence
#   go test -race  — the packages that exercise goroutines or share
#                    state across steps, among them the process-wide
#                    memos (internal/lru, the day cache in internal/sim,
#                    the demand tables in internal/workload)
#   experiments    — cmd/experiments -quick must exit 0 and write its 13
#                    CSVs, and -day -1 must exit non-zero with a one-line
#                    error instead of a panic
#   solarsim faults— a total sensor dropout must exit 0, report
#                    fallback periods on its `faults :` line and write
#                    fault and watchdog events to its -trace, the same
#                    spec with a NaN intensity must be rejected, and a
#                    window opening after the day's last sample must
#                    report `0 windows`
#   fuzz smoke     — a few seconds of coverage-guided fuzzing on the
#                    JSONL event decoder and its prefix type reader,
#                    the fault-spec grammar, the
#                    store record codec, the RunSpec identity and the
#                    client's error-envelope decoder, SSE frame parser
#                    and sweep-request decoder
#   serving smoke  — boot a real solard on an ephemeral port, probe
#                    /healthz and /v1/run over HTTP, then drive a short
#                    solarload run, watch a whole run over GET
#                    /v1/stream (live SSE, terminal run_end) and check
#                    a clean SIGTERM drain
#
# Run from anywhere inside the repository.
set -eu
cd "$(dirname "$0")/.."

echo '== go build ./...'
go build ./...

echo '== non-test Go source lines (excluding bench/)'
find . -path ./bench -prune -o -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l

echo '== gofmt -l'
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
    echo 'gofmt needed on:'
    echo "$unformatted"
    exit 1
fi

echo '== go vet ./...'
go vet ./...

echo '== go test ./...'
go test ./...

echo '== bench module: go vet + go test -short'
(cd bench && go vet . && go test -short .)

echo '== solarvet -json report (artifacts/solarvet-report.json)'
mkdir -p artifacts
go run ./cmd/solarvet -json > artifacts/solarvet-report.json

echo '== go test -race (root, exp, sim, workload, dc, obs, fault, lint, lru, serve, route, edge, par, client, store, stream, chaos, solarfleet, solargate)'
go test -race . ./internal/exp ./internal/sim ./internal/workload ./internal/dc ./internal/obs \
    ./internal/fault ./internal/lint ./internal/lru ./internal/serve \
    ./internal/route ./internal/edge ./internal/par ./client ./internal/store \
    ./internal/stream ./internal/chaos ./cmd/solarfleet ./cmd/solargate

echo '== fault sweep (smoke)'
go test -run 'TestFaultSweepSensorDropout' ./internal/exp

echo '== experiments -quick (13 CSVs; -day -1 rejected without a panic)'
expdir="$(mktemp -d)"
go build -o "$expdir/experiments" ./cmd/experiments
"$expdir/experiments" -quick -csv "$expdir/csv" > "$expdir/quick.txt" \
    || { echo 'experiments -quick failed'; tail "$expdir/quick.txt"; exit 1; }
csvs="$(find "$expdir/csv" -name '*.csv' | wc -l)"
[ "$csvs" -eq 13 ] || { echo "experiments -quick wrote $csvs CSVs, want 13"; exit 1; }
if "$expdir/experiments" -quick -day -1 > "$expdir/negday.txt" 2>&1; then
    echo 'experiments -quick -day -1 exited 0'; exit 1
fi
if grep -q '^panic:' "$expdir/negday.txt"; then
    echo 'experiments -quick -day -1 panicked'; cat "$expdir/negday.txt"; exit 1
fi
rm -rf "$expdir"

echo '== solarsim -faults (sensor dropout falls back and traces fault/watchdog events; a NaN intensity is rejected; a late window counts 0)'
simdir="$(mktemp -d)"
go build -o "$simdir/solarsim" ./cmd/solarsim
"$simdir/solarsim" -faults 'sensor-drop:t0=600,t1=720,i=1' -trace "$simdir/drop.jsonl" > "$simdir/drop.txt" \
    || { echo 'solarsim -faults sensor-drop failed'; cat "$simdir/drop.txt"; exit 1; }
for typ in fault watchdog; do
    grep -q "\"type\":\"$typ\"" "$simdir/drop.jsonl" \
        || { echo "solarsim sensor dropout trace carries no $typ event"; exit 1; }
done
fallback="$(sed -n 's/^faults *:.* \([0-9][0-9]*\) fallback periods.*/\1/p' "$simdir/drop.txt")"
[ -n "$fallback" ] && [ "$fallback" -gt 0 ] \
    || { echo "solarsim sensor dropout ran '$fallback' fallback periods, want > 0"; cat "$simdir/drop.txt"; exit 1; }
if "$simdir/solarsim" -faults 'sensor-drop:t0=600,t1=720,i=nan' > "$simdir/nan.txt" 2>&1; then
    echo 'solarsim accepted a NaN fault intensity'; exit 1
fi
# AZ/Apr at 8-minute sub-samples ticks last at minute 1048 and ends at
# 1050: a window opening in between is never sampled, so it must not count.
"$simdir/solarsim" -season Apr -step 8 -faults 'cloud:t0=1049.99,t1=1110,i=1' > "$simdir/late.txt" \
    || { echo 'solarsim with a late fault window failed'; cat "$simdir/late.txt"; exit 1; }
grep -q '^faults *: 0 windows,' "$simdir/late.txt" \
    || { echo 'solarsim counted a fault window no sample saw open'; cat "$simdir/late.txt"; exit 1; }
rm -rf "$simdir"

echo '== fuzz: obs JSONL decoder (smoke)'
go test -run '^$' -fuzz 'FuzzReadEvents' -fuzztime 5s ./internal/obs

echo '== fuzz: obs event-line type reader against the decoder (smoke)'
go test -run '^$' -fuzz '^FuzzEventType$' -fuzztime 5s ./internal/obs

echo '== fuzz: fault-spec grammar (smoke)'
go test -run '^$' -fuzz 'FuzzParseSpec' -fuzztime 5s ./internal/fault

echo '== fuzz: store record codec (smoke)'
go test -run '^$' -fuzz 'FuzzStoreRecord' -fuzztime 5s ./internal/store

echo '== fuzz: RunSpec normalization, identity and validation (smoke)'
go test -run '^$' -fuzz 'FuzzRunSpec' -fuzztime 5s .

echo '== fuzz: client error-envelope decoder (smoke)'
go test -run '^$' -fuzz 'FuzzDecodeError' -fuzztime 5s ./client

echo '== fuzz: client SSE frame parser (smoke)'
go test -run '^$' -fuzz '^FuzzStreamFrames$' -fuzztime 5s ./client

echo '== fuzz: client sweep-request decoder (smoke)'
go test -run '^$' -fuzz '^FuzzReadSweepRequest$' -fuzztime 5s ./client

echo '== chaos harness (silent-corruption + partition-hedging + mid-stream-partition invariants)'
go test -race -run 'TestNeverSilentCorruption|TestPartitionHedgingBoundsTailLatency|TestMidStreamPartitionResumesGapless' ./internal/chaos

echo '== observer + disarmed-fault + stream overhead bench (smoke)'
go test -run '^$' -bench 'BenchmarkRunMPPT(NopObserver|DisarmedFaults|StreamPublisher|StreamSubscriber)?$' -benchtime=1x .

echo '== solard serving smoke (healthz, /v1/run, solarload, graceful drain)'
bindir="$(mktemp -d)"
logfile="$bindir/solard.log"
solard_pid=''
trap 'kill "$solard_pid" 2>/dev/null || true; rm -rf "$bindir"' EXIT
go build -o "$bindir/solard" ./cmd/solard
go build -o "$bindir/solarload" ./cmd/solarload
"$bindir/solard" -addr 127.0.0.1:0 -access "$bindir/access.jsonl" >"$logfile" 2>&1 &
solard_pid=$!
url=''
for _ in $(seq 1 100); do
    url="$(sed -n 's/^solard: listening on //p' "$logfile")"
    [ -n "$url" ] && break
    kill -0 "$solard_pid" 2>/dev/null || { cat "$logfile"; exit 1; }
    sleep 0.1
done
[ -n "$url" ] || { echo 'solard never announced its address'; cat "$logfile"; exit 1; }
curl -fsS "$url/healthz" >/dev/null
curl -fsS -X POST -d '{"site":"AZ","season":"Jul","mix":"HM2","step_min":8}' \
    "$url/v1/run" >/dev/null
"$bindir/solarload" -url "$url" -n 2000 -c 16 -step 8

echo '== SSE stream smoke (/v1/stream live watch, event count + terminal run_end)'
# Raw wire first: one curl watch must end with a run_end SSE frame.
curl -fsS "$url/v1/stream?spec=%7B%22step_min%22%3A8%2C%22day%22%3A1%7D" > "$bindir/sse.txt"
grep -q '^event: run_end$' "$bindir/sse.txt" \
    || { echo 'curl stream carried no terminal run_end frame'; tail "$bindir/sse.txt"; exit 1; }
# Then the typed watcher: solarload -stream drains the whole feed,
# fails itself unless the stream ends on run_end, and reports counts.
"$bindir/solarload" -url "$url" -stream -step 8 > "$bindir/stream.txt"
cat "$bindir/stream.txt"
events="$(sed -n 's/^stream       : \([0-9][0-9]*\) events.*/\1/p' "$bindir/stream.txt")"
[ -n "$events" ] && [ "$events" -ge 10 ] \
    || { echo "stream watch saw '$events' events, want >= 10"; exit 1; }

kill -TERM "$solard_pid"
wait "$solard_pid"
grep -q 'drained, exiting' "$logfile" || { echo 'solard did not drain cleanly'; cat "$logfile"; exit 1; }
solard_pid=''

echo '== crash-recovery smoke (kill -9 then clean restart, durable store replays byte-identically)'
storedir="$bindir/store"
"$bindir/solard" -addr 127.0.0.1:0 -store.dir "$storedir" >"$bindir/crash1.log" 2>&1 &
solard_pid=$!
url=''
for _ in $(seq 1 100); do
    url="$(sed -n 's/^solard: listening on //p' "$bindir/crash1.log")"
    [ -n "$url" ] && break
    kill -0 "$solard_pid" 2>/dev/null || { cat "$bindir/crash1.log"; exit 1; }
    sleep 0.1
done
[ -n "$url" ] || { echo 'crash-smoke solard never announced'; cat "$bindir/crash1.log"; exit 1; }
spec='{"site":"AZ","season":"Jul","mix":"HM2","step_min":8,"day":9}'
curl -fsS -X POST -d "$spec" "$url/v1/run" > "$bindir/pre-crash.json"
kill -9 "$solard_pid"   # no drain, no close: the real crash case
wait "$solard_pid" 2>/dev/null || true
"$bindir/solard" -addr 127.0.0.1:0 -store.dir "$storedir" >"$bindir/crash2.log" 2>&1 &
solard_pid=$!
url=''
for _ in $(seq 1 100); do
    url="$(sed -n 's/^solard: listening on //p' "$bindir/crash2.log")"
    [ -n "$url" ] && break
    kill -0 "$solard_pid" 2>/dev/null || { cat "$bindir/crash2.log"; exit 1; }
    sleep 0.1
done
[ -n "$url" ] || { echo 'restarted solard never announced'; cat "$bindir/crash2.log"; exit 1; }
grep -q 'store warmed' "$bindir/crash2.log" \
    || { echo 'restart did not warm-start from the store'; cat "$bindir/crash2.log"; exit 1; }
curl -fsS -D "$bindir/post-crash.hdr" -X POST -d "$spec" "$url/v1/run" > "$bindir/post-crash.json"
grep -qi 'x-cache: hit' "$bindir/post-crash.hdr" \
    || { echo 'post-restart response was not a cache hit'; cat "$bindir/post-crash.hdr"; exit 1; }
cmp "$bindir/pre-crash.json" "$bindir/post-crash.json" \
    || { echo 'post-restart bytes differ from pre-crash bytes'; exit 1; }
kill -TERM "$solard_pid"
wait "$solard_pid"
grep -q 'drained, exiting' "$bindir/crash2.log" || { echo 'restarted solard did not drain cleanly'; cat "$bindir/crash2.log"; exit 1; }
# Clean-restart leg: a drained shutdown must boot exactly like the crash.
"$bindir/solard" -addr 127.0.0.1:0 -store.dir "$storedir" >"$bindir/crash3.log" 2>&1 &
solard_pid=$!
url=''
for _ in $(seq 1 100); do
    url="$(sed -n 's/^solard: listening on //p' "$bindir/crash3.log")"
    [ -n "$url" ] && break
    kill -0 "$solard_pid" 2>/dev/null || { cat "$bindir/crash3.log"; exit 1; }
    sleep 0.1
done
[ -n "$url" ] || { echo 'clean-restarted solard never announced'; cat "$bindir/crash3.log"; exit 1; }
grep -q 'store warmed 1 records' "$bindir/crash3.log" \
    || { echo 'clean restart did not warm 1 record'; cat "$bindir/crash3.log"; exit 1; }
curl -fsS -D "$bindir/post-clean.hdr" -X POST -d "$spec" "$url/v1/run" > "$bindir/post-clean.json"
grep -qi 'x-cache: hit' "$bindir/post-clean.hdr" \
    || { echo 'post-clean-restart response was not a cache hit'; cat "$bindir/post-clean.hdr"; exit 1; }
cmp "$bindir/pre-crash.json" "$bindir/post-clean.json" \
    || { echo 'post-clean-restart bytes differ from pre-crash bytes'; exit 1; }
kill -TERM "$solard_pid"
wait "$solard_pid"
solard_pid=''

echo '== solargate fleet smoke (3 nodes, byte-identity, >=2.2x scale-out)'
# Every node is paced to 300 simulation requests/s (-ratelimit), so on a
# single host the gate's throughput gain measures routing scale-out —
# consistent hashing spreading distinct specs over three shards — rather
# than raw CPU parallelism the machine may not have. The hedge delay is
# pinned high (-hedge-min = -hedge-max) so the cached smoke never
# duplicates work across nodes.
fleet_pids=''
fleet_urls=''
trap 'for p in $fleet_pids $solard_pid; do kill "$p" 2>/dev/null || true; done; rm -rf "$bindir"' EXIT
go build -o "$bindir/solargate" ./cmd/solargate
i=0
for i in 1 2 3; do
    # -queue 64: the uncached warm-up runs up to 24 closed-loop clients
    # (plus hedged duplicates) against 1-CPU nodes whose default queue of
    # 4×GOMAXPROCS would shed the cache-fill traffic with 429s.
    "$bindir/solard" -addr 127.0.0.1:0 -ratelimit 300 -queue 64 >"$bindir/node$i.log" 2>&1 &
    fleet_pids="$fleet_pids $!"
done
for i in 1 2 3; do
    nurl=''
    for _ in $(seq 1 100); do
        nurl="$(sed -n 's/^solard: listening on //p' "$bindir/node$i.log")"
        [ -n "$nurl" ] && break
        sleep 0.1
    done
    [ -n "$nurl" ] || { echo "fleet node $i never announced"; cat "$bindir/node$i.log"; exit 1; }
    fleet_urls="$fleet_urls$nurl,"
done
node1="$(printf '%s' "$fleet_urls" | cut -d, -f1)"

# Single-node baseline on the paced cached path. The warm-up fills the
# cache for every distinct spec and drains the token bucket's banked
# burst, so the measured window sees the steady 300/s, not the burst.
# 600 distinct specs keep the per-shard key shares close to 1/3 when the
# same population later spreads over the ring.
"$bindir/solarload" -url "$node1" -n 900 -c 16 -step 8 -distinct 600 >/dev/null
"$bindir/solarload" -url "$node1" -n 1200 -c 16 -step 8 -distinct 600 >"$bindir/base.txt"
base_rps="$(sed -n 's/.*(\([0-9][0-9]*\) req\/s sustained).*/\1/p' "$bindir/base.txt")"
[ -n "$base_rps" ] || { echo 'baseline printed no rate'; cat "$bindir/base.txt"; exit 1; }

"$bindir/solargate" -addr 127.0.0.1:0 -backends "$fleet_urls" -hedge-min 250ms -hedge-max 250ms -vnodes 256 \
    >"$bindir/gate.log" 2>&1 &
solard_pid=$!
gate_url=''
for _ in $(seq 1 100); do
    gate_url="$(sed -n 's/^solargate: listening on \(http[^ ]*\).*/\1/p' "$bindir/gate.log")"
    [ -n "$gate_url" ] && break
    kill -0 "$solard_pid" 2>/dev/null || { cat "$bindir/gate.log"; exit 1; }
    sleep 0.1
done
[ -n "$gate_url" ] || { echo 'solargate never announced'; cat "$bindir/gate.log"; exit 1; }

# Byte-identity: the same spec through the gate and asked of a node
# directly must produce identical bytes (the engine is deterministic,
# so any node agrees with any other).
spec='{"site":"AZ","season":"Jul","mix":"HM2","step_min":8,"day":3}'
curl -fsS -X POST -d "$spec" "$gate_url/v1/run" > "$bindir/via-gate.json"
curl -fsS -X POST -d "$spec" "$node1/v1/run" > "$bindir/direct.json"
cmp "$bindir/via-gate.json" "$bindir/direct.json" \
    || { echo 'gate response differs from direct node response'; exit 1; }

# Fleet throughput through the gate: the distinct specs hash across the
# three shards, so the paced per-node ceilings add up.
"$bindir/solarload" -url "$gate_url" -n 1800 -c 24 -step 8 -distinct 600 >/dev/null
"$bindir/solarload" -url "$gate_url" -n 3600 -c 24 -step 8 -distinct 600 >"$bindir/fleet.txt"
fleet_rps="$(sed -n 's/.*(\([0-9][0-9]*\) req\/s sustained).*/\1/p' "$bindir/fleet.txt")"
[ -n "$fleet_rps" ] || { echo 'fleet load printed no rate'; cat "$bindir/fleet.txt"; exit 1; }

echo "fleet scale-out: single node $base_rps req/s -> 3-node gate $fleet_rps req/s"
awk -v f="$fleet_rps" -v b="$base_rps" 'BEGIN { exit !(f >= 2.2 * b) }' \
    || { echo "fleet throughput $fleet_rps is below 2.2x the single-node $base_rps"; exit 1; }

kill -TERM "$solard_pid"
wait "$solard_pid"
grep -q 'drained, exiting' "$bindir/gate.log" || { echo 'solargate did not drain cleanly'; cat "$bindir/gate.log"; exit 1; }
solard_pid=''
for p in $fleet_pids; do kill -TERM "$p" 2>/dev/null || true; done
for p in $fleet_pids; do wait "$p" || true; done
fleet_pids=''

echo 'OK'
