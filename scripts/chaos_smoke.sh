#!/bin/sh
# chaos_smoke.sh — end-to-end chaos drill for the elastic cluster: boot a
# coordinator and three blitzd workers, one of them fail-slow via the
# -chaos fault plan (internal/fault driven at the transport layer), run a
# fine-grained work-stealing sweep, hard-kill a healthy worker mid-sweep,
# and assert the merged rows are still byte-identical to single-node
# execution. Also probes /readyz and checks the speculation metrics
# surfaced on the coordinator. No curl/jq dependency; blitzctl is the
# client.
set -eu

workdir=$(mktemp -d)
cleanup() {
    status=$?
    for pid in "${w1_pid:-}" "${w2_pid:-}" "${w3_pid:-}" "${coord_pid:-}"; do
        [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    done
    wait 2>/dev/null || true
    rm -rf "$workdir"
    exit $status
}
trap cleanup EXIT INT TERM

echo "chaos-smoke: building blitzd and blitzctl"
go build -o "$workdir/blitzd" ./cmd/blitzd
go build -o "$workdir/blitzctl" ./cmd/blitzctl

wait_addr() {
    i=0
    while [ ! -s "$1" ]; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "chaos-smoke: $2 never came up" >&2
            cat "$workdir"/*.log >&2 || true
            exit 1
        fi
        sleep 0.1
    done
    cat "$1"
}

"$workdir/blitzd" -addr 127.0.0.1:0 -addrfile "$workdir/w1.addr" >"$workdir/w1.out" 2>"$workdir/w1.log" &
w1_pid=$!
"$workdir/blitzd" -addr 127.0.0.1:0 -addrfile "$workdir/w2.addr" >"$workdir/w2.out" 2>"$workdir/w2.log" &
w2_pid=$!
# Worker 3 is fail-slow from the first request: its chaos layer stretches
# every shard's service time 30x, so speculation must rescue whatever it
# holds for the sweep to finish in sane time.
"$workdir/blitzd" -addr 127.0.0.1:0 -addrfile "$workdir/w3.addr" \
    -chaos '{"fail_slow":[{"tile":3,"factor":30}]}' -chaos-tile 3 \
    >"$workdir/w3.out" 2>"$workdir/w3.log" &
w3_pid=$!
w1=$(wait_addr "$workdir/w1.addr" "worker 1")
w2=$(wait_addr "$workdir/w2.addr" "worker 2")
w3=$(wait_addr "$workdir/w3.addr" "worker 3 (fail-slow)")
echo "chaos-smoke: workers on $w1 $w2 $w3 (w3 fail-slow x30)"

"$workdir/blitzd" -addr 127.0.0.1:0 -addrfile "$workdir/coord.addr" \
    -coordinator -cluster-workers "http://$w1,http://$w2,http://$w3" \
    -shards 480 -heartbeat 200ms \
    >"$workdir/coord.out" 2>"$workdir/coord.log" &
coord_pid=$!
coord=$(wait_addr "$workdir/coord.addr" "coordinator")
echo "chaos-smoke: coordinator on $coord"

echo "chaos-smoke: readiness probe"
"$workdir/blitzctl" -addr "$coord" -ready >"$workdir/ready.json" || {
    echo "chaos-smoke: coordinator not ready with three live workers" >&2
    cat "$workdir/ready.json" >&2
    exit 1
}
grep -q '"status": "ready"' "$workdir/ready.json" || {
    echo "chaos-smoke: /readyz body lacks ready status" >&2
    cat "$workdir/ready.json" >&2
    exit 1
}

# lines extracts the figure's report rows from a response envelope; both
# single-node and cluster responses come from the same encoder, so the
# extracted blocks must be byte-identical.
lines() {
    awk '/"lines": \[/{f=1;next} f&&/\]/{exit} f{print}'
}

# 2 pairing points x 240 trials = 480 trial units: the coordinator's
# -shards 480 gives every unit its own shard, the finest stealing grain.
cat >"$workdir/sweep.json" <<'JSON'
{"figure": {"name": "7", "trials": 240, "ns": [36], "seed": 13}}
JSON

echo "chaos-smoke: single-node baseline (worker 1)"
"$workdir/blitzctl" -addr "$w1" -req "$workdir/sweep.json" | lines >"$workdir/single.lines"

echo "chaos-smoke: cluster sweep under chaos, hard-killing worker 2 mid-sweep"
"$workdir/blitzctl" -addr "$coord" -req "$workdir/sweep.json" >"$workdir/cluster.out" &
sweep_pid=$!
sleep 1
kill -9 "$w2_pid" 2>/dev/null || true
w2_pid=""
wait "$sweep_pid" || {
    echo "chaos-smoke: clustered sweep failed under chaos" >&2
    cat "$workdir/coord.log" >&2
    exit 1
}
lines <"$workdir/cluster.out" >"$workdir/cluster.lines"
diff -u "$workdir/single.lines" "$workdir/cluster.lines" || {
    echo "chaos-smoke: rows differ from single-node under chaos" >&2
    exit 1
}

echo "chaos-smoke: checking the coordinator noticed the hard kill"
"$workdir/blitzctl" -addr "$coord" -cluster >"$workdir/status.json" || true
grep -q "http://$w2" "$workdir/status.json" || {
    echo "chaos-smoke: killed worker missing from status" >&2
    cat "$workdir/status.json" >&2
    exit 1
}
grep -A2 "http://$w2" "$workdir/status.json" | grep -q '"alive": false' || {
    # The kill may land between heartbeats right at sweep end; give the
    # prober a moment before declaring failure.
    sleep 1
    "$workdir/blitzctl" -addr "$coord" -cluster | grep -A2 "http://$w2" | grep -q '"alive": false' || {
        echo "chaos-smoke: killed worker still marked alive" >&2
        exit 1
    }
}

echo "chaos-smoke: checking the scheduling telemetry"
grep -q '"shard_latency_p50_millis"' "$workdir/status.json" || {
    echo "chaos-smoke: cluster status lacks shard latency quantiles" >&2
    cat "$workdir/status.json" >&2
    exit 1
}
metrics=$("$workdir/blitzctl" -addr "$coord" -metrics)
for m in blitzd_cluster_shards_dispatched_total blitzd_cluster_shards_speculated_total blitzd_cluster_queue_depth; do
    echo "$metrics" | grep -q "^$m" || {
        echo "chaos-smoke: coordinator /metrics missing $m" >&2
        exit 1
    }
done

echo "chaos-smoke: OK"
