#!/bin/sh
# cluster_smoke.sh — end-to-end smoke test of the distributed sweep
# cluster: boot a coordinator and two blitzd workers, run a Fig. 7 request
# through the cluster, and diff its rows against single-node execution
# (they must be byte-identical). Then run a bigger sweep, hard-kill one
# worker mid-sweep, and assert the re-dispatched result still matches
# single-node rows and the coordinator marked the worker dead.
# No curl/jq dependency; blitzctl is the client.
set -eu

workdir=$(mktemp -d)
cleanup() {
    status=$?
    for pid in "${w1_pid:-}" "${w2_pid:-}" "${coord_pid:-}"; do
        [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    done
    wait 2>/dev/null || true
    rm -rf "$workdir"
    exit $status
}
trap cleanup EXIT INT TERM

echo "cluster-smoke: building blitzd and blitzctl"
go build -o "$workdir/blitzd" ./cmd/blitzd
go build -o "$workdir/blitzctl" ./cmd/blitzctl

wait_addr() {
    i=0
    while [ ! -s "$1" ]; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "cluster-smoke: $2 never came up" >&2
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
w1=$(wait_addr "$workdir/w1.addr" "worker 1")
w2=$(wait_addr "$workdir/w2.addr" "worker 2")
echo "cluster-smoke: workers on $w1 $w2"

"$workdir/blitzd" -addr 127.0.0.1:0 -addrfile "$workdir/coord.addr" \
    -coordinator -cluster-workers "http://$w1,http://$w2" \
    -shards 6 -heartbeat 200ms \
    >"$workdir/coord.out" 2>"$workdir/coord.log" &
coord_pid=$!
coord=$(wait_addr "$workdir/coord.addr" "coordinator")
echo "cluster-smoke: coordinator on $coord"

# lines extracts the figure's report rows from a response envelope; both
# single-node and cluster responses come from the same encoder, so the
# extracted blocks must be byte-identical.
lines() {
    awk '/"lines": \[/{f=1;next} f&&/\]/{exit} f{print}'
}

cat >"$workdir/small.json" <<'JSON'
{"figure": {"name": "7", "trials": 24, "ns": [36], "seed": 7}}
JSON

echo "cluster-smoke: single-node baseline (worker 1)"
"$workdir/blitzctl" -addr "$w1" -req "$workdir/small.json" >"$workdir/small.single"
lines <"$workdir/small.single" >"$workdir/small.single.lines"

echo "cluster-smoke: same figure through the cluster (6 shards)"
"$workdir/blitzctl" -addr "$coord" -req "$workdir/small.json" >"$workdir/small.cluster"
grep -q '"shards": 6' "$workdir/small.cluster" || {
    echo "cluster-smoke: merged result does not record 6 shards" >&2
    exit 1
}
lines <"$workdir/small.cluster" >"$workdir/small.cluster.lines"
diff -u "$workdir/small.single.lines" "$workdir/small.cluster.lines" || {
    echo "cluster-smoke: clustered rows differ from single-node" >&2
    exit 1
}

cat >"$workdir/big.json" <<'JSON'
{"figure": {"name": "7", "trials": 600, "ns": [36], "seed": 11}}
JSON

echo "cluster-smoke: single-node baseline for the failover sweep"
"$workdir/blitzctl" -addr "$w1" -req "$workdir/big.json" | lines >"$workdir/big.single.lines"

echo "cluster-smoke: start the failover sweep, then hard-kill worker 2"
"$workdir/blitzctl" -addr "$coord" -req "$workdir/big.json" >"$workdir/big.cluster" &
sweep_pid=$!
sleep 1
kill -9 "$w2_pid" 2>/dev/null || true
w2_pid=""
wait "$sweep_pid" || {
    echo "cluster-smoke: clustered sweep failed after the worker kill" >&2
    cat "$workdir/coord.log" >&2
    exit 1
}
lines <"$workdir/big.cluster" >"$workdir/big.cluster.lines"
diff -u "$workdir/big.single.lines" "$workdir/big.cluster.lines" || {
    echo "cluster-smoke: rows differ after killing a worker mid-sweep" >&2
    exit 1
}

echo "cluster-smoke: checking the coordinator noticed the death"
status=$("$workdir/blitzctl" -addr "$coord" -cluster)
echo "$status" | grep -q "http://$w2" || {
    echo "cluster-smoke: killed worker missing from status: $status" >&2
    exit 1
}
echo "$status" | grep -A2 "http://$w2" | grep -q '"alive": false' || {
    # The kill may land between heartbeats right at sweep end; give the
    # prober a moment before declaring failure.
    sleep 1
    "$workdir/blitzctl" -addr "$coord" -cluster | grep -A2 "http://$w2" | grep -q '"alive": false' || {
        echo "cluster-smoke: killed worker still marked alive" >&2
        exit 1
    }
}

metrics=$("$workdir/blitzctl" -addr "$coord" -metrics)
echo "$metrics" | grep -q '^blitzd_cluster_shards_dispatched_total' || {
    echo "cluster-smoke: cluster metrics missing from coordinator /metrics" >&2
    exit 1
}

echo "cluster-smoke: OK"
