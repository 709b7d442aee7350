# Standard entry points; CI runs `make verify`.

GO ?= go
SHORTSHA := $(shell git rev-parse --short HEAD)
# The committed perf baseline `make benchcheck` gates against. Update it to
# the freshly written BENCH_<sha>.json whenever a PR intentionally shifts
# performance, and commit both.
BENCH_BASELINE ?= BENCH_f33851c.json

.PHONY: build test vet race verify bench benchcheck bench-report figures \
	server-smoke cluster-smoke chaos-smoke stream-smoke tenant-smoke \
	lint fmtcheck blitzlint lint-update lint-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# fmtcheck is the fast pre-gate: formatting drift fails before the slower
# analyzers run.
fmtcheck:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt: files need formatting:"; echo "$$out"; exit 1; fi

# blitzlint runs the nine domain analyzers: determinism, seedflow,
# hotpathalloc, encapsulation, apilock, goroleak, ctxflow, lockorder,
# errdrop (see DESIGN.md "Static analysis & invariants").
blitzlint:
	$(GO) run ./cmd/blitzlint ./...

# lint is the full static gate: gofmt + vet fast pre-gates, then blitzlint.
lint: fmtcheck vet blitzlint

# lint-smoke drives the real blitzlint binary against the deliberately
# broken module in scripts/lintsmoke and asserts each wave-2 code
# (G/C/L/R) fires exactly once — a silently-disabled analyzer fails here
# even though the clean tree lints green.
lint-smoke:
	sh scripts/lint_smoke.sh

# lint-update regenerates the blitzlint goldens (lint/api_v1.txt,
# lint/escape_allow.txt, lint/lockorder.txt) after a deliberate API,
# hot-path, or lock-nesting change; commit the refreshed files with the
# change that motivated them.
lint-update:
	$(GO) run ./cmd/blitzlint -update

race:
	$(GO) test -race ./...

# The gate every change must pass: static checks (formatting, vet, the
# blitzlint domain analyzers plus the broken-fixture lint smoke), the full
# test suite under the race detector, the hot-path perf gate, and the
# daemon + cluster + chaos + streaming + multi-tenancy smoke tests.
verify: lint lint-smoke race benchcheck server-smoke cluster-smoke chaos-smoke stream-smoke tenant-smoke

# server-smoke boots a real blitzd on an ephemeral port, runs one exchange
# request twice through blitzctl, and asserts the repeat is a cache hit.
server-smoke:
	sh scripts/server_smoke.sh

# cluster-smoke boots a coordinator and two workers, runs a figure through
# the cluster, kills one worker mid-sweep, and diffs the rows against
# single-node execution (must be byte-identical).
cluster-smoke:
	sh scripts/cluster_smoke.sh

# chaos-smoke boots a coordinator and three workers — one fail-slow via
# the -chaos fault plan — runs a fine-grained work-stealing sweep,
# hard-kills a healthy worker mid-sweep, and diffs the rows against
# single-node execution (must be byte-identical despite speculation).
chaos-smoke:
	sh scripts/chaos_smoke.sh

# stream-smoke boots blitzd with a results ledger, follows a figure sweep
# live over SSE through blitzctl -stream, verifies the served result
# against the ledger's Merkle proof (-verify), and hard-kills a subscriber
# mid-stream to prove the daemon is unaffected.
stream-smoke:
	sh scripts/stream_smoke.sh

# tenant-smoke boots blitzd with a two-tenant key file, a store directory,
# and a ledger; asserts 401 for keyless clients and 429 + Retry-After for
# an over-limit tenant while another stays served; then restarts the
# daemon and asserts the sweep is served from disk byte-identically
# (ledger-verified) with zero engine executions.
tenant-smoke:
	sh scripts/tenant_smoke.sh

# bench snapshots the whole benchmark suite (3 samples each) — the root
# package's figure and engine benchmarks plus the ledger, serving-layer
# (scrape, memory hit) and metrics-primitive ones — into BENCH_<sha>.json;
# commit the file to extend the perf trajectory.
bench:
	$(GO) test -bench=. -benchmem -run=^$$ -count=3 -benchtime=1x . ./internal/ledger ./internal/server ./internal/metrics \
		| $(GO) run ./cmd/benchjson -sha $(SHORTSHA) -goversion "$$($(GO) env GOVERSION)" -out BENCH_$(SHORTSHA).json

# benchcheck fails if either hot path — the 400-tile emulator exchange or
# the full-SoC run — regressed more than 20% in ns/op or allocs/op against
# the committed baseline snapshot; the failure names the offending
# benchmark and metric.
benchcheck:
	$(GO) test -bench='^(BenchmarkExchangeThroughput|BenchmarkSoCRunThroughput)$$' -benchmem -run=^$$ -count=3 . \
		| $(GO) run ./cmd/benchjson -baseline $(BENCH_BASELINE) \
			-bench BenchmarkExchangeThroughput,BenchmarkSoCRunThroughput -max-regress 0.20

# bench-report renders the committed BENCH_<sha>.json trajectory (ordered by
# when each snapshot first entered history, then any uncommitted ones) into
# BENCHMARKS.md. Re-run after `make bench` and commit the result.
bench-report:
	@files="$$( (git log --reverse --pretty=format: --name-only --diff-filter=A -- 'BENCH_*.json' | sed '/^$$/d'; ls BENCH_*.json) | awk '!seen[$$0]++')"; \
		$(GO) run ./cmd/benchjson -report $$files > BENCHMARKS.md
	@echo "bench-report: wrote BENCHMARKS.md"

# figures reproduces every registered figure and table in-process (add
# `-csv <dir>` to the command for the data as CSV).
figures:
	$(GO) run ./cmd/blitzctl run -fig all
