# Tier-1 gate: everything `make check` runs must stay green. CI and the
# pre-merge checklist call this target; keep it fast enough to run on
# every change (the fuzz pass is deliberately short — use `make fuzz`
# for longer runs).

GO ?= go
FUZZTIME ?= 5s

.PHONY: check vet build test race fuzz-short fuzz doccheck api-test aqbench-selftest bench bench-transport bench-trace bench-journal bench-aggcore bench-fanout bench-history dst crash cover

check: vet build race fuzz-short api-test aqbench-selftest dst crash doccheck

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# A brief pass over each fuzz target's corpus plus a little exploration;
# regressions in the buffer/sketch invariants surface here quickly.
fuzz-short:
	$(GO) test ./internal/buffer -run '^$$' -fuzz '^FuzzKSlackInvariants$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/buffer -run '^$$' -fuzz '^FuzzPercentileHandler$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/stats -run '^$$' -fuzz '^FuzzGKQuantile$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/stats -run '^$$' -fuzz '^FuzzP2Bounds$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cql -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/netstream -run '^$$' -fuzz '^FuzzLineProtocol$$' -fuzztime $(FUZZTIME)
	$(GO) test ./cmd/aqserver -run '^$$' -fuzz '^FuzzQueryAPI$$' -fuzztime $(FUZZTIME)

# Socket-level integration suite for the network control plane: a real
# aqserver on ephemeral ports, queries registered over HTTP, tuples
# streamed over TCP, output compared byte-for-byte against the in-process
# cq engine (see docs/API.md "Testing"). Always under the race detector.
api-test:
	$(GO) test ./cmd/aqserver -race -count=1 \
		-run 'TestAPI|TestRuntimeQueryMetricLabelParity'

# The benchmark harness (aqbench/, its own module) builds against
# internal/core and internal/obs/tracez. Vet and test it here, in the
# environment aqbench/run.sh builds it in, so an API change that breaks
# the harness fails `make check` rather than a later benchmark run.
AQBENCH_ENV = GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local GOENV=off CGO_ENABLED=0
aqbench-selftest:
	cd aqbench && $(AQBENCH_ENV) $(GO) vet ./... && $(AQBENCH_ENV) $(GO) test ./...

# Deterministic simulation sweep under the race detector: every seed runs
# the full differential oracle (sync/concurrent equivalence, quality
# contract, metamorphic relations) plus the committed regression
# transcripts. DST_SEEDS widens the matrix (nightly runs use hundreds);
# the default keeps `make check` fast.
DST_SEEDS ?= 12
dst:
	DST_SEEDS=$(DST_SEEDS) $(GO) test ./internal/dst -race -count=1

# Crash-recovery sweep under the race detector: each seed runs a query to
# a randomized crash point, optionally corrupts the journal tail, recovers
# over the damaged directory, and checks the continuation + quality oracle
# (see internal/dst/crash.go). DST_CRASH_SEEDS widens the matrix; nightly
# runs use hundreds.
DST_CRASH_SEEDS ?= 12
crash:
	DST_CRASH_SEEDS=$(DST_CRASH_SEEDS) $(GO) test ./internal/dst -race -count=1 -run '^TestCrash'

# Coverage gate: per-package breakdown plus a repo-level floor. The floor
# and a committed snapshot live in COVERAGE.md; raise the baseline when
# coverage genuinely improves, never lower it to make a change pass.
COVER_FLOOR ?= 70
cover:
	$(GO) test ./... -count=1 -coverprofile=cover.out -covermode=atomic > /dev/null
	@$(GO) tool cover -func=cover.out | awk '\
		{ pkg = $$1; sub(/\/[^\/]+:.*$$/, "", pkg); gsub(/%/, "", $$NF) } \
		$$1 != "total:" { sum[pkg] += $$NF; n[pkg]++ } \
		$$1 == "total:" { total = $$NF } \
		END { \
			for (p in sum) printf "%-40s %6.1f%%\n", p, sum[p] / n[p] | "sort"; \
			close("sort"); \
			printf "%-40s %6.1f%% (floor $(COVER_FLOOR)%%)\n", "total (by statement)", total; \
			if (total + 0 < $(COVER_FLOOR)) { \
				printf "FAIL: total coverage %.1f%% below the $(COVER_FLOOR)%% floor (see COVERAGE.md)\n", total; \
				exit 1; \
			} \
		}'

# Documentation gate: `go vet`-clean telemetry packages (vet ./... above
# already covers them; this pins them even if the wide vet target
# changes) and no dead relative links in any *.md file.
doccheck:
	$(GO) vet ./internal/obs/...
	$(GO) test . -run '^TestDocLinks$$|^TestMetricsCatalog$$'

# Run every per-PR benchmark gate.
BENCHTIME ?= 5x
bench: bench-transport bench-aggcore bench-fanout bench-history

# PR3 performance gate: run the transport/sharding benchmarks and commit
# the parsed numbers. BENCH_PR3.json records ns/op, allocs/op and
# tuples/s per benchmark plus the host CPU count (shard scaling only
# shows on multi-core hosts; see EXPERIMENTS.md R16).
bench-transport:
	$(GO) test -bench 'BenchmarkPipelineBatched|BenchmarkGroupedSharded' \
		-benchmem -run '^$$' -benchtime $(BENCHTIME) -timeout 20m . \
		| tee /dev/stderr | $(GO) run ./cmd/benchjson > BENCH_PR3.json

# PR5 performance gate: the always-on flight recorder must stay cheap.
# BenchmarkTraceOverhead runs the batched concurrent pipeline with the
# tracer off and on; BENCH_PR5.json records both so the ≤3% overhead bar
# (EXPERIMENTS.md R17) can be re-verified on any host.
bench-trace:
	$(GO) test -bench 'BenchmarkTraceOverhead' \
		-benchmem -run '^$$' -benchtime $(BENCHTIME) -timeout 20m . \
		| tee /dev/stderr | $(GO) run ./cmd/benchjson > BENCH_PR5.json

# PR6 performance gate: the ingest journal's cost on the batched
# concurrent pipeline (off vs on, default batch size and snapshot
# cadence) plus recovery speed. BENCH_PR6.json records both so the
# durability overhead (EXPERIMENTS.md R18) can be re-verified on any
# host.
bench-journal:
	$(GO) test -bench 'BenchmarkJournalOverhead|BenchmarkRecovery' \
		-benchmem -run '^$$' -benchtime $(BENCHTIME) -timeout 20m . \
		| tee /dev/stderr | $(GO) run ./cmd/benchjson > BENCH_PR6.json

# PR7 performance gate: the two window aggregation cores head to head —
# in-order, d-bounded out-of-order, and bulk-eviction operator runs, plus
# the raw finger B-tree insert sweep whose ns/op-vs-d curve is the O(log d)
# evidence (EXPERIMENTS.md R19). BENCH_PR7.json must show the fiba core
# ahead of legacy on out-of-order insert at d >= 64.
bench-aggcore:
	$(GO) test -bench 'BenchmarkAggCore|BenchmarkFiBAInsert' \
		-benchmem -run '^$$' -benchtime $(BENCHTIME) -timeout 20m . \
		| tee /dev/stderr | $(GO) run ./cmd/benchjson > BENCH_PR7.json

# PR8 performance gate: M queries over one shared-source broadcast ring
# versus M fully independent ingest loops, at M in {1, 2, 4, 8}. The
# aggregate tuples/s at q=8 must be >= 3x the independent baseline:
# ingest (1M-tuple generation, chaos decoration, retry wrapper — and the
# allocation/GC load that comes with it) is paid once instead of per
# query (EXPERIMENTS.md R20). Iterations run seconds each at this
# segment size, so a small -benchtime is already noise-stable.
bench-fanout: BENCHTIME = 3x
bench-fanout:
	$(GO) test -bench 'BenchmarkFanout' \
		-benchmem -run '^$$' -benchtime $(BENCHTIME) -timeout 30m . \
		| tee /dev/stderr | $(GO) run ./cmd/benchjson > BENCH_PR8.json

# PR10 performance gate: the observability plane must ride along, not
# slow down. BenchmarkHistoryOverhead runs the instrumented concurrent
# pipeline with the background history sampler off and on (at 100x the
# production sampling rate); BenchmarkWireProvOverhead drains the
# broadcast ring with and without wire-provenance marks. BENCH_PR10.json
# records both so the ≤2% combined bar (EXPERIMENTS.md R21) can be
# re-verified on any host.
bench-history:
	$(GO) test -bench 'BenchmarkHistoryOverhead|BenchmarkWireProvOverhead' \
		-benchmem -run '^$$' -benchtime $(BENCHTIME) -timeout 20m . \
		| tee /dev/stderr | $(GO) run ./cmd/benchjson > BENCH_PR10.json

fuzz: FUZZTIME = 60s
fuzz: fuzz-short
