# Tier-1 verify: build + tests (the floor every change must hold).
# Tier-1+ verify: `make check` adds go vet, the afllint invariant
# analyzers, and the race detector, which the transport fault-injection
# tests rely on to catch shutdown and reconnect races.

GO ?= go

.PHONY: build test check vet lint race bench-check bench-driver bench bench-hot cover fuzz-smoke

# Coverage floor enforced by `make cover` and the CI coverage job.
# Measured at the observability PR; raise when coverage rises, never
# lower it to make a failing build pass.
COVER_FLOOR ?= 76.0

build:
	$(GO) build ./...

# -shuffle=on randomizes test execution order each run, so tests that
# secretly depend on a sibling's leftover state fail fast instead of
# passing by accident.
test: build
	$(GO) test -shuffle=on ./...

vet:
	$(GO) vet ./...

# lint runs the repo's custom go/analysis suite (cmd/afllint): rawrand,
# vecalias, lockio, typederr, floateq, plus the concurrency and
# distributed-invariant analyzers lockorder, goroleak, netdeadline,
# epochfence and hotalloc. Suppress an individual finding with
# `//lint:ignore <analyzer> <reason>` on the line or the line above —
# the reason is mandatory.
#
# It then smoke-tests the `go vet -vettool` protocol path against the
# fixture modules: the clean module must pass and the dirty module must
# fail, so a vet-protocol regression cannot hide behind the standalone
# runner staying green.
lint:
	$(GO) run ./cmd/afllint ./...
	$(GO) build -o bin/afllint ./cmd/afllint
	cd cmd/afllint/testdata/clean && $(GO) vet -vettool=$(CURDIR)/bin/afllint ./...
	@cd cmd/afllint/testdata/dirty && \
	if $(GO) vet -vettool=$(CURDIR)/bin/afllint ./... >/dev/null 2>&1; then \
		echo "vettool smoke: dirty fixture passed, want failure"; exit 1; \
	else \
		echo "vettool smoke: dirty fixture rejected as expected"; \
	fi

race:
	$(GO) test -race -shuffle=on ./...

# bench-check keeps the benchmark driver's input honest: bench/ compiles
# against internal packages, so a refactor can break its build or its live
# correctness checks (sent == received, tap == Stats, replicas bit-identical)
# without any other test noticing. The tests are hermetic; the smoke run
# uses only loopback sockets and writes under the git-ignored bench/out/.
bench-check:
	$(GO) test ./bench/...
	$(GO) run ./bench/aflperf -smoke

check: build vet lint race bench-check

# bench-driver runs the benchmark exactly as the benchmark driver does —
# BENCHMARK.json's command, one 24 s timed run of each workload it lists,
# seed 1 — which bench-check's 4 s -smoke run is not. A workload fails on
# a non-zero exit or a result line without "correct":true and "failed":0,
# and its failed checks are printed; every workload runs either way.
# Each run's log is kept as bench/out/driver_<workload>.log. About three
# minutes on two cores, plus one build of the standard library into
# .bench_build/ on a fresh checkout.
BENCH_WORKLOADS = $(shell awk '/"workloads"/ {on = 1} on && /"name"/ {gsub(/[",]/, "", $$2); print $$2} on && /^  \]/ {on = 0}' BENCHMARK.json)
bench-driver:
	@if [ -z "$(BENCH_WORKLOADS)" ]; then echo "bench-driver: no workloads found in BENCHMARK.json"; exit 1; fi; \
	mkdir -p bench/out; failed=0; \
	for w in $(BENCH_WORKLOADS); do \
		log=bench/out/driver_$$w.log; \
		bash bench/run.sh --workload $$w --seed 1 --seconds 24 --trace 0 > $$log 2>&1; rc=$$?; \
		line=$$(tail -n 1 $$log); \
		echo "$$w: exit $$rc: $$line"; \
		case "$$line" in *'"correct":true'*'"failed":0,'*) ok=1 ;; *) ok=0 ;; esac; \
		if [ $$rc -ne 0 ] || [ $$ok -ne 1 ]; then \
			failed=1; \
			grep -h 'FAILED CHECK\|aflperf:' $$log || tail -n 20 $$log; \
		fi; \
	done; \
	if [ $$failed -ne 0 ]; then echo "bench-driver: FAILED (logs in bench/out/)"; exit 1; fi; \
	echo "bench-driver: all workloads correct with no failed operations"

bench:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# bench-hot measures the //afl:hotpath-annotated functions (filter apply,
# buffer ingest, wire codec, replication record build) with allocation
# counts, gates them against the committed gob-era BENCH_8 baseline via
# cmd/benchgate (the binary codec + arena work must hold its >= 50%
# allocs/op win on the two gated paths, and nothing may regress; the
# binary task reply, BenchmarkHotTaskReply/binary/*, is in the baseline
# at its budget of 0 allocs/op, so one allocation per reply fails; the
# filter round, BenchmarkHotFilter and its LeNet-5-sized twin, is in at
# the 156 allocs/op of the per-round maps it used to build and must stay
# within 5% of that, i.e. <= 7, now that it works on reused scratch; the
# binary update decode, BenchmarkHotUpdateDecode/*, is in at 0 allocs/op
# and the mean combine, BenchmarkHotCombine/*, at its 2 — the round delta
# and the weights — with both rows' ns/op taken before the blocked
# kernels), then
# captures an overload-experiment throughput snapshot (the served hot
# path: ingest, filter, shed counters). CI uploads the snapshots as
# BENCH_10.
bench-hot:
	$(GO) test -run=NONE -bench='^BenchmarkHot' -benchmem ./internal/core/ ./internal/fl/ ./internal/transport/ ./internal/topology/ | tee bench-hot.txt
	$(GO) run ./cmd/benchgate -in bench-hot.txt -baseline BENCH_8_allocs.json -out BENCH_10_allocs.json \
		-gate 'BenchmarkHotBufferAdd=0.5,BenchmarkHotWireEdgeBatch=0.5,BenchmarkHotFilter=0.05,BenchmarkHotFilterLeNet=0.05'
	$(GO) run ./cmd/aflbench -exp overload -rounds 8 -metrics-out BENCH_10.json

# cover writes cover.out, prints the per-function breakdown tail, and
# fails when total statement coverage drops below COVER_FLOOR.
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -n 1
	@total=$$($(GO) tool cover -func=cover.out | tail -n 1 | awk '{print $$NF}' | tr -d '%'); \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { \
		if (t+0 < f+0) { printf "coverage %.1f%% below floor %.1f%%\n", t, f; exit 1 } \
		printf "coverage %.1f%% >= floor %.1f%%\n", t, f }'

# fuzz-smoke runs each transport wire-decode fuzzer briefly: adversarial
# gob streams on every protocol surface — client, edge uplink, root
# replication, and the quorum vote exchange — must yield typed errors,
# never a panic or hang. Go runs one fuzz target per invocation, hence
# the loop.
FUZZ_TARGETS = FuzzDecodeClientMsg FuzzDecodeEdgeMsg FuzzDecodeRootMsg \
	FuzzDecodeReplicaMsg FuzzDecodePrimaryMsg FuzzDecodeVoteMsg \
	FuzzDecodeBinaryEnvelope
fuzz-smoke:
	@for target in $(FUZZ_TARGETS); do \
		$(GO) test -run=NONE -fuzz=$$target'$$' -fuzztime=10s ./internal/transport/ || exit 1; \
	done
