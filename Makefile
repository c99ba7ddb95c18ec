GO ?= go

.PHONY: check fmt vet lint build test race perfbench-check bench perfbench fuzz cover

## check: the full CI gate — formatting, vet, invariant lint, build,
## tests, race detector, and the benchmark module's vet and tests.
check: fmt vet lint build test race perfbench-check

fmt:
	@out=$$(gofmt -s -l .); if [ -n "$$out" ]; then \
		echo "gofmt -s needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

## lint: the repo's invariant analyzers (cmd/llmfi-vet): determinism,
## hook purity, copy-on-write weight discipline, float64 checksum math,
## context-first cancellation, lock discipline (guardedby), atomic
## access consistency (atomicmix), goroutine lifecycle (golife), and
## wire-schema hygiene (wireschema). Suppress individual findings with
## //llmfi:allow <analyzer> <reason>; audit the suppression budget with
## `go run ./cmd/llmfi-vet -suppressions ./...`.
lint:
	$(GO) run ./cmd/llmfi-vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...
	GORACE=halt_on_error=1 $(GO) test -race -count=1 \
		-run '^Test(Runner|Trace|Resume|Checkpoint|Batched)' ./internal/core/
	GORACE=halt_on_error=1 $(GO) test -race -count=1 \
		-run '^Test(Serve|Handler|Loadgen)' ./internal/serve/...
	GORACE=halt_on_error=1 $(GO) test -race -count=1 \
		-run '^Test(FanIn|Recorder|SpanWriter|JSONL|Histogram|MetricsWriter|FleetTrace|LeaseTrace)' \
		./internal/fabric/ ./internal/obs/

## perfbench-check: perfbench/ is its own Go module, so `go build ./...`
## never compiles it; vet and test it so an API rename it reads cannot
## silently break the BENCHMARK.json command.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

## bench: the campaign throughput benchmarks (Figure reproductions live
## in bench_test.go at the repo root), plus the machine-readable runtime
## comparisons: seed path vs prefix engine vs streaming runner
## (BENCH_2.json), ABFT off vs site-only vs all-layer checking
## (BENCH_3.json), tracing off vs sampled vs every-trial probes
## (BENCH_4.json), serial vs continuous-batching decode at widths
## 8/16/32 (BENCH_5.json), serving-under-faults latency/SLO/detection
## with ABFT off/site/all over 8 request streams (BENCH_6.json), and the
## observability plane's overhead — spans off vs sampled vs full on both
## the campaign and serving planes (BENCH_7.json; sampled must stay
## within 5%). Works from a fresh clone: prior BENCH_*.json files are
## not required, and the final dump tolerates any that are missing.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x .
	BENCH_JSON_OUT=$(CURDIR)/BENCH_2.json $(GO) test -run '^TestEmitBenchJSON$$' -v ./internal/core/
	BENCH3_JSON_OUT=$(CURDIR)/BENCH_3.json $(GO) test -run '^TestEmitABFTBenchJSON$$' -v ./internal/core/
	BENCH4_JSON_OUT=$(CURDIR)/BENCH_4.json $(GO) test -run '^TestEmitTraceBenchJSON$$' -v ./internal/core/
	BENCH5_JSON_OUT=$(CURDIR)/BENCH_5.json $(GO) test -run '^TestEmitBatchBenchJSON$$' -v ./internal/core/
	BENCH6_JSON_OUT=$(CURDIR)/BENCH_6.json $(GO) test -run '^TestEmitServeBenchJSON$$' -v ./internal/serve/
	BENCH7_JSON_OUT=$(CURDIR)/BENCH_7.json $(GO) test -run '^TestEmitObsBenchJSON$$' -v ./internal/serve/
	@for f in $(CURDIR)/BENCH_*.json; do [ -f "$$f" ] && cat "$$f" || true; done

## perfbench: the repository benchmark (perfbench/, declared in
## BENCHMARK.json): each of its four workloads once, untraced, printing
## every end-to-end metric. Set PERF_SEED and PERF_SECONDS to override.
## Not run in CI: it takes over 4 × PERF_SECONDS and its numbers follow
## the host.
PERF_SEED ?= 1
PERF_SECONDS ?= 20
perfbench:
	for w in campaign-decode-comp campaign-score-mem serve-faults fleet-decode-comp; do \
		bash perfbench/run.sh --workload $$w --seed $(PERF_SEED) --seconds $(PERF_SECONDS) --trace 0 || exit 1; \
	done

## fuzz: short smoke sessions of the fuzz targets (also run in CI).
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzHalfRoundTrip$$' -fuzztime 10s ./internal/numerics/
	$(GO) test -run '^$$' -fuzz '^FuzzFlipBits$$' -fuzztime 10s ./internal/faults/
	$(GO) test -run '^$$' -fuzz '^FuzzGenerateRequest$$' -fuzztime 10s ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzReadJSONL$$' -fuzztime 10s ./internal/obs/

## cover: the detection-layer coverage gate enforced by CI — the ABFT and
## mitigation packages must stay above 85% combined.
cover:
	$(GO) test -coverprofile=$(CURDIR)/coverage.out \
		-coverpkg=./internal/abft,./internal/mitigate \
		./internal/abft ./internal/mitigate
	@total=$$($(GO) tool cover -func=$(CURDIR)/coverage.out | awk '/^total:/ {gsub(/%/,"",$$3); print $$3}'); \
	echo "abft+mitigate combined coverage: $$total%"; \
	awk -v t="$$total" 'BEGIN { exit (t+0 >= 85.0) ? 0 : 1 }' \
		|| { echo "coverage $$total% below the 85% gate"; exit 1; }
