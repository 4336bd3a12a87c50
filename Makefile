GO ?= go
STATICCHECK ?= staticcheck
FUZZTIME ?= 10s

.PHONY: build vet test race fault obs lint fuzz bench bench-json bench-smoke scenario serve-smoke perfbench-race

# Serving-layer smoke: boot feam-server on the 120-site mixed-ISA fleet,
# drive it with feam-load for a short burst, then SIGTERM it and require
# a clean drain. feam-load exits non-zero if any request was not 2xx, and
# the report lands in BENCH_PR8.json.
SERVE_ADDR ?= 127.0.0.1:8091
SERVE_DURATION ?= 5s

serve-smoke:
	$(GO) build -o bin/feam-server ./cmd/feam-server
	$(GO) build -o bin/feam-load ./cmd/feam-load
	./bin/feam-server -addr $(SERVE_ADDR) -fleet testdata/scenarios/isa-mix.yaml & \
	SERVER_PID=$$!; \
	trap 'kill $$SERVER_PID 2>/dev/null' EXIT; \
	for i in $$(seq 1 50); do \
		if ./bin/feam-load -addr http://$(SERVE_ADDR) -clients 1 -duration 100ms -out /dev/null 2>/dev/null; then break; fi; \
		sleep 0.2; \
	done; \
	./bin/feam-load -addr http://$(SERVE_ADDR) -clients 32 -duration $(SERVE_DURATION) -out BENCH_PR8.json || exit 1; \
	kill -TERM $$SERVER_PID; \
	wait $$SERVER_PID

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test: build vet
	$(GO) test ./...

race:
	$(GO) test -race -timeout 40m ./...

# Fault-tolerance suite: injection, retries, transactional staging, and
# degraded ranking, under the race detector.
fault:
	$(GO) test -race -run 'Fault|Staging|Probe|Retry|Poisoning|Concurrent' ./internal/fault/ ./internal/feam/
	$(GO) run ./cmd/feam-testbed -faults -fault-rate 0.25 -fault-seed 7 >/dev/null

# Observability suite: tracer/histogram/registry unit tests plus the
# engine-level tracing and no-lost-samples tests, under the race detector.
obs:
	$(GO) test -race -count=1 ./internal/obs/
	$(GO) test -race -count=1 -run 'Tracing|Histograms|Sentinel|PredictEvaluate|FunctionalOptions|RetryWithHook' ./internal/feam/ ./internal/fault/

# Static analysis: vet, then the repo's own analyzer suite (feamcheck),
# which enforces the engine invariants — span lifecycle, fault-taxonomy
# wrapping, vfs-only file access, context plumbing, and lock ordering.
# staticcheck runs when installed (the tree has no module dependencies,
# so staticcheck is not fetched automatically).
lint: vet
	$(GO) run ./cmd/feam-lint -novet ./...
	@if command -v $(STATICCHECK) >/dev/null 2>&1; then \
		$(STATICCHECK) ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# Scenario suite: validate the committed corpus with the CLI, then replay
# every scenario as a race-detected subtest (failed scenarios print their
# human-readable assertion diffs).
scenario:
	$(GO) run ./cmd/feam-sim validate testdata/scenarios/*.yaml
	$(GO) test -race -count=1 ./internal/scenario/

# Bounded fuzzing smoke run over the attacker-facing parsers: the ELF
# reader, the soname/symbol-version parsers, the scenario YAML loader,
# and the ABI symbol-index builder. The go tool accepts one -fuzz
# pattern per invocation, hence the separate runs.
fuzz:
	$(GO) test -run xxx -fuzz FuzzParseSoname -fuzztime $(FUZZTIME) ./internal/libver/
	$(GO) test -run xxx -fuzz FuzzSymverRequirements -fuzztime $(FUZZTIME) ./internal/libver/
	$(GO) test -run xxx -fuzz FuzzParseELF -fuzztime $(FUZZTIME) ./internal/elfimg/
	$(GO) test -run xxx -fuzz FuzzScenarioYAML -fuzztime $(FUZZTIME) ./internal/scenario/
	$(GO) test -run xxx -fuzz FuzzSymbolIndex -fuzztime $(FUZZTIME) ./internal/abicheck/

bench:
	$(GO) test -run xxx -bench . -benchmem .

# Benchmark packages: the paper-table suite at the root (including the
# PR9 survey-throughput and zero-copy View benchmarks) plus the PR6
# layering benchmarks (registry hit rate, store commit latency).
BENCH_PKGS = . ./internal/registry ./internal/store

# Full benchmark run rendered to committed JSON. BENCH_PR10.json carries
# the ABI-resolve (cold vs registry-cached, 0-alloc streaming resolve)
# numbers for this PR alongside the survey-throughput suite.
bench-json:
	$(GO) test -run xxx -bench . -benchmem $(BENCH_PKGS) | $(GO) run ./cmd/benchjson -out BENCH_PR10.json

# Fold every committed BENCH_*.json into one trajectory array, oldest PR
# first, so numbers are diffable across PRs.
bench-trajectory:
	$(GO) run ./cmd/benchjson -merge -out BENCH_trajectory.json

# Quick CI variant: a fixed tiny iteration count proves the benchmarks
# and the JSON renderer still work without paying for stable numbers,
# and the AllocsPerRun gates fail the job if the zero-copy View accessor
# path, the cached ABI resolve path or the memo-hit file digest read
# ever allocates again.
bench-smoke:
	$(GO) test -run xxx -bench . -benchtime 10x -benchmem $(BENCH_PKGS) | $(GO) run ./cmd/benchjson -out BENCH_smoke.json
	$(GO) test -run 'TestViewParseAllocs' -count=1 -v ./internal/elfimg/
	$(GO) test -run 'TestABIResolveAllocs' -count=1 -v ./internal/abicheck/
	$(GO) test -run 'TestReadFileDigestAllocs' -count=1 -v ./internal/vfs/

# End-to-end benchmark harness under the race detector: tiny runs of
# every perfbench workload plus their answer checkers. perfbench is its
# own module (replacing feam with this checkout), so it runs from its
# directory.
perfbench-race:
	cd perfbench && $(GO) test -race -count=1 ./...
