# Developer entry points. CI runs the same commands (.github/workflows/ci.yml).

GO ?= go

.PHONY: verify test build fmt vet race bench

# Tier-1 verify (ROADMAP.md): the gate every change must pass.
verify: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Extended gate: formatting, vet, race detector on the
# concurrency-sensitive packages. RACE_PKGS is the one list of gated
# packages; CI and ROADMAP.md run `make race` rather than repeating it.
RACE_PKGS = ./internal/obsv ./internal/core ./internal/simmem ./internal/apps/... ./internal/kvnode ./internal/chaos ./cmd/kvserve

fmt:
	@test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }

vet:
	$(GO) vet ./...

race:
	$(GO) test -race $(RACE_PKGS)

# Capture the root benchmark suite as BENCH_<date>.json for
# perf-trajectory diffing (BENCHTIME=5x make bench for a longer run).
bench:
	./scripts/bench.sh
