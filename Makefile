# Developer entry points. CI (.github/workflows/ci.yml) runs the same
# commands; keep the two in sync.

GOBIN := $(CURDIR)/bin

# The gated BENCH run: BENCH_baseline.json holds exactly these targets
# at these settings, and bench-gate/bench-speed regenerate them to
# compare. SUMMARY, when set (CI passes $GITHUB_STEP_SUMMARY), receives
# the targets' and compare's markdown tables.
BENCH_TARGETS := fig5 fig20 ablation sweep replay mixed qos mlp sampled
BENCH_FLAGS   := -scale 2e-7 -seed 42
SUMMARY       ?=
HAMSBENCH     := $(GOBIN)/hamsbench $(BENCH_FLAGS) $(if $(SUMMARY),-summary "$(SUMMARY)")
COMPARE       := $(GOBIN)/hamsbench compare $(if $(SUMMARY),-summary "$(SUMMARY)")

.PHONY: all build test test-shuffle race lint hamslint fmt clean bench-baseline bench-gate bench-speed

all: build test lint

build:
	go build ./...

# bench/hamsperf is a nested module, so ./... does not reach it.
test:
	go test ./...
	cd bench/hamsperf && go test ./...

# Shuffled order flushes out inter-test coupling; -count=1 defeats the
# cache so everything actually reruns.
test-shuffle:
	go test -shuffle=on -count=1 ./...

race:
	go test -race ./...

# lint = formatting + go vet + the repo's own contract linter. A
# hamslint finding fails the target; suppress only with a reasoned
# //hamslint:allow <analyzer> — <reason> (see EXPERIMENTS.md).
lint: fmt hamslint
	go vet ./...
	cd bench/hamsperf && go vet ./...

hamslint: $(GOBIN)/hamslint
	go vet -vettool=$(GOBIN)/hamslint ./...

# Rebuild unconditionally: the binary hashes itself into vet's cache
# key, so a stale tool would silently lint with old analyzers.
$(GOBIN)/hamslint: FORCE
	go build -o $(GOBIN)/hamslint ./cmd/hamslint

$(GOBIN)/hamsbench: FORCE
	go build -o $(GOBIN)/hamsbench ./cmd/hamsbench

FORCE:

# Regenerate the committed baseline after an intentional change to the
# simulated numbers. Serial, because the host-throughput gate accepts
# only hermetic (workers=1) artifacts.
bench-baseline: $(GOBIN)/hamsbench
	$(HAMSBENCH) -parallel 1 -json BENCH_baseline.json $(BENCH_TARGETS) > /dev/null

# Simulated-throughput gate: deterministic, so any worker count works.
bench-gate: $(GOBIN)/hamsbench
	$(HAMSBENCH) -json BENCH_new.json $(BENCH_TARGETS) > /dev/null
	$(COMPARE) -threshold 0.15 BENCH_baseline.json BENCH_new.json

# Host-throughput gate: a serial warm-up run, then a serial measured
# run, compared with a loose, regression-only wall-clock threshold.
bench-speed: $(GOBIN)/hamsbench
	$(GOBIN)/hamsbench $(BENCH_FLAGS) -parallel 1 $(BENCH_TARGETS) > /dev/null
	$(HAMSBENCH) -parallel 1 -json BENCH_speed.json $(BENCH_TARGETS) > /dev/null
	$(COMPARE) -threshold 0.15 -host-threshold 0.30 BENCH_baseline.json BENCH_speed.json

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; \
	fi

clean:
	rm -rf $(GOBIN)
