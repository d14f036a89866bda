# CI entry points. `make ci` is what a pre-merge check runs: lint (gofmt
# and go vet), build, full test suite (nodeterm_test.go among it: nothing
# under internal/ reads the wall clock), the scheduler-sensitive packages
# again at GOMAXPROCS 1, 2, 3, 4 and 8, the race detector as the ownership
# check (see `race` below), the seeded chaos tests that guard the resilience
# layer, a bounded run of the three fuzzers over untrusted input, and a
# byte-for-byte regeneration of the five simulated BENCH_*.json baselines
# and of BENCH_paper.txt, the tables of the paper's figures, and the
# benchmark's selftest (its pinned sim_* digests and http_* bit-equality).

GO ?= go
RACE_PKGS := ./internal/par ./internal/nn ./internal/graph ./internal/partition ./internal/runtime ./internal/platform ./internal/simnet \
	./internal/bench ./internal/trace ./internal/trace/tracetest ./internal/stats ./internal/perf ./internal/core \
	./internal/gateway ./internal/adapt ./internal/batching ./internal/mesh ./cmd/gillis-server ./cmd/gillis-bench

PROCS_PKGS := ./internal/par ./internal/nn ./internal/graph ./internal/partition ./internal/simnet ./internal/platform ./internal/gateway \
	./internal/stats ./internal/perf

.PHONY: ci lint vet build test procs race chaos fuzz cover bench-kernels bench-kernels-pin bench-planner bench-chaos bench-load bench-adapt bench-batch bench-mesh bench-paper bench-verify bench-selftest

ci: lint build test cover procs race chaos fuzz bench-verify bench-selftest

# lint fails on any unformatted file, then runs go vet. The project's own
# rule (nothing under internal/ reads the wall clock, an unseeded global RNG
# or the environment; DESIGN.md §9) is a test, nodeterm_test.go, so `make
# test` enforces it. go vet's asmdecl checks gemm_amd64.s (tile kernels and
# row helpers) against its Go declarations; the arm64 cross-build and vet
# keep the no-assembly kernel dispatch, which nothing on an amd64 runner
# compiles, from rotting; vetting internal/modelio for s390x does the same
# for the model loader's big-endian path (a writable mapping, swapped in
# place), and vetting it for darwin for its read-the-file fallback off
# linux. The 386 vet compiles every package and its tests where int is 32
# bits, so a constant that overflows it (a forged 2^40 length in a test)
# fails here rather than on a 32-bit build. The arm64 assembly listing of
# internal/nn must hold no fused multiply-add (FMADD, FMSUB, FNMADD, FNMSUB,
# single or double): each product rounds before its add, written
# float32(x*y) where go1.24 would contract it, and that is what keeps a
# kernel's output bits the same on every architecture and at every blocking
# (gemm.go's header). The listing must name laneDotAcc, so a build that
# printed nothing fails rather than passing. The frozen benchmark/ harness
# is its own module, which `./...` does not reach: vetting it compiles it
# against this tree, so deleting an internal API it calls fails here rather
# than in every benchmark run.
lint:
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt: the following files need formatting:" >&2; \
		echo "$$unformatted" >&2; \
		exit 1; \
	fi
	$(GO) vet ./...
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/nn
	GOARCH=386 $(GO) vet ./...
	GOARCH=s390x $(GO) vet ./internal/modelio
	GOOS=darwin $(GO) vet ./internal/modelio
	@listing="$$(mktemp)"; trap 'rm -f "$$listing"' EXIT; \
	GOARCH=arm64 $(GO) build -gcflags=-S ./internal/nn >"$$listing" 2>&1 || { cat "$$listing" >&2; exit 1; }; \
	if ! grep -q '^gillis/internal/nn\.laneDotAcc STEXT' "$$listing"; then \
		echo "lint: the arm64 listing of internal/nn has no laneDotAcc" >&2; exit 1; \
	fi; \
	if grep -E '\sFN?M(ADD|SUB)[SD]\s' "$$listing" >&2; then \
		echo "lint: arm64 fuses a multiply and an add in internal/nn (above); round the product: float32(x*y)" >&2; exit 1; \
	fi
	cd benchmark && $(GO) vet .

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# A hang or a result that depends on how many threads the scheduler has
# shows only at some core counts (a worker pool that deadlocked at 2 and 3
# passed at 1, 4 and 8), so the packages that spawn goroutines of their own,
# the two that run forwards in a pooled arena on top of them, and the
# simulation kernel with its two heaviest users, run at each. The timeout
# turns a hang into a failure in seconds.
#
# Two tests of the pooled buffers a served request runs in also run at each
# count: which goroutine gets which buffer from par's scratch pool, and how
# many engines and buffer sets the server keeps, follow the core count. So
# does the test of the records a warm query recycles, whose release rule
# must hold whatever runs the forwards.
PROCS_RUN := ^(TestPooledJoinsOutliveHedgeLosers|TestPartitionedPredictAllocationBudget|TestRecycledRecordsOutliveEveryHolder)$$
#
# The convolution kernel is picked from CPUID at start-up, so a runner only
# ever exercises the widest implementation it has. The second loop links each
# level into nn.kernelCap in turn and reruns the kernel, arena-forward and
# partition-exactness suites under it, and the planner's, whose fork-join
# Monte Carlo folds its trials through nn.FoldMax2 (C22 and the pinned plans
# and predictions), naming the levels this CPU cannot run (under the go cap
# TestKernelCapGoRunsNoAssembly checks that no assembly is left to dispatch
# to).
#
# The last line builds for GOAMD64=v3, the x86 level with a fused multiply-add.
# Every product in internal/nn must round before its add
# (TestAffineRoundsTheProduct pins the affine of BatchNorm and of a folded
# epilogue). go1.24 contracts x*y+z on arm64 but at no GOAMD64 level: `make
# lint` checks the arm64 listing on any runner, and this line is here for the
# toolchain that starts to contract on amd64 too.
KERNEL_PKGS := ./internal/nn ./internal/graph ./internal/partition ./internal/perf ./internal/core
procs:
	for n in 1 2 3 4 8; do \
		GOMAXPROCS=$$n $(GO) test -count=1 -timeout 300s $(PROCS_PKGS) || exit 1; \
		GOMAXPROCS=$$n $(GO) test -count=1 -timeout 300s -run '$(PROCS_RUN)' ./internal/runtime ./cmd/gillis-server || exit 1; \
	done
	for k in go avx avx512; do \
		cap="-ldflags=-X=gillis/internal/nn.kernelCap=$$k"; \
		if ! $(GO) test $$cap -count=1 -run '^TestSelectedKernel$$' -v ./internal/nn | grep -q '^--- PASS'; then \
			echo "procs: this CPU offers no $$k kernel: skipped"; continue; \
		fi; \
		echo "procs: $(KERNEL_PKGS) on the $$k kernel"; \
		$(GO) test $$cap -count=1 -timeout 300s $(KERNEL_PKGS) || exit 1; \
	done
	GOAMD64=v3 $(GO) test -count=1 -timeout 300s ./internal/nn ./internal/graph

# The serving stack below the HTTP front end takes no lock: one goroutine
# owns an Env and everything deployed on it (DESIGN.md §3), and only what
# concurrent Envs share synchronises — par's workers and scratch pool, the
# metrics registry, a graph's cached arena plan
# (TestConcurrentForwardsShareThePool drives eight goroutines through one
# graph and its pooled arena; every partition is one graph). The
# race detector is what enforces that split: a simulated
# process that leaves its Env's goroutine, or a second goroutine reaching into
# a platform, gateway, mesh, deployment or trace, is a reported data race here
# (TestConcurrentEnvsOwnTheirState drives eight Envs at once for it), where a
# mutex around the state would have hidden it. A pass's pooled joins go back
# to the shared pool only once no hedge loser can read them: given back
# early, another Env's forward writes what the loser reads, which
# TestPooledJoinsOutliveHedgeLosers reports as a race. gillis-server's resident
# engines pass from one request goroutine to the next through a channel;
# TestConcurrentPredicts drives eight callers through them. The planners'
# parallel tests share one fitted perf model, which never changes after it is
# fitted, while each planning run prices on a lock-free table of its own.
race:
	$(GO) test -race $(RACE_PKGS)

# Chaos tests run with their fixed seed (42, baked into the tests) so a
# resilience regression fails deterministically, never flakily.
chaos:
	$(GO) test ./internal/bench -run TestChaos -count=1
	$(GO) test ./internal/runtime -run 'TestResilient|TestNaiveFails' -count=1

# Untrusted input — model bytes, plan JSON, /v1/predict bodies — is fuzzed for
# FUZZTIME per target on every CI run, starting from the seed corpus each
# fuzzer adds. A crasher lands in the package's testdata/fuzz and fails the
# run (and every later `go test`, until fixed).
FUZZTIME ?= 10s
fuzz:
	$(GO) test ./internal/modelio -run '^$$' -fuzz '^FuzzLoad$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/partition -run '^$$' -fuzz '^FuzzLoadPlan$$' -fuzztime $(FUZZTIME)
	$(GO) test ./cmd/gillis-server -run '^$$' -fuzz '^FuzzPredictRequest$$' -fuzztime $(FUZZTIME)

# Per-package coverage gate: fails if any package listed in
# COVERAGE_BASELINE drops below its recorded floor. Regenerate the baseline
# with `./scripts/check_coverage.sh -update`.
cover:
	./scripts/check_coverage.sh

# Run the kernel benches and fail if any ns/op regresses more than 10%
# against the checked-in BENCH_kernels.json baseline.
bench-kernels:
	$(GO) run ./cmd/gillis-bench -figs kernels -kernels-baseline BENCH_kernels.json -kernels-check

# Re-pin the kernel baseline on this machine; the new file carries
# before/after speedup columns relative to the previous pin.
bench-kernels-pin:
	$(GO) run ./cmd/gillis-bench -figs kernels -kernels-baseline BENCH_kernels.json -json BENCH_kernels.json

# Re-measure cold planning (perf.Build + core.LatencyOptimal on resnet34,
# vgg16, wrn50-5 and the demo CNN, the median of 5 passes each) into
# BENCH_planner.json, in BENCH_kernels.json's format; the new file carries
# before/after columns relative to the previous one. Wall-clock numbers:
# alternate two builds before calling a difference a change.
bench-planner:
	$(GO) run ./cmd/gillis-bench -figs planner -kernels-baseline BENCH_planner.json -json BENCH_planner.json

# The five simulated baselines and the paper's tables below are fully seeded
# and run on the virtual clock, so each target writes the same bytes on any
# machine. BENCH_DIR is where they write: the repo root to re-pin, a temp dir
# for bench-verify.
BENCH_DIR ?= .

# Regenerate the checked-in chaos baseline (fully seeded: same output on
# any machine).
bench-chaos:
	$(GO) run ./cmd/gillis-bench -figs chaos -seed 42 -json $(BENCH_DIR)/BENCH_chaos.json

# Regenerate the checked-in serving-gateway load baseline (quick-mode sweep,
# fully seeded and ShapeOnly: same output on any machine).
bench-load:
	$(GO) run ./cmd/gillis-bench -quick -seed 42 -figs load -json $(BENCH_DIR)/BENCH_load.json

# Regenerate the checked-in adaptive re-planning baseline (full-horizon
# scenario, fully seeded and ShapeOnly: same output on any machine).
bench-adapt:
	$(GO) run ./cmd/gillis-bench -seed 42 -figs adapt -json $(BENCH_DIR)/BENCH_adapt.json

# Regenerate the checked-in cross-query batching baseline (quick-mode sweep,
# fully seeded and ShapeOnly: same output on any machine).
bench-batch:
	$(GO) run ./cmd/gillis-bench -quick -seed 42 -figs batch -json $(BENCH_DIR)/BENCH_batch.json

# Regenerate the checked-in multi-model serving-mesh baseline (quick-mode
# sweep, fully seeded and ShapeOnly: same output on any machine).
bench-mesh:
	$(GO) run ./cmd/gillis-bench -quick -seed 42 -figs mesh -json $(BENCH_DIR)/BENCH_mesh.json

# Regenerate the pinned tables of the paper's evaluation — Figs 1, 7, 9-15,
# the ablations and the burst study at the paper's query counts — through
# -out, which leaves the wall-clock lines on stdout. About a minute, nearly
# all of it Fig 13 training its planners. The load study is not in the list:
# BENCH_load.json pins it.
bench-paper:
	$(GO) run ./cmd/gillis-bench -seed 42 -figs 1,7,9,10,11,12,13,14,15,ablations,burst -out $(BENCH_DIR)/BENCH_paper.txt

# Regenerate the five simulated baselines and the paper's tables with the
# exact commands above into a temp dir and compare each with the checked-in
# file: a refactor that claims "behaviour unchanged" passes this, byte for
# byte.
bench-verify:
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	$(MAKE) --no-print-directory BENCH_DIR="$$tmp" bench-chaos bench-load bench-adapt bench-batch bench-mesh bench-paper >/dev/null || exit 1; \
	for f in BENCH_chaos.json BENCH_load.json BENCH_adapt.json BENCH_batch.json BENCH_mesh.json BENCH_paper.txt; do \
		cmp "$$tmp/$$f" "$$f" || exit 1; \
	done; \
	echo "bench-verify: BENCH_chaos/load/adapt/batch/mesh.json and BENCH_paper.txt regenerate byte-identically"

# The benchmark's own selftest: its arithmetic, its manifest, and a 1 s smoke
# of every workload — each sim_* op's digest against the pinned
# benchmark/testdata/golden.json and each http_* reply bit-equal to the
# in-process forward. A change that moves a simulated byte those workloads
# replay (a mesh instance's size, say) fails here rather than in the
# benchmark run. It builds into .bench_build/.
bench-selftest:
	bash benchmark/run.sh -selftest
