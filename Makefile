# Convenience targets; everything is driven by dune underneath.

FUZZ_SEED ?= $(shell date +%Y%m%d)
FUZZ_CASES ?= 10000
# Worker domains for parallel candidate evaluation.  Outcomes are
# determined by FUZZ_SEED alone — the same seed reproduces the same
# failures at any job count — so -j only changes wall-clock time.
JOBS ?= $(shell nproc 2>/dev/null || echo 1)
BENCH_DATE := $(shell date +%Y%m%d)

.PHONY: all test check doc bench bench-exec bench-model bench-affine \
	bench-serve bench-islands bench-graph bench-selftest serve-smoke fuzz \
	clean

all:
	dune build @all

test:
	dune runtest

# Full gate: build, unit tests, a fixed-seed 50-case fuzz smoke at
# -j 2 through the engine path (the `@check` alias in test/dune,
# exercising the parallel campaign driver), the serving smoke (real
# daemon process, SIGKILL mid-tune, bit-identical resume), and the
# API docs (skipped gracefully when odoc is not installed).
check:
	dune build
	dune runtest
	dune build @check
	$(MAKE) doc

# Process-level serving smoke on its own: boots `imtp serve`, runs two
# concurrent client tunes, SIGKILLs the daemon mid-search and resumes
# in a fresh daemon, asserting the resumed history digest matches the
# uninterrupted run's.  Fixed seeds; also part of `dune build @check`.
serve-smoke:
	dune build @serve-smoke

# API documentation (odoc comments on every public .mli).  Gated on
# odoc being installed so `make check` works in minimal containers.
doc:
	@if command -v odoc >/dev/null 2>&1; then \
	  dune build @doc; \
	  echo "docs: _build/default/_doc/_html/index.html"; \
	else \
	  echo "doc: odoc not installed, skipping (opam install odoc)"; \
	fi

# Batch-throughput benchmark: cold-engine Engine.batch over 200
# distinct GEMM candidates at -j 1/2/4 plus the warm cache-hit path,
# interpreter-vs-compiled executor throughput on GEMV/MMTV, then the
# island-model search at -j4/-k4 vs -j1/-k1 (pure CPU and under
# emulated device latency).  All reports land in BENCH_<date>.json
# (and tables on stdout).
bench:
	dune exec bench/main.exe -- --batch-scaling --out BENCH_$(BENCH_DATE).json
	dune exec bench/main.exe -- --exec-throughput --out BENCH_$(BENCH_DATE).json
	dune exec bench/main.exe -- --island-scaling --out BENCH_$(BENCH_DATE).json
	dune exec bench/main.exe -- --graph --out BENCH_$(BENCH_DATE).json

# Whole-model graph pipeline: MLP forward pass and the attention block
# compiled fused + MRAM-resident vs per-op (fixed seeds, pinned island
# count), asserting the fused plan wins on modeled latency AND
# host-transfer volume, and recording both into BENCH_<date>.json.
bench-graph:
	dune exec bench/main.exe -- --graph --out BENCH_$(BENCH_DATE).json

# Island-model search scaling on its own: equal trial budgets at
# -j1/-k1 vs -j4/-k4, pure CPU and with IMTP_SIM_LATENCY_US emulating
# the per-measurement device round-trip, plus an Engine.batch leg
# under the same stall.
bench-islands:
	dune exec bench/main.exe -- --island-scaling --out BENCH_$(BENCH_DATE).json

# Just the executor-throughput comparison.
bench-exec:
	dune exec bench/main.exe -- --exec-throughput --out BENCH_$(BENCH_DATE).json

# Learned-cost-model gate: full vs gated search on the acceptance
# workloads (fixed seeds), recording best latency, simulator-execution
# counts and the reduction factor into BENCH_<date>.json.
bench-model:
	dune exec bench/main.exe -- --model-gating --out BENCH_$(BENCH_DATE).json

# Affine bound analysis: guarded vs containment-proven kernels on the
# ragged acceptance shapes (500x500 GEMV, 8x60x60 MMTV), recording
# branch counts, modeled kernel cost and verified-candidate counts
# under each pass stack into BENCH_<date>.json.
bench-affine:
	dune exec bench/main.exe -- --affine-bounds --out BENCH_$(BENCH_DATE).json

# Serving throughput: the same N fixed-seed tune sessions run
# back-to-back and as N concurrent clients against fresh daemons,
# recording aggregate trials/sec, the shared-cache ledger and the host
# core count (concurrency cannot beat the core budget) into
# BENCH_<date>.json.
bench-serve:
	dune exec bench/main.exe -- --serve-throughput --out BENCH_$(BENCH_DATE).json

# The repository benchmark's own determinism check: each perfbench
# workload run twice at one seed must give equal per-item digests and
# modeled_* metrics, and the benchmark must refuse to run under
# IMTP_SIM_LATENCY_US.  About a minute on a 2-core host.
bench-selftest:
	python3 perfbench/selftest.py

# Long fuzzing campaign with a date-derived seed (override with
# FUZZ_SEED=n / FUZZ_CASES=n / JOBS=n).  The seed is printed first so
# a failing campaign can be reproduced exactly — with any JOBS value.
fuzz:
	@echo "fuzz seed: $(FUZZ_SEED)  cases: $(FUZZ_CASES)  jobs: $(JOBS)"
	dune exec bin/imtp_cli.exe -- fuzz --seed $(FUZZ_SEED) --cases $(FUZZ_CASES) --jobs $(JOBS)

clean:
	dune clean
