# Developer entry points.  `make dev` runs the build, both lints, the tests,
# the examples and the bench gate once each; CI runs the same checks as
# separate steps.

.PHONY: dev build lint lint-typed test examples bench-json bench-baseline bench-smoke bench-scale bench-e2e chaos profile clean

dev: build lint lint-typed test examples bench-smoke

build:
	dune build @all

# Static analysis: determinism & hygiene rules over lib/ bin/ bench/ test/.
# Writes the machine-readable report next to the build artifacts and fails
# on any violation (suppressions need a spelled-out justification).
lint:
	dune build bin/p2plint.exe
	dune exec bin/p2plint.exe -- --json _build/lint-report.json .

# Typed hot-path analysis: the P-series rules over the .cmt files dune
# emits (DESIGN.md §14), on top of the syntactic pass.  `dune build
# @check` materializes cmts for executables too; the combined report is
# written in both text and JSON forms for the CI artifact.
lint-typed:
	dune build @check bin/p2plint.exe
	dune exec bin/p2plint.exe -- --typed \
	  --text-out _build/lint-typed-report.txt \
	  --json-out _build/lint-typed-report.json .

test:
	dune runtest

# Run all seven examples end to end (stdout discarded); fails on the first
# one that exits non-zero.
EXAMPLES = quickstart bibliographic_database adaptive_cache chord_ring \
  interactive_session substrates music_catalog

examples:
	dune build $(EXAMPLES:%=examples/%.exe)
	set -e; for e in $(EXAMPLES); do \
	  echo "example $$e"; ./_build/default/examples/$$e.exe > /dev/null; \
	done

# Reduced-scale structured bench report: every experiment (each paper
# figure, the ablations and the sweeps) plus every micro-bench's
# allocation profile, written as BENCH_smoke.json (strict mode:
# byte-reproducible, no wall-clock fields).
bench-json:
	dune exec bench/main.exe -- --quick --json-out BENCH_smoke.json

# Refresh the committed regression-gate baseline.  Run this (and commit
# the result) after an intentional perf change or a compiler bump —
# allocation counts are exact per compiler version, not portable
# across them.  The baseline is the gate's own run, relabelled: GC
# collection counts shift with the length of the process's command
# line (its argument strings live on the heap), so a baseline written
# by a different command line can sit one collection off the smoke run.
bench-baseline: bench-json
	sed 's/"label":"smoke"/"label":"baseline"/' BENCH_smoke.json \
	  > bench/baseline/BENCH_baseline.json

# Reduced-scale reproduction smoke + regression gate: emit the report,
# then compare against the committed baseline.  Non-zero exit iff a
# metric regressed beyond its threshold or lost coverage.
bench-smoke: bench-json
	dune exec bin/benchdiff.exe -- bench/baseline/BENCH_baseline.json BENCH_smoke.json

# Scale smoke: the quick scale-sweep ladder (tops out at 10^5 nodes,
# 4 shards, deterministic allocation profile) plus a sharded CLI run
# checked byte-identical across worker-domain counts — the cheap
# stand-in for the committed million-node report
# (bench/baseline/BENCH_scale.json, regenerated with `dune exec
# bench/main.exe -- --experiment scale-sweep --json-out
# bench/baseline/BENCH_scale.json` at paper scale).  The calling domain
# is worker 0: at 2 domains it works two of the four shards, at 3 an
# uneven stride (shards 0 and 3).
SCALE_DOMAINS = 2 3 4

bench-scale:
	dune exec bench/main.exe -- --quick --experiment scale-sweep \
	  --json-out BENCH_scale_smoke.json
	dune build bin/p2pindex_cli.exe
	set -e; for d in 1 $(SCALE_DOMAINS); do \
	  ./_build/default/bin/p2pindex_cli.exe simulate --nodes 100000 --articles 20000 \
	    --queries 100000 --shards 4 --domains $$d > _build/scale_d$$d.txt; \
	done
	set -e; for d in $(SCALE_DOMAINS); do cmp _build/scale_d1.txt _build/scale_d$$d.txt; done

# End-to-end benchmark, e2e lane only: times `simulate` on the four
# workloads of BENCHMARK.json and checks each run's stdout against its
# pinned seed-42 digest, so it doubles as a byte-identity guard.  Exits
# non-zero only when a check fails (`"correct": false` on the last line);
# timing never fails it.  Results: bench/e2e/out/results.json.
bench-e2e:
	bash bench/e2e/run.sh --lane e2e

# Fault-injection suite: the fault/RPC/quorum tests plus seeded smoke
# runs (deterministic, so CI diffs are meaningful) — the fault sweep,
# and a quorum-under-faults run combining message loss and hedging with
# churn at R = W = 2 to exercise read repair, under-acknowledged writes
# and the hedged quorum walk.
chaos: build
	dune exec test/test_main.exe -- test faults
	dune exec test/test_main.exe -- test dht:rpc
	dune exec test/test_main.exe -- test quorum
	dune exec bench/main.exe -- --quick --experiment fault-sweep
	dune exec bin/p2pindex_cli.exe -- simulate --nodes 100 --articles 800 \
	  --queries 6000 --churn-rate 0.01 --replication 3 --loss-rate 0.05 \
	  --rpc-retries 2 --hedge --read-quorum 2 --write-quorum 2 \
	  --anti-entropy-interval 25

# Sampling profile of one CLI run: the preloaded sampler
# (bench/sampler/sampler.c) records where the process is every 50 us of
# wall time, and the symbolizer prints the symbols with the most
# samples, e.g.
#   make profile ARGS='simulate --nodes 500 --articles 10000 --queries 1'
PROFILE_SAMPLES = _build/profile-samples.txt

profile:
	dune build bin/p2pindex_cli.exe bench/sampler/sampler.so
	P2P_SAMPLES=$(PROFILE_SAMPLES) LD_PRELOAD=$(CURDIR)/_build/default/bench/sampler/sampler.so \
	  ./_build/default/bin/p2pindex_cli.exe $(ARGS) > /dev/null
	sh bench/sampler/symbolize.sh _build/default/bin/p2pindex_cli.exe $(PROFILE_SAMPLES)

clean:
	dune clean
