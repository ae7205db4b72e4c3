# Convenience wrappers around dune; `make check` is the pre-commit gate.

.PHONY: all build test bench artifacts chaos coldpath propagation durability agent colocation load fanout marshal obs check fmt clean

all: build

build:
	dune build

test:
	dune runtest

bench:
	dune exec bench/main.exe

# The committed artifacts must reproduce byte for byte: regenerate
# BENCH_hns.json and BENCH_obs.json in a fresh temporary directory and
# compare them with the ones in the repository.
artifacts:
	dune build bench/main.exe
	@dir=$$(mktemp -d); \
	(cd $$dir && $(CURDIR)/_build/default/bench/main.exe --json >/dev/null) \
	&& cmp $$dir/BENCH_hns.json BENCH_hns.json \
	&& cmp $$dir/BENCH_obs.json BENCH_obs.json; \
	status=$$?; rm -rf $$dir; exit $$status

# The chaos availability demo: scheduled crashes with failover and
# serve-stale degradation (also available as `hns_cli chaos`).
chaos:
	dune exec bench/main.exe -- chaos

# Cold-path collapse: batched meta queries vs the per-mapping walk,
# AXFR preloading, and stampede coalescing (also in BENCH_hns.json).
coldpath:
	dune exec bench/main.exe -- coldpath

# Change propagation: one update pushed by NOTIFY, replayed as IXFR
# deltas into a secondary and a preloaded client, vs full AXFR
# (also in BENCH_hns.json as propagation.*).
propagation:
	dune exec bench/main.exe -- propagation

# The durable meta-store: WAL group commit on the calibrated 1987
# disk, key-coalescing compaction, and the crash/restart A/B — a
# recovered primary resumes IXFR from its last durable serial while
# the journal-less baseline forces full transfers (also in
# BENCH_hns.json as durability.* and propagation.restart.*).
durability:
	dune exec bench/main.exe -- durability

# The shared host agent: cross-process cache + coalescing and the
# resolve-tail prefetch (also in BENCH_hns.json as agent.*).
agent:
	dune exec bench/main.exe -- agent

# The colocation bench matrix: five Table 3.1 arrangements x
# {marshalled, demarshalled} cache modes, cold and warm imports
# (also in BENCH_hns.json as coldpath.<arrangement>.*).
colocation:
	dune exec bench/main.exe -- colocation

# The open-loop load harness: the smoke pair (decayed vs sliding hot
# ranking) on the CI config, then the million-client bench suite
# (`--full`, storm included), each guarded by a fixed sim-event budget
# so a retry storm or runaway fiber fails the gate instead of tripling
# the run quietly. Both budgets keep ~2x headroom over the largest
# config's events (smoke ~30,400; full: storm, 110,251).
load:
	dune exec bin/hns_cli.exe -- load --max-events 60000
	dune exec bin/hns_cli.exe -- load --full --max-events 220000

# The meta-store fan-out sweep: partitioned primaries with IXFR-chained
# replica trees vs the single-primary baseline, plus the read-your-writes
# pinning A/B. The per-run sim-event budget catches referral loops or a
# replica poll that never detaches; pinned staleness fails the gate.
fanout:
	dune exec bin/hns_cli.exe -- fanout --max-events 20000

# The marshalling A/B: hand codec vs generated stubs over the hot
# record shapes — wall-clock per-shape table plus the calibrated
# per-record cost models (also in BENCH_hns.json as marshal.*).
marshal:
	dune exec bench/main.exe -- marshal

# The observability suite: cross-hop trace propagation, the query
# flight recorder and the SLO tracker, plus the metric-name lint
# (every registered name must be layer.component.metric; duplicate-kind
# registration fails fast at the registration site).
obs:
	dune exec test/test_main.exe -- test obs
	dune exec test/test_main.exe -- test trace
	dune exec bin/hns_cli.exe -- lint

# ocamlformat is optional in the container: format when present, skip
# (with a note) when not, so check works everywhere.
fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
		dune build @fmt --auto-promote || true; \
	else \
		echo "ocamlformat not installed; skipping fmt"; \
	fi

check: fmt
	dune build
	dune runtest
	$(MAKE) artifacts
	$(MAKE) chaos
	$(MAKE) coldpath
	$(MAKE) propagation
	$(MAKE) durability
	$(MAKE) agent
	$(MAKE) colocation
	$(MAKE) load
	$(MAKE) fanout
	$(MAKE) marshal
	$(MAKE) obs

clean:
	dune clean
