# Convenience wrappers around dune; `make check` is the pre-commit gate.

TARGETS = all build test bench artifacts obs check fmt clean

# Any other goal names an experiment of the registry in
# bench/experiments.ml (`dune exec bench/main.exe -- --list`): `make
# load`, `make fanout`, `make chaos` run that one experiment, print its
# table and fail if its gate fails.
EXPERIMENTS = $(filter-out $(TARGETS),$(MAKECMDGOALS))

.PHONY: $(TARGETS) $(EXPERIMENTS)

all: build

build:
	dune build

test:
	dune runtest

bench:
	dune exec bench/main.exe

# One run of every experiment: its BENCH rows, its gate and its table.
# The committed artifacts must reproduce byte for byte, so the run
# writes BENCH_hns.json and BENCH_obs.json in a fresh temporary
# directory to compare with the ones in the repository.
artifacts:
	dune build bench/main.exe
	@dir=$$(mktemp -d); \
	(cd $$dir && $(CURDIR)/_build/default/bench/main.exe --no-bechamel) \
	&& cmp $$dir/BENCH_hns.json BENCH_hns.json \
	&& cmp $$dir/BENCH_obs.json BENCH_obs.json; \
	status=$$?; rm -rf $$dir; exit $$status

$(EXPERIMENTS):
	dune exec bench/main.exe -- $@

# The observability suites: cross-hop trace propagation, the query
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

# The grep keeps out code that catches Effect.Unhandled to learn whether
# it runs in a simulated process: Sim.Engine.time, self_pid and charge
# answer that without an effect. The surface audit reads the typed trees
# that `dune build @check` writes and fails on a lib/ export no other
# module uses or an optional parameter no call passes (see the header of
# tools/surface_audit.ml).
check: fmt
	! grep -rn 'Effect.Unhandled' lib bin bench examples
	dune build
	dune build @check
	dune exec tools/surface_audit.exe
	dune runtest
	$(MAKE) artifacts
	dune exec bin/hns_cli.exe -- lint

clean:
	dune clean
