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

# The first grep keeps out code that catches Effect.Unhandled to learn
# whether it runs in a simulated process: Sim.Engine.time, self_pid and
# charge answer that without an effect. The second keeps each RPC
# protocol's envelope built and read in one module: only lib/rpc/ names
# Sunrpc_wire or Courier_wire, and HRPC calls Rpc.Sunrpc and
# Rpc.Courier_rpc for it. The third keeps every NSM's cached read in
# one place: an NSM reads and fills its cache only through
# Nsm_common.lookup, so the TTL, per-query charge and serve-stale rules
# cannot drift apart between NSMs again. The fourth keeps every DNS
# request in one client exchange: in lib/dns and lib/hns only
# Dns.Exchange encodes a request and decodes its reply (message id, TC
# rule, Bad_message -> Protocol_error), so every query, update, SOA
# probe, NOTIFY and zone transfer goes through Dns.Exchange.call.
# Dns.Server encodes replies and decodes requests (its NOTIFY listener
# too), Dns.Durable stores deltas and snapshots as DNS messages on disk,
# and Hns.Meta_bundle sizes the replies it synthesizes; none of them is
# a client. The surface audit reads the typed trees that
# `dune build @check` writes and fails on a lib/ export no other module
# uses, an optional parameter no call passes, or a mutable field of lib/
# that nothing reads except to assign it again, as a hand-kept counter
# `t.n <- t.n + 1` does: count in the metrics registry instead (see the
# header of tools/surface_audit.ml).
check: fmt
	! grep -rn 'Effect.Unhandled' lib bin bench examples
	! grep -rn 'Sunrpc_wire\.\|Courier_wire\.' lib bin bench examples --include='*.ml' --include='*.mli' | grep -v '^lib/rpc/'
	! grep -rn 'Cache\.\(find\|insert\|through\)\b' lib/nsm --include='*.ml' | grep -v '^lib/nsm/nsm_common.ml:'
	! grep -rn 'Msg\.\(encode\|decode\)' lib/dns lib/hns --include='*.ml' | grep -v '^lib/dns/\(exchange\|server\|durable\)\.ml:\|^lib/hns/meta_bundle\.ml:'
	dune build
	dune build @check
	dune exec tools/surface_audit.exe
	dune runtest
	$(MAKE) artifacts
	dune exec bin/hns_cli.exe -- lint

clean:
	dune clean
