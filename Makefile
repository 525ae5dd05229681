.PHONY: all build test bench perfbench-selftest check clean

# The serving experiments E24-E33, one `recdb bench NAME` each.
EXPERIMENTS := engine resilience parallel server obs rql store compile cluster incomplete

all: build

build:
	dune build @all

test:
	dune runtest

# The paper's experiment tables E1-E23.
bench:
	dune exec bench/main.exe -- tables

# The end-to-end guard for every serving tier: a tiny pass of each
# benchmark workload against real serve / shard / router processes,
# every response byte-checked against the in-process reference replay
# (exit 1 on any mismatch, failed op or missing metric).
perfbench-selftest:
	bash perfbench/run.sh --self-test

# The tables, then every serving experiment at its smoke size (each
# exits 1 on a violated check and writes its rows to the untracked
# _bench/NAME.json), then the perfbench self-test.
check: build test bench
	for e in $(EXPERIMENTS); do \
	  dune exec bin/recdb.exe -- bench $$e --smoke -o _bench/$$e.json || exit 1; \
	done
	bash perfbench/run.sh --self-test

clean:
	dune clean
