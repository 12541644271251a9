.PHONY: all check test lint doc clean examples bench-selfcheck bench-cdg bench-routing bench-analysis bench-break break-smoke analyze-examples kernel-equivalence bench-service smoke-service coverage zoo soak soak-smoke oracle-boundary domains-smoke

all:
	dune build

# The tier-1 gate: everything compiles (dev and release profiles),
# every test suite passes (runtest includes test_parallel, the 2-domain
# determinism smoke of the parallel routing pipeline, and test_spf, the
# kernel-equivalence property suite; test_zoo also holds the zoo's
# kernel and break-engine parity checks), no shipped library or binary
# links the test-only oracles (oracle-boundary), the routing certifier
# signs off on the example topologies, the SSSP kernels agree
# bit-for-bit on the quick equivalence fixtures, the SCC cycle-break
# engine stays within a layer of the DFS oracle on a small torus
# (break-smoke), the topology-zoo conformance battery certifies every
# corpus file and generator sample, `--domains` leaves the manager's
# tables unchanged (domains-smoke), a quick churn soak (>= 200 seeded
# events) survives with every epoch recertified, the controller
# benchmark's self-check drives every benchmark path on small fabrics,
# and the examples that claim deadlock freedom hold their claims.
check:
	dune build && dune build --profile release && dune runtest && $(MAKE) oracle-boundary && $(MAKE) lint && $(MAKE) analyze-examples && $(MAKE) kernel-equivalence && $(MAKE) break-smoke && $(MAKE) smoke-service && $(MAKE) zoo && $(MAKE) domains-smoke && $(MAKE) soak-smoke && $(MAKE) bench-selfcheck && $(MAKE) examples

# The oracle boundary, part of `check`: the reference oracles in
# test/oracle (the Kahn check, the Hashtbl CDG, the one-cycle-at-a-time
# DFS cycle breaker) exist only to check production code, so no dune
# file under lib/ or bin/ may name the `oracle` library.
oracle-boundary:
	@if grep -rnw --include=dune oracle lib bin; then \
	  echo "oracle-boundary: lib/ or bin/ names the test-only oracle library"; exit 1; \
	fi; \
	echo "oracle-boundary: OK"

# `--domains` changes only the wall clock, part of `check`: the
# manager's tables after one seeded event on a torus must report the
# same `active tables:` line with one routing domain and with two.
domains-smoke:
	@set -e; \
	dune build bin/fabric_tool.exe; \
	tool=_build/default/bin/fabric_tool.exe; \
	one=$$($$tool manage torus:6x6:2 --events 1 --seed 3 --domains 1 | grep '^active tables:'); \
	two=$$($$tool manage torus:6x6:2 --events 1 --seed 3 --domains 2 | grep '^active tables:'); \
	[ -n "$$one" ] || { echo "domains-smoke: no active tables line"; exit 1; }; \
	[ "$$one" = "$$two" ] || { echo "domains-smoke: --domains changed the tables"; \
	  echo "  --domains 1: $$one"; echo "  --domains 2: $$two"; exit 1; }; \
	echo "domains-smoke: OK ($$one)"

# The examples that assert deadlock freedom, part of `check`: each exits
# non-zero when its stated claim fails (quickstart: DFSSSP certified,
# plain SSSP refused; ring_deadlock: the certifier refuses SSSP on the
# ring and certifies DFSSSP; custom_topology: complete, certified
# DFSSSP tables on the demo fabric). Each takes well under a second.
examples:
	dune exec examples/quickstart.exe
	dune exec examples/ring_deadlock.exe
	dune exec examples/custom_topology.exe

# Controller benchmark self-check, part of `check` (perfbench/README.md):
# builds perfbench/bench.exe and runs every workload path (cold builds,
# traced stages, daemon churn) on small fabrics in seconds, checking the
# outputs, so a change that breaks the benchmark fails here first.
bench-selfcheck:
	python3 perfbench/run.py --self-check

# Topology-zoo conformance battery (doc/topology_ingestion.md): every
# file under examples/zoo plus the seeded jellyfish/xpander samples,
# through the full registry, certifier and existence lower bounds. Exit
# 0 iff zero conformance failures. The kernel and break-engine parity
# checks against the test oracles run on the same subjects in
# test/test_zoo.ml.
zoo:
	dune exec bin/fabric_tool.exe -- zoo

# Quick churn soak, part of `check`: three fabrics, >= 200 applied
# seeded events total, every epoch swap recertified by the trusted
# checker. Failing runs dump a reproduction artifact (seed + trace)
# under _build/soak/ and print its path.
soak-smoke:
	dune exec bin/fabric_tool.exe -- soak torus:4x4 torus:3x3x3 xpander:4,5:11 --events 90 --seed 7

# Long-haul churn soak (not part of `check`): larger fabrics, more
# events, switch removals and drains included.
soak:
	dune exec --profile release bin/fabric_tool.exe -- soak torus:5x5 torus:3x3x3 dragonfly:4,2,2 jellyfish:18,8,5:3 xpander:4,6:11 --events 400 --seed 11

test: check

# The routing certifier on the example topologies: lint the DFSSSP
# tables and validate their deadlock-freedom certificates (exit 0 iff
# every target is certified and lint-clean).
lint:
	dune exec bin/fabric_tool.exe -- analyze --minimal ring:8 torus:4x4 tree:4,2 dragonfly:4,2,2

# The full static-analysis sweep (doc/static_analysis.md): route and
# analyze one example of every topology family the spec grammar knows,
# with the existence check and the layer lower bound enabled. Exit 0
# iff every fabric is feasible and every table certifies with zero
# analyzer errors.
analyze-examples:
	dune exec bin/fabric_tool.exe -- analyze --existence --min-layers \
	  ring:8 torus:4x4 hypercube:4 tree:4,2 xgft:2,4/1,2:16 kautz:2,3 \
	  dragonfly:4,2,2 hyperx:3x3 random:8,10,16,14:7

# Route-store / CSR CDG microbenchmark (DESIGN.md §10). Writes
# bench_results/route_store.json; fails if the >= 2x build+cycle-breaking
# speedup or the zero-allocation hot-loop target is missed.
bench-cdg:
	dune exec --profile release bench/cdg_bench.exe

# Static-analyzer cost benchmark (doc/static_analysis.md). Writes
# bench_results/analysis.json; fails if Existence.analyze exceeds 10%
# of the dfsssp route-build time on a 4096-endpoint XGFT.
bench-analysis:
	dune exec --profile release bench/analysis_bench.exe

# Cycle-break engine benchmark (DESIGN.md §17): SCC condensation vs the
# one-cycle-at-a-time DFS oracle (Oracle.Layers_dfs in test/oracle, the
# benchmark's only link to it), sequential and across domains, with
# per-stage condense/evict/rebuild splits. Writes
# bench_results/cycle_break.json; fails if SCC is under 2x DFS on the
# torus workloads, a layer count drifts past oracle+1, or parallel
# planning falls under 0.9x sequential.
bench-break:
	dune exec --profile release bench/break_bench.exe

# Quick engine-parity mode of the same binary (seconds, no timing
# gates): the SCC engine must stay within +1 layer of the DFS oracle on
# a small torus. Part of `check`.
break-smoke:
	dune exec --profile release bench/break_bench.exe -- --quick

# Domain-parallel routing pipeline benchmark (DESIGN.md §12, §15).
# Writes bench_results/routing_parallel.json with sequential vs parallel
# SSSP + cycle-breaking times, per-stage (snapshot/compute) splits, and
# a per-kernel comparison (heap vs bucket vs incremental). Enforced
# gates: parallel SSSP >= 1.0x sequential on every topology, bucket
# >= 1.3x heap on the bucket-gated rows, and the default (Auto) kernel
# within 5% of the fastest. The legacy >= 2x pipeline speedup gate is
# enforced only when >= 4 hardware domains are available, and recorded
# as skipped in the JSON otherwise.
bench-routing:
	dune exec --profile release bench/routing_bench.exe

# Quick kernel-equivalence mode of the same binary (no timing, < 1s):
# routes two small fixtures under every kernel and fails unless tables
# and final weights match the heap oracle bit-for-bit. Part of `check`.
kernel-equivalence:
	dune exec --profile release bench/routing_bench.exe -- --equivalence

# Controller-service throughput/latency gate (DESIGN.md §14). Starts a
# real server in-process and hammers it with 16 client threads under
# topology churn; writes bench_results/service_latency.json. The first
# run records its qps as the baseline; later runs fail below 40% of it.
bench-service:
	dune exec --profile release bench/service_bench.exe

# Daemon smoke test: start `fabric_tool serve` as a real separate
# process, query it over the socket with `fabric_tool client`, apply an
# event, and shut it down cleanly. Guards the ends the in-process soak
# test cannot see: CLI wiring, signal/exit paths, socket unlinking.
# The second case sends SIGTERM while an event is being applied (a
# failing full recompute on torus:8x8:4, once the stats op shows the
# event handed to the control domain): the daemon must still answer the
# event, exit 0 and unlink its socket.
smoke-service:
	@set -e; \
	sock=$$(mktemp -u /tmp/fabsvc_smoke_XXXXXX.sock); \
	dune exec bin/fabric_tool.exe -- serve torus:4x4 --socket $$sock & \
	pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true; rm -f $$sock' EXIT; \
	for i in $$(seq 1 100); do [ -S $$sock ] && break; sleep 0.05; done; \
	[ -S $$sock ] || { echo "smoke-service: daemon never bound $$sock"; exit 1; }; \
	dune exec bin/fabric_tool.exe -- client --socket $$sock ping; \
	dune exec bin/fabric_tool.exe -- client --socket $$sock route 16 31; \
	dune exec bin/fabric_tool.exe -- client --socket $$sock event down 3; \
	dune exec bin/fabric_tool.exe -- client --socket $$sock route 16 31; \
	dune exec bin/fabric_tool.exe -- client --socket $$sock shutdown; \
	wait $$pid; \
	[ ! -e $$sock ] || { echo "smoke-service: socket not unlinked at shutdown"; exit 1; }; \
	trap - EXIT; \
	dune build bin/fabric_tool.exe; \
	tool=_build/default/bin/fabric_tool.exe; \
	sock=$$(mktemp -u /tmp/fabsvc_smoke_XXXXXX.sock); \
	out=$$(mktemp /tmp/fabsvc_smoke_XXXXXX.out); \
	$$tool serve torus:8x8:4 --socket $$sock > /dev/null & \
	pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true; rm -f $$sock $$out' EXIT; \
	for i in $$(seq 1 200); do [ -S $$sock ] && break; sleep 0.05; done; \
	[ -S $$sock ] || { echo "smoke-service: daemon never bound $$sock"; exit 1; }; \
	$$tool client --socket $$sock event down 290 > $$out & \
	cpid=$$!; \
	for i in $$(seq 1 200); do \
	  $$tool client --socket $$sock stats | grep -q '"service.event_batches":{[^}]*"value":1' && break; \
	  sleep 0.01; \
	done; \
	[ ! -s $$out ] || { echo "smoke-service: the event was answered before SIGTERM"; exit 1; }; \
	kill -TERM $$pid; \
	wait $$pid || { echo "smoke-service: daemon exited non-zero on SIGTERM mid-event"; exit 1; }; \
	wait $$cpid || { echo "smoke-service: the in-flight event got no reply"; exit 1; }; \
	grep -q '^down 290: ' $$out || { echo "smoke-service: unexpected event reply: $$(cat $$out)"; exit 1; }; \
	[ ! -e $$sock ] || { echo "smoke-service: socket not unlinked after SIGTERM"; exit 1; }; \
	rm -f $$out; \
	trap - EXIT; \
	echo "smoke-service: OK"

# Line-coverage report (doc/observability.md). Every library carries the
# (instrumentation (backend bisect_ppx)) stanza, which is inert unless
# dune is invoked with --instrument-with; the target is skipped cleanly
# when bisect_ppx is not installed (it is not baked into the CI image).
# Enforces a >= 80% floor on lib/obs.
coverage:
	@if ocamlfind query bisect_ppx >/dev/null 2>&1; then \
	  rm -rf _coverage && mkdir -p _coverage; \
	  BISECT_FILE=$$(pwd)/_coverage/bisect dune runtest --force --instrument-with bisect_ppx && \
	  bisect-ppx-report summary --coverage-path _coverage --per-file > _coverage/summary.txt && \
	  cat _coverage/summary.txt && \
	  obs=$$(awk '/lib\/obs\// {gsub(/%/,"",$$1); sum+=$$1; n+=1} END {if (n>0) printf "%.1f", sum/n; else print "0"}' _coverage/summary.txt); \
	  echo "lib/obs mean line coverage: $$obs% (floor: 80%)"; \
	  awk -v v="$$obs" 'BEGIN { exit (v+0 >= 80.0) ? 0 : 1 }' || \
	    { echo "coverage: lib/obs below the 80% floor"; exit 1; }; \
	else \
	  echo "coverage: bisect_ppx not installed; skipping (opam install bisect_ppx)"; \
	fi

doc:
	dune build @doc

clean:
	dune clean
