# Convenience targets for the DREP reproduction.

PYTHON ?= python

.PHONY: install test bench bench-smoke sweep-smoke serve-smoke serve-state-smoke faults-smoke shard-smoke autoscale-smoke stream-smoke scaling-smoke perfbench-selftest figures report examples clean

install:
	pip install -e '.[test]'

test:
	$(PYTHON) -m pytest tests/

test-log:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

bench-smoke:
	REPRO_BENCH_SCALE=0.05 $(PYTHON) -m pytest benchmarks/ --benchmark-only

# run a small experiment grid serially and through the process pool and
# require byte-identical rows (the grid runner's determinism contract)
sweep-smoke:
	PYTHONPATH=src $(PYTHON) scripts/sweep_smoke.py

# boot a live server, push 100 jobs through it, verify the drained flow
# times against offline flowsim.simulate, then tear the server down
serve-smoke:
	@PYTHONPATH=src $(PYTHON) -m repro.cli serve --m 4 --port 8399 & \
	SERVER_PID=$$!; \
	trap 'kill $$SERVER_PID 2>/dev/null' EXIT; \
	sleep 2; \
	PYTHONPATH=src $(PYTHON) -m repro.cli loadgen \
		--port 8399 --n-jobs 100 --load 0.7 --verify

# serve 10^5 jobs through a journaled scheduler and require snapshot
# bytes and p99 request wall time at 10^5 served to stay within 1.25x
# of their values at 10^4 (state bounded by active work, not uptime)
serve-state-smoke:
	$(PYTHON) scripts/serve_state_smoke.py

# kill -9 a journaled server mid-load, restart it, and require the
# recovered flow times to equal an uninterrupted run bit-for-bit; then
# exercise the fault-injection CLI
faults-smoke:
	$(PYTHON) scripts/faults_smoke.py

# route a skewed 3-tenant workload through a router over 2 subprocess
# shards with DRF admission: no tenant may starve, only dominance is
# punished, and two identical runs must merge to byte-identical reports
shard-smoke:
	$(PYTHON) scripts/shard_smoke.py

# same-seed closed-loop elastic runs must be byte-identical with zero
# unaccounted displaced work; an idle elastic server must scale itself
# down at exact tick boundaries; the Pareto-report CLI must run clean
autoscale-smoke:
	$(PYTHON) scripts/autoscale_smoke.py

# push 100k generated jobs through simulate_stream with the trace never
# materialized and require peak RSS to stay under a flat ceiling; then
# spot-check the wsim streaming driver and the SWF-replay CLI
stream-smoke:
	$(PYTHON) scripts/stream_smoke.py

# fit the per-event scaling exponent over a 10^2 -> 10^4 staircase
# ladder on the incremental order/calendar kernels and fail if any
# policy's slope breaches its bound (SRPT/SJF/FIFO < 0.5; LAPS < 0.85,
# its served set is Theta(beta*n) by definition)
scaling-smoke:
	$(PYTHON) scripts/scaling_smoke.py

# self-test of the repo benchmark (perfbench/): the workloads run at
# tiny size, their reference rows and metric definitions are checked
perfbench-selftest:
	$(PYTHON) -m pytest perfbench/test_perfbench.py -q

figures:
	$(PYTHON) -m repro.cli figures

report:
	$(PYTHON) -m repro.cli report --out report.md

examples:
	@for ex in examples/*.py; do echo "== $$ex"; $(PYTHON) $$ex; done

clean:
	rm -rf .pytest_cache .hypothesis .benchmarks results/*.svg report.md
