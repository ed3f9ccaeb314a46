# Developer entry points. The offline environment lacks the `wheel`
# package, so `install` uses the legacy setuptools path.

.PHONY: install test test-faults lint typecheck loc trace-demo serve-demo soak-smoke bench bench-pytest bench-slab-smoke bench-serve-scaling examples figures all clean

install:
	python setup.py develop

test:
	pytest tests/

# The repo's own AST lint: determinism, atomic I/O, exception
# discipline, float equality, telemetry taxonomy, annotation coverage
# (see DESIGN.md §8), plus the project-level interprocedural passes
# (DUR/SEQ/FRK/RES, §8.8) which ride along automatically.  Exits
# non-zero on any finding not grandfathered in lint-baseline.json.
lint:
	PYTHONPATH=src python -m repro.analysis

# Lines of Python under src/repro: the count ROADMAP.md and CHANGES.md
# quote, so every change measures it the same way.
loc:
	@find src/repro -name '*.py' | xargs cat | wc -l

# Gradual strict typing gate over the fully annotated packages
# (configured under [tool.mypy] in pyproject.toml).  Requires mypy;
# the offline container enforces the annotation half via `make lint`
# (rule TYP001) instead.
typecheck:
	mypy --config-file pyproject.toml

# The resilience suite under -W error: injected worker crashes, torn
# checkpoint/snapshot files, interrupted-sweep resume, the serve
# checkpoint's commit protocol, I/O retries and crash/corruption resume,
# hostile recorded-stream input, journals restored as open-window
# unions, and served output against the oracle after a resume.
test-faults:
	PYTHONPATH=src python -m pytest tests/runtime \
		tests/serve/test_checkpoint.py tests/serve/test_checkpoint_io.py \
		tests/serve/test_resume.py tests/serve/test_record_replay.py \
		tests/serve/test_batch_ingest.py tests/serve/test_parity.py \
		-q -W error

# End-to-end telemetry demo: a verbose, traced, checkpointed figure1
# run (sharded fit + manifest), then the span-summary table.
trace-demo:
	mkdir -p trace-demo
	PYTHONPATH=src python -m repro.cli -v \
		--trace-out trace-demo/trace.jsonl \
		--metrics-out trace-demo/metrics.json \
		--loyal 20 --churners 20 \
		figure1 --n-jobs 2 --checkpoint-dir trace-demo/ckpt
	PYTHONPATH=src python -m repro.cli obs summarize trace-demo/trace.jsonl

# Streaming-serving demo: record a synthetic basket stream, serve it in
# two interrupted legs (mid-run stop + checkpoint resume), prove the
# final scores bit-identical to the offline batch sweep, then show the
# run manifest location.  See DESIGN.md §10.
serve-demo:
	mkdir -p serve-demo
	PYTHONPATH=src python -m repro.cli --loyal 25 --churners 25 \
		record --out serve-demo/stream.jsonl
	PYTHONPATH=src python -m repro.cli -v serve serve-demo/stream.jsonl \
		--checkpoint-dir serve-demo/ckpt --batch-size 400 --n-shards 2 \
		--no-api --max-batches 3; test $$? -eq 3
	PYTHONPATH=src python -m repro.cli -v serve serve-demo/stream.jsonl \
		--checkpoint-dir serve-demo/ckpt --batch-size 400 --n-shards 2 \
		--no-api --parity-check
	@echo "run manifest: serve-demo/ckpt/manifest.json"

# Chaos soak smoke: record a 500-customer stream, replay it against the
# serving layer for ~60s of wall clock while the smoke schedule injects
# one fault per site (torn cursor, kill/resume, checkpoint-I/O error,
# torn state), verify recovery + offline parity after each, enforce the
# p99 latency SLO, and refresh the soak scenario of BENCH_serve.json.
# Exits non-zero on any violation.  See DESIGN.md §11.
soak-smoke:
	mkdir -p soak-smoke
	PYTHONPATH=src python -m repro.cli --loyal 250 --churners 250 \
		record --out soak-smoke/stream.jsonl
	PYTHONPATH=src python -m repro.cli -v \
		--metrics-out soak-smoke/metrics.json \
		soak soak-smoke/stream.jsonl --workdir soak-smoke/run \
		--chaos smoke --duration 60 --batch-size 2000 --n-shards 2 \
		--slo-p99-ms 30000 --min-throughput 50 \
		--flight-dir soak-smoke/flight \
		--metrics-stream-out soak-smoke/live.jsonl \
		--pin-telemetry-overhead \
		--bench-out BENCH_serve.json
	@echo "live snapshots: soak-smoke/live.jsonl (view: repro-attrition obs tail)"
	@echo "flight artifacts: soak-smoke/flight/"

bench:
	PYTHONPATH=src python -m repro.cli bench --json BENCH_scaling.json

bench-pytest:
	pytest benchmarks/ --benchmark-only

# Fast out-of-core smoke cell: 1k customers, mmap-vs-in-RAM differential
# plus an absolute traced-peak budget (also the CI bench-smoke job).
bench-slab-smoke:
	REPRO_SLAB_SIZES=1000 REPRO_SLAB_PEAK_BUDGET_MB=256 \
		pytest benchmarks/bench_slab_grid.py --benchmark-only -q

# Population scaling of the serving path: serve 500- and 2,000-customer
# paper streams (batch 256, 1 shard, serial), check offline parity at
# both, and fail when the larger costs over 2x per basket.  Refreshes the
# population_scaling scenario of BENCH_serve.json.
bench-serve-scaling:
	PYTHONPATH=src pytest benchmarks/bench_serve_scaling.py --benchmark-only -q

examples:
	@for script in examples/*.py; do \
		echo "== $$script"; \
		PYTHONPATH=src python $$script > /dev/null || exit 1; \
	done
	@echo "all examples ran cleanly"

figures:
	python -m repro.cli figure1
	python -m repro.cli figure2
	python -m repro.cli stats

all: test bench

clean:
	rm -rf build src/repro.egg-info benchmarks/output trace-demo serve-demo .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
