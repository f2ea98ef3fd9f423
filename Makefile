# Convenience targets for the k-set consensus reproduction.

PYTHON ?= python

.PHONY: install test lint bench bench-throughput bench-exhaustive figures experiments examples all clean

install:
	pip install -e .

test:
	$(PYTHON) -m pytest tests/

# ruff/mypy are optional-dependency extras ([project.optional-dependencies]
# lint); skip gracefully when absent so `make lint` works in the offline
# dev container, where only the staticcheck gate (stdlib-only) is enforced.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests; \
	else \
		echo "lint: ruff not installed, skipping (pip install -e .[lint])"; \
	fi
	@if command -v mypy >/dev/null 2>&1; then \
		mypy; \
	else \
		echo "lint: mypy not installed, skipping (pip install -e .[lint])"; \
	fi
	PYTHONPATH=src $(PYTHON) -m repro staticcheck src --strict

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-throughput:
	$(PYTHON) benchmarks/bench_sweep_throughput.py

bench-exhaustive:
	$(PYTHON) benchmarks/bench_exhaustive_explorer.py

figures:
	$(PYTHON) examples/figure_gallery.py --n 64 --outdir figures

experiments:
	$(PYTHON) -m repro.analysis.report > EXPERIMENTS.md

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/byzantine_config_rollout.py
	$(PYTHON) examples/shared_memory_shortlist.py
	$(PYTHON) examples/verification_lab.py
	$(PYTHON) examples/open_gap_expedition.py

all: install test bench

clean:
	rm -rf benchmarks/out figures .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
