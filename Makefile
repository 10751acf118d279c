# Convenience entry points.  Everything assumes the src/ layout:
# PYTHONPATH=src python -m pytest ...
PY      ?= python
PYTEST  = PYTHONPATH=src $(PY) -m pytest

.PHONY: test lint bench bench-smoke bench-engine bench-core \
	bench-core-check bench-work bench-work-check bench-trajectory \
	bench-e2e-smoke fault-smoke resume-smoke design-smoke \
	campaign-chaos-smoke service-smoke service-chaos-smoke \
	cluster-chaos-smoke clean-cache clean-state verify-smoke \
	verify-full goldens table-goldens

test:            ## tier-1 test suite
	$(PYTEST)

lint:            ## ruff checks (skipped with a notice if ruff is absent)
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples; \
	else \
		echo "lint: ruff not installed; skipping (CI enforces it)"; \
	fi

bench:           ## full experiment benchmarks (slow)
	$(PYTEST) benchmarks/ --benchmark-only

bench-smoke:     ## quick engine sanity: serial vs parallel vs warm cache
	REPRO_BENCH_SCALE=0.25 $(PYTEST) benchmarks/bench_engine.py \
		--benchmark-only

bench-engine:    ## engine benchmarks at the default scale
	$(PYTEST) benchmarks/bench_engine.py --benchmark-only

bench-core:      ## re-baseline BENCH_core.json: object vs vector wall-clock
	PYTHONPATH=src $(PY) benchmarks/bench_core.py --out BENCH_core.json

bench-core-check: ## assert backend parity + no >20% speedup regression
	PYTHONPATH=src $(PY) benchmarks/bench_core.py --repeats 2 \
		--check BENCH_core.json

bench-work:      ## re-record BENCH_work.json: exact simulator work counters at the golden seed
	$(PY) benchmarks/work_counts.py --out BENCH_work.json

bench-work-check: ## fail if any counter in BENCH_work.json changed (~1 min)
	$(PY) benchmarks/work_counts.py --check BENCH_work.json

bench-trajectory: ## append paired parent/change runs to BENCH_e2e.json (PARENT= CHANGE= TITLE= TIER1_S=)
	$(PY) benchmarks/trajectory.py $(PARENT) $(CHANGE) --title "$(TITLE)" \
		--tier1-s $(TIER1_S) --out BENCH_e2e.json

bench-e2e-smoke: ## end-to-end benchmark self-tests: all workloads tiny + traced (~1 min)
	$(PYTEST) benchmarks/e2e

EXP = PYTHONPATH=src $(PY) -m repro.harness.cli

fault-smoke:     ## resilience drill: injected failure + pool-crash recovery
	@out=$$($(EXP) e5 e12 --scale 0.02 --no-cache --retries 0 \
		--faults flaky:0 2>&1); \
	if [ $$? -eq 0 ]; then \
		echo "fault-smoke: injected failure should exit nonzero"; exit 1; \
	fi; \
	echo "$$out" | grep -q "Failure summary" \
		|| { echo "fault-smoke: per-job failure summary missing"; exit 1; }; \
	echo "$$out" | grep -q "E12a" \
		|| { echo "fault-smoke: partial results missing"; exit 1; }; \
	out=$$($(EXP) e5 --scale 0.02 --no-cache --jobs 2 --faults kill:0 2>&1) \
		|| { echo "fault-smoke: crash-recovery run failed"; \
		     echo "$$out"; exit 1; }; \
	echo "$$out" | grep -q "recovered by retry" \
		|| { echo "fault-smoke: killed worker was not retried"; exit 1; }; \
	echo "fault-smoke: ok (failure reported + partial results kept;" \
	     "killed worker recovered)"

SIM = PYTHONPATH=src $(PY) -m repro.harness.simcli

resume-smoke:    ## checkpoint/resume drill: mid-run kill, resume, sanitize
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	ref=$$($(SIM) kmeans --scale 0.05 --policy lcs --no-cache \
		| grep '^cycles=') \
		|| { echo "resume-smoke: reference run failed"; exit 1; }; \
	out=$$($(SIM) kmeans --scale 0.05 --policy lcs --no-cache \
		--checkpoint-interval 500 --checkpoint-dir "$$tmp/ckpt" \
		--faults kill-at:0:1500 2>&1) \
		|| { echo "resume-smoke: kill-resume run failed"; \
		     echo "$$out"; exit 1; }; \
	echo "$$out" | grep -q "resumed from cycle" \
		|| { echo "resume-smoke: run did not resume from checkpoint"; \
		     echo "$$out"; exit 1; }; \
	echo "$$out" | grep -qF "$$ref" \
		|| { echo "resume-smoke: resumed stats differ from reference"; \
		     echo "expected: $$ref"; echo "$$out"; exit 1; }; \
	if $(SIM) kmeans --scale 0.05 --policy lcs --no-cache --sanitize \
		--faults corrupt:0:1500 >/dev/null 2>&1; then \
		echo "resume-smoke: sanitizer missed injected corruption"; \
		exit 1; \
	fi; \
	echo "resume-smoke: ok (killed run resumed bitwise-identical;" \
	     "sanitizer caught injected corruption)"

design-smoke:    ## design layer drill: compile all E-designs + campaign resume
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	PYTHONPATH=src $(PY) -c "from repro.design import DesignEnv; \
	from repro.harness.experiments import EXPERIMENT_DESIGNS; \
	env = DesignEnv(scale=0.02); \
	cells = sum(len(b().compile(env)) for b in EXPERIMENT_DESIGNS.values()); \
	print(f'{len(EXPERIMENT_DESIGNS)} designs compiled, {cells} cells')" \
		|| { echo "design-smoke: E-driver design compilation failed"; \
		     exit 1; }; \
	out=$$($(EXP) --design examples/lcs_threshold.toml \
		--campaign-dir "$$tmp/camp" --no-cache 2>&1) \
		|| { echo "design-smoke: campaign run failed"; \
		     echo "$$out"; exit 1; }; \
	echo "$$out" | grep -q "7 dispatched" \
		|| { echo "design-smoke: expected 7 dispatched cells"; \
		     echo "$$out"; exit 1; }; \
	out=$$($(EXP) --design examples/lcs_threshold.toml \
		--campaign-dir "$$tmp/camp" --no-cache 2>&1) \
		|| { echo "design-smoke: campaign resume failed"; \
		     echo "$$out"; exit 1; }; \
	echo "$$out" | grep -q "0 dispatched, 7 already done" \
		|| { echo "design-smoke: resume should skip done cells"; \
		     echo "$$out"; exit 1; }; \
	echo "design-smoke: ok (all E-designs compile; campaign resumed" \
	     "without re-dispatching)"

campaign-chaos-smoke: ## durable-campaign drill: kill/restart 2 shards until bitwise convergence
	@rm -rf .repro-chaos; \
	PYTHONPATH=src $(PY) -m repro.service.chaos examples/shard_demo.toml \
		--shards 2 --min-kills 5 --seed 7 --root .repro-chaos \
		|| { echo "campaign-chaos-smoke: drill failed; journals kept" \
		     "under .repro-chaos/ for inspection"; exit 1; }; \
	rm -rf .repro-chaos; \
	echo "campaign-chaos-smoke: ok (killed workers reclaimed;" \
	     "results bitwise-identical to the unfaulted run)"

SERVE  = PYTHONPATH=src $(PY) -m repro.service.daemon
SUBMIT = PYTHONPATH=src $(PY) -m repro.service.client

service-smoke:   ## service drill: daemon + 2 clients, SIGTERM mid-flight, restart, bitwise convergence
	@rm -rf .repro-service-smoke; mkdir -p .repro-service-smoke; \
	root="$$(pwd)/.repro-service-smoke"; \
	fail() { echo "service-smoke: $$1 (state kept under" \
	         ".repro-service-smoke/ — journal.jsonl + daemon.log)"; \
	         sed -n '1,50p' "$$root/daemon.log" 2>/dev/null; exit 1; }; \
	$(SERVE) --state-dir "$$root/state" --cache-dir "$$root/cache" \
		--workers 2 >>"$$root/daemon.log" 2>&1 & pid=$$!; \
	i=0; until [ -S "$$root/state/serve.sock" ]; do \
		i=$$((i+1)); [ $$i -gt 150 ] && fail "daemon never bound"; \
		sleep 0.1; done; \
	$(SUBMIT) examples/lcs_threshold.toml --socket "$$root/state/serve.sock" \
		--scale 0.02 --tenant alice >"$$root/alice1.out" 2>&1 & c1=$$!; \
	$(SUBMIT) examples/lcs_threshold.toml --socket "$$root/state/serve.sock" \
		--scale 0.02 --tenant bob >"$$root/bob1.out" 2>&1 & c2=$$!; \
	sleep 1.2; kill -TERM $$pid; \
	wait $$pid || fail "SIGTERM drain exited nonzero"; \
	wait $$c1 2>/dev/null; wait $$c2 2>/dev/null; \
	$(SERVE) --state-dir "$$root/state" --cache-dir "$$root/cache" \
		--workers 2 >>"$$root/daemon.log" 2>&1 & pid=$$!; \
	i=0; until [ -S "$$root/state/serve.sock" ]; do \
		i=$$((i+1)); [ $$i -gt 150 ] && fail "restarted daemon never bound"; \
		sleep 0.1; done; \
	$(SUBMIT) examples/lcs_threshold.toml --socket "$$root/state/serve.sock" \
		--scale 0.02 --tenant alice >"$$root/alice2.out" 2>&1 \
		|| fail "alice resubmit after restart failed"; \
	$(SUBMIT) examples/lcs_threshold.toml --socket "$$root/state/serve.sock" \
		--scale 0.02 --tenant bob >"$$root/bob2.out" 2>&1 \
		|| fail "bob resubmit after restart failed"; \
	grep -c "cycles=" "$$root/alice2.out" | grep -qx 7 \
		|| fail "alice did not converge to 7 done cells"; \
	grep "cycles=" "$$root/alice2.out" >"$$root/alice2.rows"; \
	grep "cycles=" "$$root/bob2.out" >"$$root/bob2.rows"; \
	cmp -s "$$root/alice2.rows" "$$root/bob2.rows" \
		|| fail "alice and bob results diverge"; \
	$(SUBMIT) --socket "$$root/state/serve.sock" --drain >/dev/null 2>&1; \
	wait $$pid || fail "final drain exited nonzero"; \
	rm -rf .repro-service-smoke; \
	echo "service-smoke: ok (SIGTERM mid-flight drained clean; restart" \
	     "recovered the queue; both clients bitwise-converged)"

service-chaos-smoke: ## service chaos drill: daemon SIGKILLs, worker wedge, socket drops, 2 clients
	@rm -rf .repro-service-chaos; \
	PYTHONPATH=src $(PY) -m repro.service.chaos examples/lcs_threshold.toml \
		--service --seed 7 --root .repro-service-chaos \
		|| { echo "service-chaos-smoke: drill failed; journal +" \
		     "daemon.log kept under .repro-service-chaos/"; exit 1; }; \
	rm -rf .repro-service-chaos; \
	echo "service-chaos-smoke: ok (daemon killed/restarted; every job" \
	     "exactly-once; poison quarantined; drain clean; bitwise-identical)"

cluster-chaos-smoke: ## federation drill: 3 daemons, partition + SIGKILL, lease handoff, all-journal audit
	@rm -rf .repro-cluster-chaos; \
	PYTHONPATH=src $(PY) -m repro.service.chaos examples/lcs_threshold.toml \
		--cluster --seed 7 --root .repro-cluster-chaos \
		|| { echo "cluster-chaos-smoke: drill failed; per-daemon" \
		     "journals + logs kept under .repro-cluster-chaos/"; exit 1; }; \
	rm -rf .repro-cluster-chaos; \
	echo "cluster-chaos-smoke: ok (partitioned victim SIGKILLed; jobs" \
	     "reclaimed by survivors; effectively-once; quarantine synced" \
	     "fleet-wide; bitwise-identical)"

table-goldens:   ## regenerate goldens/tables/*.csv after intended changes
	PYTHONPATH=src $(PY) -m repro.verify.tables --update

clean-cache:     ## purge the persistent result cache
	PYTHONPATH=src $(PY) -m repro.harness.cli --clear-cache

clean-state:     ## purge cache + checkpoints + golden-store strays in one shot
	PYTHONPATH=src $(PY) -m repro.harness.cli --clean-state

VERIFY = PYTHONPATH=src $(PY) -m repro.verify.cli

verify-smoke:    ## correctness gate: smoke golden matrix + refmodel + 25 fuzz cases
	$(VERIFY) all --tier smoke --cases 25 --jobs 4 --report-dir .repro-verify

verify-full:     ## nightly-depth gate: full golden matrix + refmodel + 500 fuzz cases
	$(VERIFY) all --tier full --cases 500 --jobs 4 --report-dir .repro-verify

goldens:         ## re-baseline both golden tiers (after an INTENTIONAL model change)
	$(VERIFY) golden --tier smoke --update --jobs 4
	$(VERIFY) golden --tier full --update --jobs 4
