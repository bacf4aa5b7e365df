#!/usr/bin/env bash
# CI gate: formatting, lints, the full test suite, and a validation smoke
# campaign. Any failure (including an oracle violation in the campaign)
# fails the script.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy -p cpa-analysis --all-targets -- -D warnings (engine gate)"
cargo clippy -p cpa-analysis --all-targets -- -D warnings

echo "==> cargo clippy -p cpa-sim --all-targets -- -D warnings (sim fast-path gate)"
cargo clippy -p cpa-sim --all-targets -- -D warnings

echo "==> cargo clippy -p cpa-pool --all-targets -- -D warnings (worker pool gate)"
cargo clippy -p cpa-pool --all-targets -- -D warnings

echo "==> cargo clippy -p cpa-optimize --all-targets -- -D warnings (optimizer gate)"
cargo clippy -p cpa-optimize --all-targets -- -D warnings

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "==> cargo test -q"
cargo test -q

echo "==> engine_equivalence smoke (engine vs literal spec, all policy x mode combos)"
cargo test -q -p cpa-analysis --release --test engine_equivalence

echo "==> scratch_reuse smoke (reused scratch vs fresh scratch, all policy x mode combos)"
cargo test -q -p cpa-analysis --release --test scratch_reuse

echo "==> skip_equivalence smoke (event-skipping sim vs cycle-stepped reference)"
cargo test -q -p cpa-sim --release --test skip_equivalence

echo "==> cpa-validate smoke campaign (100 sets, quick profile)"
cargo run --release -p cpa-validate -- run --sets 100 --quick --no-progress \
  --metrics validate-metrics.json

echo "==> cpa-trace smoke (analyze + sim + sweep + optimize)"
cargo run --release -p cpa-validate --bin cpa-trace -- analyze --seed 7 --json > /dev/null
cargo run --release -p cpa-validate --bin cpa-trace -- sim --seed 7 --horizon 200000 > /dev/null
cargo run --release -p cpa-validate --bin cpa-trace -- sweep --seed 7 --sets 16 --json > /dev/null
cargo run --release -p cpa-validate --bin cpa-trace -- optimize --seed 7 --sets 3 \
  --tasks-per-core 3 --util 0.5 --json > /dev/null

echo "==> optimizer determinism smoke (exhaustive-vs-local agreement, thread invariance)"
cargo test -q -p cpa-optimize --release --test optimizer_determinism

echo "==> cpa-optimize service smoke (1-vs-4 threads byte-compared, 100% cache hits, 4 x 5 under every bus)"
rm -rf ci-opt && mkdir ci-opt
cargo run --release -p cpa-optimize -- gen --sets 3 --seed 42 --cores 2 \
  --tasks-per-core 3 --cache-sets 32 --util 0.5 --toy --out ci-opt/batch.json
cargo run --release -p cpa-optimize -- run --requests ci-opt/batch.json --threads 1 \
  --cache ci-opt/cache1 --out ci-opt/t1.json --stats ci-opt/cold.json 2> /dev/null
cargo run --release -p cpa-optimize -- run --requests ci-opt/batch.json --threads 4 \
  --cache ci-opt/cache4 --out ci-opt/t4.json 2> /dev/null
diff ci-opt/t1.json ci-opt/t4.json
cargo run --release -p cpa-optimize -- run --requests ci-opt/batch.json --threads 4 \
  --cache ci-opt/cache1 --out ci-opt/warm.json --stats ci-opt/warm-stats.json 2> /dev/null
diff ci-opt/t1.json ci-opt/warm.json
grep -q '"cache_hits":3' ci-opt/warm-stats.json
grep -q '"cache_misses":0' ci-opt/warm-stats.json
grep -q '"strictly_improved":[1-9]' ci-opt/cold.json
# Paper-scale 4 x 5 requests take the local-search path, so Audsley
# seeding runs under every bus policy; 1-vs-4 threads byte-compared.
for bus in fp rr tdma perfect; do
  cargo run --release -p cpa-optimize -- gen --sets 2 --seed 42 --cores 4 \
    --tasks-per-core 5 --util 0.3 --bus "$bus" --toy --out "ci-opt/$bus.json"
  for threads in 1 4; do
    cargo run --release -p cpa-optimize -- run --requests "ci-opt/$bus.json" \
      --threads "$threads" --out "ci-opt/$bus-t$threads.json" 2> /dev/null
  done
  diff "ci-opt/$bus-t1.json" "ci-opt/$bus-t4.json"
  grep -q '"strategy":"local-search"' "ci-opt/$bus-t1.json"
done
rm -rf ci-opt

echo "==> 1-vs-N worker determinism smoke (shared-population drivers, byte-compared CSVs)"
rm -rf ci-threads-1 ci-threads-4
cargo run --release -p cpa-experiments --bin run_experiments -- \
  --quick --threads 1 --out ci-threads-1 fig2 fig3b fig3d ablation gain > /dev/null
cargo run --release -p cpa-experiments --bin run_experiments -- \
  --quick --threads 4 --out ci-threads-4 fig2 fig3b fig3d ablation gain > /dev/null
diff -r ci-threads-1 ci-threads-4
rm -rf ci-threads-1 ci-threads-4

echo "==> perfbench floor (5 s per workload: outputs correct, items_per_s >= (1 - 0.25) x results/perfbench_floor.json)"
for workload in reproduce_paper optimize_mixed; do
  result=$(cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
    --workload "$workload" --seed 1 --seconds 5 --trace 0 | tail -n 1)
  echo "$result"
  echo "$result" | grep -q '"correct": true'
  rate=$(echo "$result" | sed -n 's/.*"items_per_s": {"value": \([0-9.e+-]*\).*/\1/p')
  reference=$(sed -n "s/.*\"$workload\": \([0-9.]*\).*/\1/p" results/perfbench_floor.json)
  awk -v rate="$rate" -v reference="$reference" -v w="$workload" 'BEGIN {
    floor = reference * (1 - 0.25)
    printf "%s: %.1f items/s, floor %.1f\n", w, rate, floor
    exit !(rate >= floor)
  }'
done

echo "==> obs overhead guard (<2% on analysis_micro, emits BENCH_obs.json)"
cargo run --release -p cpa-experiments --bin obs_overhead

echo "==> sim engine bench (>=5x on campaign mix, emits BENCH_sim.json)"
cargo bench -p cpa-bench --bench sim_engine

echo "==> optimizer bench (weak dominance + strict improvement, emits BENCH_optimize.json)"
cargo bench -p cpa-bench --bench optimize

echo "==> telemetry export smoke (chrome + openmetrics, 1-vs-4 threads byte-compared)"
rm -rf ci-telemetry && mkdir ci-telemetry
cargo run --release -p cpa-validate --bin cpa-trace -- sweep --seed 7 --sets 8 \
  --threads 1 --export chrome > ci-telemetry/chrome-t1.json
cargo run --release -p cpa-validate --bin cpa-trace -- sweep --seed 7 --sets 8 \
  --threads 4 --export chrome > ci-telemetry/chrome-t4.json
diff ci-telemetry/chrome-t1.json ci-telemetry/chrome-t4.json
grep -q '"traceEvents"' ci-telemetry/chrome-t1.json
cargo run --release -p cpa-validate --bin cpa-trace -- sweep --seed 7 --sets 8 \
  --threads 1 --export openmetrics > ci-telemetry/om-t1.txt
cargo run --release -p cpa-validate --bin cpa-trace -- sweep --seed 7 --sets 8 \
  --threads 4 --export openmetrics > ci-telemetry/om-t4.txt
diff ci-telemetry/om-t1.txt ci-telemetry/om-t4.txt
grep -q '^# EOF$' ci-telemetry/om-t1.txt
grep -q '^engine_tasks_solved_total ' ci-telemetry/om-t1.txt

echo "==> bench trajectory gate (real suite vs checked-in baseline, exit 0 expected)"
cargo run --release -p cpa-validate --bin cpa-trace -- bench diff \
  --baseline results/bench_baseline.jsonl \
  --current BENCH_obs.json --current BENCH_sim.json --current BENCH_optimize.json

echo "==> speedup floors (declarative --min-speedup from the appended history)"
cargo run --release -p cpa-validate --bin cpa-trace -- bench diff \
  --baseline results/bench_baseline.jsonl --current results/bench_history.jsonl \
  --min-speedup optimize_speedup=2.5 > /dev/null

echo "==> bench trajectory gate negative test (injected regression must exit 1)"
cat > ci-telemetry/regressed.jsonl << 'JSON'
{"schema":1,"bench":"sim_engine","workload":"campaign_mix","git_rev":"injected","date":"2026-01-01","config":{},"metrics":{},"throughput":{"campaign_mix_speedup":1.0},"gates":[]}
JSON
set +e
cargo run --release -p cpa-validate --bin cpa-trace -- bench diff \
  --baseline ci-telemetry/regressed.jsonl --current BENCH_sim.json > /dev/null
improved_rc=$?
cargo run --release -p cpa-validate --bin cpa-trace -- bench diff \
  --baseline results/bench_baseline.jsonl --current ci-telemetry/regressed.jsonl \
  > ci-telemetry/regressed-diff.txt
regressed_rc=$?
set -e
[ "$improved_rc" -eq 0 ] || { echo "improvement should pass, got exit $improved_rc"; exit 1; }
[ "$regressed_rc" -eq 1 ] || { echo "injected regression should exit 1, got $regressed_rc"; exit 1; }
grep -q 'REGRESSED' ci-telemetry/regressed-diff.txt
rm -rf ci-telemetry

echo "==> ci.sh: all green"
