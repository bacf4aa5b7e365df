#!/usr/bin/env bash
# CI gate: formatting, lints, the full test suite, and a validation smoke
# campaign. Any failure (including an oracle violation in the campaign)
# fails the script.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "==> cargo test -q"
cargo test -q

# perfbench/ is a workspace of its own: the root fmt, clippy and test
# steps above never enter it. `--locked` makes a dependency-edge change in
# any crate it builds fail here instead of rewriting perfbench/Cargo.lock.
echo "==> perfbench: cargo fmt --check"
cargo fmt --check --manifest-path perfbench/Cargo.toml

echo "==> perfbench: cargo clippy --all-targets -- -D warnings"
cargo clippy --locked --offline --manifest-path perfbench/Cargo.toml --all-targets -- -D warnings

echo "==> perfbench: cargo test --release"
cargo test --locked --offline --release --manifest-path perfbench/Cargo.toml

echo "==> engine_equivalence smoke (engine vs literal spec, all policy x mode combos)"
cargo test -q -p cpa-analysis --release --test engine_equivalence

echo "==> saturation smoke (engine vs literal spec near u64::MAX, release arithmetic)"
cargo test -q -p cpa-analysis --release --test saturation

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

echo "==> optimizer determinism smoke (exhaustive-vs-local agreement, thread invariance, panel gates)"
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

echo "==> perfbench floor (5 s per workload: outputs correct, digest and items_per_s >= (1 - 0.25) x results/perfbench_floor.json)"
for workload in reproduce_paper optimize_mixed; do
  record=$(cargo run --locked --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
    --workload "$workload" --seed 1 --seconds 5 --trace 0)
  result=$(echo "$record" | tail -n 1)
  echo "$result"
  echo "$result" | grep -q '"correct": true'
  digest=$(echo "$record" | head -n 1 | sed -n 's/.*"digest": "\([0-9a-f]*\)".*/\1/p')
  golden=$(sed -n "s/.*\"$workload\": \"\([0-9a-f]*\)\".*/\1/p" results/perfbench_floor.json)
  echo "$workload: digest $digest, golden $golden"
  test "${digest:-missing}" = "$golden"
  rate=$(echo "$result" | sed -n 's/.*"items_per_s": {"value": \([0-9.e+-]*\).*/\1/p')
  reference=$(sed -n "s/.*\"$workload\": \([0-9][0-9.]*\).*/\1/p" results/perfbench_floor.json)
  awk -v rate="$rate" -v reference="$reference" -v w="$workload" 'BEGIN {
    floor = reference * (1 - 0.25)
    printf "%s: %.1f items/s, floor %.1f\n", w, rate, floor
    exit !(rate >= floor)
  }'
done

echo "==> obs overhead guard (disabled subscriber <2% of analysis_micro)"
cargo run --release -p cpa-experiments --bin obs_overhead

echo "==> obs overhead guard can fail (--budget 0 must exit 1)"
set +e
cargo run --release -p cpa-experiments --bin obs_overhead -- --budget 0 > /dev/null 2>&1
zero_budget_rc=$?
set -e
[ "$zero_budget_rc" -eq 1 ] || { echo "obs_overhead --budget 0 should exit 1, got $zero_budget_rc"; exit 1; }

echo "==> sim speedup guard (fast == reference reports, >=5x on the campaign mix)"
cargo run --release -p cpa-validate --bin sim_speedup

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
rm -rf ci-telemetry

echo "==> ci.sh: all green"
