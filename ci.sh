#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the full test suite.
# Run from the repository root: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy (warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test =="
cargo test -q

echo "== dtl-event queue + determinism properties =="
cargo test -q -p dtl-event

echo "== dtl-dram power-policy + ladder properties =="
cargo test -q -p dtl-dram

echo "== dtl-check differential harness =="
cargo test -q -p dtl-check

echo "== dtl-pool orchestration suite =="
cargo test -q -p dtl-pool

echo "== dtl-fabric interconnect suite =="
cargo test -q -p dtl-fabric

echo "== smoke suite on the parallel path (--jobs 2) =="
cargo build --release -q -p dtl-bench --bin diff_fuzz --bin fault_campaign --bin pool_scale \
    --bin policy_ablation --bin vm_campaign --bin fabric_load --bin pool_failover --bin all
timeout 30 ./target/release/diff_fuzz --smoke --jobs 2
timeout 60 ./target/release/fault_campaign --tiny --jobs 2
timeout 30 ./target/release/pool_scale --tiny --jobs 2
timeout 30 ./target/release/pool_failover --tiny --jobs 2
timeout 30 ./target/release/policy_ablation --tiny --jobs 2 > /tmp/dtl_ci_policy.txt
timeout 30 ./target/release/vm_campaign --tiny --jobs 2
timeout 30 ./target/release/vm_campaign --tiny --hosts 20 --minutes 20160 --jobs 2
timeout 30 ./target/release/fabric_load --tiny --jobs 2 > /tmp/dtl_ci_fabric.txt

echo "== policy_ablation covers every PowerPolicy impl =="
for policy in FixedThreshold AdaptiveDemotion RefreshAware; do
    grep -q "$policy" /tmp/dtl_ci_policy.txt \
      || { echo "policy_ablation matrix lost $policy"; exit 1; }
done

echo "== fabric_load sweeps both placement variants =="
for variant in pack_one_switch spread_switches; do
    grep -q "$variant" /tmp/dtl_ci_fabric.txt \
      || { echo "fabric_load sweep lost $variant"; exit 1; }
done

echo "== windowed time-series output (--timeseries-out) =="
timeout 30 ./target/release/vm_campaign --tiny --jobs 2 \
    --timeseries-out /tmp/dtl_ci_series.csv --timeseries-width-s 3600
head -1 /tmp/dtl_ci_series.csv | grep -q '^window,start_ps,end_ps,standby_ps' \
  || { echo "time-series CSV header drifted"; exit 1; }

echo "== experiment registry vs src/bin/ drift =="
diff <(./target/release/all --list | sed 's/ — .*//' | sort) \
     <(ls crates/bench/src/bin | sed 's/\.rs$//' | grep -vx all | sort) \
  || { echo "registry and crates/bench/src/bin drifted apart"; exit 1; }

echo "== one entry point per harness (no forwarding wrappers in dtl-sim) =="
# exec::run_units_traced is the engine primitive the sweeps share, not a
# harness variant.
if grep -rnE 'pub fn [a-z0-9_]+_(traced|observed)\b|pub fn (run_jobs|run_campaign_jobs|run_checks_jobs)\b' \
        crates/sim/src | grep -v 'pub fn run_units_traced\b'; then
    echo "a plain/_traced/_observed/run_jobs wrapper reappeared in crates/sim/src"
    exit 1
fi

echo "== perfbench self-tests (benchmark contract + replica-fidelity digests) =="
cargo test --release -q --manifest-path perfbench/Cargo.toml

echo "== cargo doc (warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "== telemetry overhead guard (release) =="
cargo test -p dtl-telemetry --release --test overhead_guard -q -- --ignored

echo "ci: all green"
