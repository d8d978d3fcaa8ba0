#!/usr/bin/env bash
# Regenerates every committed golden under tests/golden/ after an
# *intentional* semantics change. Run from anywhere; writes in-repo.
#
#   scripts/refresh-goldens.sh            # paper presets, doze + zoo schemes (~30 s)
#   scripts/refresh-goldens.sh --scale    # also giga/tera smoke + counters (~5 min)
#
# Review the resulting diff before committing: every changed golden is a
# claim that the simulation's bytes were *meant* to move.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -p insomnia-scenarios

# The six shards=1 paper presets (schemes no-sleep,soi,bh2, --quick).
for s in paper-default dense-urban rural-sparse flash-crowd \
         weekend-diurnal no-wireless-sharing; do
  ./target/release/insomnia run --scenario "$s" \
    --schemes no-sleep,soi,bh2 --seeds 1 --quick \
    --out "tests/golden/$s.jsonl"
done

# The doze sleep policies on paper-default (same recipe).
./target/release/insomnia run --scenario paper-default \
  --schemes multi-doze,adaptive-soi --seeds 1 --quick \
  --out tests/golden/paper-default-doze.jsonl

# The five schemes no other golden runs (k-switch and full-switch fabrics,
# BH2 without a backup, Optimal), plus the work counters of all ten
# schemes on the same command.
./target/release/insomnia run --scenario paper-default \
  --schemes soi+k,soi+full,bh2-nb,bh2+full,optimal --seeds 1 --quick \
  --out tests/golden/paper-default-zoo.jsonl
./target/release/insomnia run --scenario paper-default \
  --schemes no-sleep,soi,soi+k,soi+full,bh2,bh2-nb,bh2+full,optimal,multi-doze,adaptive-soi \
  --seeds 1 --quick --telemetry /tmp/paper-default-zoo.telemetry.jsonl \
  --out /dev/null
./target/release/insomnia profile --counters \
  /tmp/paper-default-zoo.telemetry.jsonl \
  > tests/golden/paper-default-zoo.counters.json

# Optimal where its search runs out of nodes: the binomial topology's
# morning ramp, one repetition.
./target/release/insomnia run --scenario paper-default \
  --schemes optimal --seeds 1 --quick --set topology=binomial \
  --set repetitions=1 --set horizon_hours=16.0 \
  --out tests/golden/paper-default-binomial-optimal.jsonl

# The scale smokes CI replays (reduced horizons; deterministic at any
# thread count, so no --threads pin is needed).
if [[ "${1:-}" == "--scale" ]]; then
  ./target/release/insomnia run --scenario giga-metro \
    --schemes soi --seeds 1 --set horizon_hours=2.0 \
    --telemetry /tmp/giga-metro.telemetry.jsonl \
    --out tests/golden/giga-metro-smoke.jsonl
  ./target/release/insomnia profile --counters \
    /tmp/giga-metro.telemetry.jsonl \
    > tests/golden/giga-metro-smoke.counters.json

  ./target/release/insomnia run --scenario tera-metro \
    --schemes soi --seeds 1 --set horizon_hours=0.5 \
    --telemetry /tmp/tera-metro.telemetry.jsonl \
    --out tests/golden/tera-metro-smoke.jsonl
  ./target/release/insomnia profile --counters \
    /tmp/tera-metro.telemetry.jsonl \
    > tests/golden/tera-metro-smoke.counters.json
fi

git status --short tests/golden/
