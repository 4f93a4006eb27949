#!/usr/bin/env sh
# Reproduce the desk-scale study ladders into ./results/.
# Pass --paper-scale to append the full-size rungs (slow, large memory).
set -eu

OUT=${OUT:-results}
mkdir -p "$OUT"
EXTRA="${1:-}"

for family in constant fractional peridynamic; do
    python3 -m nlfeti.cli study --out "$OUT/fixed_horizon_$family.csv" \
        --set study=fixed_horizon --set kernel.family="$family" \
        --set kernel.delta=0.0625 --set partition.k1=2 --set partition.k2=2 \
        --set solver=both $EXTRA
done

for family in constant fractional peridynamic; do
    python3 -m nlfeti.cli study --out "$OUT/fixed_ratio_$family.csv" \
        --set study=fixed_ratio --set kernel.family="$family" \
        --set solver=both $EXTRA
done

python3 -m nlfeti.cli study --out "$OUT/strong_scaling_constant.csv" \
    --set study=strong_scaling --set kernel.family=constant \
    --set kernel.delta=0.0625 --set mesh.n=32 $EXTRA

echo "reports written to $OUT/"
