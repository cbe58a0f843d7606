#!/bin/sh
# Fidelity smoke for the approximate search tiers: sample a balanced
# 128x800 = 102400-document corpus from the paper's probabilistic model
# with corpusgen, index it with one tier, and gate recall@10 against the
# exact scan plus the tier being faster than the exact scan — at
# m >= 100k documents, the scale where sublinear candidate work and the
# int8 bandwidth saving must show up as wall clock. fidelity does the
# measurement and exits non-zero when a gate trips. CI runs this via
# `make ann-smoke` and `make quant-smoke`; binary paths come in as $1
# (corpusgen) and $2 (fidelity), the tier as $3.
#
#   ann:  rank 32, nlist 128, recall@10 >= 0.95 at nprobe 8; summary in
#         ann-smoke.json.
#   int8: rank 64, beta 64, recall@10 (the top-10 overlap) >= 0.99;
#         summary in quant-smoke.json. The corpus has 800 near-duplicate
#         documents per topic, so hundreds sit inside the int8
#         quantization error band around the top-10 boundary; beta 64
#         (rerank 640 of 102400, 0.6%) is where overlap crosses 0.999 on
#         this shape while the two-stage path stays ~8x faster than the
#         float scan (AVX2 kernel; see EXPERIMENTS.md).
set -eu

USAGE="usage: fidelity_smoke.sh path/to/corpusgen path/to/fidelity ann|int8"
CORPUSGEN="${1:?$USAGE}"
FIDELITY="${2:?$USAGE}"
TIER="${3:?$USAGE}"

case "$TIER" in
ann)
    OUT=ann-smoke.json
    set -- -rank 32 -nlist 128 -nprobe 8 -min-recall 0.95
    SHAPE='"nprobe": 8'
    ;;
int8)
    OUT=quant-smoke.json
    set -- -rank 64 -beta 64 -min-recall 0.99
    SHAPE='"beta": 64'
    ;;
*)
    echo "$USAGE" >&2
    exit 2
    ;;
esac

CORPUS="$(mktemp)"
trap 'rm -f "$CORPUS"' EXIT INT TERM

echo "$TIER fidelity smoke: sampling 128x800 balanced corpus"
"$CORPUSGEN" -topics 128 -docs-per-topic 800 \
    -terms-per-topic 25 -eps 0.1 -seed 1 -o "$CORPUS"

"$FIDELITY" -tier "$TIER" -corpus "$CORPUS" "$@" \
    -topn 10 -queries 200 -seed 1 -min-speedup 1.0 -o "$OUT" \
    || { echo "$TIER fidelity smoke FAILED: recall/speedup gate tripped" >&2; cat "$OUT" >&2 || true; exit 1; }
cat "$OUT"

# Belt and braces on the summary shape: the gates above only bind if
# fidelity measured what this script thinks it measured.
for field in "$SHAPE" '"recall"' '"speedup"'; do
    grep -q "$field" "$OUT" || { echo "$TIER fidelity smoke FAILED: summary lacks $field" >&2; exit 1; }
done

echo "$TIER fidelity smoke: OK"
