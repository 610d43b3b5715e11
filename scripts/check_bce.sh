#!/usr/bin/env bash
# check_bce.sh — fail when the batched scoring kernel's inner loops compile
# with bounds checks. The multi-query kernel (ScoreRangeAbove) and its two
# leaf loops (tableMerge, the attribute merge; andCount, the bitset
# popcount) are written so the compiler can prove every per-row, per-query
# and per-element index in-bounds (sibling reslicing, uint guards, running
# offset cursors); this lint pins that property, because a single regressed
# hint silently costs double-digit percent on the hot path without failing
# any test. Used by the CI lint step and runnable locally:
#
#   ./scripts/check_bce.sh
#
# Per-row slice *headers* (IsSliceInBounds) are fine — they run once per
# aux row, not once per (query, element). Element checks (IsInBounds) in
# any file that defines one of the three functions are the regression this
# script rejects; the files are found by definition, so the lint follows
# the loops if they move.
set -euo pipefail

pkg=internal/similarity
files=""
for fn in ScoreRangeAbove tableMerge andCount; do
    def=$(grep -lE "^func (\([^)]*\) )?$fn\(" "$pkg"/*.go | grep -v '_test\.go$' || true)
    if [ "$(echo "$def" | grep -c .)" -ne 1 ]; then
        echo "check_bce: expected one definition of $fn in $pkg, found: ${def:-none}" >&2
        exit 1
    fi
    files="$files $def"
done
files=$(echo $files | tr ' ' '\n' | sort -u)

diag=$(go build -gcflags='-d=ssa/check_bce' "./$pkg/" 2>&1 || true)
bad=$(echo "$diag" | grep 'Found IsInBounds' | grep -F "$files" || true)
if [ -n "$bad" ]; then
    echo "bounds checks regressed in the batched scoring kernel:" >&2
    echo "$bad" >&2
    exit 1
fi
# Guard the guard: the diagnostics must actually be present (the package
# has known, allowed IsSliceInBounds sites), otherwise a toolchain change
# that silences -d=ssa/check_bce would make this lint pass vacuously.
if ! echo "$diag" | grep -q 'Found Is'; then
    echo "check_bce: no BCE diagnostics emitted — lint cannot verify the kernel" >&2
    echo "$diag" >&2
    exit 1
fi
echo "batched kernel: no element bounds checks in" $files
