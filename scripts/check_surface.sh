#!/usr/bin/env bash
# check_surface.sh — fail when the exported surface of internal/ grows a
# dead name. An exported func or method defined in a non-test file under
# internal/ is dead when no non-test Go file outside benchmark/ mentions its
# name anywhere but on its own definition lines. Dead names are allowed
# only when scripts/surface_allowlist.txt lists them with a reason; an
# allowlist entry that gains a caller or no longer exists fails too, so the
# list — and the dead surface with it — can only shrink. Names tagged
# compat in scripts/benchmark_names.txt need no entry: they are forwards
# kept for the frozen benchmark alone, and TestBenchmarkNames proves the
# benchmark uses each. Used by the CI lint job and runnable locally:
#
#   ./scripts/check_surface.sh
#
# The check is by name, like the kernel call-site lint: any mention of a
# name in code (a call, a method value, a field or type sharing it, a string
# literal) counts as a caller, so the audit can miss a dead name but never
# reports a live one. Whole-line and trailing // comments are ignored.
set -euo pipefail

allow=scripts/surface_allowlist.txt
prod=$(git ls-files '*.go' | grep -v -e '_test\.go$' -e '^benchmark/')

# One "dir.[Recv.]Name" per exported definition under internal/.
defs=$(echo "$prod" | grep '^internal/' | xargs grep -HE '^func (\([^)]*\) )?[A-Z][A-Za-z0-9_]*[[(]' |
    sed -E 's#^([^:]+)/[^/:]+\.go:func (\([^)]*[ *]([A-Za-z0-9_]+)(\[[^]]*\])?\) )?([A-Za-z0-9_]+).*#\1 \3 \5#' |
    awk '{ if (NF == 3) print $1 "." $2 "." $3; else print $1 "." $2 }' | sort)

# Mentions of every identifier in code, comments stripped.
mentions=$(echo "$prod" | xargs sed -E 's#(^|[[:space:]])//.*$##' |
    grep -oE '[A-Za-z_][A-Za-z0-9_]*' | sort | uniq -c | awk '{ print $2, $1 }')

# A name is dead when all its mentions are its own definitions.
dead=$(awk 'NR == FNR { seen[$1] = $2; next }
    { k = split($0, p, "."); nm[++n] = p[k]; key[n] = $0; nd[p[k]]++ }
    END { for (i = 1; i <= n; i++) if (seen[nm[i]] <= nd[nm[i]]) print key[i] }' \
    <(echo "$mentions") <(echo "$defs") | sort)

# Drop the compat forwards: "internal/shard.Shard.TopKApprox" is listed
# as "shard.Shard.TopKApprox".
dead=$(awk 'NR == FNR { if ($2 == "compat") compat[$1] = 1; next }
    { k = $0; sub(/^([^\/.]*\/)*/, "", k); if (!(k in compat)) print }' \
    scripts/benchmark_names.txt <(echo "$dead"))

entries=$(grep -vE '^[[:space:]]*(#|$)' "$allow" || true)
listed=$(echo "$entries" | awk 'NF { print $1 }' | sort)
fail=0
if bad=$(echo "$entries" | awk 'NF == 1 { print $1 }') && [ -n "$bad" ]; then
    echo "surface_allowlist.txt entries without a reason:" >&2
    echo "$bad" >&2
    fail=1
fi
if new=$(comm -23 <(echo "$dead") <(echo "$listed")) && [ -n "$new" ]; then
    echo "exported internal/ funcs with no non-test caller (delete them, or list them with a reason in $allow):" >&2
    echo "$new" >&2
    fail=1
fi
if stale=$(comm -13 <(echo "$dead") <(echo "$listed")) && [ -n "$stale" ]; then
    echo "allowlisted names that gained a caller or no longer exist (remove them from $allow):" >&2
    echo "$stale" >&2
    fail=1
fi
[ "$fail" -eq 0 ] || exit 1
echo "exported surface: $(echo "$defs" | wc -l) exported internal/ funcs and methods, $(echo "$dead" | grep -c .) without a non-test caller, all allowlisted"
