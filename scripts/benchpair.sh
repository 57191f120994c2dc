#!/usr/bin/env bash
# benchpair.sh — runs A/B pairs of the repository benchmark.
#
#   scripts/benchpair.sh [--trace] <parent> <candidate> <workload> <pairs>
#
# Checks out both commits as detached git worktrees under .bench_build/,
# builds and runs each side with its own perfbench/run.sh, and alternates
# the runs on shared seeds 41, 42, ... for the given number of pairs —
# parent first in odd pairs, candidate first in even ones — each run
# BENCHMARK.json's run_seconds long.
#
# It prints, per end-to-end metric, both medians, the parent's
# interquartile range, the pairs the candidate won and the pairs it won
# among those not steal-skewed, then each run's checksum, failed ops and
# host_steal_share; that table goes to stderr and the same record as JSON
# to stdout. The exit status is 1 when any pair's output checksums differ
# or any run fails an op.
#
# A pair is steal-skewed when its two runs' host_steal_share differ by
# more than steal_skew (below): the host took more CPU from one side than
# from the other, which can move a verdict on its own. Such pairs are
# still counted in pairs_won and the medians; they are marked STEAL SKEWED
# in the per-run table, left out of won_unskewed (pairs_won_unskewed in
# the JSON) and listed in the record's skewed_pairs. Traced runs report no
# steal, so their pairs are never flagged.
#
# --trace runs each side with perfbench's --trace 1. A traced run reports
# BENCHMARK.json's per_layer metrics instead of the end-to-end ones, and
# no host_steal_share, so the table and the record then carry those
# metrics, with the same columns, and the steal as n/a (null); a metric
# every run reports as 0 (a layer the workload does not reach) is left
# out.
#
# <parent> and <candidate> are any commit-ish. To measure uncommitted
# work, stage it (git add -A) and pass "$(git stash create)".
set -euo pipefail
cd "$(dirname "$0")/.."

trace=0
if [[ "${1:-}" == "--trace" ]]; then
    trace=1
    shift
fi
if [[ $# -ne 4 ]]; then
    echo "usage: $0 [--trace] <parent> <candidate> <workload> <pairs>" >&2
    exit 2
fi
workload="$3"
pairs="$4"
if ! [[ "${pairs}" =~ ^[1-9][0-9]*$ ]]; then
    echo "benchpair: pairs must be a positive integer, got ${pairs}" >&2
    exit 2
fi
if ! grep -q "\"name\": \"${workload}\"" BENCHMARK.json; then
    echo "benchpair: workload ${workload} is not in BENCHMARK.json" >&2
    exit 2
fi
parent="$(git rev-parse --verify "$1^{commit}")"
candidate="$(git rev-parse --verify "$2^{commit}")"
seconds="$(grep -o '"run_seconds": *[0-9]*' BENCHMARK.json | grep -o '[0-9]*$')"
# "name better" per reported metric, in BENCHMARK.json's order.
section="end_to_end"
suffix=""
if ((trace)); then
    section="per_layer"
    suffix="-trace"
fi
metrics="$(sed -n "/\"${section}\"/,/\\]/p" BENCHMARK.json |
    grep -o '"name": "[^"]*".*"better": "[a-z]*"' |
    sed -E 's/"name": "([^"]*)".*"better": "([a-z]*)"/\1 \2/')"
metric_list="$(tr '\n' ';' <<<"${metrics}")"
# The largest host_steal_share difference a pair may have and still be
# compared cleanly. On a 2-vCPU Xeon, A/B runs of unchanged code read
# 0.005–0.028, while the candidate runs of one steal-skewed session read
# 0.083–0.17.
steal_skew=0.02

out=".bench_build/benchpair"
mkdir -p "${out}"
trees=()
cleanup() {
    for t in "${trees[@]}"; do
        git worktree remove --force "${t}" 2>/dev/null || true
    done
    git worktree prune
}
trap cleanup EXIT
for side in parent candidate; do
    sha="${!side}"
    tree=".bench_build/wt-${side}-${sha:0:12}"
    git worktree remove --force "${tree}" 2>/dev/null || rm -rf "${tree}"
    git worktree add --detach --quiet "${tree}" "${sha}"
    trees+=("${tree}")
    echo "benchpair: building ${side} ${sha:0:12}" >&2
    bash "${tree}/perfbench/run.sh" --help >/dev/null 2>&1 || true
done

# One tab-separated row per run: pair seed side checksum failed steal,
# then the metric values in ${metrics} order.
rows="${out}/${workload}-${parent:0:12}-${candidate:0:12}${suffix}.tsv"
: >"${rows}"
for ((i = 1; i <= pairs; i++)); do
    seed=$((40 + i))
    order="parent candidate"
    if ((i % 2 == 0)); then
        order="candidate parent"
    fi
    for side in ${order}; do
        sha="${!side}"
        raw="${out}/${workload}-${side}-${sha:0:12}-${seed}${suffix}.jsonl"
        echo "benchpair: pair ${i}/${pairs} seed ${seed} ${side}" >&2
        bash ".bench_build/wt-${side}-${sha:0:12}/perfbench/run.sh" --workload "${workload}" \
            --seed "${seed}" --seconds "${seconds}" --trace "${trace}" >"${raw}"
        row="${i}	${seed}	${side}"
        row+="	$(grep -o '"checksum":"[^"]*"' "${raw}" | cut -d'"' -f4)"
        row+="	$(grep -o '"failed":[0-9]*' "${raw}" | cut -d: -f2)"
        row+="	$(grep -o '"host_steal_share":[-0-9.eE+]*' "${raw}" | cut -d: -f2 || true)"
        while read -r name _; do
            row+="	$(grep -o "\"${name}\":{\"value\":[-0-9.eE+]*" "${raw}" | sed 's/.*://')"
        done <<<"${metrics}"
        echo "${row}" >>"${rows}"
    done
done

awk -F'\t' -v metrics="${metric_list}" -v workload="${workload}" -v seconds="${seconds}" \
    -v parent="${parent}" -v candidate="${candidate}" -v pairs="${pairs}" -v trace="${trace}" \
    -v steal_skew="${steal_skew}" '
# quantile of the sorted array v[1..n], linearly interpolated.
function quantile(v, n, p,    h, lo) {
    h = (n - 1) * p + 1
    lo = int(h)
    return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
}
# steal_str formats the steal share of one run; traced runs report none.
function steal_str(v, json) { return v == "" ? (json ? "null" : "n/a") : sprintf("%.4g", v) }
function sorted(src, n, dst,    i, j, t) {
    for (i = 1; i <= n; i++) dst[i] = src[i]
    for (i = 2; i <= n; i++)
        for (j = i; j > 1 && dst[j - 1] > dst[j]; j--) { t = dst[j]; dst[j] = dst[j - 1]; dst[j - 1] = t }
}
BEGIN {
    nm = split(metrics, lines, ";")
    if (lines[nm] == "") nm--
    for (m = 1; m <= nm; m++) { split(lines[m], f, " "); name[m] = f[1]; better[m] = f[2] }
}
{
    side = $3; p = $1
    seed[p] = $2; sum[side, p] = $4; failed[side, p] = $5; steal[side, p] = $6
    for (m = 1; m <= nm; m++) val[side, p, m] = $(6 + m)
}
END {
    differ = 0; fails = 0
    # A pair is steal-skewed when both runs report a steal share and the
    # two differ by more than steal_skew.
    nskew = 0; skewed = ""
    for (p = 1; p <= pairs; p++) {
        d = steal["parent", p] - steal["candidate", p]
        skew[p] = steal["parent", p] != "" && steal["candidate", p] != "" && (d > steal_skew || -d > steal_skew)
        if (skew[p]) { skewed = skewed (nskew ? "," : "") p; nskew++ }
    }
    printf "%s: %s (parent) vs %s (candidate), %d pairs of %d s runs%s, %d steal-skewed\n", workload, substr(parent, 1, 12), substr(candidate, 1, 12), pairs, seconds, trace ? ", traced" : "", nskew > "/dev/stderr"
    printf "%-24s %14s %14s %12s %8s %10s %12s\n", "metric", "parent_med", "cand_med", "parent_iqr", "ratio", "pairs_won", "won_unskewed" > "/dev/stderr"
    json = sprintf("{\"workload\":\"%s\",\"parent\":\"%s\",\"candidate\":\"%s\",\"pairs\":%d,\"seconds\":%d,\"trace\":%s,\"metrics\":{", workload, parent, candidate, pairs, seconds, trace ? "true" : "false")
    sep = ""
    for (m = 1; m <= nm; m++) {
        # A metric every run reports as 0 is one the workload never reaches.
        keep[m] = 0
        for (p = 1; p <= pairs; p++) if (val["parent", p, m] + 0 != 0 || val["candidate", p, m] + 0 != 0) keep[m] = 1
        if (!keep[m]) continue
        for (p = 1; p <= pairs; p++) { a[p] = val["parent", p, m]; b[p] = val["candidate", p, m] }
        sorted(a, pairs, sa); sorted(b, pairs, sb)
        pm = quantile(sa, pairs, 0.5); cm = quantile(sb, pairs, 0.5)
        iqr = quantile(sa, pairs, 0.75) - quantile(sa, pairs, 0.25)
        won = 0; wonu = 0
        for (p = 1; p <= pairs; p++)
            if ((better[m] == "higher" && b[p] > a[p]) || (better[m] == "lower" && b[p] < a[p])) { won++; if (!skew[p]) wonu++ }
        ratio = pm != 0 ? cm / pm : 0
        printf "%-24s %14.6g %14.6g %12.6g %8.3f %7d/%d %9d/%d\n", name[m], pm, cm, iqr, ratio, won, pairs, wonu, pairs - nskew > "/dev/stderr"
        json = json sprintf("%s\"%s\":{\"better\":\"%s\",\"parent_median\":%.6g,\"candidate_median\":%.6g,\"parent_iqr\":%.6g,\"ratio\":%.4f,\"pairs_won\":%d,\"pairs_won_unskewed\":%d}", sep, name[m], better[m], pm, cm, iqr, ratio, won, wonu)
        sep = ","
    }
    json = json "},\"runs\":["
    printf "%-5s %-6s %-18s %-18s %-7s %-12s %-12s\n", "pair", "seed", "parent_checksum", "cand_checksum", "failed", "parent_steal", "cand_steal" > "/dev/stderr"
    for (p = 1; p <= pairs; p++) {
        eq = sum["parent", p] == sum["candidate", p] && sum["parent", p] != ""
        if (!eq) differ = 1
        fails += failed["parent", p] + failed["candidate", p]
        printf "%-5d %-6d %-18s %-18s %3d/%-3d %-12s %-12s%s%s\n", p, seed[p], sum["parent", p], sum["candidate", p], failed["parent", p], failed["candidate", p], steal_str(steal["parent", p]), steal_str(steal["candidate", p]), skew[p] ? "  STEAL SKEWED" : "", eq ? "" : "  CHECKSUM DIFFERS" > "/dev/stderr"
        for (s = 0; s < 2; s++) {
            side = s == 0 ? "parent" : "candidate"
            json = json sprintf("%s{\"pair\":%d,\"seed\":%d,\"side\":\"%s\",\"checksum\":\"%s\",\"failed\":%d,\"host_steal_share\":%s,\"metrics\":{", p + s > 1 ? "," : "", p, seed[p], side, sum[side, p], failed[side, p], steal_str(steal[side, p], 1))
            sep = ""
            for (m = 1; m <= nm; m++) if (keep[m]) { json = json sprintf("%s\"%s\":%.6g", sep, name[m], val[side, p, m]); sep = "," }
            json = json "}}"
        }
    }
    print json sprintf("],\"steal_skew\":%s,\"skewed_pairs\":[%s],\"checksums_equal\":%s,\"failed_ops\":%d}", steal_skew, skewed, differ ? "false" : "true", fails)
    exit differ || fails > 0
}' "${rows}"
