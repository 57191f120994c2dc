#!/usr/bin/env bash
# check.sh — the repo's standing check gate.
#
# Runs the legs every change must pass before merging:
#   1. go build ./...        the tree compiles
#   2. gofmt -l              every tracked .go file is gofmt-clean
#   3. go vet ./...          stock toolchain analysis of the root module
#                            and of the perfbench module (its own go.mod,
#                            so the root ./... skips it), then an arm64
#                            cross-build and vet of internal/tensor and
#                            internal/nn/fused: the tile_noasm.go stubs
#                            must keep matching the amd64 assembly
#                            declarations, which asmdecl checks only on
#                            amd64; no fused multiply-add in the arm64
#                            assembly of any package under internal/,
#                            where the compiler would otherwise contract
#                            x*y + z; and no FMA form (VFMADD*, VFMSUB*,
#                            VFNMADD*, VFNMSUB*) in any tracked
#                            hand-written internal/ .s file, whose tile
#                            kernels keep separate multiplies and adds
#                            (DESIGN.md §8)
#   4. hsd-vet ./...         project contracts: determinism, numerics,
#                            concurrency, errors, hot-path allocation,
#                            observability clock policy
#                            (see DESIGN.md "Determinism & numerics rules")
#   5. go test -race ./...   unit + parity tests under the race detector
#   6. go test -fuzz         10 s of FuzzLoad over nn.Load: no panic, and
#                            every accepted checkpoint saves, reloads and
#                            saves to the same bytes; then 10 s of
#                            FuzzClipRequest over serve's request
#                            decoding: no panic, and every accepted clip
#                            is the served core with every pixel 0 or in
#                            [0x1p-1022, 1] and row marks that match its
#                            pixels bit for bit; then 10 s of
#                            FuzzRasterizeWindow over arbitrary rectangle
#                            lists: no panic, a window equals the same
#                            crop of Rasterize bit for bit, every pixel
#                            is in [0, 1], and the row marks match a
#                            row-by-row bitwise recomputation
#                            (go test -fuzz takes one target per run)
#   7. perfbench go test     the repository benchmark's own tests, so an
#                            API change it depends on fails here and not
#                            only when the benchmark next runs
#   8. scripts/smoke         end-to-end smoke of the service binaries: one
#                            build of hsd-serve, hsd-train, hsd-scan and
#                            hsd-active into one temp dir, then
#                            - hsd-serve, four boots on ephemeral ports —
#                              predict, healthz, metrics; the -pprof debug
#                              surface; /debug/trace dark by default (404);
#                              -trace with mixed fast/slow/429 traffic
#                              asserting tail-keep retention, request/batch
#                              stage trees with cross-linkage and the p99
#                              trace-ID exemplar on the metrics scrape —
#                              each ending in a SIGINT drain and zero exit;
#                            - hsd-train on a tiny suite: -telemetry JSONL
#                              (manifest/epoch/result) and -metrics-out
#                              stage summaries parse and assert;
#                            - hsd-scan on a tiny die, shifted boundary:
#                              region merge, one-DCT-per-block accounting,
#                              the exact cache hit rate, incremental
#                              re-scan dirty counts and the hsd_scan_*
#                              metrics series;
#                            - hsd-active on a tiny pool, budget sized to
#                              exhaust mid-batch: exact ODST-seconds
#                              accounting, truncation, the JSONL manifest
#                              and the hsd_litho_*/hsd_active_* series
#
# Usage: scripts/check.sh [-short|-lint-only]
#   -short      pass -short to go test (skips the slow experiment suites)
#   -lint-only  run legs 1-4 only (build, gofmt, vet + arm64 cross-build,
#               hsd-vet) — the fast pre-commit loop; the analyzers
#               alone catch contract breaches without waiting for the
#               race suite
set -euo pipefail
cd "$(dirname "$0")/.."

short=""
lint_only=""
case "${1:-}" in
-short) short="-short" ;;
-lint-only) lint_only=1 ;;
esac

echo "==> go build ./..."
go build ./...

echo "==> gofmt -l"
unformatted="$(git ls-files '*.go' | xargs gofmt -l)"
if [[ -n "${unformatted}" ]]; then
    echo "gofmt: unformatted files:" >&2
    echo "${unformatted}" >&2
    exit 1
fi

echo "==> go vet ./..."
go vet ./...
(cd perfbench && go vet ./...)

echo "==> GOARCH=arm64 go build ./... && go vet ./internal/tensor/ ./internal/nn/fused/"
GOARCH=arm64 go build ./... && GOARCH=arm64 go vet ./internal/tensor/ ./internal/nn/fused/

echo "==> no FMA in the arm64 assembly of ./internal/..."
fma="$(GOARCH=arm64 go build -gcflags=-S $(go list ./internal/...) 2>&1 |
    grep -E '\b(FMADDD|FMSUBD|FNMADDD|FNMSUBD)\b' || true)"
if [[ -n "${fma}" ]]; then
    echo "arm64 fused multiply-adds; write the product as float64(x*y):" >&2
    echo "${fma}" >&2
    exit 1
fi

echo "==> no FMA in the hand-written assembly of ./internal/..."
fma="$(git ls-files 'internal/*.s' | xargs -r grep -HnE '^[^/]*\bV(FN?MADD|FN?MSUB)' || true)"
if [[ -n "${fma}" ]]; then
    echo "FMA instructions in hand-written assembly; keep VMULPD and VADDPD separate:" >&2
    echo "${fma}" >&2
    exit 1
fi

echo "==> hsd-vet ./..."
go run ./cmd/hsd-vet ./...

if [[ -n "${lint_only}" ]]; then
    echo "check gate: lint legs green (-lint-only)"
    exit 0
fi

echo "==> go test -race ${short} ./..."
go test -race ${short} ./...

echo "==> go test -fuzz FuzzLoad (10 s)"
go test -run '^$' -fuzz '^FuzzLoad$' -fuzztime 10s ./internal/nn/

echo "==> go test -fuzz FuzzClipRequest (10 s)"
go test -run '^$' -fuzz '^FuzzClipRequest$' -fuzztime 10s ./internal/serve/

echo "==> go test -fuzz FuzzRasterizeWindow (10 s)"
go test -run '^$' -fuzz '^FuzzRasterizeWindow$' -fuzztime 10s ./internal/raster/

echo "==> perfbench go test ./..."
(cd perfbench && go test ./...)

echo "==> smoke: hsd-serve, hsd-train, hsd-scan, hsd-active"
go run ./scripts/smoke

echo "check gate: all legs green"
