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
#                            amd64; and no fused multiply-add in the
#                            arm64 assembly of any package under
#                            internal/ but internal/fft, where the
#                            compiler would otherwise contract x*y + z
#                            (DESIGN.md §8)
#   4. hsd-vet ./...         project contracts: determinism, numerics,
#                            concurrency, errors, hot-path allocation,
#                            observability clock policy
#                            (see DESIGN.md "Determinism & numerics rules")
#   5. go test -race ./...   unit + parity tests under the race detector
#   6. go test -fuzz         10 s of FuzzLoad over nn.Load: no panic, and
#                            every accepted checkpoint saves, reloads and
#                            saves to the same bytes
#   7. perfbench go test     the repository benchmark's own tests, so an
#                            API change it depends on fails here and not
#                            only when the benchmark next runs
#   8. scripts/smoke         hsd-serve end-to-end smoke: one build, four
#                            boots on ephemeral ports — predict, healthz,
#                            metrics; the -pprof debug surface;
#                            /debug/trace dark by default (404); -trace
#                            with mixed fast/slow/429 traffic asserting
#                            tail-keep retention, request/batch stage trees
#                            with cross-linkage and the p99 trace-ID
#                            exemplar on the metrics scrape — each ending in
#                            a SIGINT drain and zero exit
#   9. scripts/trainsmoke    hsd-train observability smoke: tiny suite,
#                            -telemetry JSONL (manifest/epoch/result) and
#                            -metrics-out stage summaries parse and assert
#  10. scripts/scansmoke     hsd-scan full-layout smoke: tiny die, shifted
#                            boundary, asserts region merge, one-DCT-per-
#                            block accounting, the exact cache hit rate,
#                            incremental re-scan dirty counts and the
#                            hsd_scan_* metrics series
#  11. scripts/activesmoke   hsd-active smoke: tiny pool, budget sized to
#                            exhaust mid-batch, asserts exact ODST-seconds
#                            accounting, truncation, the JSONL manifest and
#                            the hsd_litho_*/hsd_active_* metrics series
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

# internal/fft's complex products wait on the keep-or-delete decision of
# ROADMAP item 6.
echo "==> no FMA in the arm64 assembly of ./internal/... but internal/fft"
fma="$(GOARCH=arm64 go build -gcflags=-S $(go list ./internal/... | grep -v '/internal/fft$') 2>&1 |
    grep -E '\b(FMADDD|FMSUBD|FNMADDD|FNMSUBD)\b' || true)"
if [[ -n "${fma}" ]]; then
    echo "arm64 fused multiply-adds; write the product as float64(x*y):" >&2
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

echo "==> perfbench go test ./..."
(cd perfbench && go test ./...)

echo "==> hsd-serve smoke"
go run ./scripts/smoke

echo "==> hsd-train smoke"
go run ./scripts/trainsmoke

echo "==> hsd-scan smoke"
go run ./scripts/scansmoke

echo "==> hsd-active smoke"
go run ./scripts/activesmoke

echo "check gate: all legs green"
