#!/usr/bin/env bash
# check.sh — the standing correctness gate for this repository.
#
# Runs, in order:
#   1. go build ./...            (everything compiles)
#   2. go vet ./...              (stock static analysis)
#   3. modelcheck -tests ./...   (domain-aware suite: floatcmp, errdrop,
#                                 paramvalidate, seedhygiene, lockcheck,
#                                 shadow, ctxcheck, poolcheck — including
#                                 _test.go files, which are covered by the
#                                 documented golden-value and teardown
#                                 exemption rules rather than annotations)
#   4. modelcheck self-test      (the suite must still flag known-bad
#                                 fixtures: a syntax-level file, a test
#                                 file proving the test exemptions stay
#                                 narrow, plus a multi-package module
#                                 exercising the flow-sensitive analyzers)
#   5. modelcheck timing         (the warm-cache whole-module run — export
#                                 data + call-graph summaries cached —
#                                 must finish under 2 s)
#   6. SARIF artifact            (modelcheck.sarif for code-scanning upload)
#   7. go test -race ./...       (unit + integration tests under the race
#                                 detector; covers the concurrent rpc/sim
#                                 layers)
#   8. perfbench vet + tests     (the benchmark is its own module, so the
#                                 root ./... misses an API change that
#                                 breaks it)
#   9. fuzz smoke                (each rpc + record fuzz target runs for a
#                                 short -fuzztime beyond its checked-in
#                                 corpus; FUZZTIME overrides, default 3s)
#  10. async serving gates       (scripts/bench_async.sh: pooled park/
#                                 resume alloc budget, async >= 2x blocking
#                                 throughput at high in-flight counts, and
#                                 the 100k-in-flight goroutine-ceiling
#                                 soak; quick 500x iteration budget here,
#                                 CI re-runs it at BENCHTIME=2s)
#
# Any failure exits non-zero. CI runs exactly this script (.github/workflows/ci.yml).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT
MODELCHECK="$workdir/modelcheck"
go build -o "$MODELCHECK" ./cmd/modelcheck

echo "==> modelcheck -tests ./..."
"$MODELCHECK" -tests ./...

echo "==> modelcheck self-test (must flag a known-bad fixture)"
selftest="$workdir/selftest"
mkdir -p "$selftest"
cat > "$selftest/go.mod" <<'EOF'
module selftest

go 1.22
EOF
cat > "$selftest/bad.go" <<'EOF'
package selftest

import (
	"context"
	"math/rand"
	"os"
	"sync"
)

var mu sync.Mutex

func Bad(a, b float64) bool {
	mu.Lock()
	os.Remove("x")
	return a == b && rand.Float64() > 0.5
}

func BadCtx(ctx context.Context) {
	mu.Unlock()
}
EOF
if "$MODELCHECK" -C "$selftest" ./... > /dev/null 2>&1; then
    echo "FATAL: modelcheck exited 0 on a fixture with known findings" >&2
    exit 1
fi
echo "    ok: suite flags the bad fixture"

echo "==> modelcheck test-exemption self-test (rules stay narrow)"
cat > "$selftest/bad_test.go" <<'FIXEOF'
package selftest

import (
	"os"
	"testing"
)

// TestTeardownAndGolden carries two exempted findings (a golden-value
// float pin, a Cleanup teardown) and two still-flagged ones (a
// computed-vs-computed float comparison, an invisible error discard).
func TestTeardownAndGolden(t *testing.T) {
	got := float64(len(os.Args)) * 0.5
	if got == 1.5 { // exempt: golden-value pin against a constant
		t.Log("golden")
	}
	if got == got*3 { // line 16: flagged even in a test file
		t.Log("computed")
	}
	t.Cleanup(func() { os.Remove("x") }) // exempt: teardown rule
	os.Remove("y")                       // line 20: flagged - invisible discard
}
FIXEOF
testout="$("$MODELCHECK" -C "$selftest" -tests -json ./... 2>/dev/null || true)"
badtest_findings=$(grep -c "bad_test.go" <<<"$testout" || true)
if [ "$badtest_findings" -ne 2 ]; then
    echo "FATAL: bad_test.go produced $badtest_findings finding(s), want exactly 2 (golden-value and teardown exemptions must hold; computed comparison and invisible discard must stay flagged)" >&2
    echo "$testout" >&2
    exit 1
fi
if ! grep -q '"line": 16' <<<"$testout" || ! grep -q '"line": 20' <<<"$testout"; then
    echo "FATAL: bad_test.go findings are not the expected ones (want the computed float comparison on line 16 and the invisible discard on line 20)" >&2
    echo "$testout" >&2
    exit 1
fi
echo "    ok: test exemptions hold and the still-bad test findings survive"

echo "==> modelcheck flow-sensitive self-test (CFG + call-graph findings)"
flowtest="$workdir/flowtest"
mkdir -p "$flowtest/internal/core" "$flowtest/internal/rpc" "$flowtest/app"
cat > "$flowtest/go.mod" <<'EOF'
module selftestflow

go 1.22
EOF
cat > "$flowtest/internal/core/core.go" <<'EOF'
package core

import "errors"

type Params struct{ C float64 }

func (p Params) Validate() error {
	if p.C <= 0 {
		return errors.New("core: C must be positive")
	}
	return nil
}

func New(p Params) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	return p.C, nil
}
EOF
cat > "$flowtest/internal/rpc/pool.go" <<'EOF'
package rpc

import "sync"

func getBuf(n int) []byte { return make([]byte, 0, n) }
func putBuf(b []byte)     {}
func use(b []byte) int    { return len(b) }

var mu sync.Mutex

// LeakEarly: the early return drops the buffer — poolcheck finding.
func LeakEarly(stop bool) int {
	b := getBuf(64)
	if stop {
		return 0
	}
	n := use(b)
	putBuf(b)
	return n
}

// UseAfterPut: b is read after going back to the pool — poolcheck finding.
func UseAfterPut() int {
	b := getBuf(64)
	putBuf(b)
	return use(b)
}

// LockLeak: the early return holds mu — a lockcheck finding the old
// function-scoped heuristic could not see (an Unlock exists in the body).
func LockLeak(stop bool) int {
	mu.Lock()
	if stop {
		return 0
	}
	mu.Unlock()
	return 1
}

// getBuf64 gets from the pool on the caller's behalf; the summary
// fixpoint marks its result pooled (ReturnsPooled).
func getBuf64() []byte { return getBuf(64)[:0] }

// LeakViaHelper drops the helper-obtained buffer — a poolcheck finding
// resolved through the ReturnsPooled summary bit, not a direct get.
func LeakViaHelper() int {
	b := getBuf64()
	return use(b)
}

// GoodViaHelper releases the helper-obtained buffer — clean.
func GoodViaHelper() int {
	b := getBuf64()
	n := use(b)
	putBuf(b)
	return n
}
EOF
cat > "$flowtest/app/app.go" <<'EOF'
package app

import "selftestflow/internal/core"

// defaults is a helper constructor; callers inherit the validation debt.
func defaults() core.Params {
	return core.Params{C: 2.5e9}
}

// BadRun uses the helper's result raw — paramvalidate finding, resolved
// through the call-graph summary of defaults, not an annotation.
func BadRun() float64 {
	p := defaults()
	return p.C * 2
}

// GoodRun hands the same result to a validating entry point — clean.
func GoodRun() (float64, error) {
	p := defaults()
	return core.New(p)
}
EOF
flowout="$("$MODELCHECK" -C "$flowtest" -json ./... 2>/dev/null || true)"
flowcount() { grep -c "\"analyzer\": \"$1\"" <<<"$flowout" || true; }
if [ "$(flowcount poolcheck)" -ne 3 ]; then
    echo "FATAL: poolcheck found $(flowcount poolcheck) finding(s) in the flow fixture, want 3 (missing put + use-after-put + helper-get leak)" >&2
    echo "$flowout" >&2
    exit 1
fi
if [ "$(flowcount lockcheck)" -ne 1 ]; then
    echo "FATAL: lockcheck found $(flowcount lockcheck) finding(s) in the flow fixture, want 1 (early return holding the lock)" >&2
    echo "$flowout" >&2
    exit 1
fi
if [ "$(flowcount paramvalidate)" -ne 1 ]; then
    echo "FATAL: paramvalidate found $(flowcount paramvalidate) finding(s) in the flow fixture, want 1 (helper-constructor result used raw)" >&2
    echo "$flowout" >&2
    exit 1
fi
echo "    ok: poolcheck x3, lockcheck x1, paramvalidate x1 — and the validating callers stay clean"

echo "==> modelcheck warm-cache timing (< 2s for the whole module)"
start_ns=$(date +%s%N)
"$MODELCHECK" ./... > /dev/null
end_ns=$(date +%s%N)
elapsed_ms=$(( (end_ns - start_ns) / 1000000 ))
if [ "$elapsed_ms" -ge 2000 ]; then
    echo "FATAL: warm modelcheck run took ${elapsed_ms}ms, budget is 2000ms" >&2
    exit 1
fi
echo "    ok: ${elapsed_ms}ms"

echo "==> SARIF artifact (modelcheck.sarif)"
"$MODELCHECK" -sarif ./... > modelcheck.sarif
echo "    ok: $(wc -c < modelcheck.sarif) bytes"

echo "==> go test -race ./..."
go test -race ./...

echo "==> perfbench: go vet + go test (its own module; the root ./... skips it)"
(cd perfbench && go vet ./... && go test -count=1 ./...)

echo "==> fuzz smoke (${FUZZTIME:-3s} per target)"
fuzz_smoke() {
    local pkg="$1"; shift
    for target in "$@"; do
        echo "    fuzzing $pkg $target"
        go test -run '^$' -fuzz "^${target}\$" -fuzztime "${FUZZTIME:-3s}" "$pkg" > /dev/null
    done
}
fuzz_smoke ./internal/rpc FuzzReadFrame FuzzCodecRoundTrip FuzzBatchPayloadRoundTrip
fuzz_smoke ./internal/record FuzzDecodeTrace

echo "==> async serving gates (bench_async.sh)"
./scripts/bench_async.sh

echo "==> all gates green"
