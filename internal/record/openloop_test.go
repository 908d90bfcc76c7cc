package record

import (
	"context"
	"testing"
	"time"
)

// Once the in-flight bound saturates, an arrival waits for a slot, and
// that wait is part of its latency: with every call held for T and 4×256
// arrivals due within a fraction of T, the last quarter completes near
// 4T after its due time. Timing calls from their start instead would read
// about T and hide the queue.
func TestOpenLoopSaturationCountsQueueing(t *testing.T) {
	const hold = 20 * time.Millisecond
	n := 4 * maxInFlight
	due := make([]time.Duration, n)
	sizes := make([]uint64, n)
	for i := range due {
		due[i] = time.Duration(i) * 10 * time.Microsecond // 100k/s, far above 256/T
	}
	stats, err := OpenLoop(context.Background(), due, sizes, func(context.Context, int, []byte) error {
		time.Sleep(hold)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Issued != n || stats.Errors != 0 || stats.Latency.Count != uint64(n) {
		t.Fatalf("stats = %+v, want %d issued, no errors, %d samples", stats, n, n)
	}
	if p99 := time.Duration(stats.Latency.Quantile(0.99)); p99 <= 2*hold {
		t.Errorf("p99 = %v, want > %v: the wait for an in-flight slot is missing", p99, 2*hold)
	}
	if stats.MaxLagNanos <= 0 {
		t.Errorf("MaxLagNanos = %d, want > 0 once the in-flight bound is hit", stats.MaxLagNanos)
	}
}

// Each call gets a payload of its own size, capped at payloadCap, and
// failures are counted.
func TestOpenLoopPayloadsAndErrors(t *testing.T) {
	sizes := []uint64{0, 7, payloadCap + 1}
	got := make([]int, len(sizes))
	stats, err := OpenLoop(context.Background(), make([]time.Duration, len(sizes)), sizes,
		func(_ context.Context, i int, payload []byte) error {
			got[i] = len(payload)
			if i == 1 {
				return context.Canceled
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 7, payloadCap}; got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Errorf("payload lengths = %v, want %v", got, want)
	}
	if stats.Issued != 3 || stats.Errors != 1 {
		t.Errorf("stats = %+v, want 3 issued, 1 error", stats)
	}
}

func TestOpenLoopValidation(t *testing.T) {
	issue := func(context.Context, int, []byte) error { return nil }
	if _, err := OpenLoop(context.Background(), make([]time.Duration, 2), make([]uint64, 1), issue); err == nil {
		t.Error("mismatched due times and sizes accepted")
	}
	if _, err := OpenLoop(context.Background(), nil, nil, nil); err == nil {
		t.Error("nil issue function accepted")
	}
}
