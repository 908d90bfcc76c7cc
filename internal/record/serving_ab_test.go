package record

import (
	"context"
	"testing"
	"time"
)

func TestReplayServingABValidation(t *testing.T) {
	if _, err := ReplayServingAB(context.Background(), &Trace{}, ServingABConfig{}); err == nil {
		t.Error("empty trace accepted")
	}
}

// Both serving arms replay every recorded event error-free; under a
// retry-storm burst with a small worker pool and a non-trivial offload
// latency, the parked arm's tail must not be worse than the blocking
// arm's (the precise contrast lives in cmd/abtest -async and
// EXPERIMENTS.md; this is the correctness gate).
func TestReplayServingABPairedArms(t *testing.T) {
	tr, err := Synthesize("retry-storm", 99, 200)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ReplayServingAB(context.Background(), tr, ServingABConfig{
		Dilate:         0.05,
		Workers:        2,
		OffloadLatency: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Events != len(tr.Events) {
		t.Errorf("Events = %d, want %d", res.Events, len(tr.Events))
	}
	for _, arm := range []struct {
		name string
		a    ABArm
	}{{"sync", res.Sync}, {"async", res.Async}} {
		if arm.a.Stats.Issued != len(tr.Events) {
			t.Errorf("%s arm issued %d of %d events", arm.name, arm.a.Stats.Issued, len(tr.Events))
		}
		if arm.a.Stats.Errors != 0 {
			t.Errorf("%s arm saw %d errors", arm.name, arm.a.Stats.Errors)
		}
		if got := arm.a.Stats.Latency.Count; got != uint64(len(tr.Events)) {
			t.Errorf("%s arm recorded %d latencies, want %d", arm.name, got, len(tr.Events))
		}
	}
	// The storm stacks >> 2 requests in flight while each offload holds a
	// sync worker for 2ms: blocking serializes offloads W at a time, so
	// its p99 must exceed the async arm's. Generous 1.2x slack keeps CI
	// machines honest without flaking.
	syncP99 := res.Sync.Stats.Latency.Quantile(0.99)
	asyncP99 := res.Async.Stats.Latency.Quantile(0.99)
	if asyncP99 > syncP99*1.2 {
		t.Errorf("async p99 %.0fns worse than sync p99 %.0fns under a retry storm", asyncP99, syncP99)
	}
}
