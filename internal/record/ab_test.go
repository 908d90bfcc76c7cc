package record

import (
	"context"
	"testing"
)

func TestReplayABValidation(t *testing.T) {
	if _, err := ReplayAB(context.Background(), &Trace{}, ABConfig{}); err == nil {
		t.Error("empty trace accepted")
	}
}

// Both arms of the paired replay issue every recorded event — the same
// arrivals, payloads, and timestamps — and neither arm errors; the only
// difference between them is the client stack.
func TestReplayABPairedArms(t *testing.T) {
	tr, err := Synthesize("retry-storm", 99, 240)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ReplayAB(context.Background(), tr, ABConfig{Dilate: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if res.Events != len(tr.Events) {
		t.Errorf("Events = %d, want %d", res.Events, len(tr.Events))
	}
	for _, arm := range []struct {
		name string
		a    ABArm
	}{{"unbatched", res.Unbatched}, {"batched", res.Batched}} {
		if arm.a.Stats.Issued != len(tr.Events) {
			t.Errorf("%s arm issued %d of %d events", arm.name, arm.a.Stats.Issued, len(tr.Events))
		}
		if arm.a.Stats.Errors != 0 {
			t.Errorf("%s arm saw %d errors", arm.name, arm.a.Stats.Errors)
		}
		if got := arm.a.Stats.Latency.Count; got != uint64(len(tr.Events)) {
			t.Errorf("%s arm recorded %d latencies, want %d", arm.name, got, len(tr.Events))
		}
		if arm.a.Stats.Duration <= 0 {
			t.Errorf("%s arm reports non-positive duration", arm.name)
		}
	}
}
