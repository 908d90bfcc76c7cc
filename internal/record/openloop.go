package record

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/telemetry"
)

const (
	// maxInFlight bounds concurrent calls. At the bound the generator
	// waits for a slot: arrivals fall behind schedule rather than piling
	// up unbounded goroutines, and the wait shows in MaxLagNanos and in
	// every delayed call's latency.
	maxInFlight = 256
	// payloadCap bounds the shared payload array; larger recorded
	// payloads are truncated to it.
	payloadCap = 1 << 20
)

// LoadStats summarizes one open-loop run.
type LoadStats struct {
	Issued   int
	Errors   int
	Duration time.Duration
	// MaxLagNanos is the worst scheduling lag: how far behind its due
	// time an arrival was issued, taken once it held an in-flight slot.
	// Large lag means the generator or the in-flight bound, not the
	// offered process, shaped the arrivals.
	MaxLagNanos int64
	// Latency holds one sample per issued call, in nanoseconds, from the
	// arrival's due time to the call's return — so a wait for the
	// generator or for an in-flight slot counts, as it would for a
	// client whose request queues.
	Latency telemetry.HistogramSnapshot
}

// IssueFunc issues arrival i with its payload and reports the outcome.
// payload is a slice of an array shared by every call: read it, never
// write it.
type IssueFunc func(ctx context.Context, i int, payload []byte) error

// OpenLoop is the load generator behind trace replay (ReplayRPC) and
// topology runs (topology.Runner.RunOpenLoop). It issues arrival i at
// offset due[i] from the start, whether or not earlier calls have
// returned, with a zero-filled payload of sizes[i] bytes (capped at
// 1 MiB), so the arrival process, bursts included, is the offered one.
// Cancelling ctx stops the issuing between arrivals; OpenLoop then waits
// for the calls in flight and returns the partial stats with ctx's
// error.
func OpenLoop(ctx context.Context, due []time.Duration, sizes []uint64, issue IssueFunc) (LoadStats, error) {
	var stats LoadStats
	if len(sizes) != len(due) {
		return stats, fmt.Errorf("record: %d due times but %d payload sizes", len(due), len(sizes))
	}
	if issue == nil {
		return stats, fmt.Errorf("record: nil issue function")
	}
	var maxPayload uint64
	for _, s := range sizes {
		maxPayload = max(maxPayload, s)
	}
	maxPayload = min(maxPayload, payloadCap)
	backing := make([]byte, maxPayload)

	lat := telemetry.NewHistogram("open_loop_latency_nanos", "open-loop call latency from the due time, in nanoseconds")
	sem := make(chan struct{}, maxInFlight)
	var wg sync.WaitGroup
	var mu sync.Mutex
	errs := 0
	start := time.Now()
	finish := func(err error) (LoadStats, error) {
		wg.Wait()
		stats.Errors = errs
		stats.Duration = time.Since(start)
		stats.Latency = lat.Snapshot()
		return stats, err
	}
	for i := range due {
		if wait := due[i] - time.Since(start); wait > 0 {
			timer := time.NewTimer(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
				return finish(ctx.Err())
			}
		}
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			return finish(ctx.Err())
		}
		if lag := int64(time.Since(start) - due[i]); lag > stats.MaxLagNanos {
			stats.MaxLagNanos = lag
		}
		dueAt := start.Add(due[i])
		payload := backing[:min(sizes[i], maxPayload)]
		stats.Issued++
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := issue(ctx, i, payload)
			lat.Record(float64(time.Since(dueAt)))
			<-sem
			if err != nil {
				mu.Lock()
				errs++
				mu.Unlock()
			}
		}(i)
	}
	return finish(nil)
}
