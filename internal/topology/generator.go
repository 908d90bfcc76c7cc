package topology

import (
	"context"
	"fmt"
	"time"

	"repro/internal/dist"
	"repro/internal/record"
)

// LoadConfig shapes an open-loop arrival stream injected at the graph's
// roots. Arrivals come from one of two sources:
//
//   - QPS + Requests: a synthetic schedule at the given rate — uniform
//     spacing by default, seeded-Poisson inter-arrivals with Poisson.
//   - Trace: a recorded request stream (internal/record); each event's
//     dilated arrival offset and payload size drive one injection, so a
//     production recording exercises the whole topology.
type LoadConfig struct {
	// QPS is the offered arrival rate (synthetic mode).
	QPS float64
	// Requests is how many arrivals to inject (synthetic mode).
	Requests int
	// Poisson draws exponential inter-arrival gaps (seeded) instead of
	// uniform spacing.
	Poisson bool
	// Seed feeds the Poisson draw (default 1).
	Seed uint64
	// Trace, when non-nil, replaces the synthetic schedule with the
	// recorded one (QPS/Requests/Poisson are then ignored).
	Trace *record.Trace
	// Dilate stretches (>1) or compresses (<1) the trace's recorded
	// gaps; 0 means 1.
	Dilate float64
	// Recorder, when non-nil, captures the injected stream (one event
	// per root per arrival, with the request's outcome) so a live run
	// can be re-driven later through Trace.
	Recorder *record.Recorder
}

// schedule computes the arrival offsets and per-arrival payload sizes.
func (cfg *LoadConfig) schedule() ([]time.Duration, []uint64, error) {
	if cfg.Trace != nil {
		if err := cfg.Trace.Validate(); err != nil {
			return nil, nil, err
		}
		if len(cfg.Trace.Events) == 0 {
			return nil, nil, fmt.Errorf("topology: trace has no events")
		}
		if cfg.Dilate < 0 {
			return nil, nil, fmt.Errorf("topology: negative time dilation %v", cfg.Dilate)
		}
		due := cfg.Trace.DueTimes(cfg.Dilate)
		sizes := make([]uint64, len(cfg.Trace.Events))
		for i := range cfg.Trace.Events {
			sizes[i] = cfg.Trace.Events[i].PayloadBytes
		}
		return due, sizes, nil
	}
	if !(cfg.QPS > 0) {
		return nil, nil, fmt.Errorf("topology: QPS must be positive, got %v", cfg.QPS)
	}
	if cfg.Requests <= 0 {
		return nil, nil, fmt.Errorf("topology: Requests must be positive, got %d", cfg.Requests)
	}
	const payload = 256 // synthetic request payload bytes
	gap := float64(time.Second) / cfg.QPS
	due := make([]time.Duration, cfg.Requests)
	sizes := make([]uint64, cfg.Requests)
	if cfg.Poisson {
		seed := cfg.Seed
		if seed == 0 {
			seed = 1
		}
		rng := dist.NewRand(seed)
		at := 0.0
		for i := range due {
			at += rng.ExpFloat64() * gap
			due[i] = time.Duration(at)
			sizes[i] = payload
		}
	} else {
		for i := range due {
			due[i] = time.Duration(float64(i) * gap)
			sizes[i] = payload
		}
	}
	return due, sizes, nil
}

// RunOpenLoop injects the configured arrival stream at the topology's
// roots through record.OpenLoop: each arrival is one Runner.Call issued
// at its scheduled offset. The returned stats time each request from its
// due time; the runner's e2e and per-node histograms time the service
// alone. Cancelling ctx stops the injection between arrivals and waits
// for in-flight requests.
func (r *Runner) RunOpenLoop(ctx context.Context, cfg LoadConfig) (record.LoadStats, error) {
	due, sizes, err := cfg.schedule()
	if err != nil {
		return record.LoadStats{}, err
	}
	if len(r.roots) == 0 {
		return record.LoadStats{}, fmt.Errorf("topology: runner not started")
	}
	return record.OpenLoop(ctx, due, sizes, func(ctx context.Context, i int, payload []byte) error {
		_, err := r.Call(ctx, payload)
		if cfg.Recorder != nil {
			outcome := record.OutcomeOK
			if err != nil {
				outcome = record.OutcomeError
			}
			size := uint64(len(payload))
			for _, root := range r.graph.Roots() {
				cfg.Recorder.RecordAt(int64(due[i]), root, size, size, outcome)
			}
		}
		return err
	})
}
