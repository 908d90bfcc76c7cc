package record

import (
	"context"
	"fmt"
	"net"
	"time"

	"repro/internal/rpc"
	"repro/internal/telemetry"
)

// Paired A/B replay over the real RPC stack: one recorded trace drives
// two client stacks against the same in-process echo server — an
// unbatched arm (a one-client pool, so concurrent requests queue
// head-of-line behind each other on one connection) and a batched arm
// (rpc.Batcher coalescing concurrent requests into envelope frames).
// Both arms replay the identical event list at the identical dilated
// timestamps with identical payload bytes, so any latency or duration
// difference is attributable to the client stack alone — the
// trace-replay equivalent of the paper's paired-experiment methodology
// (§6).

// ABConfig configures a batched-vs-unbatched paired replay.
type ABConfig struct {
	// Dilate stretches (>1) or compresses (<1) the recorded inter-arrival
	// gaps in both arms; 0 means 1 (real time).
	Dilate float64
	// MaxBatch bounds the batcher arm's coalescing (default 8).
	MaxBatch int
	// Linger is how long the batcher arm waits to fill a batch
	// (default 200µs).
	Linger time.Duration
}

// ABArm is one side's measurement.
type ABArm struct {
	Stats LoadStats
	// Spans holds the arm's server-side span trees when the replay ran
	// with tracing (ServingABConfig.Trace); nil otherwise.
	Spans []telemetry.SpanData
}

// ABResult pairs the two arms of one replay.
type ABResult struct {
	Events             int
	Unbatched, Batched ABArm
}

// ReplayAB replays tr through both client stacks sequentially (unbatched
// first) and returns the paired measurements. The arms never run
// concurrently, so they do not contend for CPU with each other.
func ReplayAB(ctx context.Context, tr *Trace, cfg ABConfig) (*ABResult, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	if cfg.MaxBatch == 0 {
		cfg.MaxBatch = 8
	}
	if cfg.Linger == 0 {
		cfg.Linger = 200 * time.Microsecond
	}

	echo := func(_ context.Context, req rpc.Message) (rpc.Message, error) {
		return rpc.Message{Method: req.Method, Payload: req.Payload}, nil
	}
	srv, err := rpc.NewServer(echo, nil)
	if err != nil {
		return nil, err
	}
	defer srv.Close() //modelcheck:ignore errdrop — in-process server teardown; conns are closed below

	serveCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	newClient := func() (*rpc.Client, error) {
		clientConn, serverConn := net.Pipe()
		go srv.ServeConn(serveCtx, serverConn)
		return rpc.NewClient(clientConn, nil)
	}
	arm := func(call CallFunc) (ABArm, error) {
		stats, err := ReplayRPC(ctx, tr, call, RPCReplayConfig{Dilate: cfg.Dilate})
		return ABArm{Stats: stats}, err
	}

	res := &ABResult{Events: len(tr.Events)}

	// Unbatched arm: a one-client pool serializes concurrent replay
	// requests behind one connection — the head-of-line baseline a
	// per-request RPC stack pays under bursts.
	unbatched, err := rpc.NewClientPool(1, newClient)
	if err != nil {
		return nil, err
	}
	defer unbatched.Close() //modelcheck:ignore errdrop — pipe close on teardown
	if res.Unbatched, err = arm(unbatched.CallContext); err != nil {
		return nil, fmt.Errorf("record: unbatched arm: %w", err)
	}

	// Batched arm: same trace, same timestamps, same payload bytes —
	// only the client stack changes.
	bc, err := newClient()
	if err != nil {
		return nil, err
	}
	defer bc.Close() //modelcheck:ignore errdrop — pipe close on teardown
	batcher, err := rpc.NewBatcher(bc, rpc.BatcherConfig{MaxBatch: cfg.MaxBatch, Linger: cfg.Linger})
	if err != nil {
		return nil, err
	}
	defer batcher.Close() //modelcheck:ignore errdrop — drains in-flight batches; errors surface per call
	if res.Batched, err = arm(batcher.CallContext); err != nil {
		return nil, fmt.Errorf("record: batched arm: %w", err)
	}
	return res, nil
}
