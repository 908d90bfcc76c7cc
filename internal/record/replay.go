package record

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/rpc"
	"repro/internal/sim"
)

// Replay drives a recorded trace back through the system, two ways:
//
//   - ReplaySim feeds each service's recorded arrivals to the
//     discrete-event simulator as an explicit schedule (sim's
//     Arrivals.Times), so the model is evaluated on the exact offered
//     stream a production run saw instead of a fitted Poisson process.
//     Replay is fully deterministic: the same trace yields
//     byte-identical aggregates on every run.
//
//   - ReplayRPC issues the trace open-loop against a live RPC client at
//     the recorded timestamps (optionally time-dilated), preserving the
//     arrival process — including the bursts that closed-loop load
//     generators destroy — while measuring real client-side latency
//     from each arrival's due time.

// SimReplayConfig shapes the simulated server each recorded service is
// replayed against.
type SimReplayConfig struct {
	// Cores and Threads shape the per-service server (defaults 4/4).
	Cores   int
	Threads int
	// HostHz converts recorded nanoseconds to cycles (default 1e9).
	HostHz float64
	// ContextSwitch is sim's o1 cost in cycles.
	ContextSwitch float64
	// Accel, when non-nil, attaches an accelerator (the A/B lever).
	Accel *sim.Accel
	// NonKernelCycles is per-request host work beyond the offloadable
	// kernel (default 2000).
	NonKernelCycles float64
	// Kernel converts each event's recorded granularity into host
	// cycles (default core.LinearKernel(5.6), the paper's α shape).
	Kernel core.Kernel
	// Dilate stretches (>1) or compresses (<1) recorded inter-arrival
	// gaps; 0 means 1 (replay at recorded speed).
	Dilate float64
}

func (c *SimReplayConfig) setDefaults() {
	if c.Cores == 0 {
		c.Cores = 4
	}
	if c.Threads == 0 {
		c.Threads = c.Cores
	}
	if !(c.HostHz > 0) { // zero/negative/NaN all mean "unset"
		c.HostHz = 1e9
	}
	if !(c.NonKernelCycles > 0) {
		c.NonKernelCycles = 2000
	}
	if !(c.Kernel.Cb > 0) {
		c.Kernel = core.LinearKernel(5.6)
	}
	if !(c.Dilate > 0) {
		c.Dilate = 1
	}
}

// ServiceReplay is one service's replayed result.
type ServiceReplay struct {
	Service  string
	Requests int
	Result   sim.Result
}

// SimReplayResult is a full trace replay: per-service results in
// service-table (canonical) order plus their merged aggregate.
type SimReplayResult struct {
	PerService []ServiceReplay
	Aggregate  sim.Result
}

// traceWorkload replays recorded events as sim requests: each request
// performs the service's fixed non-kernel work plus one kernel
// invocation at the event's recorded offload granularity.
type traceWorkload struct {
	events    []Event
	nonKernel float64
	kernel    core.Kernel
}

// Request implements sim.Workload.
func (w *traceWorkload) Request(i int) sim.Request {
	e := &w.events[i%len(w.events)]
	return sim.Request{
		NonKernelCycles: w.nonKernel,
		Kernels: []sim.Invocation{{
			Bytes:      e.Granularity,
			HostCycles: w.kernel.HostCycles(e.Granularity),
		}},
	}
}

// ReplaySim replays the trace through the simulator, one simulated
// server per recorded service, and merges the results in canonical
// service order — so the aggregate is deterministic and two configs
// replayed over the same trace form a paired comparison on
// byte-identical arrivals.
func ReplaySim(t *Trace, cfg SimReplayConfig) (*SimReplayResult, error) {
	if t == nil || len(t.Events) == 0 {
		return nil, fmt.Errorf("record: nothing to replay")
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if cfg.Dilate < 0 {
		return nil, fmt.Errorf("record: negative time dilation %v", cfg.Dilate)
	}
	cfg.setDefaults()

	out := &SimReplayResult{}
	cyclesPerNano := cfg.HostHz * cfg.Dilate / 1e9
	var results []sim.Result
	for svc, events := range t.ServiceEvents() {
		if len(events) == 0 {
			continue
		}
		times := make([]float64, len(events))
		for i, e := range events {
			times[i] = float64(e.ArrivalNanos) * cyclesPerNano
		}
		wl := &traceWorkload{events: events, nonKernel: cfg.NonKernelCycles, kernel: cfg.Kernel}
		s, err := sim.New(sim.Config{
			Cores:         cfg.Cores,
			Threads:       cfg.Threads,
			ContextSwitch: cfg.ContextSwitch,
			HostHz:        cfg.HostHz,
			Accel:         cfg.Accel,
			Requests:      len(events),
			Arrivals:      &sim.Arrivals{Times: times},
		}, wl)
		if err != nil {
			return nil, fmt.Errorf("record: replay %s: %w", t.Services[svc], err)
		}
		res, err := s.Run()
		if err != nil {
			return nil, fmt.Errorf("record: replay %s: %w", t.Services[svc], err)
		}
		out.PerService = append(out.PerService, ServiceReplay{
			Service:  t.Services[svc],
			Requests: len(events),
			Result:   res,
		})
		results = append(results, res)
	}
	agg, err := sim.MergeResults(results)
	if err != nil {
		return nil, fmt.Errorf("record: %w", err)
	}
	out.Aggregate = agg
	return out, nil
}

// CallFunc is the client shape ReplayRPC drives — (*rpc.ClientPool),
// (*rpc.MuxClient) and (*rpc.Batcher) CallContext all satisfy it, which
// is what makes the client stack of an A/B a one-line swap.
type CallFunc func(context.Context, rpc.Message) (rpc.Message, error)

// RPCReplayConfig shapes an open-loop replay against a live client.
type RPCReplayConfig struct {
	// Dilate stretches (>1) or compresses (<1) the recorded gaps; 0
	// means 1. Replays against real servers usually dilate >= 1 so the
	// serving stack, not the load generator, is the bottleneck.
	Dilate float64
}

// ReplayRPC issues the trace's events through OpenLoop against call at
// their recorded (dilated) timestamps, each as method "<service>.replay"
// with the event's payload size.
func ReplayRPC(ctx context.Context, t *Trace, call CallFunc, cfg RPCReplayConfig) (LoadStats, error) {
	if t == nil || len(t.Events) == 0 {
		return LoadStats{}, fmt.Errorf("record: nothing to replay")
	}
	if err := t.Validate(); err != nil {
		return LoadStats{}, err
	}
	if call == nil {
		return LoadStats{}, fmt.Errorf("record: nil call function")
	}
	if cfg.Dilate < 0 {
		return LoadStats{}, fmt.Errorf("record: negative time dilation %v", cfg.Dilate)
	}
	methods := make([]string, len(t.Services))
	for i, svc := range t.Services {
		methods[i] = svc + ".replay"
	}
	sizes := make([]uint64, len(t.Events))
	for i := range t.Events {
		sizes[i] = t.Events[i].PayloadBytes
	}
	return OpenLoop(ctx, t.DueTimes(cfg.Dilate), sizes, func(ctx context.Context, i int, payload []byte) error {
		_, err := call(ctx, rpc.Message{Method: methods[t.Events[i].Service], Payload: payload})
		return err
	})
}
