package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/fleetdata"
	"repro/internal/kernels"
	"repro/internal/rpc"
	"repro/internal/services"
	"repro/internal/telemetry"
)

// async-offload: one rpc.MuxClient connection keeps asyncInFlight calls
// in flight to an rpc.NewAsyncServer whose engine runs one worker per
// CPU. The handler is services.AsyncOffloadHandler(Cache1): it hashes the
// non-offloadable share on an engine worker and parks the offloadable
// share on a kernels.SimAccel for a fixed asyncDeviceLatency, which is
// short enough that the host, not the device, limits throughput. Plain
// pipelines: no compression or encryption. Payload sizes follow Cache1's
// Fig 19 compression CDF.

const (
	asyncInFlight      = 64
	asyncDeviceLatency = 100 * time.Microsecond
	asyncPoolSize      = 4096
	// asyncMinPayload is the smallest payload sent. Cache1's offloadable
	// share of a smaller payload can round to zero bytes, and such a
	// request answers inline without parking, so it would not exercise
	// the device path.
	asyncMinPayload = 64
	asyncWarmUp     = 2000
)

// muxSlot is one of the asyncInFlight call slots. A slot is owned by the
// issuing loop until its call is sent, then by the client's reader until
// the callback hands it back on free.
type muxSlot struct {
	ps       *payloadSet
	free     chan *muxSlot
	cb       func(rpc.Message, error)
	sl       *slicer // the phase's; set while every slot is free
	idx      int
	start    time.Time
	errs     int
	mismatch int
}

func (s *muxSlot) done(resp rpc.Message, err error) {
	end := time.Now()
	if err != nil {
		s.errs++
	} else {
		if checkDigest(resp.Payload, s.ps.digests[s.idx]) != nil {
			s.mismatch++
		}
		s.sl.add(end, float64(end.Sub(s.start))/1e3)
	}
	s.free <- s
}

// asyncStack is one async server (engine, device, handler) and its
// multiplexing client.
type asyncStack struct {
	dev   *kernels.SimAccel
	eng   *rpc.Engine
	s     *serving
	c     *rpc.MuxClient
	slots []*muxSlot
	free  chan *muxSlot
	next  int // calls issued, and the payload pool cursor
}

func newAsyncStack(ps *payloadSet, procs int, traced bool) (*asyncStack, error) {
	st := &asyncStack{free: make(chan *muxSlot, asyncInFlight)}
	var err error
	if st.dev, err = kernels.NewSimAccel(kernels.SimAccelConfig{Latency: asyncDeviceLatency}); err != nil {
		return nil, err
	}
	if st.eng, err = rpc.NewEngine(rpc.EngineConfig{Workers: procs}); err != nil {
		st.dev.Close()
		return nil, err
	}
	h, err := services.AsyncOffloadHandler(fleetdata.Cache1, st.dev)
	var srv *rpc.Server
	if err == nil {
		srv, err = rpc.NewAsyncServer(h, st.eng, nil)
	}
	if err == nil && traced {
		var ins *rpc.Instrumentation
		if ins, err = instrumentation("server", "srv"); err == nil {
			srv.Instrument(ins)
			err = st.eng.Instrument(telemetry.NewRegistry())
		}
	}
	if err == nil {
		st.s, err = serve(srv)
	}
	if err != nil {
		st.eng.Close()
		st.dev.Close()
		return nil, err
	}
	conn, err := st.s.dial()
	if err == nil {
		if st.c, err = rpc.NewMuxClient(conn, nil); err != nil {
			conn.Close()
		}
	}
	if err != nil {
		st.stopServer()
		return nil, err
	}
	for k := 0; k < asyncInFlight; k++ {
		s := &muxSlot{ps: ps, free: st.free}
		s.cb = s.done // bound once, so issuing a call allocates no closure
		st.slots = append(st.slots, s)
		st.free <- s
	}
	return st, nil
}

// stopServer closes the server side: the server, then the engine, then
// the device.
func (st *asyncStack) stopServer() {
	_ = st.s.stop() // shutdown errors after the run change no measured figure
	st.eng.Close()
	st.dev.Close()
}

func (st *asyncStack) close() {
	st.c.Close()
	st.stopServer()
}

// measure keeps asyncInFlight calls in flight until d has passed or
// maxCalls were issued, then waits for the outstanding calls. Latency
// runs from just before Go to the callback. The callbacks all run on the
// client's reader goroutine, which owns the phase's slicer until every
// slot is back.
func (st *asyncStack) measure(ps payloadSet, d time.Duration, maxCalls int) window {
	w := window{}
	ctx := context.Background()
	probe := startMemProbe()
	t0 := time.Now()
	sl := newSlicer(t0)
	ss := startStealSampler(t0)
	for _, s := range st.slots {
		s.sl = sl
	}
	deadline := t0.Add(d)
	for w.ops < maxCalls && time.Now().Before(deadline) {
		s := <-st.free
		s.idx = st.next % len(ps.msgs)
		st.next++
		w.ops++
		s.start = time.Now()
		if err := st.c.Go(ctx, ps.msgs[s.idx], s.cb); err != nil {
			s.errs++
			st.free <- s
		}
	}
	for range st.slots {
		<-st.free
	}
	w.elapsed = time.Since(t0)
	sl.finish(&w, ss.finish())
	probe.finish(&w)
	for _, s := range st.slots {
		w.failed += s.errs
		s.errs = 0
		st.free <- s
	}
	return w
}

// warmUp runs asyncWarmUp calls through the stack.
func (st *asyncStack) warmUp(ps payloadSet) {
	st.measure(ps, time.Hour, asyncWarmUp)
}

// settle waits, up to a second, for the engine's served counter to catch
// up with the calls issued: the engine counts a request after writing its
// response, so the client can hold the last responses a moment before the
// counter moves.
func (st *asyncStack) settle() {
	for k := 0; k < 100 && st.eng.Stats().Served < uint64(st.next); k++ {
		time.Sleep(10 * time.Millisecond)
	}
}

func (st *asyncStack) mismatches() int {
	n := 0
	for _, s := range st.slots {
		n += s.mismatch
	}
	return n
}

// checkAsyncCounters checks the engine and device counters against the
// requests issued: each was served through the engine and parked once on
// the device, with no errors on either.
func checkAsyncCounters(e rpc.EngineStats, d kernels.SimAccelStats, issued int) error {
	n := uint64(issued)
	if e.Served != n || e.Errors != 0 {
		return fmt.Errorf("engine served %d requests with %d errors, %d issued", e.Served, e.Errors, n)
	}
	if d.Completed != n || d.Errors != 0 {
		return fmt.Errorf("device completed %d offloads with %d errors, %d requests issued", d.Completed, d.Errors, n)
	}
	return nil
}

func runAsyncOffload(opt options) (*outcome, error) {
	ps := makePayloads(fleetdata.CompressionSizes[fleetdata.Cache1], asyncPoolSize, asyncMinPayload, opt.seed, "cache1")
	share, err := services.OffloadableShare(fleetdata.Cache1)
	if err != nil {
		return nil, err
	}
	if int(asyncMinPayload*share) < 1 {
		return nil, fmt.Errorf("Cache1 offloadable share %.3f parks nothing of a %d-byte payload", share, asyncMinPayload)
	}
	st, err := newAsyncStack(&ps, opt.procs, false)
	if err != nil {
		return nil, err
	}
	defer st.close()
	st.warmUp(ps)
	out := &outcome{setup: time.Since(processStart)}

	d := opt.duration
	if opt.trace {
		d /= 2
	}
	e0 := st.eng.Stats()
	out.measured = st.measure(ps, d, math.MaxInt)
	e1 := st.eng.Stats()
	stacks := []*asyncStack{st}

	if opt.trace {
		ts, err := newAsyncStack(&ps, opt.procs, true)
		if err != nil {
			return nil, err
		}
		defer ts.close()
		ts.warmUp(ps)
		tw := ts.measure(ps, d, math.MaxInt)
		stacks = append(stacks, ts)
		if out.layers, err = asyncLayers(ps, out.measured, tw, e0, e1); err != nil {
			return nil, err
		}
	}
	for _, s := range stacks {
		s.settle()
		if n := s.mismatches(); n > 0 {
			out.problems = append(out.problems, fmt.Sprintf("%d responses were not the SHA-256 of their request", n))
		}
		if err := checkAsyncCounters(s.eng.Stats(), s.dev.Stats(), s.next); err != nil {
			out.problems = append(out.problems, err.Error())
		}
	}
	return out, nil
}

// asyncLayers gathers async-offload's per-layer metrics: engine queue and
// park waits per request served in the untraced phase (e0 to e1), the
// hash kernel and plain codec on the payload pool, and the bare call.
func asyncLayers(ps payloadSet, untraced, traced window, e0, e1 rpc.EngineStats) (map[string]float64, error) {
	m, err := kernelProbes(ps, false)
	if err != nil {
		return nil, err
	}
	codec, err := codecProbe(ps.msgs, func() (*rpc.Pipeline, error) { return rpc.NewPipeline() })
	if err != nil {
		return nil, err
	}
	if m["rpc.bare_call_us"], err = bareCallUS(); err != nil {
		return nil, err
	}
	served := float64(e1.Served - e0.Served)
	m["rpc.engine_queue_wait_us"] = float64(e1.QueueWaitNanos-e0.QueueWaitNanos) / served / 1e3
	m["rpc.engine_park_wait_us"] = float64(e1.ParkWaitNanos-e0.ParkWaitNanos) / served / 1e3
	m["rpc.encode_us"] = codec.encodeUS
	m["rpc.decode_us"] = codec.decodeUS
	addRuntimeLayers(m, untraced, 1)
	m["trace.overhead_pct"] = overheadPct(untraced.p50(), traced.p50())
	return m, nil
}
