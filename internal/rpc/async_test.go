package rpc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/kernels"
	"repro/internal/telemetry"
)

// echoResume is the canonical zero-closure continuation: it rebuilds the
// response from the pooled request state only.
var echoResume ResumeFunc = func(_ context.Context, ac *AsyncCall) (Message, error) {
	req := ac.Request()
	return Message{Method: req.Method, Payload: append([]byte("resumed|"), req.Payload...)}, nil
}

// parkingHandler parks every request on dev for its payload length.
func parkingHandler(dev Offloader) AsyncHandler {
	return func(_ context.Context, _ Message, ac *AsyncCall) (Message, error) {
		if err := ac.Park(dev, uint64(len(ac.Request().Payload)), echoResume); err != nil {
			return Message{}, err
		}
		return Message{}, nil
	}
}

// startAsyncTestServer serves h through eng on a loopback listener.
func startAsyncTestServer(t *testing.T, h AsyncHandler, eng *Engine) string {
	t.Helper()
	srv, err := NewAsyncServer(h, eng, nil)
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(context.Background(), lis) //modelcheck:ignore errdrop — Serve's error is the normal shutdown path
	t.Cleanup(func() { srv.Close() })       // errors swallowed per the teardown rule
	return lis.Addr().String()
}

func dialMux(t *testing.T, addr string) *MuxClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewMuxClient(conn, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() }) // errors swallowed per the teardown rule
	return c
}

func newTestEngine(t *testing.T, cfg EngineConfig) *Engine {
	t.Helper()
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() }) // errors swallowed per the teardown rule
	return eng
}

func newTestAccel(t *testing.T, cfg kernels.SimAccelConfig) *kernels.SimAccel {
	t.Helper()
	dev, err := kernels.NewSimAccel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dev.Close() }) // errors swallowed per the teardown rule
	return dev
}

// TestAsyncServerParkResume drives many concurrent calls through the full
// park/resume path and checks every response round-trips against its own
// request — completions land out of order (device deadlines scale with
// payload size), so this also proves correlation-id routing.
func TestAsyncServerParkResume(t *testing.T) {
	dev := newTestAccel(t, kernels.SimAccelConfig{Latency: time.Millisecond, BytesPerSec: 1 << 20})
	eng := newTestEngine(t, EngineConfig{Workers: 4})
	addr := startAsyncTestServer(t, parkingHandler(dev), eng)
	client := dialMux(t, addr)

	const calls = 64
	var wg sync.WaitGroup
	errCh := make(chan error, calls)
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			payload := bytes.Repeat([]byte{byte(i)}, (calls-i)*32) // bigger payload => later completion
			resp, err := client.CallContext(context.Background(), Message{Method: fmt.Sprintf("m%d", i), Payload: payload})
			if err != nil {
				errCh <- fmt.Errorf("call %d: %w", i, err)
				return
			}
			want := append([]byte("resumed|"), payload...)
			if resp.Method != fmt.Sprintf("m%d", i) || !bytes.Equal(resp.Payload, want) {
				errCh <- fmt.Errorf("call %d: cross-wired response method=%q len=%d", i, resp.Method, len(resp.Payload))
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	st := eng.Stats()
	if st.Served != calls {
		t.Fatalf("engine served %d, want %d", st.Served, calls)
	}
	if st.Parked != 0 || st.InFlight != 0 || st.QueueDepth != 0 {
		t.Fatalf("engine not drained: %+v", st)
	}
	if st.Errors != 0 {
		t.Fatalf("engine errors = %d, want 0", st.Errors)
	}
	if got := client.InFlight(); got != 0 {
		t.Fatalf("client in-flight = %d, want 0", got)
	}
}

// TestAsyncServerInlineResponse: a handler that never parks responds
// synchronously from the worker, no device involved.
func TestAsyncServerInlineResponse(t *testing.T) {
	eng := newTestEngine(t, EngineConfig{Workers: 2})
	h := func(_ context.Context, req Message, _ *AsyncCall) (Message, error) {
		return Message{Method: req.Method, Payload: append([]byte("inline|"), req.Payload...)}, nil
	}
	addr := startAsyncTestServer(t, h, eng)
	client := dialMux(t, addr)
	resp, err := client.CallContext(context.Background(), Message{Method: "x", Payload: []byte("hi")})
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Payload) != "inline|hi" {
		t.Fatalf("payload = %q", resp.Payload)
	}
}

// TestAsyncServerScratch: the pooled continuation's scratch word carries
// handler state to the resume without allocating.
func TestAsyncServerScratch(t *testing.T) {
	dev := newTestAccel(t, kernels.SimAccelConfig{})
	eng := newTestEngine(t, EngineConfig{})
	var resume ResumeFunc = func(_ context.Context, ac *AsyncCall) (Message, error) {
		return Message{Method: ac.Request().Method, Payload: []byte(fmt.Sprintf("scratch=%d", ac.Scratch))}, nil
	}
	h := func(_ context.Context, req Message, ac *AsyncCall) (Message, error) {
		ac.Scratch = uint64(len(req.Payload)) * 7
		if err := ac.Park(dev, 0, resume); err != nil {
			return Message{}, err
		}
		return Message{}, nil
	}
	addr := startAsyncTestServer(t, h, eng)
	client := dialMux(t, addr)
	resp, err := client.CallContext(context.Background(), Message{Method: "s", Payload: []byte("abcd")})
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Payload) != "scratch=28" {
		t.Fatalf("payload = %q, want scratch=28", resp.Payload)
	}
}

// TestAsyncServerHandlerError: a handler error maps onto a remote-error
// response; an armed offload alongside the error is discarded.
func TestAsyncServerHandlerError(t *testing.T) {
	dev := newTestAccel(t, kernels.SimAccelConfig{})
	eng := newTestEngine(t, EngineConfig{})
	h := func(_ context.Context, _ Message, ac *AsyncCall) (Message, error) {
		if err := ac.Park(dev, 0, echoResume); err != nil {
			return Message{}, err
		}
		return Message{}, errors.New("handler exploded")
	}
	addr := startAsyncTestServer(t, h, eng)
	client := dialMux(t, addr)
	_, err := client.CallContext(context.Background(), Message{Method: "boom"})
	if err == nil || !strings.Contains(err.Error(), "handler exploded") {
		t.Fatalf("err = %v, want remote handler error", err)
	}
	if st := dev.Stats(); st.Submitted != 0 {
		t.Fatalf("discarded offload was submitted anyway: %+v", st)
	}
	if st := eng.Stats(); st.Errors != 1 || st.Parked != 0 {
		t.Fatalf("engine stats = %+v, want 1 error, 0 parked", st)
	}
}

// TestAsyncServerSubmitError: a device that rejects the submission (here:
// closed) surfaces as a remote error and the continuation is not leaked.
func TestAsyncServerSubmitError(t *testing.T) {
	dev := newTestAccel(t, kernels.SimAccelConfig{})
	if err := dev.Close(); err != nil {
		t.Fatal(err)
	}
	eng := newTestEngine(t, EngineConfig{})
	addr := startAsyncTestServer(t, parkingHandler(dev), eng)
	client := dialMux(t, addr)
	_, err := client.CallContext(context.Background(), Message{Method: "x", Payload: []byte("p")})
	if err == nil || !strings.Contains(err.Error(), "accelerator closed") {
		t.Fatalf("err = %v, want accelerator-closed remote error", err)
	}
	if st := eng.Stats(); st.Parked != 0 || st.InFlight != 0 {
		t.Fatalf("engine leaked continuation state: %+v", st)
	}
}

// TestAsyncServerDeviceClosedMidFlight: the device closes while requests
// are parked — every parked continuation resumes with an error response
// (completion-after-close is an error delivery, not a hang or a leak).
func TestAsyncServerDeviceClosedMidFlight(t *testing.T) {
	dev := newTestAccel(t, kernels.SimAccelConfig{Latency: time.Hour})
	eng := newTestEngine(t, EngineConfig{Workers: 2})
	addr := startAsyncTestServer(t, parkingHandler(dev), eng)
	client := dialMux(t, addr)

	const calls = 8
	var wg sync.WaitGroup
	var remoteErrs atomic.Int64
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := client.CallContext(context.Background(), Message{Method: "parked"})
			if err != nil && strings.Contains(err.Error(), "accelerator closed") {
				remoteErrs.Add(1)
			}
		}()
	}
	waitFor(t, 10*time.Second, func() bool { return eng.Stats().Parked == calls })
	if err := dev.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if got := remoteErrs.Load(); got != calls {
		t.Fatalf("%d of %d parked calls surfaced the device-closed error", got, calls)
	}
	if st := eng.Stats(); st.Parked != 0 || st.InFlight != 0 {
		t.Fatalf("engine not drained after device close: %+v", st)
	}
}

// TestEngineCloseFailsPending: an engine closed with a continuation still
// inside the device fails that continuation with ErrEngineClosed when the
// completion eventually arrives (completion after Close).
func TestEngineCloseFailsPending(t *testing.T) {
	dev := newTestAccel(t, kernels.SimAccelConfig{Latency: time.Hour})
	eng, err := NewEngine(EngineConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	addr := startAsyncTestServer(t, parkingHandler(dev), eng)
	client := dialMux(t, addr)

	done := make(chan error, 1)
	go func() {
		_, err := client.CallContext(context.Background(), Message{Method: "stuck"})
		done <- err
	}()
	waitFor(t, 10*time.Second, func() bool { return eng.Stats().Parked == 1 })
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	dev.Flush() // device completes; the closed engine must fail the call
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "engine closed") {
			t.Fatalf("err = %v, want engine-closed remote error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked call never resolved after engine close")
	}
}

// TestAsyncServerRejectsBatch: the batch envelope is refused in async
// mode with an error response, not a hang.
func TestAsyncServerRejectsBatch(t *testing.T) {
	eng := newTestEngine(t, EngineConfig{})
	addr := startAsyncTestServer(t, func(_ context.Context, req Message, _ *AsyncCall) (Message, error) {
		return req, nil
	}, eng)
	client := dialMux(t, addr)
	_, err := client.CallContext(context.Background(), Message{Method: BatchMethod})
	if err == nil || !strings.Contains(err.Error(), "not supported") {
		t.Fatalf("batch call = %v, want not-supported error", err)
	}
}

// TestAsyncServerOutOfOrder: responses complete out of order through the
// shared conn writer — a gated first request holding one engine worker
// must not block a second one on the same conn.
func TestAsyncServerOutOfOrder(t *testing.T) {
	gate := make(chan struct{})
	eng := newTestEngine(t, EngineConfig{Workers: 2})
	addr := startAsyncTestServer(t, func(_ context.Context, req Message, _ *AsyncCall) (Message, error) {
		if req.Method == "slow" {
			<-gate
		}
		return Message{Method: req.Method, Payload: req.Payload}, nil
	}, eng)
	client := dialMux(t, addr)
	// Cleanups run LIFO: the gate must open before the client, server and
	// engine close, or teardown wedges on a failure path that never
	// reached close(gate).
	var gateOnce sync.Once
	openGate := func() { gateOnce.Do(func() { close(gate) }) }
	t.Cleanup(openGate)

	slowDone := make(chan error, 1)
	if err := client.Go(context.Background(), Message{Method: "slow"}, func(_ Message, err error) {
		slowDone <- err
	}); err != nil {
		t.Fatal(err)
	}
	// The fast call completes while the slow one is still gated.
	resp, err := client.CallContext(context.Background(), Message{Method: "fast", Payload: []byte("f")})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Method != "fast" || string(resp.Payload) != "f" {
		t.Fatalf("fast response = %+v", resp)
	}
	select {
	case err := <-slowDone:
		t.Fatalf("slow call finished before its gate opened (err=%v)", err)
	default:
	}
	openGate()
	select {
	case err := <-slowDone:
		if err != nil {
			t.Fatalf("slow call: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("slow call never completed")
	}
}

// TestMuxClientContextCancel: a cancelled caller unblocks immediately;
// the late response is dropped as unsolicited and the client remains
// usable.
func TestMuxClientContextCancel(t *testing.T) {
	dev := newTestAccel(t, kernels.SimAccelConfig{Latency: 50 * time.Millisecond})
	eng := newTestEngine(t, EngineConfig{})
	addr := startAsyncTestServer(t, parkingHandler(dev), eng)
	client := dialMux(t, addr)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, err := client.CallContext(ctx, Message{Method: "slow", Payload: []byte("x")})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	// A follow-up call on the same client still works (the stale response
	// arrives first and must be discarded, not cross-wired).
	resp, err := client.CallContext(context.Background(), Message{Method: "ok", Payload: []byte("y")})
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Payload) != "resumed|y" {
		t.Fatalf("follow-up payload = %q (stale response cross-wired?)", resp.Payload)
	}
}

// TestMuxClientClose: Close fails in-flight calls and later calls
// deterministically.
func TestMuxClientClose(t *testing.T) {
	dev := newTestAccel(t, kernels.SimAccelConfig{Latency: time.Hour})
	eng := newTestEngine(t, EngineConfig{})
	addr := startAsyncTestServer(t, parkingHandler(dev), eng)
	client := dialMux(t, addr)

	done := make(chan error, 1)
	go func() {
		_, err := client.CallContext(context.Background(), Message{Method: "parked"})
		done <- err
	}()
	waitFor(t, 10*time.Second, func() bool { return client.InFlight() == 1 })
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("in-flight call succeeded across Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight call never failed after Close")
	}
	if _, err := client.CallContext(context.Background(), Message{Method: "late"}); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("call after Close = %v, want ErrClientClosed", err)
	}
	if err := client.Go(context.Background(), Message{}, func(Message, error) {}); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("Go after Close = %v, want ErrClientClosed", err)
	}
}

// TestMuxClientValidation covers the synchronous argument errors.
func TestMuxClientValidation(t *testing.T) {
	if _, err := NewMuxClient(nil, nil); err == nil {
		t.Fatal("nil conn accepted")
	}
	c1, c2 := net.Pipe()
	defer c2.Close()
	client, err := NewMuxClient(c1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.Go(context.Background(), Message{}, nil); err == nil {
		t.Fatal("nil callback accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := client.CallContext(ctx, Message{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctx = %v, want context.Canceled", err)
	}
	if err := client.Go(ctx, Message{}, func(Message, error) {}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Go with cancelled ctx = %v, want context.Canceled", err)
	}
}

// TestEngineInstrument registers the async gauges and checks they move.
func TestEngineInstrument(t *testing.T) {
	reg := telemetry.NewRegistry()
	eng, err := NewEngine(EngineConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() }) // errors swallowed per the teardown rule
	if err := eng.Instrument(reg); err != nil {
		t.Fatal(err)
	}
	if err := eng.Instrument(nil); err == nil {
		t.Fatal("nil registry accepted")
	}
	dev := newTestAccel(t, kernels.SimAccelConfig{Latency: 2 * time.Millisecond})
	addr := startAsyncTestServer(t, parkingHandler(dev), eng)
	client := dialMux(t, addr)
	if _, err := client.CallContext(context.Background(), Message{Method: "m", Payload: []byte("z")}); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, name := range []string{"async_inflight_offloads", "async_parked_continuations", "async_completion_queue_depth", "async_served_total", "async_errors_total"} {
		if !strings.Contains(text, name) {
			t.Fatalf("exposition missing %s:\n%s", name, text)
		}
	}
	if !strings.Contains(text, "async_served_total 1") {
		t.Fatalf("served counter not incremented:\n%s", text)
	}
}

// TestEngineConfigValidation rejects negative sizing.
func TestEngineConfigValidation(t *testing.T) {
	if _, err := NewEngine(EngineConfig{Workers: -1}); err == nil {
		t.Fatal("negative workers accepted")
	}
	if _, err := NewEngine(EngineConfig{Queue: -1}); err == nil {
		t.Fatal("negative queue accepted")
	}
	if _, err := NewAsyncServer(nil, nil, nil); err == nil {
		t.Fatal("nil async handler accepted")
	}
	eng := newTestEngine(t, EngineConfig{})
	if _, err := NewAsyncServer(func(context.Context, Message, *AsyncCall) (Message, error) {
		return Message{}, nil
	}, nil, nil); err == nil {
		t.Fatal("nil engine accepted")
	}
	_ = eng
}

// TestAsyncTracedWaits drives the park/resume path with a tracer attached
// and checks the engine's wait instrumentation end to end: the handler
// sees its request span via ac.Span() (and a live ac.Context()), the
// tracer records the queue-wait / park-wait / resume-wait / handler child
// spans with their tail-tax categories, and EngineStats accumulates both
// cumulative wait counters.
func TestAsyncTracedWaits(t *testing.T) {
	dev := newTestAccel(t, kernels.SimAccelConfig{Latency: 2 * time.Millisecond})
	eng := newTestEngine(t, EngineConfig{Workers: 2})

	sawSpan := make(chan bool, 1)
	h := func(_ context.Context, _ Message, ac *AsyncCall) (Message, error) {
		select {
		case sawSpan <- ac.Span() != nil && ac.Context() != nil:
		default:
		}
		if err := ac.Park(dev, uint64(len(ac.Request().Payload)), echoResume); err != nil {
			return Message{}, err
		}
		return Message{}, nil
	}
	srv, err := NewAsyncServer(h, eng, nil)
	if err != nil {
		t.Fatal(err)
	}
	tracer := telemetry.NewTracer("async-test")
	srv.Instrument(&Instrumentation{Tracer: tracer})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(context.Background(), lis) //modelcheck:ignore errdrop — Serve's error is the normal shutdown path
	t.Cleanup(func() { srv.Close() })       // errors swallowed per the teardown rule
	c := dialMux(t, lis.Addr().String())

	if _, err := c.CallContext(context.Background(), Message{Method: "traced", Payload: []byte("pp")}); err != nil {
		t.Fatal(err)
	}
	if ok := <-sawSpan; !ok {
		t.Fatal("handler saw a nil ac.Span() or ac.Context() on an instrumented server")
	}

	cats := map[string]string{}
	for _, sp := range tracer.Spans() {
		cats[sp.Name] = sp.Category
	}
	for name, wantCat := range map[string]string{
		"queue-wait":  telemetry.CatQueue,
		"park-wait":   telemetry.CatDevice,
		"resume-wait": telemetry.CatQueue,
		"handler":     telemetry.CatWork,
	} {
		if got, ok := cats[name]; !ok || got != wantCat {
			t.Errorf("span %q: category %q (recorded %v), want %q", name, got, ok, wantCat)
		}
	}
	st := eng.Stats()
	if st.QueueWaitNanos == 0 {
		t.Error("EngineStats.QueueWaitNanos = 0 after a served request")
	}
	if st.ParkWaitNanos < uint64(time.Millisecond) {
		t.Errorf("EngineStats.ParkWaitNanos = %d, want >= the 2ms device latency's order", st.ParkWaitNanos)
	}
}
