package rpc

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/proflabel"
	"repro/internal/telemetry"
)

// Framing: each wire message is a 4-byte little-endian length prefix
// followed by the pipeline-encoded bytes.

// maxFrame bounds a frame so a corrupt peer cannot force huge allocations.
const maxFrame = 80 << 20

// WriteFrame writes one length-prefixed frame.
func WriteFrame(w io.Writer, data []byte) error {
	var hdr [4]byte
	return writeFrame(w, data, &hdr)
}

// writeFrame is WriteFrame with caller-owned header scratch. Passing hdr[:]
// to an io.Writer forces the array to the heap, so the hot loops hand in a
// header that lives for the whole connection — one escape per connection
// instead of one per frame.
func writeFrame(w io.Writer, data []byte, hdr *[4]byte) error {
	if len(data) > maxFrame {
		return fmt.Errorf("rpc: frame %d bytes exceeds %d", len(data), maxFrame)
	}
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(data)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("rpc: write frame header: %w", err)
	}
	if _, err := w.Write(data); err != nil {
		return fmt.Errorf("rpc: write frame body: %w", err)
	}
	return nil
}

// ReadFrame reads one length-prefixed frame. The returned slice comes from
// the package buffer pool; the caller owns it and may release it with
// putBuf once every view of it is dead (the client/server loops do, right
// after pipeline decode copies the message out). Callers that keep the
// frame simply forgo reuse.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	return readFrame(r, &hdr)
}

// readFrame is ReadFrame with caller-owned header scratch; see writeFrame.
func readFrame(r io.Reader, hdr *[4]byte) ([]byte, error) {
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err // io.EOF passes through for clean shutdown
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("rpc: frame length %d exceeds %d", n, maxFrame)
	}
	buf := getBufN(int(n))
	if _, err := io.ReadFull(r, buf); err != nil {
		putBuf(buf)
		return nil, fmt.Errorf("rpc: read frame body: %w", err)
	}
	return buf, nil
}

// Handler processes one request message and returns the response. The
// context is the connection's serve context: it is cancelled when the
// serve context passed to Serve/ServeConn is cancelled, so long-running
// handlers can abort instead of stranding the shutdown.
type Handler func(ctx context.Context, req Message) (Message, error)

// Server serves the RPC protocol over accepted connections. Each
// connection gets its own pipeline configuration (compression/encryption
// settings must match the client's).
type Server struct {
	handler     Handler
	asyncH      AsyncHandler // async mode: requests dispatched to eng
	eng         *Engine
	newPipeline func() (*Pipeline, error)
	ins         *Instrumentation

	mu     sync.Mutex
	closed bool
	lis    net.Listener
	conns  map[net.Conn]context.CancelFunc
	wg     sync.WaitGroup
}

// Instrument attaches telemetry to the server: each handled request
// produces a handler span joined to the caller's trace (when the request
// carries trace headers) and per-stage decode/encode histograms. Call
// before Serve.
func (s *Server) Instrument(ins *Instrumentation) { s.ins = ins }

// NewServer returns a server that decodes with pipelines from newPipeline
// and dispatches to handler.
func NewServer(handler Handler, newPipeline func() (*Pipeline, error)) (*Server, error) {
	if handler == nil {
		return nil, errors.New("rpc: nil handler")
	}
	if newPipeline == nil {
		newPipeline = func() (*Pipeline, error) { return NewPipeline() }
	}
	return &Server{handler: handler, newPipeline: newPipeline}, nil
}

// NewAsyncServer returns a server that dispatches every request to eng's
// completion-queue worker pool: handler runs the host-side stage, may
// park the request on an accelerator (AsyncCall.Park), and a completion
// worker writes the response whenever it is ready — out of order with
// respect to other requests on the same connection. Responses echo the
// request's HeaderCID so a MuxClient can run many calls in flight on one
// connection; clients that issue one call at a time need no changes.
// Batch envelopes are not accepted in this mode (the engine is itself the
// concurrency layer).
func NewAsyncServer(handler AsyncHandler, eng *Engine, newPipeline func() (*Pipeline, error)) (*Server, error) {
	if handler == nil {
		return nil, errors.New("rpc: nil async handler")
	}
	if eng == nil {
		return nil, errors.New("rpc: nil engine")
	}
	if newPipeline == nil {
		newPipeline = func() (*Pipeline, error) { return NewPipeline() }
	}
	return &Server{asyncH: handler, eng: eng, newPipeline: newPipeline}, nil
}

// Serve accepts connections until the listener closes, the server is
// Closed, or ctx is cancelled. Cancellation is forceful and propagates to
// in-flight connections: every connection's handler context is cancelled
// and its conn closed, unblocking blocked reads and in-flight (including
// batched) handlers. Close, by contrast, stays graceful — it stops
// accepting and lets existing connections finish naturally. Serve waits
// for in-flight connections to drain before returning; it returns nil
// after Close and ctx's error after cancellation.
func (s *Server) Serve(ctx context.Context, lis net.Listener) error {
	if ctx == nil {
		ctx = context.Background()
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("rpc: server already closed")
	}
	s.lis = lis
	s.mu.Unlock()

	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, s.cancelConns)
		defer stop()
	}
	for {
		conn, err := lis.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if !closed {
				return fmt.Errorf("rpc: accept: %w", err)
			}
			s.wg.Wait()
			return ctx.Err()
		}
		connCtx, ok := s.trackConn(ctx, conn)
		if !ok {
			// Close() or cancellation raced with Accept: the WaitGroup may
			// already be draining, so this connection must not be added.
			conn.Close() //modelcheck:ignore errdrop — connection abandoned during shutdown
			s.wg.Wait()
			return ctx.Err()
		}
		go func() {
			defer s.wg.Done()
			s.serveConn(connCtx, conn)
		}()
	}
}

// ServeConn handles a single pre-established connection (e.g. one end of
// net.Pipe) until it closes or ctx is cancelled.
func (s *Server) ServeConn(ctx context.Context, conn net.Conn) {
	if ctx == nil {
		ctx = context.Background()
	}
	connCtx, ok := s.trackConn(ctx, conn)
	if !ok {
		conn.Close() //modelcheck:ignore errdrop — connection abandoned during shutdown
		return
	}
	defer s.wg.Done()
	s.serveConn(connCtx, conn)
}

// trackConn registers one in-flight connection: it joins the WaitGroup and
// derives the connection's handler context from parent. It reports false
// once the server is closed: Close sets closed under mu before it waits,
// so a successful Add here can never race a concurrent Wait.
func (s *Server) trackConn(parent context.Context, conn net.Conn) (context.Context, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false
	}
	ctx, cancel := context.WithCancel(parent)
	if s.conns == nil {
		s.conns = make(map[net.Conn]context.CancelFunc)
	}
	s.conns[conn] = cancel
	s.wg.Add(1)
	return ctx, true
}

// forgetConn drops a finished connection and releases its context.
func (s *Server) forgetConn(conn net.Conn) {
	s.mu.Lock()
	cancel := s.conns[conn]
	delete(s.conns, conn)
	s.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// cancelConns is the forceful-shutdown path taken when a Serve context is
// cancelled: stop accepting, then cancel every in-flight connection's
// context. Each connection's AfterFunc closes its conn, so blocked reads
// return immediately.
func (s *Server) cancelConns() {
	s.mu.Lock()
	s.closed = true
	lis := s.lis
	s.lis = nil
	cancels := make([]context.CancelFunc, 0, len(s.conns))
	for _, cancel := range s.conns {
		cancels = append(cancels, cancel)
	}
	s.mu.Unlock()
	if lis != nil {
		lis.Close() //modelcheck:ignore errdrop — best-effort listener teardown on cancellation
	}
	for _, cancel := range cancels {
		cancel()
	}
}

func (s *Server) serveConn(ctx context.Context, conn net.Conn) {
	defer s.forgetConn(conn)
	defer conn.Close()
	// trackConn always derives a cancellable context, so a cancelled serve
	// context (or forgetConn itself, harmlessly, on the way out) closes the
	// conn and unblocks a ReadFrame in progress.
	stop := context.AfterFunc(ctx, func() {
		conn.Close() //modelcheck:ignore errdrop — forced close on cancellation
	})
	defer stop()
	pipeline, err := s.newPipeline()
	if err != nil {
		return
	}
	ins := s.ins
	if ins != nil {
		pipeline.Instrument(ins.Metrics)
	}
	// Async mode completes responses out of order on engine workers, so
	// it gets a dedicated mutex-guarded writer with its own encode
	// pipeline (Pipeline is not safe for concurrent encode+decode; the
	// read loop keeps `pipeline` for decode only).
	var cw *connWriter
	if s.eng != nil {
		encPipe, err := s.newPipeline()
		if err != nil {
			return
		}
		if ins != nil {
			encPipe.Instrument(ins.Metrics)
		}
		cw = &connWriter{conn: conn, enc: encPipe}
	}
	var hdr [4]byte // frame-header scratch, reused across the connection
	for {
		frame, err := readFrame(conn, &hdr)
		if err != nil {
			return
		}
		frameLen := len(frame)
		req, err := pipeline.DecodeCtx(ctx, frame, nil)
		putBuf(frame) // Decode copied the message out; the frame is dead
		if err != nil {
			return
		}
		if cw != nil {
			if ins.enabled() && ins.Metrics != nil {
				ins.Metrics.BytesRecv.Add(uint64(frameLen))
			}
			s.serveOneAsync(ctx, cw, req)
			continue
		}

		var resp Message
		var sp *telemetry.Span
		if req.Method == BatchMethod {
			resp = s.handleBatch(ctx, req)
		} else {
			resp, sp = s.handleOne(ctx, req)
		}
		out, err := pipeline.EncodeCtx(ctx, resp, sp)
		if req.Method == BatchMethod {
			// The batch-envelope payload is pooled by handleBatch and was
			// copied into the encoded frame (or is dead on error).
			putBuf(resp.Payload)
		}
		if err != nil {
			sp.End()
			return
		}
		obs := ins.enabled()
		var t0 time.Time
		if obs {
			t0 = time.Now()
		}
		outLen := len(out)
		var werr error
		proflabel.Do(ctx, plFrameIO, func(context.Context) {
			werr = writeFrame(conn, out, &hdr)
		})
		putBuf(out) // the frame write flushed; the encode buffer is dead
		if obs {
			var h *telemetry.Histogram
			if ins.Metrics != nil {
				h = ins.Metrics.FrameWrite
				ins.Metrics.BytesSent.Add(uint64(outLen))
				ins.Metrics.BytesRecv.Add(uint64(frameLen))
			}
			observeStage(h, sp, "frame-write", t0)
		}
		sp.End()
		if werr != nil {
			return
		}
	}
}

// handleOne dispatches one request to the handler: it joins the caller's
// trace, times the handler, and maps a handler error onto an error-header
// response (error isolation — a failing request never tears down the
// connection or, in a batch, its siblings). The returned span is still
// open so the caller can attribute response encoding to it; the caller
// must End it. (Decode happens before the trace IDs are known, so decode
// stages are visible in the stage histograms but not as span children.)
func (s *Server) handleOne(ctx context.Context, req Message) (Message, *telemetry.Span) {
	ins := s.ins
	var sp *telemetry.Span
	var t0 time.Time
	obs := ins.enabled()
	if obs {
		if ins.Tracer != nil {
			traceID, parentID := traceContext(req)
			sp = ins.Tracer.Join("rpc.Server/"+req.Method, traceID, parentID, time.Now())
			sp.SetCategory(telemetry.CatRPC)
			// The handler sees its own span so it can hang work and
			// downstream-call children off this request's trace.
			ctx = telemetry.ContextWithSpan(ctx, sp)
		}
		t0 = time.Now()
	}
	resp, err := s.handler(ctx, req)
	if obs {
		var h *telemetry.Histogram
		if ins.Metrics != nil {
			h = ins.Metrics.Handler
		}
		observeStage(h, sp, "handler", t0)
	}
	if err != nil {
		resp = Message{
			Method:  req.Method,
			Headers: map[string]string{"error": err.Error()},
		}
	}
	return resp, sp
}

// serveOneAsync hands one decoded request to the engine's
// completion-queue workers (blocking only on queue backpressure). The
// response goes through cw, echoing the caller's correlation id, so
// responses may complete out of order.
func (s *Server) serveOneAsync(ctx context.Context, cw *connWriter, req Message) {
	if req.Method == BatchMethod {
		resp := Message{
			Method:  BatchMethod,
			Headers: map[string]string{"error": "rpc: batch envelope not supported in async mode"},
		}
		if cid := req.Headers[HeaderCID]; cid != "" {
			resp.Headers[HeaderCID] = cid
		}
		//modelcheck:ignore errdrop — a failed error-response write is terminal for the conn, surfaced by the read loop
		_ = cw.respond(ctx, resp, nil)
		return
	}
	s.eng.dispatch(ctx, s.asyncH, cw, req, s.ins)
}

// Close stops accepting and waits for in-flight connections to finish.
// Close is graceful: existing connections run to completion with their
// handler contexts intact. Cancel the Serve context instead to force
// in-flight work to abort.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	lis := s.lis
	s.lis = nil
	s.mu.Unlock()
	var err error
	if lis != nil {
		err = lis.Close()
	}
	s.wg.Wait()
	return err
}

// Client issues requests over one connection. It is safe for sequential
// use; callers needing concurrency should pool clients or attach a
// Batcher, which coalesces concurrent callers into batched exchanges.
type Client struct {
	conn     net.Conn
	pipeline *Pipeline
	ins      *Instrumentation
	hdr      [4]byte // frame-header scratch, reused across calls
}

// Instrument attaches telemetry to the client: each Call produces a span
// with child spans per pipeline stage, stage and call-latency histograms,
// and trace-context headers on outgoing requests. Pass nil to detach.
func (c *Client) Instrument(ins *Instrumentation) {
	c.ins = ins
	if ins != nil {
		c.pipeline.Instrument(ins.Metrics)
	} else {
		c.pipeline.Instrument(nil)
	}
}

// NewClient wraps a connection with a pipeline.
func NewClient(conn net.Conn, pipeline *Pipeline) (*Client, error) {
	if conn == nil {
		return nil, errors.New("rpc: nil connection")
	}
	if pipeline == nil {
		var err error
		pipeline, err = NewPipeline()
		if err != nil {
			return nil, err
		}
	}
	return &Client{conn: conn, pipeline: pipeline}, nil
}

// Call sends a request and waits for the response. A response carrying an
// "error" header is surfaced as an error. It blocks until the server
// responds or the connection breaks; use CallContext to bound the wait.
func (c *Client) Call(req Message) (Message, error) {
	return c.call(context.Background(), req)
}

// CallContext is Call with context deadline and cancellation support: the
// context's deadline bounds the whole exchange, and cancellation unblocks
// an in-flight read or write, so a vanished server cannot block the caller
// forever. The connection's I/O deadline is restored on return, leaving
// the client reusable after a deadline-free follow-up call.
func (c *Client) CallContext(ctx context.Context, req Message) (Message, error) {
	if err := ctx.Err(); err != nil {
		return Message{}, fmt.Errorf("rpc: call aborted: %w", err)
	}
	if deadline, ok := ctx.Deadline(); ok {
		if err := c.conn.SetDeadline(deadline); err != nil {
			return Message{}, fmt.Errorf("rpc: set deadline: %w", err)
		}
		//modelcheck:ignore errdrop — best-effort deadline reset on a conn that may already be dead
		defer func() { _ = c.conn.SetDeadline(time.Time{}) }()
	}
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, func() {
			// Force any in-flight read/write to fail immediately.
			//modelcheck:ignore errdrop — best-effort wakeup; the blocked I/O surfaces the error
			_ = c.conn.SetDeadline(time.Unix(1, 0))
		})
		defer stop()
	}
	resp, err := c.call(ctx, req)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return Message{}, fmt.Errorf("rpc: call aborted: %w", ctxErr)
		}
		// The connection deadline is enforced by the runtime poller, which
		// can fire marginally before the context's own timer marks ctx
		// expired; classify by the deadline itself so the caller always
		// sees DeadlineExceeded for a deadline-bounded call that ran out.
		if deadline, ok := ctx.Deadline(); ok && !time.Now().Before(deadline) {
			return Message{}, fmt.Errorf("rpc: call aborted: %w", context.DeadlineExceeded)
		}
	}
	return resp, err
}

// call runs one request/response exchange, instrumented when telemetry is
// attached. The uninstrumented path performs no extra work beyond nil
// checks. ctx carries CPU-attribution labels into the pipeline stages (it
// is not consulted for cancellation here — CallContext arms cancellation
// via the connection deadline before delegating).
func (c *Client) call(ctx context.Context, req Message) (Message, error) {
	ins := c.ins
	obs := ins.enabled()
	var sp *telemetry.Span
	var callStart time.Time
	if obs {
		if ins.Tracer != nil {
			// A request already carrying trace context (planted by a
			// handler issuing a mid-request downstream call) continues
			// that trace; a bare request roots a fresh one. Either way
			// this call's own span becomes the downstream parent.
			if traceID, parentID := traceContext(req); traceID != 0 {
				sp = ins.Tracer.Join("rpc.Call/"+req.Method, traceID, parentID, time.Now())
			} else {
				sp = ins.Tracer.Start("rpc.Call/" + req.Method)
			}
			req = withTraceContext(req, sp)
		}
		if ins.Metrics != nil {
			ins.Metrics.Calls.Inc()
		}
		callStart = time.Now()
	}

	resp, err := c.exchange(ctx, req, ins, sp, obs)

	if obs {
		if ins.Metrics != nil {
			ins.Metrics.CallLatency.Record(time.Since(callStart).Seconds())
			if err != nil {
				ins.Metrics.CallErrors.Inc()
			}
		}
		sp.End()
	}
	return resp, err
}

// exchange performs encode → frame-write → net-wait → decode. Pooled
// buffer ownership: the encode output is released once the frame write
// flushes, and the response frame once decode has copied the message out.
func (c *Client) exchange(ctx context.Context, req Message, ins *Instrumentation, sp *telemetry.Span, obs bool) (Message, error) {
	data, err := c.pipeline.EncodeCtx(ctx, req, sp)
	if err != nil {
		return Message{}, err
	}

	var t0 time.Time
	if obs {
		t0 = time.Now()
	}
	dataLen := len(data)
	var werr error
	proflabel.Do(ctx, plFrameIO, func(context.Context) {
		werr = writeFrame(c.conn, data, &c.hdr)
	})
	putBuf(data) // the frame write flushed; the encode buffer is dead
	if werr != nil {
		return Message{}, werr
	}
	if obs {
		var h *telemetry.Histogram
		if ins.Metrics != nil {
			h = ins.Metrics.FrameWrite
			ins.Metrics.BytesSent.Add(uint64(dataLen))
		}
		observeStage(h, sp, "frame-write", t0)
		t0 = time.Now()
	}

	frame, err := readFrame(c.conn, &c.hdr)
	if err != nil {
		return Message{}, fmt.Errorf("rpc: read response: %w", err)
	}
	if obs {
		var h *telemetry.Histogram
		if ins.Metrics != nil {
			h = ins.Metrics.NetWait
			ins.Metrics.BytesRecv.Add(uint64(len(frame)))
		}
		observeStage(h, sp, "net-wait", t0)
	}

	resp, err := c.pipeline.DecodeCtx(ctx, frame, sp)
	putBuf(frame) // decode copied the message out; the frame is dead
	if err != nil {
		return Message{}, err
	}
	if msg, ok := resp.Headers["error"]; ok {
		return resp, fmt.Errorf("rpc: remote error: %s", msg)
	}
	return resp, nil
}

// Close closes the underlying connection.
func (c *Client) Close() error { return c.conn.Close() }

// Stats returns the client pipeline's counters.
func (c *Client) Stats() PipelineStats { return c.pipeline.Stats() }
