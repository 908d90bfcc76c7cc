package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/dist"
	"repro/internal/kernels"
	"repro/internal/rpc"
	"repro/internal/telemetry"
)

// payloadSet is a workload's request pool, generated before timing: each
// message carries compressible bytes, and digests holds the SHA-256 the
// benchmark computed for each one with crypto/sha256, apart from the
// program under test.
type payloadSet struct {
	msgs    []rpc.Message
	digests [][32]byte
	bytes   uint64
}

// makePayloads draws n sizes from cdf (see stratifiedSizes), raises any
// below minSize to it, and fills each payload with kernels.FillCompressible
// content seeded from seed and the payload's index.
func makePayloads(cdf *dist.CDF, n int, minSize uint64, seed uint64, method string) payloadSet {
	sizes := stratifiedSizes(cdf, n, seed)
	var total uint64
	for i, s := range sizes {
		if s < minSize {
			sizes[i] = minSize
		}
		total += sizes[i]
	}
	backing := make([]byte, total)
	ps := payloadSet{msgs: make([]rpc.Message, n), digests: make([][32]byte, n), bytes: total}
	off := uint64(0)
	for i, s := range sizes {
		p := backing[off : off+s : off+s]
		off += s
		kernels.FillCompressible(p, seed*1_000_003+uint64(i))
		ps.msgs[i] = rpc.Message{Method: method, Payload: p}
		ps.digests[i] = sha256.Sum256(p)
	}
	return ps
}

// checkDigest reports whether a response payload is the expected digest.
func checkDigest(got []byte, want [32]byte) error {
	if len(got) != len(want) {
		return fmt.Errorf("response of %d bytes, want a %d-byte digest", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("digest differs at byte %d", i)
		}
	}
	return nil
}

// hashHandler answers every request with kernels.Hash of its payload.
func hashHandler(_ context.Context, req rpc.Message) (rpc.Message, error) {
	sum := kernels.Hash(req.Payload)
	return rpc.Message{Method: req.Method, Payload: sum[:]}, nil
}

// serving is one rpc.Server accepting on a loopback listener.
type serving struct {
	srv    *rpc.Server
	lis    net.Listener
	cancel context.CancelFunc
	done   chan error
}

func serve(srv *rpc.Server) (*serving, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &serving{srv: srv, lis: lis, cancel: cancel, done: make(chan error, 1)}
	go func() { s.done <- srv.Serve(ctx, lis) }()
	return s, nil
}

func (s *serving) dial() (net.Conn, error) { return net.Dial("tcp", s.lis.Addr().String()) }

// stop closes the server, force-closes its connections and waits for
// Serve to return.
func (s *serving) stop() error {
	err := s.srv.Close()
	s.cancel()
	if serr := <-s.done; serr != nil && !errors.Is(serr, context.Canceled) && err == nil {
		err = serr
	}
	return err
}

// closedLoop issues calls from ps back to back on c for d, starting at
// pool index *next, checks every response digest and returns the phase.
// mismatches counts responses that were not the expected digest.
func closedLoop(c *rpc.Client, ps payloadSet, next *int, d time.Duration, mismatches *int) window {
	var w window
	probe := startMemProbe()
	t0 := time.Now()
	sl := newSlicer(t0)
	ss := startStealSampler(t0)
	deadline := t0.Add(d)
	for now := t0; now.Before(deadline); {
		i := *next % len(ps.msgs)
		*next++
		resp, err := c.Call(ps.msgs[i])
		end := time.Now()
		w.ops++
		if err != nil {
			w.failed++
		} else {
			if checkDigest(resp.Payload, ps.digests[i]) != nil {
				*mismatches++
			}
			sl.add(end, float64(end.Sub(now))/1e3)
		}
		now = end
	}
	w.elapsed = time.Since(t0)
	sl.finish(&w, ss.finish())
	probe.finish(&w)
	return w
}

// warmUp issues n calls so connections, pools and caches are warm before
// timing; it returns the first error.
func warmUp(c *rpc.Client, ps payloadSet, next *int, n int) error {
	for k := 0; k < n; k++ {
		i := *next % len(ps.msgs)
		*next++
		resp, err := c.Call(ps.msgs[i])
		if err != nil {
			return fmt.Errorf("warm-up call: %w", err)
		}
		if err := checkDigest(resp.Payload, ps.digests[i]); err != nil {
			return fmt.Errorf("warm-up call: %w", err)
		}
	}
	return nil
}

// instrumentation returns a tracer plus stage histograms registered
// under prefix, the traced configuration of a client or server.
func instrumentation(process, prefix string) (*rpc.Instrumentation, error) {
	mx, err := rpc.NewMetrics(telemetry.NewRegistry(), prefix)
	if err != nil {
		return nil, err
	}
	return &rpc.Instrumentation{Tracer: telemetry.NewTracer(process), Metrics: mx}, nil
}

// stageNames are the pipeline stages rpc.Metrics keeps histograms for.
var stageNames = []string{"serialize", "compress", "encrypt", "decrypt", "decompress", "deserialize"}

// stageMeansUS merges the stage histograms of every instrumentation (the
// client and the server side of one call) and returns each stage's mean
// in microseconds. Stages that never ran are left out.
func stageMeansUS(insts ...*rpc.Instrumentation) map[string]float64 {
	out := map[string]float64{}
	for _, st := range stageNames {
		var merged telemetry.HistogramSnapshot
		for k, ins := range insts {
			s := ins.Metrics.StageLatency(st).Snapshot()
			if k == 0 {
				merged = s
			} else {
				merged = merged.Merge(s)
			}
		}
		if merged.Count > 0 {
			out["rpc.stage_"+st+"_us"] = merged.Mean() * 1e6
		}
	}
	return out
}
