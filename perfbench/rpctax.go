package main

import (
	"compress/flate"
	"fmt"
	"time"

	"repro/internal/fleetdata"
	"repro/internal/rpc"
)

// rpc-tax: one rpc.Client on one loopback TCP connection, closed loop, to
// an rpc.NewServer whose handler returns kernels.Hash of the request
// payload. Both sides serialize, DEFLATE-compress and AES-CTR-encrypt.
// Payload sizes follow Feed1's Fig 19 compression-granularity CDF.

const (
	taxPoolSize = 4096 // distinct request payloads, cycled in order
	taxWarmUp   = 500  // calls before timing on each stack
)

// taxKey is the AES-128 session key both sides of rpc-tax share.
var taxKey = []byte("perfbench-aeskey")

func taxPipeline() (*rpc.Pipeline, error) {
	return rpc.NewPipeline(rpc.WithCompression(flate.BestSpeed), rpc.WithEncryption(taxKey))
}

// taxStack is one rpc-tax server and its client. Instrumented stacks
// attach a tracer and stage histograms on both sides.
type taxStack struct {
	s        *serving
	c        *rpc.Client
	next     int // calls issued through c, and the payload pool cursor
	mismatch int // responses that were not the expected digest
	srvIns   *rpc.Instrumentation
	cliIns   *rpc.Instrumentation
}

func newTaxStack(traced bool) (*taxStack, error) {
	srv, err := rpc.NewServer(hashHandler, taxPipeline)
	if err != nil {
		return nil, err
	}
	st := &taxStack{}
	if traced {
		if st.srvIns, err = instrumentation("server", "srv"); err != nil {
			return nil, err
		}
		if st.cliIns, err = instrumentation("client", "cli"); err != nil {
			return nil, err
		}
		srv.Instrument(st.srvIns)
	}
	if st.s, err = serve(srv); err != nil {
		return nil, err
	}
	conn, err := st.s.dial()
	if err != nil {
		_ = st.s.stop() // the dial error is reported
		return nil, err
	}
	p, err := taxPipeline()
	if err == nil {
		st.c, err = rpc.NewClient(conn, p)
	}
	if err != nil {
		conn.Close()
		_ = st.s.stop() // the client error is reported
		return nil, err
	}
	if traced {
		st.c.Instrument(st.cliIns)
	}
	return st, nil
}

func (st *taxStack) close() error {
	st.c.Close()
	return st.s.stop()
}

func (st *taxStack) warmUp(ps payloadSet) error { return warmUp(st.c, ps, &st.next, taxWarmUp) }

func (st *taxStack) measure(ps payloadSet, d time.Duration) window {
	return closedLoop(st.c, ps, &st.next, d, &st.mismatch)
}

// checkTaxPipeline checks the client pipeline's counters against the
// calls issued: every request was compressed and encrypted once, every
// response decrypted and decoded once, and the compressible requests
// shrank on the wire.
func checkTaxPipeline(s rpc.PipelineStats, calls int) error {
	n := uint64(calls)
	if s.Serialized != n || s.Compressions != n || s.Encryptions != n {
		return fmt.Errorf("pipeline serialized/compressed/encrypted %d/%d/%d requests, %d calls issued",
			s.Serialized, s.Compressions, s.Encryptions, n)
	}
	if s.Decryptions != n || s.Deserialized != n {
		return fmt.Errorf("pipeline decrypted/decoded %d/%d responses, %d calls issued", s.Decryptions, s.Deserialized, n)
	}
	if s.BytesOut >= s.BytesIn {
		return fmt.Errorf("compressible requests did not shrink on the wire: %d bytes in, %d out", s.BytesIn, s.BytesOut)
	}
	return nil
}

func runRPCTax(opt options) (*outcome, error) {
	ps := makePayloads(fleetdata.CompressionSizes[fleetdata.Feed1], taxPoolSize, 1, opt.seed, "tax")
	st, err := newTaxStack(false)
	if err != nil {
		return nil, err
	}
	defer st.close()
	if err := st.warmUp(ps); err != nil {
		return nil, err
	}
	out := &outcome{setup: time.Since(processStart)}

	d := opt.duration
	if opt.trace {
		d /= 2
	}
	out.measured = st.measure(ps, d)
	stacks := []*taxStack{st}

	if opt.trace {
		ts, err := newTaxStack(true)
		if err != nil {
			return nil, err
		}
		defer ts.close()
		if err := ts.warmUp(ps); err != nil {
			return nil, err
		}
		tw := ts.measure(ps, d)
		stacks = append(stacks, ts)
		if out.layers, err = taxLayers(ps, out.measured, tw, ts); err != nil {
			return nil, err
		}
	}
	for _, s := range stacks {
		if s.mismatch > 0 {
			out.problems = append(out.problems, fmt.Sprintf("%d responses were not the SHA-256 of their request", s.mismatch))
		}
		if err := checkTaxPipeline(s.c.Stats(), s.next); err != nil {
			out.problems = append(out.problems, err.Error())
		}
	}
	return out, nil
}

// taxLayers gathers rpc-tax's per-layer metrics: kernel and codec probes
// on the payload pool, the traced stack's stage histograms, and the
// reconciliation of the untraced mean call latency against the sum of
// the layers one call passes through.
func taxLayers(ps payloadSet, untraced, traced window, ts *taxStack) (map[string]float64, error) {
	m, err := kernelProbes(ps, true)
	if err != nil {
		return nil, err
	}
	req, err := codecProbe(ps.msgs, taxPipeline)
	if err != nil {
		return nil, err
	}
	resps := make([]rpc.Message, 256)
	for i := range resps {
		resps[i] = rpc.Message{Method: "tax", Payload: ps.digests[i][:]}
	}
	resp, err := codecProbe(resps, taxPipeline)
	if err != nil {
		return nil, err
	}
	bare, err := bareCallUS()
	if err != nil {
		return nil, err
	}
	for k, v := range stageMeansUS(ts.cliIns, ts.srvIns) {
		m[k] = v
	}
	st := ts.c.Stats()
	meanKiB := float64(ps.bytes) / float64(len(ps.msgs)) / 1024
	hashUS := m["kernels.hash_ns_per_kib"] * meanKiB / 1e3
	layers := req.encodeUS + req.decodeUS + hashUS + resp.encodeUS + resp.decodeUS + bare
	m["rpc.encode_us"] = req.encodeUS
	m["rpc.decode_us"] = req.decodeUS
	m["rpc.bare_call_us"] = bare
	m["rpc.wire_bytes_ratio"] = float64(st.BytesOut) / float64(st.BytesIn)
	m["rpc.reconcile_layers_us"] = layers
	m["rpc.reconcile_remainder_us"] = untraced.meanUS - layers
	addRuntimeLayers(m, untraced, 1)
	m["trace.overhead_pct"] = overheadPct(untraced.p50(), traced.p50())
	return m, nil
}

// addRuntimeLayers records allocations per operation and GC cycles per
// thousand requests, where one operation stands for reqsPerOp requests.
func addRuntimeLayers(m map[string]float64, w window, reqsPerOp float64) {
	m["rpc.allocs_per_call"] = float64(w.mallocs) / float64(w.ops)
	m["go.gc_cycles_per_kreq"] = float64(w.gcs) / (float64(w.ops) * reqsPerOp / 1000)
}
