package main

import (
	"compress/flate"
	"context"
	"fmt"
	"time"

	"repro/internal/kernels"
	"repro/internal/rpc"
)

// The probes below time calls into one layer's public functions on the
// workload's own inputs. Each repeats passes over the pool until it has
// run for at least probeTime, so a probe's figure averages thousands of
// calls.
const probeTime = 150 * time.Millisecond

// repeatPasses runs pass until probeTime has elapsed and returns the
// total time and the number of passes.
func repeatPasses(pass func() error) (time.Duration, int, error) {
	t0 := time.Now()
	n := 0
	for time.Since(t0) < probeTime {
		if err := pass(); err != nil {
			return 0, 0, err
		}
		n++
	}
	return time.Since(t0), n, nil
}

// nsPerKiB times f over every payload of ps and returns nanoseconds per
// KiB processed.
func nsPerKiB(ps payloadSet, f func([]byte) error) (float64, error) {
	d, passes, err := repeatPasses(func() error {
		for _, m := range ps.msgs {
			if err := f(m.Payload); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	kib := float64(ps.bytes) * float64(passes) / 1024
	return float64(d.Nanoseconds()) / kib, nil
}

// kernelProbes times the rpc-tax kernels (compress, encrypt, hash) on
// the payload pool. With compression and encryption off only the hash
// kernel is probed.
func kernelProbes(ps payloadSet, compressEncrypt bool) (map[string]float64, error) {
	out := map[string]float64{}
	var err error
	if out["kernels.hash_ns_per_kib"], err = nsPerKiB(ps, func(p []byte) error {
		kernels.Hash(p)
		return nil
	}); err != nil {
		return nil, err
	}
	if !compressEncrypt {
		return out, nil
	}
	var buf []byte
	if out["kernels.compress_ns_per_kib"], err = nsPerKiB(ps, func(p []byte) error {
		var cerr error
		buf, cerr = kernels.CompressAppend(buf[:0], p, flate.BestSpeed)
		return cerr
	}); err != nil {
		return nil, err
	}
	c, err := kernels.NewCipher(taxKey)
	if err != nil {
		return nil, err
	}
	iv := make([]byte, 16)
	if out["kernels.encrypt_ns_per_kib"], err = nsPerKiB(ps, func(p []byte) error {
		if cap(buf) < len(p) {
			buf = make([]byte, len(p))
		}
		return c.EncryptTo(buf[:len(p)], iv, p)
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// codecTimes is the mean cost of one Pipeline.Encode and one
// Pipeline.Decode, in microseconds.
type codecTimes struct{ encodeUS, decodeUS float64 }

// codecProbe times Encode then Decode of every message in msgs through
// pipelines from newPipeline (one encoder, one decoder, as on the wire).
func codecProbe(msgs []rpc.Message, newPipeline func() (*rpc.Pipeline, error)) (codecTimes, error) {
	enc, err := newPipeline()
	if err != nil {
		return codecTimes{}, err
	}
	dec, err := newPipeline()
	if err != nil {
		return codecTimes{}, err
	}
	var encD, decD time.Duration
	_, passes, err := repeatPasses(func() error {
		for _, m := range msgs {
			t0 := time.Now()
			wire, err := enc.Encode(m)
			t1 := time.Now()
			if err != nil {
				return err
			}
			got, err := dec.Decode(wire)
			decD += time.Since(t1)
			encD += t1.Sub(t0)
			if err != nil {
				return err
			}
			if len(got.Payload) != len(m.Payload) {
				return fmt.Errorf("codec probe: decoded %d bytes, encoded %d", len(got.Payload), len(m.Payload))
			}
		}
		return nil
	})
	if err != nil {
		return codecTimes{}, err
	}
	n := float64(len(msgs) * passes)
	return codecTimes{encodeUS: encD.Seconds() * 1e6 / n, decodeUS: decD.Seconds() * 1e6 / n}, nil
}

// bareCallUS is the mean latency of one empty call on a plain pipeline
// over a fresh loopback connection: framing, transport and sync server
// dispatch with no payload work.
func bareCallUS() (float64, error) {
	srv, err := rpc.NewServer(func(_ context.Context, req rpc.Message) (rpc.Message, error) {
		return rpc.Message{Method: req.Method}, nil
	}, nil)
	if err != nil {
		return 0, err
	}
	s, err := serve(srv)
	if err != nil {
		return 0, err
	}
	defer func() { _ = s.stop() }() // a stop error after the probe measured nothing wrong
	conn, err := s.dial()
	if err != nil {
		return 0, err
	}
	c, err := rpc.NewClient(conn, nil)
	if err != nil {
		conn.Close()
		return 0, err
	}
	defer c.Close()
	req := rpc.Message{Method: "bare"}
	for k := 0; k < 200; k++ {
		if _, err := c.Call(req); err != nil {
			return 0, err
		}
	}
	d, calls, err := repeatPasses(func() error {
		_, err := c.Call(req)
		return err
	})
	if err != nil {
		return 0, err
	}
	return d.Seconds() * 1e6 / float64(calls), nil
}
