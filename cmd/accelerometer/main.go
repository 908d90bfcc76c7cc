// Command accelerometer mirrors the paper's artifact workflow: read model
// parameters from a key=value configuration file and print the estimated
// throughput speedup and per-request latency reduction for the configured
// threading design — plus, with -all, every other design for comparison.
//
// Usage:
//
//	accelerometer -config case1.conf
//	accelerometer -config case1.conf -all
//	accelerometer -config case1.conf -batch 8
//	accelerometer -config case1.conf -sweep A -values 1,2,5,10,50
//	echo 'C=2e9
//	alpha=0.165844
//	n=298951
//	o0=10
//	L=3
//	A=6' | accelerometer -config -
//
// With -fleet it instead drives the sharded synthetic-fleet simulation
// (internal/fleet): the eight characterized services run across -shards
// workers, optionally with the batched offload path (-batch), and the
// per-service plus aggregate results are printed:
//
//	accelerometer -fleet -shards 4 -batch 8 -fleet-requests 200 -seed 42
//
// With -live it measures instead of simulating: the named services burn
// real CPU work shaped by their calibrated Table 3 weights while a labeled
// CPU profile is collected in-process, and the measured functionality and
// leaf breakdowns are compared against the calibrated fleetdata weights
// (drift report on stdout; -drift-json for machine-readable output,
// -profile-out to keep the raw pprof profile):
//
//	accelerometer -live -live-services Cache1,Cache2 -drift-json drift.json
//
// With -record the fleet run additionally captures its request stream in
// the flight recorder and writes a binary trace file; -replay drives a
// recorded trace back through the simulator, and -replay-rpc issues it
// open-loop through the real RPC stack (an in-process echo server) at the
// recorded timestamps, optionally time-dilated:
//
//	accelerometer -fleet -record run.trace
//	accelerometer -replay run.trace
//	accelerometer -replay-rpc run.trace -dilate 0.1
//
// With -topology the binary drives a multi-tier service topology from a
// spec file: every node is a real RPC server on loopback, parents issue
// mid-request downstream calls per the fan-out spec, and an open-loop
// generator injects arrivals at the roots (synthetic -topo-qps schedule
// or a recorded trace via -topo-trace). The per-tier latency table with
// hop-by-hop tail amplification is printed alongside the composed
// Accelerometer model's predicted end-to-end latency reduction:
//
//	accelerometer -topology testdata/topologies/web.topo -topo-qps 200
//	accelerometer -topology web.topo -topo-trace run.trace -dilate 2
//	accelerometer -topology web.topo -topo-accel 8,10,10 -topo-accelerated
//
// With -async the serving path switches threading designs: offload points
// park their continuation on a completion-queue engine instead of holding
// a thread, so a small fixed worker pool drives arbitrarily many in-flight
// offloads (the paper's AsyncSameThread design). It applies to -replay-rpc
// (one engine-backed echo server with a simulated accelerator; the
// engine's gauges appear on /metrics and the dashboard) and to -topology
// (every node serves through its own engine and per-node accelerator at
// the -topo-accel offload parameters):
//
//	accelerometer -replay-rpc run.trace -async -async-workers 8 -debug-addr localhost:6060
//	accelerometer -topology web.topo -topo-accel 8,10,10 -async
//
// Any mode accepts -debug-addr to expose the observability endpoint
// (/metrics, /healthz, /debug/pprof/*, and a plain-text dashboard at /)
// for the duration of the run:
//
//	accelerometer -fleet -fleet-requests 100000 -debug-addr localhost:6060
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/debugserver"
	"repro/internal/fleet"
	"repro/internal/fleetdata"
	"repro/internal/kernels"
	"repro/internal/liveprof"
	"repro/internal/pprofx"
	"repro/internal/record"
	"repro/internal/rpc"
	"repro/internal/services"
	"repro/internal/sim"
	"repro/internal/tailtrace"
	"repro/internal/telemetry"
	"repro/internal/textchart"
	"repro/internal/topology"
)

// sweepParams maps -sweep names to model parameters.
var sweepParams = map[string]core.SweepParam{
	"a": core.SweepA, "l": core.SweepL, "q": core.SweepQ,
	"o1": core.SweepO1, "alpha": core.SweepAlpha, "n": core.SweepN,
}

func main() {
	path := flag.String("config", "", "parameter file (\"-\" for stdin)")
	all := flag.Bool("all", false, "evaluate every threading design, not just the configured one")
	sweep := flag.String("sweep", "", "parameter to sweep (A, L, Q, o1, alpha, n)")
	values := flag.String("values", "", "comma-separated values for -sweep")
	metricsOut := flag.String("metrics-out", "", "write Prometheus text metrics to this file (\"-\" for stdout)")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON file (\"-\" for stdout; load in Perfetto)")
	batch := flag.Float64("batch", 1, "rpc batch factor b >= 1: amortize fixed per-offload costs across b coalesced requests")
	fleetMode := flag.Bool("fleet", false, "simulate the sharded synthetic fleet instead of evaluating a -config model")
	shards := flag.Int("shards", 1, "fleet worker shards (with -fleet)")
	workers := flag.Int("workers", 0, "max goroutines running fleet shards; 0 = min(GOMAXPROCS, shards), 1 = sequential (with -fleet)")
	fleetRequests := flag.Int("fleet-requests", 200, "requests per service (with -fleet)")
	seed := flag.Uint64("seed", 42, "base workload seed (with -fleet)")
	debugAddr := flag.String("debug-addr", "", "serve the observability endpoint (/metrics, /healthz, /debug/pprof/) on this address for the run")
	liveMode := flag.Bool("live", false, "measure live CPU attribution of real burner execution instead of simulating")
	liveServices := flag.String("live-services", "", "comma-separated services to measure (with -live; default: all)")
	liveDuration := flag.Duration("live-duration", 1500*time.Millisecond, "wall-time burn budget per service (with -live)")
	liveHz := flag.Int("live-hz", 500, "CPU profile sampling rate in Hz (with -live; 0 = runtime default)")
	driftJSON := flag.String("drift-json", "", "write the measured-vs-calibrated drift report as JSON to this file (\"-\" for stdout; with -live)")
	profileOut := flag.String("profile-out", "", "write the raw collected CPU profile to this file (with -live)")
	recordPath := flag.String("record", "", "with -fleet: capture the request stream in the flight recorder and write a binary trace here")
	replayPath := flag.String("replay", "", "replay a recorded trace deterministically through the simulator")
	replayRPCPath := flag.String("replay-rpc", "", "replay a recorded trace open-loop through the real RPC stack (in-process echo server)")
	dilate := flag.Float64("dilate", 1, "time dilation for replay: >1 stretches recorded gaps, <1 compresses them")
	topoSpec := flag.String("topology", "", "drive a multi-tier service topology from this spec file (every node a real RPC server on loopback)")
	topoQPS := flag.Float64("topo-qps", 100, "open-loop arrival rate at the topology roots (with -topology)")
	topoRequests := flag.Int("topo-requests", 500, "arrivals to inject (with -topology)")
	topoPoisson := flag.Bool("topo-poisson", false, "draw Poisson inter-arrival gaps instead of uniform spacing (with -topology; seeded by -seed)")
	topoTrace := flag.String("topo-trace", "", "drive the topology from a recorded trace instead of the synthetic schedule (with -topology; honors -dilate)")
	topoAccel := flag.String("topo-accel", "8,10,10", "A,O0,L acceleration parameters for the composed-model prediction (with -topology)")
	topoAccelerated := flag.Bool("topo-accelerated", false, "run the live nodes at the -topo-accel offload cost instead of the baseline (with -topology)")
	tailTrace := flag.Bool("tail-trace", false, "collect request-centric spans across every tier and print the quantile-sliced tail-tax attribution (with -topology)")
	tailSample := flag.Int("tail-sample", 1, "keep 1 in N traces with -tail-trace (deterministic head sampling by trace ID)")
	tailExemplars := flag.Int("tail-exemplars", 3, "slowest requests retained as exemplars with -tail-trace; -trace-out exports their spans as a Chrome trace")
	asyncServe := flag.Bool("async", false, "serve offload points through the completion-queue engine (parked continuations) instead of blocking a thread (with -replay-rpc or -topology)")
	asyncWorkers := flag.Int("async-workers", 4, "completion-queue engine worker pool size (with -async)")
	offloadLatency := flag.Duration("offload-latency", time.Millisecond, "simulated accelerator latency per offload (with -replay-rpc -async)")
	flag.Parse()

	var rec *record.Recorder
	if *recordPath != "" {
		if !*fleetMode {
			fatal(fmt.Errorf("-record requires -fleet (the recorder hooks the fleet's request stream)"))
		}
		rec = record.NewRecorder(record.DefaultCapacity)
	}

	// The topology runner is constructed before the debug endpoint comes
	// up so its registry and live per-tier report are served for the whole
	// run, not just after the generator finishes.
	var topo *topologyRun
	if *topoSpec != "" {
		var err error
		if topo, err = newTopologyRun(*topoSpec, *topoAccel, *topoAccelerated, *asyncServe, *asyncWorkers, *tailTrace, *tailSample); err != nil {
			fatal(err)
		}
	}

	// The -replay-rpc -async engine is constructed before the debug
	// endpoint so its gauges register on /metrics and its counters feed
	// the dashboard's async panel for the whole replay.
	var asyncEng *rpc.Engine
	if *asyncServe && *replayRPCPath != "" {
		var err error
		if asyncEng, err = rpc.NewEngine(rpc.EngineConfig{Workers: *asyncWorkers}); err != nil {
			fatal(err)
		}
		defer asyncEng.Close() //modelcheck:ignore errdrop — process teardown after the replay completed
	}

	// The debug endpoint is opt-in and mode-independent: it serves the
	// run's registry when one exists and shuts down gracefully when the
	// chosen mode returns.
	var dbgReg *telemetry.Registry
	if *debugAddr != "" {
		dbgReg = telemetry.NewRegistry()
		dcfg := debugserver.Config{Addr: *debugAddr, Registry: dbgReg, Recorder: rec}
		if topo != nil {
			// Topology mode serves the runner's own registry so the
			// per-tier histograms appear on /metrics, plus the live
			// per-tier report on the dashboard.
			dbgReg = topo.reg
			dcfg.Registry = topo.reg
			dcfg.Topology = topo.runner
			if *asyncServe {
				dcfg.Async = topo.runner.AsyncStats
			}
			if topo.runner.Tracing() {
				dcfg.TailSpans = topo.runner.Spans
			}
		}
		if asyncEng != nil {
			if err := asyncEng.Instrument(dbgReg); err != nil {
				fatal(err)
			}
			dcfg.Async = asyncEng.Stats
		}
		dbg, err := debugserver.Start(dcfg)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "accelerometer: debug endpoint on %s\n", dbg.URL())
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := dbg.Shutdown(ctx); err != nil {
				fmt.Fprintln(os.Stderr, "accelerometer: debug shutdown:", err)
			}
		}()
	}

	if *replayPath != "" {
		if err := runReplaySim(*replayPath, *dilate); err != nil {
			fatal(err)
		}
		return
	}
	if *replayRPCPath != "" {
		var err error
		if *asyncServe {
			err = runReplayRPCAsync(*replayRPCPath, *dilate, *offloadLatency, asyncEng)
		} else {
			err = runReplayRPC(*replayRPCPath, *dilate)
		}
		if err != nil {
			fatal(err)
		}
		return
	}
	if topo != nil {
		load := topology.LoadConfig{QPS: *topoQPS, Requests: *topoRequests, Poisson: *topoPoisson, Seed: *seed}
		if *topoTrace != "" {
			tr, err := record.ReadFile(*topoTrace)
			if err != nil {
				fatal(err)
			}
			load.Trace = tr
			load.Dilate = *dilate
		}
		if err := topo.run(load, *metricsOut, *traceOut, *tailExemplars); err != nil {
			fatal(err)
		}
		return
	}
	if *liveMode {
		if err := runLive(*liveServices, *liveDuration, *liveHz, *seed, *driftJSON, *profileOut); err != nil {
			fatal(err)
		}
		return
	}
	if *fleetMode {
		if err := runFleet(*shards, *workers, *batch, *fleetRequests, *seed, *metricsOut, dbgReg, rec, *recordPath); err != nil {
			fatal(err)
		}
		return
	}
	if *path == "" {
		flag.Usage()
		os.Exit(2)
	}

	// Telemetry is optional: without the export flags both sinks stay nil
	// and the instrumented paths cost one nil check.
	var reg *telemetry.Registry
	var tracer *telemetry.Tracer
	var evalTime *telemetry.Histogram
	var evals *telemetry.Counter
	if *metricsOut != "" || *traceOut != "" || dbgReg != nil {
		reg = dbgReg
		if reg == nil {
			reg = telemetry.NewRegistry()
		}
		tracer = telemetry.NewTracer("accelerometer")
		var terr error
		if evalTime, terr = reg.Histogram("accelerometer_eval_seconds", "wall time per design evaluation"); terr != nil {
			fatal(terr)
		}
		if evals, terr = reg.Counter("accelerometer_evals_total", "design evaluations performed"); terr != nil {
			fatal(terr)
		}
		defer func() {
			if *metricsOut != "" {
				if err := telemetry.WriteMetricsFile(*metricsOut, reg); err != nil {
					fatal(err)
				}
			}
			if *traceOut != "" {
				if err := telemetry.WriteTraceFile(*traceOut, tracer.Spans()); err != nil {
					fatal(err)
				}
			}
		}()
	}

	var in io.Reader
	if *path == "-" {
		in = os.Stdin
	} else {
		f, err := os.Open(*path)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}

	sc, err := config.Parse(in)
	if err != nil {
		fatal(err)
	}
	m, err := core.New(sc.Params)
	if err != nil {
		fatal(err)
	}

	name := sc.Name
	if name == "" {
		name = "scenario"
	}
	fmt.Printf("Accelerometer estimate for %s (%s, %s)\n\n", name, sc.Threading, sc.Strategy)

	if *sweep != "" {
		sp := tracer.Start("sweep/" + *sweep)
		err := runSweep(m, sc, *sweep, *values)
		sp.End()
		if err != nil {
			fatal(err)
		}
		return
	}

	designs := []core.Threading{sc.Threading}
	if *all {
		designs = core.Threadings
	}
	tb := textchart.NewTable("Threading", "Speedup", "Speedup %", "Latency reduction", "Latency %")
	for _, th := range designs {
		sp := tracer.Start("evaluate/" + th.String())
		t0 := time.Now()
		s, err := m.Speedup(th)
		if err != nil {
			fatal(err)
		}
		l, err := m.LatencyReduction(th, sc.Strategy)
		if err != nil {
			fatal(err)
		}
		evalTime.Record(time.Since(t0).Seconds())
		evals.Inc()
		sp.End()
		tb.AddRowf(th.String(), s, (s-1)*100, l, (l-1)*100)
	}
	fmt.Print(tb.Render())
	fmt.Printf("\nIdeal (Amdahl) bound at alpha=%g: %.4gx\n", sc.Params.Alpha, m.IdealSpeedup())

	if *batch > 1 {
		bm, err := m.Batched(*batch)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\nWith rpc batching at b=%g (fixed per-offload costs amortized):\n", *batch)
		bt := textchart.NewTable("Threading", "Speedup", "Speedup %", "Batching gain")
		for _, th := range designs {
			s, err := bm.Speedup(th)
			if err != nil {
				fatal(err)
			}
			gain, err := m.BatchSpeedupGain(th, *batch)
			if err != nil {
				fatal(err)
			}
			bt.AddRowf(th.String(), s, (s-1)*100, gain)
		}
		fmt.Print(bt.Render())
	}
}

// runLive measures live CPU attribution: the selected services burn real
// CPU work shaped by their calibrated Table 3 weights under an in-process
// labeled CPU profile, and the measured breakdowns are compared against
// the calibrated fleetdata weights.
func runLive(svcList string, duration time.Duration, hz int, seed uint64, driftJSON, profileOut string) error {
	var names []fleetdata.Service
	if strings.TrimSpace(svcList) == "" {
		names = fleetdata.Services
	} else {
		for _, raw := range strings.Split(svcList, ",") {
			names = append(names, fleetdata.Service(strings.TrimSpace(raw)))
		}
	}
	svcs := make([]*services.Service, 0, len(names))
	for _, n := range names {
		svc, err := services.New(n)
		if err != nil {
			return err
		}
		svcs = append(svcs, svc)
	}

	fmt.Printf("Live CPU attribution: %d services, %s burn each, %d Hz sampling\n\n",
		len(svcs), duration, hz)
	raw, err := liveprof.CollectBytes(hz, func() {
		for _, svc := range svcs {
			_, err := svc.Burn(context.Background(), services.BurnConfig{Duration: duration, Seed: seed})
			if err != nil {
				fmt.Fprintf(os.Stderr, "accelerometer: burn %s: %v\n", svc.Name, err)
			}
		}
	})
	if err != nil {
		return err
	}
	if profileOut != "" {
		if err := os.WriteFile(profileOut, raw, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "accelerometer: wrote raw CPU profile to %s (%d bytes)\n", profileOut, len(raw))
	}
	p, err := pprofx.Parse(raw)
	if err != nil {
		return err
	}
	attr, err := liveprof.Attribute(p)
	if err != nil {
		return err
	}
	report, err := liveprof.BuildReport(attr)
	if err != nil {
		return err
	}
	if err := report.WriteText(os.Stdout); err != nil {
		return err
	}
	if driftJSON != "" {
		if err := report.WriteJSONFile(driftJSON); err != nil {
			return err
		}
		if driftJSON != "-" {
			fmt.Fprintf(os.Stderr, "accelerometer: wrote drift report to %s\n", driftJSON)
		}
	}
	return nil
}

// runFleet drives the sharded synthetic-fleet simulation, optionally
// capturing the request stream into a trace file via the flight recorder.
func runFleet(shards, workers int, batch float64, requests int, seed uint64, metricsOut string, reg *telemetry.Registry, rec *record.Recorder, recordPath string) error {
	if reg == nil && metricsOut != "" {
		reg = telemetry.NewRegistry()
	}
	cfg := fleet.Config{
		Shards:             shards,
		MaxWorkers:         workers,
		Seed:               seed,
		RequestsPerService: requests,
		Batch:              batch,
		Accel: &sim.Accel{
			Threading: core.Sync,
			Strategy:  core.OffChip,
			A:         10,
			O0:        500,
			L:         300,
			Servers:   2,
		},
		Telemetry: reg,
		Recorder:  rec,
	}
	r, err := fleet.Run(cfg)
	if err != nil {
		return err
	}
	if rec != nil {
		n, err := rec.WriteFile(recordPath)
		if err != nil {
			return err
		}
		st := rec.State()
		fmt.Fprintf(os.Stderr, "accelerometer: recorded %d events (%d dropped) to %s (%d bytes)\n",
			st.Total, st.Dropped, recordPath, n)
	}
	fmt.Printf("Sharded fleet simulation: %d services, %d shards, batch b=%g, seed %d\n\n",
		len(r.Services), r.Shards, r.Batch, seed)
	tb := textchart.NewTable("Service", "Kernel", "Shard", "QPS", "p50 cycles", "p99 cycles", "Offloads")
	for _, sr := range r.Services {
		tb.AddRowf(string(sr.Service), sr.Kind.String(), sr.Shard,
			sr.Result.ThroughputQPS, sr.Result.P50Latency, sr.Result.P99Latency, sr.Result.Offloads)
	}
	fmt.Print(tb.Render())
	a := r.Aggregate
	fmt.Printf("\nFleet aggregate: %d requests, %.4g QPS, p50 %.4g / p95 %.4g / p99 %.4g cycles, %d offloads\n",
		a.Completed, a.ThroughputQPS, a.P50Latency, a.P95Latency, a.P99Latency, a.Offloads)
	if metricsOut != "" {
		return telemetry.WriteMetricsFile(metricsOut, reg)
	}
	return nil
}

// runReplaySim replays a recorded trace deterministically through the
// simulator: each recorded service becomes one simulated server driven by
// the trace's explicit arrival schedule instead of a Poisson process.
func runReplaySim(path string, dilate float64) error {
	tr, err := record.ReadFile(path)
	if err != nil {
		return err
	}
	res, err := record.ReplaySim(tr, record.SimReplayConfig{Dilate: dilate})
	if err != nil {
		return err
	}
	fmt.Printf("Trace replay (sim): %s — %d events, %d services, %s recorded span, dilation %g\n\n",
		path, len(tr.Events), len(tr.Services), tr.Duration(), dilate)
	tb := textchart.NewTable("Service", "Requests", "QPS", "p50 cycles", "p99 cycles", "Offloads")
	for _, sr := range res.PerService {
		tb.AddRowf(sr.Service, sr.Requests,
			sr.Result.ThroughputQPS, sr.Result.P50Latency, sr.Result.P99Latency, sr.Result.Offloads)
	}
	fmt.Print(tb.Render())
	a := res.Aggregate
	fmt.Printf("\nReplay aggregate: %d requests, %.4g QPS, p50 %.4g / p95 %.4g / p99 %.4g cycles, %d offloads\n",
		a.Completed, a.ThroughputQPS, a.P50Latency, a.P95Latency, a.P99Latency, a.Offloads)
	return nil
}

// runReplayRPC replays a recorded trace open-loop through the real RPC
// stack: requests are issued against an in-process echo server at the
// recorded (dilated) timestamps with the recorded payload sizes.
func runReplayRPC(path string, dilate float64) error {
	tr, err := record.ReadFile(path)
	if err != nil {
		return err
	}
	echo := func(_ context.Context, req rpc.Message) (rpc.Message, error) {
		return rpc.Message{Method: req.Method, Payload: req.Payload}, nil
	}
	srv, err := rpc.NewServer(echo, nil)
	if err != nil {
		return err
	}
	defer srv.Close() //modelcheck:ignore errdrop — in-process teardown after the replay completed
	serveCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pool, err := rpc.NewClientPool(1, func() (*rpc.Client, error) {
		clientConn, serverConn := net.Pipe()
		go srv.ServeConn(serveCtx, serverConn)
		return rpc.NewClient(clientConn, nil)
	})
	if err != nil {
		return err
	}
	defer pool.Close() //modelcheck:ignore errdrop — pipe close on teardown

	stats, err := record.ReplayRPC(context.Background(), tr, pool.CallContext, record.RPCReplayConfig{Dilate: dilate})
	if err != nil {
		return err
	}
	fmt.Printf("Trace replay (rpc): %s — %d events, %s recorded span, dilation %g\n\n",
		path, len(tr.Events), tr.Duration(), dilate)
	fmt.Print(replayStatsTable(stats).Render())
	return nil
}

// replayStatsTable tabulates an open-loop replay's stats; latency runs
// from each arrival's due time.
func replayStatsTable(stats record.LoadStats) *textchart.Table {
	tb := textchart.NewTable("Metric", "Value")
	tb.AddRowf("Requests issued", stats.Issued)
	tb.AddRowf("Errors", stats.Errors)
	tb.AddRowf("Replay wall time", stats.Duration.Seconds())
	tb.AddRowf("Max issue lag (ms)", float64(stats.MaxLagNanos)/1e6)
	tb.AddRowf("p50 latency (ms)", stats.Latency.Quantile(0.5)/1e6)
	tb.AddRowf("p99 latency (ms)", stats.Latency.Quantile(0.99)/1e6)
	return tb
}

// replayEchoResume acknowledges a completed replay offload from the
// pooled request state; package-level so parking allocates no closure.
var replayEchoResume rpc.ResumeFunc = func(_ context.Context, ac *rpc.AsyncCall) (rpc.Message, error) {
	req := ac.Request()
	return rpc.Message{Method: req.Method, Payload: req.Payload}, nil
}

// runReplayRPCAsync replays a recorded trace open-loop against an
// engine-backed echo server: every request parks on a simulated
// accelerator for -offload-latency and a fixed worker pool drives all
// in-flight offloads — the AsyncSameThread serving path under a real
// recorded arrival process.
func runReplayRPCAsync(path string, dilate float64, offloadLatency time.Duration, eng *rpc.Engine) error {
	tr, err := record.ReadFile(path)
	if err != nil {
		return err
	}
	dev, err := kernels.NewSimAccel(kernels.SimAccelConfig{Latency: offloadLatency})
	if err != nil {
		return err
	}
	defer dev.Close() //modelcheck:ignore errdrop — in-process teardown after the replay completed
	park := func(_ context.Context, req rpc.Message, ac *rpc.AsyncCall) (rpc.Message, error) {
		if err := ac.Park(dev, uint64(len(req.Payload)), replayEchoResume); err != nil {
			return rpc.Message{}, err
		}
		return rpc.Message{}, nil
	}
	srv, err := rpc.NewAsyncServer(park, eng, nil)
	if err != nil {
		return err
	}
	defer srv.Close() //modelcheck:ignore errdrop — in-process teardown after the replay completed
	serveCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	clientConn, serverConn := net.Pipe()
	go srv.ServeConn(serveCtx, serverConn)
	client, err := rpc.NewMuxClient(clientConn, nil)
	if err != nil {
		return err
	}
	defer client.Close() //modelcheck:ignore errdrop — pipe close on teardown

	stats, err := record.ReplayRPC(context.Background(), tr, client.CallContext, record.RPCReplayConfig{Dilate: dilate})
	if err != nil {
		return err
	}
	es := eng.Stats()
	fmt.Printf("Trace replay (rpc, async serving): %s — %d events, %s recorded span, dilation %g, %d engine workers, offload latency %s\n\n",
		path, len(tr.Events), tr.Duration(), dilate, es.Workers, offloadLatency)
	tb := replayStatsTable(stats)
	tb.AddRowf("Engine served", es.Served)
	tb.AddRowf("Engine errors", es.Errors)
	fmt.Print(tb.Render())
	return nil
}

// topologyRun bundles the -topology mode's long-lived pieces: the parsed
// graph, the live runner, its registry (served on -debug-addr and written
// by -metrics-out), and the acceleration parameters for the composed
// model.
type topologyRun struct {
	graph  *topology.Graph
	runner *topology.Runner
	accel  topology.AccelConfig
	reg    *telemetry.Registry
}

// parseAccelSpec parses the -topo-accel "A,O0,L" triple.
func parseAccelSpec(s string) (topology.AccelConfig, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 3 {
		return topology.AccelConfig{}, fmt.Errorf("-topo-accel wants \"A,O0,L\", got %q", s)
	}
	var vals [3]float64
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return topology.AccelConfig{}, fmt.Errorf("-topo-accel element %d: %v", i+1, err)
		}
		vals[i] = v
	}
	return topology.AccelConfig{A: vals[0], O0: vals[1], L: vals[2]}, nil
}

func newTopologyRun(specPath, accelSpec string, accelerated, async bool, asyncWorkers int, tailTrace bool, tailSample int) (*topologyRun, error) {
	g, err := topology.ParseSpecFile(specPath)
	if err != nil {
		return nil, err
	}
	accel, err := parseAccelSpec(accelSpec)
	if err != nil {
		return nil, err
	}
	reg := telemetry.NewRegistry()
	rcfg := topology.RunnerConfig{Registry: reg}
	if accelerated || async {
		rcfg.Accel = &accel
	}
	if async {
		rcfg.Async = true
		rcfg.AsyncWorkers = asyncWorkers
	}
	if tailTrace {
		rcfg.Trace = true
		rcfg.TraceSampleRate = tailSample
	}
	r, err := topology.NewRunner(g, rcfg)
	if err != nil {
		return nil, err
	}
	return &topologyRun{graph: g, runner: r, accel: accel, reg: reg}, nil
}

// run starts the topology's servers, injects the open-loop arrival
// stream, and prints the measured per-tier table next to the composed
// Accelerometer model's prediction for the same graph. With -tail-trace
// it also prints the quantile-sliced critical-path attribution, the
// predicted-vs-measured path composition, and (with -trace-out) exports
// the slowest requests' trace trees.
func (t *topologyRun) run(load topology.LoadConfig, metricsOut, traceOut string, exemplars int) error {
	ctx := context.Background()
	if err := t.runner.Start(ctx); err != nil {
		return err
	}
	defer t.runner.Close() //modelcheck:ignore errdrop — idempotent repeat of the explicit Close below
	stats, err := t.runner.RunOpenLoop(ctx, load)
	if err != nil {
		return err
	}
	if err := t.runner.ServeErr(); err != nil {
		return err
	}
	if err := t.runner.Close(); err != nil {
		return err
	}
	rep := t.runner.Report()
	fmt.Printf("Topology %s: %d tiers, %d issued, %d errors, %s wall time, max lag %.3g ms, from due time p50 %.4g ms p99 %.4g ms\n\n",
		rep.Name, len(rep.Tiers), stats.Issued, stats.Errors,
		stats.Duration.Round(time.Millisecond), float64(stats.MaxLagNanos)/1e6,
		stats.Latency.Quantile(0.5)/1e6, stats.Latency.Quantile(0.99)/1e6)
	tb := textchart.NewTable("Node", "Depth", "Requests", "Errors", "p50 ms", "p99 ms", "Tail amp")
	for _, ts := range rep.Tiers {
		tb.AddRow(ts.Node, strconv.Itoa(ts.Depth),
			strconv.FormatUint(ts.Requests, 10), strconv.FormatUint(ts.Errors, 10),
			fmt.Sprintf("%.4g", ts.P50Nanos/1e6), fmt.Sprintf("%.4g", ts.P99Nanos/1e6),
			fmt.Sprintf("%.2fx", ts.Amplification))
	}
	fmt.Print(tb.Render())
	fmt.Printf("\nEnd to end: %d requests, p50 %.4g ms, p99 %.4g ms\n",
		rep.E2ERequests, rep.E2EP50Nanos/1e6, rep.E2EP99Nanos/1e6)

	p, err := topology.Predict(t.graph, t.accel)
	if err != nil {
		return err
	}
	fmt.Printf("\nComposed model (A=%g, o0=%g, L=%g):\n\n", t.accel.A, t.accel.O0, t.accel.L)
	mt := textchart.NewTable("Node", "alpha", "Latency reduction")
	for _, np := range p.PerNode {
		mt.AddRow(np.Node, fmt.Sprintf("%.3f", np.Alpha), fmt.Sprintf("%.3fx", np.Reduction))
	}
	fmt.Print(mt.Render())
	fmt.Printf("\nCritical path %s: predicted e2e latency reduction %.3fx (%.4g -> %.4g units)\n",
		strings.Join(p.CriticalPath, " -> "), p.E2EReduction, p.BaselineUnits, p.AccelUnits)

	if t.runner.Tracing() {
		if err := t.printTailTax(p, traceOut, exemplars); err != nil {
			return err
		}
	}

	if metricsOut != "" {
		return telemetry.WriteMetricsFile(metricsOut, t.reg)
	}
	return nil
}

// printTailTax analyzes the run's collected spans into the tail-tax
// report: where each latency quantile's nanoseconds went, how the
// measured critical-path composition compares with the composed model's
// prediction, and which requests were slowest.
func (t *topologyRun) printTailTax(p *topology.Prediction, traceOut string, exemplars int) error {
	rep := tailtrace.Analyze(t.runner.Spans(), tailtrace.Options{Exemplars: exemplars})
	ts := t.runner.TraceStats()
	fmt.Printf("\n")
	var sb strings.Builder
	rep.RenderText(&sb)
	sb.WriteString("\n")
	tailtrace.RenderModelDiff(&sb, rep.CompareModel(p.CriticalPath, p.PathWeights))
	fmt.Print(sb.String())
	if ts.Dropped > 0 || ts.SampledOut > 0 {
		fmt.Printf("(%d spans evicted, %d traces sampled out)\n", ts.Dropped, ts.SampledOut)
	}
	if len(rep.Exemplars) > 0 {
		fmt.Printf("\nSlowest requests:\n")
		for _, ex := range rep.Exemplars {
			fmt.Printf("  trace %016x  %10.3f ms", ex.TraceID, float64(ex.Total)/1e6)
			for _, c := range rep.Categories {
				if d := ex.Tax.ByCategory[c]; d > 0 {
					fmt.Printf("  %s %.3f", c, float64(d)/1e6)
				}
			}
			fmt.Println()
		}
	}
	if traceOut != "" {
		var spans []telemetry.SpanData
		for _, ex := range rep.Exemplars {
			spans = append(spans, ex.Spans...)
		}
		if err := telemetry.WriteTraceFile(traceOut, spans); err != nil {
			return err
		}
		fmt.Printf("\nwrote %d exemplar spans to %s\n", len(spans), traceOut)
	}
	return nil
}

// runSweep evaluates the configured design over a parameter range.
func runSweep(m *core.Model, sc config.Scenario, param, values string) error {
	p, ok := sweepParams[strings.ToLower(strings.TrimSpace(param))]
	if !ok {
		return fmt.Errorf("unknown sweep parameter %q (want A, L, Q, o1, alpha, or n)", param)
	}
	if values == "" {
		return fmt.Errorf("-sweep requires -values (comma-separated numbers)")
	}
	var vals []float64
	for _, raw := range strings.Split(values, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(raw), 64)
		if err != nil {
			return fmt.Errorf("invalid sweep value %q", raw)
		}
		vals = append(vals, v)
	}
	points, err := m.Sweep(p, sc.Threading, sc.Strategy, vals)
	if err != nil {
		return err
	}
	tb := textchart.NewTable(p.String(), "Speedup %", "Latency reduction %")
	for _, pt := range points {
		tb.AddRowf(pt.Value, (pt.Speedup-1)*100, (pt.LatencyReduction-1)*100)
	}
	fmt.Print(tb.Render())
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "accelerometer:", err)
	os.Exit(1)
}
