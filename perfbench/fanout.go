package main

import (
	"context"
	"fmt"
	"os"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/dist"
	"repro/internal/tailtrace"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// fanout: the web-feed-cache topology through topology.Runner — five sync
// nodes on their own loopback listeners behind the injector, five hops,
// two-way fan-out at the front end. The spin per node is small, so hop
// cost dominates. The benchmark runs its own open-loop schedule: Poisson
// arrivals at fanoutRate, each request timed from when it was due.

// fanoutSpec is testdata/topologies/web-feed-cache.topo, copied so the
// benchmark's input stays fixed when the test data changes.
const fanoutSpec = `topology web-feed-cache
node Web    work=40 kernel=60  -> Feed1 Feed2
node Feed1  work=30 kernel=120 -> Cache1
node Feed2  work=30 kernel=120 -> Cache2
node Cache1 work=20 kernel=180
node Cache2 work=20 kernel=180
`

var fanoutNodes = []string{"Web", "Feed1", "Feed2", "Cache1", "Cache2"}

// cpCategories are tailtrace's critical-path categories.
var cpCategories = []string{
	telemetry.CatWork, telemetry.CatRPC, telemetry.CatTransport,
	telemetry.CatQueue, telemetry.CatDevice, tailtrace.CatOther,
}

const (
	fanoutUnitIters   = 100  // spin iterations per work unit (topology default: 5000)
	fanoutRate        = 800  // offered arrivals per second
	fanoutPayload     = 256  // request bytes
	fanoutMaxInFlight = 64   // injections in flight before the generator waits
	fanoutWarmUp      = 300  // sequential requests before timing
	attributionTol    = 0.02 // critical-path sum vs measured latency
	// fanoutMaxLagP99 is the validity limit on the generator: if the 99th
	// percentile of send lag (actual send minus due time) exceeds it, the
	// generator, not the offered process, shaped the arrivals, and the run
	// fails instead of reporting a latency.
	fanoutMaxLagP99 = 50 * time.Millisecond
)

// openLoopRun is one open-loop phase: latencies from due time and the
// generator's send lag.
type openLoopRun struct {
	window
	lagUS []float64
}

// openLoop injects one Runner.Call per due time, without waiting for
// earlier requests, up to fanoutMaxInFlight at once.
func openLoop(r *topology.Runner, payload []byte, due []time.Duration) openLoopRun {
	n := len(due)
	run := openLoopRun{window: window{ops: n}, lagUS: make([]float64, n)}
	latUS := make([]float64, n)
	ends := make([]time.Time, n)
	failed := make([]bool, n)
	ctx := context.Background()
	sem := make(chan struct{}, fanoutMaxInFlight)
	var wg sync.WaitGroup
	probe := startMemProbe()
	start := time.Now()
	ss := startStealSampler(start)
	for i, off := range due {
		dueAt := start.Add(off)
		for wait := time.Until(dueAt); wait > 0; wait = time.Until(dueAt) {
			sleepPrecise(wait)
		}
		sem <- struct{}{}
		run.lagUS[i] = float64(time.Since(dueAt)) / 1e3
		wg.Add(1)
		go func(i int, dueAt time.Time) {
			defer wg.Done()
			_, err := r.Call(ctx, payload)
			ends[i] = time.Now()
			latUS[i] = float64(ends[i].Sub(dueAt)) / 1e3
			failed[i] = err != nil
			<-sem
		}(i, dueAt)
	}
	wg.Wait()
	run.elapsed = time.Since(start)
	steal := ss.finish()
	probe.finish(&run.window)
	order := make([]int, 0, n)
	for i, f := range failed {
		if f {
			run.failed++
		} else {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(a, b int) bool { return ends[order[a]].Before(ends[order[b]]) })
	sl := newSlicer(start)
	for _, i := range order {
		sl.add(ends[i], latUS[i])
	}
	sl.finish(&run.window, steal)
	return run
}

// sleepPrecise blocks the calling thread in nanosleep(2). The Go timer
// behind time.Sleep wakes a parked runtime up to a millisecond late on
// Linux (its poller waits in whole milliseconds), which would add about
// half a millisecond of generator lag to every open-loop request; the
// kernel's high-resolution timer wakes within tens of microseconds.
func sleepPrecise(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // EINTR: the caller re-checks the time and sleeps again
}

// checkLag fails a run whose generator fell behind its schedule.
func checkLag(lagUS []float64) error {
	if p99 := percentile(lagUS, 99); p99 > float64(fanoutMaxLagP99)/1e3 {
		return fmt.Errorf("generator fell behind: send lag p99 %.0fus exceeds %v; the run is invalid", p99, fanoutMaxLagP99)
	}
	return nil
}

// checkTiers checks that every tier served every injected request.
func checkTiers(rep topology.Report, injected int) error {
	if len(rep.Tiers) != len(fanoutNodes) {
		return fmt.Errorf("report has %d tiers, want %d", len(rep.Tiers), len(fanoutNodes))
	}
	for _, t := range rep.Tiers {
		if t.Requests != uint64(injected) || t.Errors != 0 {
			return fmt.Errorf("tier %s served %d requests with %d errors, %d injected", t.Node, t.Requests, t.Errors, injected)
		}
	}
	return nil
}

// checkAttribution checks the traced run's critical-path attribution:
// one trace per injected request, each with its root span, and each
// request's categories summing to within attributionTol of its measured
// end-to-end span.
func checkAttribution(taxes []tailtrace.RequestTax, injected int) error {
	if len(taxes) != injected {
		return fmt.Errorf("%d traces assembled, %d requests injected", len(taxes), injected)
	}
	for _, tx := range taxes {
		var sum time.Duration
		for _, d := range tx.ByCategory {
			sum += d
		}
		if tx.Rootless || !dist.WithinRel(float64(sum), float64(tx.Total), attributionTol) {
			return fmt.Errorf("trace %x: critical path sums to %v of a %v request (rootless %v)", tx.TraceID, sum, tx.Total, tx.Rootless)
		}
	}
	return nil
}

// fanoutRunner builds and starts a web-feed-cache runner and warms it up
// with fanoutWarmUp sequential requests.
func fanoutRunner(procs int, traced bool, payload []byte) (*topology.Runner, error) {
	g, err := topology.ParseSpec(fanoutSpec)
	if err != nil {
		return nil, err
	}
	cfg := topology.RunnerConfig{PoolSize: procs, UnitIters: fanoutUnitIters}
	if traced {
		cfg.Trace = true
		cfg.TraceCapacity = 1 << 20
	}
	r, err := topology.NewRunner(g, cfg)
	if err != nil {
		return nil, err
	}
	if err := r.Start(context.Background()); err != nil {
		return nil, err
	}
	for k := 0; k < fanoutWarmUp; k++ {
		if _, err := r.Call(context.Background(), payload); err != nil {
			r.Close()
			return nil, fmt.Errorf("warm-up request: %w", err)
		}
	}
	return r, nil
}

func runFanout(opt options) (*outcome, error) {
	payload := make([]byte, fanoutPayload)
	rng := dist.NewRand(opt.seed)
	for i := range payload {
		payload[i] = byte(rng.Uint64())
	}
	d := opt.duration
	if opt.trace {
		d /= 2
	}
	n := int(fanoutRate * d.Seconds())
	due := poissonSchedule(n, fanoutRate, opt.seed)
	r, err := fanoutRunner(opt.procs, false, payload)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	out := &outcome{setup: time.Since(processStart)}

	run := openLoop(r, payload, due)
	if err := checkLag(run.lagUS); err != nil {
		return nil, err
	}
	out.measured = run.window
	// The offered schedule sets fanout's rate: completed requests over the
	// whole run, which falls short of fanoutRate only if the stack cannot
	// keep up.
	out.requestsPerSec = float64(n-run.failed) / run.elapsed.Seconds()
	rep := r.Report()
	if err := checkTiers(rep, fanoutWarmUp+n); err != nil {
		out.problems = append(out.problems, err.Error())
	}
	fmt.Fprintf(os.Stderr, "perfbench: fanout send lag p50 %.0fus p99 %.0fus max %.0fus\n",
		percentile(run.lagUS, 50), percentile(run.lagUS, 99), percentile(run.lagUS, 100))

	if opt.trace {
		tr, err := fanoutRunner(opt.procs, true, payload)
		if err != nil {
			return nil, err
		}
		defer tr.Close()
		tdue := poissonSchedule(n, fanoutRate, opt.seed+1)
		trun := openLoop(tr, payload, tdue)
		if err := checkLag(trun.lagUS); err != nil {
			return nil, err
		}
		if err := checkTiers(tr.Report(), fanoutWarmUp+n); err != nil {
			out.problems = append(out.problems, err.Error())
		}
		out.layers, err = fanoutLayers(rep, run, trun, tr, out)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// fanoutLayers gathers fanout's per-layer metrics: per-tier p50 from the
// untraced runner's report, the traced run's p50 critical-path shares,
// and the bare loopback call. It also runs the attribution check.
func fanoutLayers(rep topology.Report, untraced, traced openLoopRun, tr *topology.Runner, out *outcome) (map[string]float64, error) {
	m := map[string]float64{}
	for _, t := range rep.Tiers {
		m["topology.tier_p50_us."+t.Node] = t.P50Nanos / 1e3
	}
	if ts := tr.TraceStats(); ts.Dropped > 0 || ts.SampledOut > 0 {
		return nil, fmt.Errorf("tracer dropped %d and sampled out %d spans", ts.Dropped, ts.SampledOut)
	}
	spans := tr.Spans()
	trees := tailtrace.Assemble(spans)
	taxes := make([]tailtrace.RequestTax, len(trees))
	for i, t := range trees {
		taxes[i] = tailtrace.Attribute(t)
	}
	if err := checkAttribution(taxes, fanoutWarmUp+traced.ops); err != nil {
		out.problems = append(out.problems, err.Error())
	}
	a := tailtrace.Analyze(spans, tailtrace.Options{Quantiles: []float64{0.5}})
	for _, row := range a.Rows {
		if row.Label != "p50" {
			continue
		}
		for _, c := range cpCategories {
			m["topology.cp_share."+c] = row.Share(c)
		}
	}
	var err error
	if m["rpc.bare_call_us"], err = bareCallUS(); err != nil {
		return nil, err
	}
	addRuntimeLayers(m, untraced.window, 1)
	m["trace.overhead_pct"] = overheadPct(untraced.p50(), traced.p50())
	return m, nil
}
