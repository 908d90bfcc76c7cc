// Command abtest replays one of the paper's three validation case studies
// (Table 6) as a paired simulation A/B test and compares the measured
// speedup with the Accelerometer estimate.
//
// Usage:
//
//	abtest -case aesni
//	abtest -case encryption -requests 2000 -trials 5
//	abtest -case inference
//
// With -replay it instead pairs two real client stacks on one recorded
// trace: the same request stream — byte-identical arrivals, payloads, and
// timestamps — is issued open-loop through an unbatched one-client pool
// and through the coalescing rpc.Batcher, against the same in-process
// echo server, so any latency difference is the client stack's alone:
//
//	abtest -replay testdata/scenarios/retry-storm.trace -dilate 0.1
//
// With -replay -async the arms contrast serving threading designs instead
// of client stacks: the same trace drives a completion-queue server twice
// — once with handlers that block an engine worker for the whole offload
// (Sync), once with handlers that park the continuation (AsyncSameThread):
//
//	abtest -replay testdata/scenarios/retry-storm.trace -async -dilate 0.1 -workers 4
//
// Adding -explain traces both serving arms and prints the tail-tax
// attribution per arm — where each quantile's nanoseconds went (queueing
// vs device wait vs handler work) — so the p99 ratio comes with its
// mechanism attached:
//
//	abtest -replay testdata/scenarios/retry-storm.trace -async -explain -dilate 0.1
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/abtest"
	"repro/internal/core"
	"repro/internal/fleetdata"
	"repro/internal/record"
	"repro/internal/sim"
	"repro/internal/tailtrace"
	"repro/internal/textchart"
)

func main() {
	name := flag.String("case", "aesni", "case study: aesni, encryption, or inference")
	requests := flag.Int("requests", 1000, "requests per simulation trial")
	trials := flag.Int("trials", 3, "paired A/B trials")
	batch := flag.Float64("batch", 1, "rpc batch factor b >= 1: replay the case study with fixed per-offload costs amortized across b requests")
	replayPath := flag.String("replay", "", "recorded trace: A/B the batched vs unbatched RPC client on byte-identical arrivals")
	dilate := flag.Float64("dilate", 1, "time dilation for -replay: >1 stretches recorded gaps, <1 compresses them")
	maxBatch := flag.Int("max-batch", 8, "batcher coalescing bound for the batched arm (with -replay)")
	asyncServe := flag.Bool("async", false, "with -replay: A/B sync vs async serving (blocking vs parked offloads) instead of client stacks")
	workers := flag.Int("workers", 4, "engine worker pool per serving arm (with -replay -async)")
	offloadLatency := flag.Duration("offload-latency", 0, "simulated accelerator latency per offload (with -replay -async; default 1ms)")
	explain := flag.Bool("explain", false, "with -replay -async: trace both arms and print the per-quantile tail-tax attribution delta")
	flag.Parse()
	if err := core.ValidateBatch(*batch); err != nil {
		fatal(err)
	}
	if *replayPath != "" {
		var err error
		if *asyncServe {
			err = runServingAB(*replayPath, *dilate, *workers, *offloadLatency, *explain)
		} else {
			err = runTraceAB(*replayPath, *dilate, *maxBatch)
		}
		if err != nil {
			fatal(err)
		}
		return
	}

	var cs *fleetdata.CaseStudy
	for i := range fleetdata.CaseStudies {
		if strings.EqualFold(fleetdata.CaseStudies[i].Name, *name) ||
			strings.EqualFold(strings.ReplaceAll(fleetdata.CaseStudies[i].Name, "-", ""), *name) {
			cs = &fleetdata.CaseStudies[i]
			break
		}
	}
	if cs == nil {
		fmt.Fprintf(os.Stderr, "abtest: unknown case study %q (want aesni, encryption, or inference)\n", *name)
		os.Exit(2)
	}

	p := cs.Params
	kernelCycles := p.Alpha * p.C / p.N
	nonKernel := (1 - p.Alpha) * p.C / p.N
	bytes := uint64(kernelCycles / 5.5)
	if bytes == 0 {
		bytes = 1
	}
	wl := sim.UniformWorkload{
		NonKernelCycles: nonKernel,
		KernelsPerReq:   1,
		KernelBytes:     bytes,
		Kernel:          core.LinearKernel(kernelCycles / float64(bytes)),
	}
	factory := func(uint64) (sim.Workload, error) { return wl, nil }

	threads := 1
	if cs.Threading == core.SyncOS || cs.Threading == core.AsyncDistinctThread {
		threads = 4
	}
	base := sim.Config{
		Cores: 1, Threads: threads, ContextSwitch: p.O1,
		HostHz: p.C, Requests: *requests,
	}
	accel := base
	a := p.A
	if a < 1 {
		a = 1
	}
	accel.Accel = &sim.Accel{
		Threading: cs.Threading, Strategy: cs.Strategy,
		A: a, O0: p.O0 / *batch, L: p.L / *batch, Servers: 4,
	}

	comp, err := abtest.Run(base, accel, factory, *trials)
	if err != nil {
		fatal(err)
	}
	m, err := core.New(p)
	if err != nil {
		fatal(err)
	}
	if *batch > 1 {
		// Compare the simulator's batched replay against the batched model,
		// so measured and modeled amortization stay paired.
		if m, err = m.Batched(*batch); err != nil {
			fatal(err)
		}
	}
	est, err := m.Speedup(cs.Threading)
	if err != nil {
		fatal(err)
	}
	v, err := abtest.Validate(est, comp)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("Case study: %s for %s (%s, %s)", cs.Name, cs.Service, cs.Threading, cs.Strategy)
	if *batch > 1 {
		fmt.Printf(", batch b=%g", *batch)
	}
	fmt.Print("\n\n")
	tb := textchart.NewTable("Metric", "Value")
	tb.AddRowf("Baseline QPS", comp.BaselineQPS)
	tb.AddRowf("Accelerated QPS", comp.AcceleratedQPS)
	tb.AddRowf("Measured speedup %", v.MeasuredPct)
	tb.AddRowf("Model estimate %", v.EstimatedPct)
	tb.AddRowf("Model-vs-measured error %", v.ErrorPct)
	tb.AddRowf("Paper estimate %", cs.EstimatedPct)
	tb.AddRowf("Paper production speedup %", cs.RealPct)
	tb.AddRowf("Offloads per second", comp.OffloadsPerSecond)
	tb.AddRowf("Mean accelerator queue (cycles)", comp.MeanQueueDelay)
	fmt.Print(tb.Render())
}

// runTraceAB replays one recorded trace through both RPC client stacks
// and prints the paired comparison.
func runTraceAB(path string, dilate float64, maxBatch int) error {
	tr, err := record.ReadFile(path)
	if err != nil {
		return err
	}
	res, err := record.ReplayAB(context.Background(), tr, record.ABConfig{Dilate: dilate, MaxBatch: maxBatch})
	if err != nil {
		return err
	}
	fmt.Printf("Trace A/B: %s — %d events, %s recorded span, dilation %g, batcher bound %d\n",
		path, res.Events, tr.Duration(), dilate, maxBatch)
	fmt.Println("Both arms replay byte-identical arrivals; only the client stack differs.")
	fmt.Println()
	tb := textchart.NewTable("Metric", "Unbatched", "Batched")
	row := func(label string, f func(record.ABArm) float64) {
		tb.AddRowf(label, f(res.Unbatched), f(res.Batched))
	}
	row("Requests issued", func(a record.ABArm) float64 { return float64(a.Stats.Issued) })
	row("Errors", func(a record.ABArm) float64 { return float64(a.Stats.Errors) })
	row("Replay wall time (s)", func(a record.ABArm) float64 { return a.Stats.Duration.Seconds() })
	row("Max issue lag (ms)", func(a record.ABArm) float64 { return float64(a.Stats.MaxLagNanos) / 1e6 })
	row("Mean latency (ms)", func(a record.ABArm) float64 { return a.Stats.Latency.Mean() / 1e6 })
	row("p50 latency (ms)", func(a record.ABArm) float64 { return a.Stats.Latency.Quantile(0.5) / 1e6 })
	row("p99 latency (ms)", func(a record.ABArm) float64 { return a.Stats.Latency.Quantile(0.99) / 1e6 })
	fmt.Print(tb.Render())
	if um, bm := res.Unbatched.Stats.Latency.Mean(), res.Batched.Stats.Latency.Mean(); bm > 0 {
		fmt.Printf("\nMean-latency ratio (unbatched/batched): %.3gx\n", um/bm)
	}
	return nil
}

// runServingAB replays one recorded trace through the sync and async
// serving arms and prints the paired comparison.
func runServingAB(path string, dilate float64, workers int, offloadLatency time.Duration, explain bool) error {
	tr, err := record.ReadFile(path)
	if err != nil {
		return err
	}
	res, err := record.ReplayServingAB(context.Background(), tr, record.ServingABConfig{
		Dilate:         dilate,
		Workers:        workers,
		OffloadLatency: offloadLatency,
		Trace:          explain,
	})
	if err != nil {
		return err
	}
	fmt.Printf("Serving A/B: %s — %d events, %s recorded span, dilation %g, %d engine workers\n",
		path, res.Events, tr.Duration(), dilate, workers)
	fmt.Println("Both arms replay byte-identical arrivals through the same engine pool;")
	fmt.Println("only the threading design at the offload point differs.")
	fmt.Println()
	tb := textchart.NewTable("Metric", "Sync (blocking)", "Async (parked)")
	row := func(label string, f func(record.ABArm) float64) {
		tb.AddRowf(label, f(res.Sync), f(res.Async))
	}
	row("Requests issued", func(a record.ABArm) float64 { return float64(a.Stats.Issued) })
	row("Errors", func(a record.ABArm) float64 { return float64(a.Stats.Errors) })
	row("Replay wall time (s)", func(a record.ABArm) float64 { return a.Stats.Duration.Seconds() })
	row("Max issue lag (ms)", func(a record.ABArm) float64 { return float64(a.Stats.MaxLagNanos) / 1e6 })
	row("Mean latency (ms)", func(a record.ABArm) float64 { return a.Stats.Latency.Mean() / 1e6 })
	row("p50 latency (ms)", func(a record.ABArm) float64 { return a.Stats.Latency.Quantile(0.5) / 1e6 })
	row("p99 latency (ms)", func(a record.ABArm) float64 { return a.Stats.Latency.Quantile(0.99) / 1e6 })
	fmt.Print(tb.Render())
	if sp, ap := res.Sync.Stats.Latency.Quantile(0.99), res.Async.Stats.Latency.Quantile(0.99); ap > 0 {
		fmt.Printf("\np99 ratio (sync/async): %.3gx\n", sp/ap)
	}
	if explain {
		explainServingAB(res)
	}
	return nil
}

// explainServingAB prints each arm's tail-tax attribution and the
// per-category p99 delta — the mechanism behind the headline ratio. In
// the sync arm an offload's wall time is buried inside the handler span
// (the worker is blocked, so it reads as work) and the backlog shows up
// as queue-wait; the async arm splits the same nanoseconds into explicit
// device (park) and queue (resume) time, and the queue column collapses
// because parked requests stop occupying workers.
func explainServingAB(res *record.ServingABResult) {
	arms := []struct {
		name string
		arm  record.ABArm
	}{{"sync", res.Sync}, {"async", res.Async}}
	reports := make(map[string]*tailtrace.Report, len(arms))
	for _, a := range arms {
		fmt.Printf("\n[%s arm] ", a.name)
		rep := tailtrace.Analyze(a.arm.Spans, tailtrace.Options{})
		reports[a.name] = rep
		var sb strings.Builder
		rep.RenderText(&sb)
		fmt.Print(sb.String())
	}
	sync, async := reports["sync"], reports["async"]
	syncP99, okS := p99Row(sync)
	asyncP99, okA := p99Row(async)
	if !okS || !okA {
		return
	}
	fmt.Println("\nWhy async won (p99 request, per category):")
	dt := textchart.NewTable("Category", "Sync (ms)", "Async (ms)", "Delta (ms)")
	cats := append([]string(nil), sync.Categories...)
	for _, c := range async.Categories {
		seen := false
		for _, have := range cats {
			if have == c {
				seen = true
				break
			}
		}
		if !seen {
			cats = append(cats, c)
		}
	}
	for _, c := range cats {
		s, a := syncP99.ByCategory[c]/1e6, asyncP99.ByCategory[c]/1e6
		dt.AddRow(c, fmt.Sprintf("%.3f", s), fmt.Sprintf("%.3f", a), fmt.Sprintf("%+.3f", a-s))
	}
	dt.AddRow("total", fmt.Sprintf("%.3f", syncP99.TotalNanos/1e6),
		fmt.Sprintf("%.3f", asyncP99.TotalNanos/1e6),
		fmt.Sprintf("%+.3f", (asyncP99.TotalNanos-syncP99.TotalNanos)/1e6))
	fmt.Print(dt.Render())
}

// p99Row pulls the p99 slice out of a report.
func p99Row(rep *tailtrace.Report) (tailtrace.TaxRow, bool) {
	if rep == nil {
		return tailtrace.TaxRow{}, false
	}
	for _, row := range rep.Rows {
		if row.Label == "p99" {
			return row, true
		}
	}
	return tailtrace.TaxRow{}, false
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "abtest:", err)
	os.Exit(1)
}
