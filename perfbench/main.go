// Command perfbench is the repository's layered benchmark. It drives the
// serving stack (internal/rpc, internal/topology, internal/services) over
// loopback TCP and the fleet simulator (internal/fleet, internal/sim)
// in-process, checks every output against values it computes itself, and
// prints one JSON result line.
//
//	perfbench --workload rpc-tax --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics, measured with tracing off.
// --trace 1 spends half the run untraced and half traced, and prints the
// per-layer metrics instead: stage and engine counters, timed calls into
// each layer's public functions, the tracing overhead, and (rpc-tax) the
// reconciliation of per-call latency against the sum of its layers. The
// README lists the workloads, the metrics and the reference figures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// processStart approximates the process's start: package initialization
// runs before main, and setup_s is measured from here.
var processStart = time.Now()

// options are the command-line settings shared by every workload.
type options struct {
	seed     uint64
	duration time.Duration
	trace    bool
	procs    int // GOMAXPROCS, client connections and worker pools are bounded by this
}

// window is one measured phase: operations issued in it and what they
// cost.
type window struct {
	ops     int
	failed  int
	elapsed time.Duration
	rates   []float64 // completed operations per second, per kept sub-window
	p50s    []float64 // latency median per kept sub-window, microseconds
	p99s    []float64 // latency 99th percentile per kept sub-window, microseconds
	dropped int       // sub-windows left out for steal
	meanUS  float64   // mean latency over the phase, microseconds
	mallocs uint64    // heap allocations during the phase
	gcs     uint32    // GC cycles completed during the phase
}

// rate and p50 are the medians over the phase's kept sub-windows.
func (w window) rate() float64 { return median(w.rates) }
func (w window) p50() float64  { return median(w.p50s) }

// sliceWidth is the length of the sub-windows a phase is cut into.
const sliceWidth = 500 * time.Millisecond

// subWindow is one sub-window's completion rate and latency percentiles
// (NaN when nothing completed in it).
type subWindow struct{ rate, p50, p99 float64 }

// slicer cuts a phase into sliceWidth sub-windows by completion time and
// keeps each full sub-window's completion rate and latency percentiles.
// The figures a run reports are medians over its sub-windows: the machine
// the benchmark shares runs other work in bursts, and a median keeps a
// burst from moving a run's figure the way a mean over the run would.
// Only the open sub-window's samples are held, so memory stays bounded
// however long the run. A slicer belongs to one goroutine at a time.
type slicer struct {
	t0   time.Time
	lat  []float64 // latencies of the open sub-window, microseconds
	sum  float64   // all latencies, for the phase mean
	n    int
	wins []subWindow
}

func newSlicer(t0 time.Time) *slicer { return &slicer{t0: t0} }

// add records one operation completing at end with the given latency.
func (s *slicer) add(end time.Time, latUS float64) {
	for k := int(end.Sub(s.t0) / sliceWidth); len(s.wins) < k; {
		s.closeWindow(sliceWidth)
	}
	s.lat = append(s.lat, latUS)
	s.sum += latUS
	s.n++
}

func (s *slicer) closeWindow(width time.Duration) {
	sw := subWindow{rate: float64(len(s.lat)) / width.Seconds(), p50: math.NaN(), p99: math.NaN()}
	if len(s.lat) > 0 {
		sort.Float64s(s.lat)
		sw.p50, sw.p99 = percentileSorted(s.lat, 50), percentileSorted(s.lat, 99)
	}
	s.wins = append(s.wins, sw)
	s.lat = s.lat[:0]
}

// finish closes the sub-windows that end within w.elapsed, which must be
// set, and keeps them in w. Operations after the last full sub-window are
// left out, unless the phase was shorter than one sub-window: then it is
// the only one.
func (s *slicer) finish(w *window, steal []float64) {
	for len(s.wins) < int(w.elapsed/sliceWidth) {
		s.closeWindow(sliceWidth)
	}
	if len(s.wins) == 0 {
		s.closeWindow(w.elapsed)
	}
	w.keep(s.wins, steal)
	if s.n > 0 {
		w.meanUS = s.sum / float64(s.n)
	}
}

// keep stores in w the sub-windows that quiet lets through, given each
// one's steal share.
func (w *window) keep(wins []subWindow, steal []float64) {
	ok := quiet(steal, len(wins))
	for k, sw := range wins {
		if !ok[k] {
			w.dropped++
			continue
		}
		w.rates = append(w.rates, sw.rate)
		if !math.IsNaN(sw.p50) {
			w.p50s = append(w.p50s, sw.p50)
		}
		if !math.IsNaN(sw.p99) {
			w.p99s = append(w.p99s, sw.p99)
		}
	}
}

// memProbe brackets a phase with runtime.MemStats reads.
type memProbe struct{ start runtime.MemStats }

func startMemProbe() *memProbe {
	p := &memProbe{}
	runtime.ReadMemStats(&p.start)
	return p
}

// finish records the phase's allocation and GC deltas into w.
func (p *memProbe) finish(w *window) {
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	w.mallocs = end.Mallocs - p.start.Mallocs
	w.gcs = end.NumGC - p.start.NumGC
}

// outcome is what a workload hands back to main.
type outcome struct {
	setup    time.Duration // process start to the first timed operation
	measured window        // the untraced phase the end-to-end metrics come from
	// requestsPerSec overrides measured.rate() where a workload defines
	// its rate otherwise (fanout's offered rate, fleet-sim's simulated
	// requests).
	requestsPerSec float64
	// rssMB overrides VmHWM as peak_rss_mb where a workload measures
	// the peak per operation (fleet-sim).
	rssMB    float64
	problems []string           // failed correctness checks
	layers   map[string]float64 // per-layer metrics (trace mode)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = map[string]func(options) (*outcome, error){
	"rpc-tax":       runRPCTax,
	"fanout":        runFanout,
	"async-offload": runAsyncOffload,
	"fleet-sim":     runFleetSim,
}

func main() {
	name := flag.String("workload", "", "workload: rpc-tax, fanout, async-offload or fleet-sim")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 prints per-layer metrics from a half-untraced, half-traced run")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	procs := runtime.NumCPU()
	runtime.GOMAXPROCS(procs)
	opt := options{seed: *seed, duration: time.Duration(*seconds) * time.Second, trace: *trace == 1, procs: procs}

	out, err := run(opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	res, err := assemble(out, opt.trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	for _, p := range out.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", *name, p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// assemble turns a workload outcome into the printed result: end-to-end
// metrics untraced, every per-layer metric when traced.
func assemble(out *outcome, traced bool) (result, error) {
	res := result{
		Correct:   len(out.problems) == 0,
		Attempted: out.measured.ops,
		Failed:    out.measured.failed,
		Metrics:   map[string]metric{},
	}
	if res.Attempted < 1 {
		return res, fmt.Errorf("no operation completed in the measured window")
	}
	w := out.measured
	rate, p50 := w.rate(), w.p50()
	if out.requestsPerSec != 0 {
		rate = out.requestsPerSec
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d ops (%d failed) in %.2fs; medians over %d sub-windows (%d left out for steal): %.1f ops/s, latency p50 %.1fus",
		w.ops, w.failed, w.elapsed.Seconds(), len(w.rates), w.dropped, w.rate(), p50)
	if len(w.p99s) > 0 {
		fmt.Fprintf(os.Stderr, " p99 %.1fus", median(w.p99s))
	}
	fmt.Fprintln(os.Stderr)
	if traced {
		for name := range out.layers {
			if _, ok := layerUnits[name]; !ok {
				return res, fmt.Errorf("per-layer metric %q is not declared", name)
			}
		}
		for name, unit := range layerUnits {
			res.Metrics[name] = metric{Value: out.layers[name], Unit: unit}
		}
		for _, name := range sortedKeys(out.layers) {
			fmt.Fprintf(os.Stderr, "perfbench:   %-32s %12.3f %s\n", name, out.layers[name], layerUnits[name])
		}
		return res, nil
	}
	rss := out.rssMB
	if rss == 0 {
		var err error
		if rss, err = peakRSSMB(); err != nil {
			return res, err
		}
	}
	res.Metrics["setup_s"] = metric{Value: out.setup.Seconds(), Unit: "s"}
	res.Metrics["requests_per_s"] = metric{Value: rate, Unit: "req/s"}
	res.Metrics["latency_p50_us"] = metric{Value: p50, Unit: "us"}
	res.Metrics["peak_rss_mb"] = metric{Value: rss, Unit: "MB"}
	return res, nil
}

// layerUnits declares every per-layer metric and its unit. A traced run
// prints all of them; a layer the workload does not run reads 0.
var layerUnits = func() map[string]string {
	m := map[string]string{
		"kernels.compress_ns_per_kib":  "ns/KiB",
		"kernels.encrypt_ns_per_kib":   "ns/KiB",
		"kernels.hash_ns_per_kib":      "ns/KiB",
		"rpc.encode_us":                "us",
		"rpc.decode_us":                "us",
		"rpc.wire_bytes_ratio":         "ratio",
		"rpc.bare_call_us":             "us",
		"rpc.allocs_per_call":          "count",
		"rpc.engine_queue_wait_us":     "us",
		"rpc.engine_park_wait_us":      "us",
		"rpc.reconcile_layers_us":      "us",
		"rpc.reconcile_remainder_us":   "us",
		"services.fit_ms":              "ms",
		"sim.ns_per_sim_request.base":  "ns",
		"sim.ns_per_sim_request.accel": "ns",
		"go.gc_cycles_per_kreq":        "count",
		"trace.overhead_pct":           "%",
	}
	for _, st := range stageNames {
		m["rpc.stage_"+st+"_us"] = "us"
	}
	for _, n := range fanoutNodes {
		m["topology.tier_p50_us."+n] = "us"
	}
	for _, c := range cpCategories {
		m["topology.cp_share."+c] = "share"
	}
	return m
}()

// sortedKeys returns m's keys in order (stable stderr output).
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// overheadPct is the traced phase's relative slowdown over the untraced
// one, in percent.
func overheadPct(untraced, traced float64) float64 {
	return (traced - untraced) / untraced * 100
}
