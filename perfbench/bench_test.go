package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/fleetdata"
	"repro/internal/kernels"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/tailtrace"
	"repro/internal/topology"
)

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	cases := []struct{ p, want float64 }{
		{0, 1}, {25, 1.75}, {50, 2.5}, {75, 3.25}, {100, 4}, {99, 3.97},
	}
	for _, c := range cases {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if !reflect.DeepEqual(xs, []float64{4, 1, 3, 2}) {
		t.Errorf("percentile reordered its input: %v", xs)
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("one sample: got %v", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("empty input: want NaN")
	}
	if got := median([]float64{5, 1, 9}); got != 5 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{5, 1, 9, 3}); got != 4 {
		t.Errorf("median even = %v", got)
	}
}

func TestSlicer(t *testing.T) {
	// Three full sub-windows and a partial fourth, which is left out:
	// 4, 2 and 6 completions with latency medians 10, 30 and 20.
	t0 := time.Now()
	sl := newSlicer(t0)
	add := func(ms int, lat ...float64) {
		for _, l := range lat {
			sl.add(t0.Add(time.Duration(ms)*time.Millisecond), l)
		}
	}
	add(100, 9, 10, 10, 11)
	add(600, 30, 30)
	add(1200, 20, 20, 20, 20, 20, 20)
	add(1700, 1000, 1000, 1000)
	w := window{elapsed: 3*sliceWidth + sliceWidth/2}
	sl.finish(&w, nil)
	if len(w.rates) != 3 || len(w.p50s) != 3 {
		t.Fatalf("%d rates and %d medians, want 3 sub-windows", len(w.rates), len(w.p50s))
	}
	if want := 4 / sliceWidth.Seconds(); w.rate() != want {
		t.Errorf("rate = %v, want %v", w.rate(), want)
	}
	if w.p50() != 20 {
		t.Errorf("p50 = %v, want 20", w.p50())
	}
	if want := (9 + 10 + 10 + 11 + 60 + 120 + 3000) / 15.0; math.Abs(w.meanUS-want) > 1e-9 {
		t.Errorf("mean = %v, want %v", w.meanUS, want)
	}

	// A sub-window with no completions counts as a rate of zero.
	sl = newSlicer(t0)
	add(100, 5)
	add(1100, 5)
	w = window{elapsed: 3 * sliceWidth}
	sl.finish(&w, nil)
	if !reflect.DeepEqual(w.rates, []float64{2, 0, 2}) {
		t.Errorf("rates = %v, want [2 0 2]", w.rates)
	}

	// Sub-windows with more than maxSteal stolen are left out.
	sl = newSlicer(t0)
	add(100, 10, 10)
	add(600, 500)
	add(1100, 20, 20)
	w = window{elapsed: 3 * sliceWidth}
	sl.finish(&w, []float64{0.01, 0.3, 0.02})
	if w.dropped != 1 || !reflect.DeepEqual(w.p50s, []float64{10, 20}) {
		t.Errorf("steal filter kept %v, dropped %d; want [10 20] and 1", w.p50s, w.dropped)
	}

	// A phase shorter than one sub-window is its own sub-window.
	sl = newSlicer(t0)
	add(10, 1, 2, 3)
	w = window{elapsed: sliceWidth / 2}
	sl.finish(&w, nil)
	if w.p50() != 2 || math.Abs(w.rate()-6/sliceWidth.Seconds()) > 1e-9 {
		t.Errorf("short phase: rate %v p50 %v", w.rate(), w.p50())
	}
}

func TestQuiet(t *testing.T) {
	cases := []struct {
		steal []float64
		n     int
		want  []bool
	}{
		{nil, 2, []bool{true, true}},
		{[]float64{0, 0.06, 0.05, 0}, 4, []bool{true, false, true, true}},
		// Sub-windows past the last sample are kept.
		{[]float64{0.2}, 3, []bool{false, true, true}},
		// Stolen from throughout: nothing quieter to report, keep all.
		{[]float64{0.2, 0.3, 0.01}, 3, []bool{true, true, true}},
	}
	for _, c := range cases {
		if got := quiet(c.steal, c.n); !reflect.DeepEqual(got, c.want) {
			t.Errorf("quiet(%v, %d) = %v, want %v", c.steal, c.n, got, c.want)
		}
	}
}

func TestCPUTimes(t *testing.T) {
	a, ok := readCPU()
	if !ok {
		t.Skip("no /proc/stat")
	}
	time.Sleep(20 * time.Millisecond)
	b, ok := readCPU()
	if !ok || b.total < a.total || b.steal < a.steal {
		t.Fatalf("readings went backwards: %+v then %+v", a, b)
	}
	if s := b.shareSince(a); s < 0 || s > 1 {
		t.Errorf("steal share %v outside [0, 1]", s)
	}
	if s := a.shareSince(a); s != 0 {
		t.Errorf("share over no time = %v", s)
	}
}

func TestRSSSampler(t *testing.T) {
	s := startRSSSampler()
	defer s.close()
	base, err := s.cut()
	if err != nil || !(base > 0) {
		t.Fatalf("first cut %v, %v; want a positive reading", base, err)
	}
	// Touch 64 MiB: the peak since the last cut must include it.
	buf := make([]byte, 64<<20)
	for i := range buf {
		buf[i] = 1
	}
	peak, err := s.cut()
	if err != nil || peak < base+48 {
		t.Errorf("cut after touching 64 MiB: %v, %v; want at least %v", peak, err, base+48)
	}
	if buf[len(buf)-1] != 1 {
		t.Fatal("buffer lost")
	}
}

func TestPoissonSchedule(t *testing.T) {
	const n, rate = 20000, 1000.0
	a := poissonSchedule(n, rate, 7)
	if !reflect.DeepEqual(a, poissonSchedule(n, rate, 7)) {
		t.Fatal("same seed gave another schedule")
	}
	if reflect.DeepEqual(a, poissonSchedule(n, rate, 8)) {
		t.Fatal("another seed gave the same schedule")
	}
	for i := 1; i < n; i++ {
		if a[i] < a[i-1] {
			t.Fatalf("due time %d (%v) before %d (%v)", i, a[i], i-1, a[i-1])
		}
	}
	if a[0] < 0 {
		t.Fatalf("negative first due time %v", a[0])
	}
	meanGap := a[n-1].Seconds() / n
	if math.Abs(meanGap*rate-1) > 0.03 {
		t.Errorf("mean gap %v s, want %v s", meanGap, 1/rate)
	}
}

func TestStratifiedSizesFollowCDF(t *testing.T) {
	cdf := fleetdata.CompressionSizes[fleetdata.Feed1]
	const n = 4096
	sizes := stratifiedSizes(cdf, n, 3)
	if !reflect.DeepEqual(sizes, stratifiedSizes(cdf, n, 3)) {
		t.Fatal("same seed gave other sizes")
	}
	layout := cdf.Layout()
	counts := make([]int, len(layout))
	for _, s := range sizes {
		k := layout.Index(s)
		if k < 0 {
			t.Fatalf("size %d outside the layout", s)
		}
		if last := layout[len(layout)-1]; s >= 2*last.Lo && k == len(layout)-1 {
			t.Fatalf("size %d beyond the open bucket's [Lo, 2Lo)", s)
		}
		counts[k]++
	}
	for k, c := range counts {
		want := cdf.BucketFraction(k) * n
		if math.Abs(float64(c)-want) > 1.01 {
			t.Errorf("bucket %v: %d sizes, want %.1f", layout[k], c, want)
		}
	}
}

func TestMakePayloadsDigests(t *testing.T) {
	ps := makePayloads(fleetdata.CompressionSizes[fleetdata.Cache1], 64, 64, 5, "m")
	var total uint64
	for i, m := range ps.msgs {
		if len(m.Payload) < 64 {
			t.Fatalf("payload %d has %d bytes, below the 64-byte floor", i, len(m.Payload))
		}
		if ps.digests[i] != kernels.Hash(m.Payload) {
			t.Fatalf("payload %d: digest is not its SHA-256", i)
		}
		total += uint64(len(m.Payload))
	}
	if total != ps.bytes {
		t.Errorf("bytes = %d, payloads hold %d", ps.bytes, total)
	}
}

func TestCheckDigest(t *testing.T) {
	p := []byte("payload")
	want := kernels.Hash(p)
	good := append([]byte(nil), want[:]...)
	if err := checkDigest(good, want); err != nil {
		t.Fatalf("correct digest rejected: %v", err)
	}
	flipped := append([]byte(nil), good...)
	flipped[17] ^= 1
	if checkDigest(flipped, want) == nil {
		t.Error("flipped digest byte accepted")
	}
	if checkDigest(nil, want) == nil {
		t.Error("dropped response accepted")
	}
	if checkDigest(good[:31], want) == nil {
		t.Error("truncated digest accepted")
	}
}

func TestCheckTaxPipeline(t *testing.T) {
	good := rpc.PipelineStats{Serialized: 10, Deserialized: 10, BytesIn: 5000, BytesOut: 1000,
		Compressions: 10, Encryptions: 10, Decryptions: 10, Decompression: 10}
	if err := checkTaxPipeline(good, 10); err != nil {
		t.Fatalf("consistent counters rejected: %v", err)
	}
	bad := map[string]func(*rpc.PipelineStats){
		"request not compressed": func(s *rpc.PipelineStats) { s.Compressions-- },
		"request not encrypted":  func(s *rpc.PipelineStats) { s.Encryptions-- },
		"response dropped":       func(s *rpc.PipelineStats) { s.Deserialized--; s.Decryptions-- },
		"no shrink on the wire":  func(s *rpc.PipelineStats) { s.BytesOut = s.BytesIn },
	}
	for name, corrupt := range bad {
		s := good
		corrupt(&s)
		if checkTaxPipeline(s, 10) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if checkTaxPipeline(good, 11) == nil {
		t.Error("a call the pipeline never saw was accepted")
	}
}

func TestCheckAsyncCounters(t *testing.T) {
	e := rpc.EngineStats{Served: 100}
	d := kernels.SimAccelStats{Submitted: 100, Completed: 100}
	if err := checkAsyncCounters(e, d, 100); err != nil {
		t.Fatalf("consistent counters rejected: %v", err)
	}
	e2 := e
	e2.Served--
	if checkAsyncCounters(e2, d, 100) == nil {
		t.Error("a request the engine never served was accepted")
	}
	e3 := e
	e3.Errors = 1
	if checkAsyncCounters(e3, d, 100) == nil {
		t.Error("an engine error was accepted")
	}
	d2 := d
	d2.Completed--
	if checkAsyncCounters(e, d2, 100) == nil {
		t.Error("a request that never parked on the device was accepted")
	}
}

func TestCheckTiers(t *testing.T) {
	rep := topology.Report{}
	for _, n := range fanoutNodes {
		rep.Tiers = append(rep.Tiers, topology.TierStat{Node: n, Requests: 50})
	}
	if err := checkTiers(rep, 50); err != nil {
		t.Fatalf("complete report rejected: %v", err)
	}
	short := rep
	short.Tiers = append([]topology.TierStat(nil), rep.Tiers...)
	short.Tiers[3].Requests--
	if checkTiers(short, 50) == nil {
		t.Error("a tier that lost a request was accepted")
	}
	failing := rep
	failing.Tiers = append([]topology.TierStat(nil), rep.Tiers...)
	failing.Tiers[0].Errors = 1
	if checkTiers(failing, 50) == nil {
		t.Error("a tier error was accepted")
	}
	missing := rep
	missing.Tiers = rep.Tiers[1:]
	if checkTiers(missing, 50) == nil {
		t.Error("a missing tier was accepted")
	}
}

func TestCheckAttribution(t *testing.T) {
	tax := func(total time.Duration, parts ...time.Duration) tailtrace.RequestTax {
		by := map[string]time.Duration{}
		for i, p := range parts {
			by[cpCategories[i]] = p
		}
		return tailtrace.RequestTax{Total: total, ByCategory: by}
	}
	us := time.Microsecond
	taxes := []tailtrace.RequestTax{tax(1000*us, 600*us, 400*us), tax(500*us, 100*us, 100*us, 300*us)}
	if err := checkAttribution(taxes, 2); err != nil {
		t.Fatalf("exact attribution rejected: %v", err)
	}
	off := []tailtrace.RequestTax{taxes[0], tax(500*us, 100*us, 100*us, 330*us)}
	if checkAttribution(off, 2) == nil {
		t.Error("attribution 6% over its request was accepted")
	}
	if checkAttribution(taxes[:1], 2) == nil {
		t.Error("a dropped trace was accepted")
	}
	rootless := []tailtrace.RequestTax{taxes[0], taxes[1]}
	rootless[1].Rootless = true
	if checkAttribution(rootless, 2) == nil {
		t.Error("a rootless trace was accepted")
	}
}

func TestCheckLag(t *testing.T) {
	lags := make([]float64, 1000)
	for i := range lags {
		lags[i] = 80
	}
	if err := checkLag(lags); err != nil {
		t.Fatalf("on-time generator rejected: %v", err)
	}
	// A host that steals a fifth of the CPU delays some sends by up to
	// about 17 ms; the schedule still holds.
	for i := 0; i < len(lags); i += 50 {
		lags[i] = 17000
	}
	if err := checkLag(lags); err != nil {
		t.Fatalf("generator delayed by host steal rejected: %v", err)
	}
	// A generator stuck behind saturated in-flight slots falls ever
	// further behind.
	for i := range lags {
		lags[i] = float64(i) * 100
	}
	if checkLag(lags) == nil {
		t.Error("a generator falling behind was accepted")
	}
}

func TestCheckFleetCompleted(t *testing.T) {
	r := &fleet.Result{}
	for _, s := range fleet.FleetServices {
		r.Services = append(r.Services, fleet.ServiceResult{Service: s, Result: sim.Result{Completed: 10}})
	}
	r.Aggregate.Completed = 10 * len(fleet.FleetServices)
	if err := checkFleetCompleted(r, 10); err != nil {
		t.Fatalf("complete result rejected: %v", err)
	}
	r.Services[2].Result.Completed--
	r.Aggregate.Completed--
	if checkFleetCompleted(r, 10) == nil {
		t.Error("a service short of its requests was accepted")
	}
	r.Services[2].Result.Completed++
	if checkFleetCompleted(r, 10) == nil {
		t.Error("an aggregate short of the services' sum was accepted")
	}
}

func TestCheckShardInvariance(t *testing.T) {
	a := &fleet.Result{Shards: 2, Aggregate: sim.Result{Completed: 80, MeanLatency: 123.5}}
	b := &fleet.Result{Shards: 4, Aggregate: a.Aggregate}
	if err := checkShardInvariance(a, b); err != nil {
		t.Fatalf("identical aggregates rejected: %v", err)
	}
	b.Aggregate.MeanLatency = math.Nextafter(123.5, 200)
	if checkShardInvariance(a, b) == nil {
		t.Error("aggregates one ulp apart were accepted")
	}
}

func TestCheckModelSpeedup(t *testing.T) {
	if err := checkModelSpeedup(1.1570, 1.1575); err != nil {
		t.Fatalf("close speedups rejected: %v", err)
	}
	if checkModelSpeedup(1.18, 1.1575) == nil {
		t.Error("speedup 2% off the model was accepted")
	}
	if checkModelSpeedup(math.NaN(), 1.1575) == nil {
		t.Error("NaN speedup was accepted")
	}
}

// The live checks of fleet-sim on the real simulator: shard counts
// agree, and the uniform Sync arm matches the closed-form model.
func TestFleetChecksOnSimulator(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulator")
	}
	opt := options{seed: 9, procs: 2}
	cfg := fleet.Config{MaxWorkers: opt.procs, Seed: opt.seed, RequestsPerService: 500}
	var results []*fleet.Result
	for _, shards := range fleetShards {
		c := cfg
		c.Shards = shards
		r, err := fleet.Run(c)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkFleetCompleted(r, 500); err != nil {
			t.Error(err)
		}
		results = append(results, r)
	}
	if err := checkShardInvariance(results[0], results[1]); err != nil {
		t.Error(err)
	}
	simulated, model, err := uniformSyncSpeedups()
	if err != nil {
		t.Fatal(err)
	}
	if err := checkModelSpeedup(simulated, model); err != nil {
		t.Error(err)
	}
}

// Every workload runs briefly, untraced and traced, with all checks
// passing and every per-layer metric it reports declared.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts loopback servers and the simulator")
	}
	for name, run := range workloads {
		for _, traced := range []bool{false, true} {
			opt := options{seed: 4, duration: 400 * time.Millisecond, trace: traced, procs: 2}
			out, err := run(opt)
			if err != nil {
				t.Errorf("%s traced=%v: %v", name, traced, err)
				continue
			}
			if len(out.problems) > 0 {
				t.Errorf("%s traced=%v: checks failed: %v", name, traced, out.problems)
			}
			res, err := assemble(out, traced)
			if err != nil {
				t.Errorf("%s traced=%v: %v", name, traced, err)
				continue
			}
			if res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: %d attempted, %d failed", name, traced, res.Attempted, res.Failed)
			}
			want := 4
			if traced {
				want = len(layerUnits)
			}
			if len(res.Metrics) != want {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), want)
			}
		}
	}
}

// BENCHMARK.json at the repository root declares the metrics the traced
// and untraced runs print; the two must not drift apart.
func TestBenchmarkJSONDeclaresPrintedMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var b struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	declared := map[string]string{}
	for _, d := range b.PerLayer {
		declared[d.Name] = d.Unit
	}
	if !reflect.DeepEqual(declared, layerUnits) {
		t.Errorf("per_layer in BENCHMARK.json %v\ndiffers from the printed set %v", declared, layerUnits)
	}
	out := &outcome{measured: window{ops: 1, elapsed: time.Second, rates: []float64{1}, p50s: []float64{1}}}
	res, err := assemble(out, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.EndToEnd) != len(res.Metrics) {
		t.Errorf("BENCHMARK.json declares %d end-to-end metrics, a run prints %d", len(b.EndToEnd), len(res.Metrics))
	}
	for _, d := range b.EndToEnd {
		if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
			t.Errorf("end-to-end metric %s (%s): printed as %+v", d.Name, d.Unit, m)
		}
	}
}
