package topology

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/record"
	"repro/internal/telemetry"
)

// fastConfig keeps live tests quick: tiny spin units, small pools.
func fastConfig(reg *telemetry.Registry) RunnerConfig {
	return RunnerConfig{UnitIters: 20, PoolSize: 2, Registry: reg, CallTimeout: 5 * time.Second}
}

func startRunner(t *testing.T, spec string, cfg RunnerConfig) *Runner {
	t.Helper()
	g, err := ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// TestRunnerEndToEnd drives the three-tier graph open-loop over real
// TCP loopback servers and checks every tier saw every request.
func TestRunnerEndToEnd(t *testing.T) {
	reg := telemetry.NewRegistry()
	r := startRunner(t, webSpec, fastConfig(reg))

	stats, err := r.RunOpenLoop(context.Background(), LoadConfig{QPS: 500, Requests: 40})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Issued != 40 || stats.Errors != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if err := r.ServeErr(); err != nil {
		t.Fatal(err)
	}
	rep := r.Report()
	if rep.Name != "web-feed-cache" || len(rep.Tiers) != 5 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.E2ERequests != 40 {
		t.Fatalf("e2e requests = %d, want 40", rep.E2ERequests)
	}
	for _, ts := range rep.Tiers {
		if ts.Requests != 40 || ts.Errors != 0 {
			t.Fatalf("tier %s: %+v, want 40 requests", ts.Node, ts)
		}
		if ts.P99Nanos <= 0 || ts.P50Nanos <= 0 {
			t.Fatalf("tier %s: empty latency distribution: %+v", ts.Node, ts)
		}
		// A parent's latency includes its slowest child's, so the tail
		// can only amplify across a hop (within histogram resolution).
		if ts.Amplification < 0.95 {
			t.Fatalf("tier %s: amplification %v < 1", ts.Node, ts.Amplification)
		}
	}
	// Tiers are sorted by depth: the root first, leaves last.
	if rep.Tiers[0].Node != "Web" || rep.Tiers[0].Depth != 0 {
		t.Fatalf("first tier = %+v, want Web at depth 0", rep.Tiers[0])
	}
	// Per-tier histograms export through the registry.
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"topo_web_latency_nanos", "topo_cache1_latency_nanos", "topo_e2e_latency_nanos"} {
		if !strings.Contains(b.String(), name) {
			t.Fatalf("exposition lacks %s:\n%s", name, b.String())
		}
	}
}

// TestRunnerTraceArrivals replays a recorded trace as the arrival
// source and re-records the injected stream at the root.
func TestRunnerTraceArrivals(t *testing.T) {
	tr, err := record.Synthesize("steady", 7, 64)
	if err != nil {
		t.Fatal(err)
	}
	rec := record.NewRecorder(1 << 10)
	r := startRunner(t, "topology one\nnode Solo work=2 kernel=2\n", fastConfig(nil))
	stats, err := r.RunOpenLoop(context.Background(), LoadConfig{
		Trace:    tr,
		Dilate:   0.01, // compress the recorded gaps hard: keep the test fast
		Recorder: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Issued != len(tr.Events) || stats.Errors != 0 {
		t.Fatalf("stats = %+v, want %d issued", stats, len(tr.Events))
	}
	captured := rec.Snapshot()
	if len(captured.Events) != len(tr.Events) {
		t.Fatalf("recorder captured %d events, want %d", len(captured.Events), len(tr.Events))
	}
	if len(captured.Services) != 1 || captured.Services[0] != "Solo" {
		t.Fatalf("recorded services = %v, want [Solo]", captured.Services)
	}
	for _, e := range captured.Events {
		if e.Outcome != record.OutcomeOK {
			t.Fatalf("captured outcome = %v", e.Outcome)
		}
	}
}

// TestRunnerAccelArm: the accelerated runner reports faster tiers than
// baseline for the same offered load (coarse sanity, exact comparison
// lives in the non-short measured-vs-model test).
func TestRunnerAccelArm(t *testing.T) {
	cfg := fastConfig(nil)
	cfg.Accel = &testAccel
	r := startRunner(t, webSpec, cfg)
	stats, err := r.RunOpenLoop(context.Background(), LoadConfig{QPS: 500, Requests: 20})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Errors != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if rep := r.Report(); rep.E2EP50Nanos <= 0 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestRunnerLifecycleErrors(t *testing.T) {
	g, err := ParseSpec("topology one\nnode Solo work=1 kernel=1\n")
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(g, fastConfig(nil))
	if err != nil {
		t.Fatal(err)
	}
	// Calls and load before Start fail cleanly.
	if _, err := r.Call(context.Background(), nil); err == nil {
		t.Fatal("Call succeeded before Start")
	}
	if _, err := r.RunOpenLoop(context.Background(), LoadConfig{QPS: 1, Requests: 1}); err == nil {
		t.Fatal("RunOpenLoop succeeded before Start")
	}
	if err := r.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := r.Start(context.Background()); err == nil {
		t.Fatal("second Start succeeded")
	}
	if _, err := r.Call(context.Background(), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	// Close is idempotent and calls after Close fail.
	if err := r.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}
	if _, err := r.Call(context.Background(), nil); err == nil {
		t.Fatal("Call succeeded after Close")
	}
}

func TestLoadConfigRejects(t *testing.T) {
	r := startRunner(t, "topology one\nnode Solo work=1 kernel=1\n", fastConfig(nil))
	for name, cfg := range map[string]LoadConfig{
		"no qps":          {Requests: 4},
		"no requests":     {QPS: 100},
		"negative dilate": {Trace: &record.Trace{Services: []string{"s"}, Events: []record.Event{{}}}, Dilate: -1},
		"empty trace":     {Trace: &record.Trace{Services: []string{"s"}}},
	} {
		if _, err := r.RunOpenLoop(context.Background(), cfg); err == nil {
			t.Fatalf("%s: accepted %+v", name, cfg)
		}
	}
}

// TestPoissonSchedule pins the seeded draw: same seed, same schedule;
// different seed, different schedule.
func TestPoissonSchedule(t *testing.T) {
	mk := func(seed uint64) []time.Duration {
		cfg := LoadConfig{QPS: 1000, Requests: 16, Poisson: true, Seed: seed}
		due, sizes, err := cfg.schedule()
		if err != nil {
			t.Fatal(err)
		}
		if len(due) != 16 || len(sizes) != 16 {
			t.Fatalf("schedule lengths %d/%d", len(due), len(sizes))
		}
		return due
	}
	a, b, c := mk(1), mk(1), mk(2)
	same, diff := true, false
	for i := range a {
		same = same && a[i] == b[i]
		diff = diff || a[i] != c[i]
		if i > 0 && a[i] <= a[i-1] {
			t.Fatalf("schedule not strictly increasing at %d: %v", i, a)
		}
	}
	if !same || !diff {
		t.Fatalf("seeding broken: same=%v diff=%v", same, diff)
	}
}

// TestRunnerAsyncArm drives the topology with every node serving through
// a completion-queue engine: requests park on per-node simulated
// accelerators, continuations fan out, and the report matches the sync
// arm's shape (every tier sees every request).
func TestRunnerAsyncArm(t *testing.T) {
	cfg := fastConfig(telemetry.NewRegistry())
	cfg.Accel = &testAccel
	cfg.Async = true
	cfg.AsyncWorkers = 2
	r := startRunner(t, webSpec, cfg)
	stats, err := r.RunOpenLoop(context.Background(), LoadConfig{QPS: 500, Requests: 30})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Issued != 30 || stats.Errors != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if err := r.ServeErr(); err != nil {
		t.Fatal(err)
	}
	rep := r.Report()
	if len(rep.Tiers) != 5 || rep.E2ERequests != 30 {
		t.Fatalf("report = %+v", rep)
	}
	for _, ts := range rep.Tiers {
		if ts.Requests != 30 || ts.Errors != 0 {
			t.Fatalf("tier %s: %+v, want 30 requests", ts.Node, ts)
		}
	}
	// Every request parked exactly once per node: 5 nodes x 30 requests.
	as := r.AsyncStats()
	if as.Served != 150 || as.Errors != 0 {
		t.Fatalf("async stats = %+v, want 150 served", as)
	}
	if as.Parked != 0 || as.InFlight != 0 {
		t.Fatalf("async stats = %+v, want drained", as)
	}
	if as.Workers != 5*2 {
		t.Fatalf("async stats workers = %d, want 10", as.Workers)
	}
}

// TestRunnerAsyncValidation covers the async-mode constructor errors.
func TestRunnerAsyncValidation(t *testing.T) {
	g, err := ParseSpec("topology one\nnode Solo work=1 kernel=1\n")
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastConfig(nil)
	cfg.Async = true
	if _, err := NewRunner(g, cfg); err == nil {
		t.Fatal("Async without Accel succeeded")
	}
}
