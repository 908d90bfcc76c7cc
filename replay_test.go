package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/record"
	"repro/internal/sim"
)

// The scenario library: three named, checked-in request-stream traces
// (testdata/scenarios/*.trace) plus golden replay aggregates
// (golden.json). The traces are synthesized deterministically — run
//
//	UPDATE_SCENARIOS=1 go test -run TestScenario .
//
// to regenerate both after changing the synthesizer or the replay
// defaults. Every other benchmark and A/B in the repository can replay
// these byte-identical streams instead of re-drawing Poisson arrivals.

const (
	scenarioSeed   = 1234
	scenarioEvents = 2048
	scenarioDir    = "testdata/scenarios"
)

// scenarioReplayConfig is the fixed configuration the golden aggregates
// are recorded under: the default replay substrate plus a modest
// accelerator so offload counts are exercised too.
func scenarioReplayConfig() record.SimReplayConfig {
	return record.SimReplayConfig{
		Accel: &sim.Accel{A: 8, O0: 200, L: 500, Servers: 2},
	}
}

// scenarioGolden is one scenario's expected replay aggregate.
type scenarioGolden struct {
	Events    int     `json:"events"`
	Services  int     `json:"services"`
	Completed int     `json:"completed"`
	Offloads  int     `json:"offloads"`
	P50Cycles float64 `json:"p50_cycles"`
	P99Cycles float64 `json:"p99_cycles"`
	QPS       float64 `json:"throughput_qps"`
}

func updateScenarios() bool { return os.Getenv("UPDATE_SCENARIOS") == "1" }

func scenarioTracePath(name string) string {
	return filepath.Join(scenarioDir, name+".trace")
}

// TestScenarioTracesMatchSynthesis pins the checked-in traces to their
// synthesis recipe: each file must be byte-identical to
// Synthesize(name, scenarioSeed, scenarioEvents). This documents the
// provenance of the library and catches silent drift in either the
// synthesizer or the files.
func TestScenarioTracesMatchSynthesis(t *testing.T) {
	for _, name := range record.Scenarios {
		t.Run(name, func(t *testing.T) {
			tr, err := record.Synthesize(name, scenarioSeed, scenarioEvents)
			if err != nil {
				t.Fatal(err)
			}
			want, err := tr.Encode()
			if err != nil {
				t.Fatal(err)
			}
			path := scenarioTracePath(name)
			if updateScenarios() {
				if err := os.MkdirAll(scenarioDir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, want, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d bytes)", path, len(want))
				return
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with UPDATE_SCENARIOS=1 to generate)", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s diverges from its synthesis recipe (%d vs %d bytes); regenerate with UPDATE_SCENARIOS=1 if the synthesizer changed deliberately", path, len(got), len(want))
			}
		})
	}
}

// TestScenarioGoldenReplay replays every checked-in trace through the
// simulator twice and checks both runs agree with each other and with the
// golden aggregates — replay determinism, end to end from file bytes.
func TestScenarioGoldenReplay(t *testing.T) {
	goldenPath := filepath.Join(scenarioDir, "golden.json")
	got := map[string]scenarioGolden{}
	for _, name := range record.Scenarios {
		tr, err := record.ReadFile(scenarioTracePath(name))
		if err != nil {
			t.Fatalf("%v (run with UPDATE_SCENARIOS=1 to generate)", err)
		}
		a, err := record.ReplaySim(tr, scenarioReplayConfig())
		if err != nil {
			t.Fatal(err)
		}
		b, err := record.ReplaySim(tr, scenarioReplayConfig())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: two replays of the same trace diverged", name)
		}
		got[name] = scenarioGolden{
			Events:    len(tr.Events),
			Services:  len(tr.Services),
			Completed: a.Aggregate.Completed,
			Offloads:  a.Aggregate.Offloads,
			P50Cycles: a.Aggregate.P50Latency,
			P99Cycles: a.Aggregate.P99Latency,
			QPS:       a.Aggregate.ThroughputQPS,
		}
	}
	if updateScenarios() {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", goldenPath)
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_SCENARIOS=1 to generate)", err)
	}
	want := map[string]scenarioGolden{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay aggregates diverge from golden.json\ngot:  %+v\nwant: %+v\n(regenerate with UPDATE_SCENARIOS=1 if the replay substrate changed deliberately)", got, want)
	}
}

// TestScenarioBatchedABProof is the paired-comparison proof: the
// retry-storm trace replays through an unbatched one-client pool and
// the coalescing batcher against the same in-process server, on
// byte-identical arrivals; both arms must issue every recorded event
// without error. The measured latency contrast is recorded in
// EXPERIMENTS.md.
func TestScenarioBatchedABProof(t *testing.T) {
	tr, err := record.ReadFile(scenarioTracePath("retry-storm"))
	if err != nil {
		t.Fatalf("%v (run with UPDATE_SCENARIOS=1 to generate)", err)
	}
	res, err := record.ReplayAB(context.Background(), tr, record.ABConfig{Dilate: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	for _, arm := range []struct {
		name string
		a    record.ABArm
	}{{"unbatched", res.Unbatched}, {"batched", res.Batched}} {
		if arm.a.Stats.Issued != len(tr.Events) || arm.a.Stats.Errors != 0 {
			t.Errorf("%s arm: issued %d of %d, %d errors — the arms must see identical streams",
				arm.name, arm.a.Stats.Issued, len(tr.Events), arm.a.Stats.Errors)
		}
	}
	t.Logf("unbatched mean %.3gms p99 %.3gms | batched mean %.3gms p99 %.3gms",
		res.Unbatched.Stats.Latency.Mean()/1e6, res.Unbatched.Stats.Latency.Quantile(0.99)/1e6,
		res.Batched.Stats.Latency.Mean()/1e6, res.Batched.Stats.Latency.Quantile(0.99)/1e6)
}
