package main

import (
	"fmt"
	"math"
	"reflect"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/record"
	"repro/internal/services"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// fleet-sim: one operation is a paired fleet analysis — fleet.Run over
// the eight services for a baseline arm and an accelerated arm, seeded
// from --seed, with fleetRequests simulated requests per service. That is
// long enough that the discrete-event loop, not the services synthesis
// each fleet.Run repeats, dominates. Operations alternate between the
// two shard counts in fleetShards; the aggregates must not change.

const fleetRequests = 200000

var fleetShards = [2]int{2, 4}

// fleetAccel is the accelerated arm: the offload design the
// accelerometer CLI's fleet mode simulates.
var fleetAccel = sim.Accel{Threading: core.Sync, Strategy: core.OffChip, A: 10, O0: 500, L: 300, Servers: 2}

// fleetPair is one operation's two arms.
type fleetPair struct{ base, accel *fleet.Result }

// fleetOp runs both arms with the given shard count. Traced operations
// attach the fleet's telemetry registry and flight recorder.
func fleetOp(opt options, shards int, traced bool) (fleetPair, time.Duration, time.Duration, error) {
	cfg := fleet.Config{Shards: shards, MaxWorkers: opt.procs, Seed: opt.seed, RequestsPerService: fleetRequests}
	arm := func(accel *sim.Accel) (*fleet.Result, time.Duration, error) {
		c := cfg
		c.Accel = accel
		if traced {
			c.Telemetry = telemetry.NewRegistry()
			c.Recorder = record.NewRecorder(0)
		}
		t0 := time.Now()
		res, err := fleet.Run(c)
		return res, time.Since(t0), err
	}
	var p fleetPair
	base, baseD, err := arm(nil)
	if err != nil {
		return p, 0, 0, err
	}
	a := fleetAccel
	acc, accD, err := arm(&a)
	if err != nil {
		return p, 0, 0, err
	}
	return fleetPair{base: base, accel: acc}, baseD, accD, nil
}

// checkFleetCompleted checks that every service, and so the aggregate,
// completed exactly the requests asked of it.
func checkFleetCompleted(r *fleet.Result, perService int) error {
	for _, s := range r.Services {
		if s.Result.Completed != perService {
			return fmt.Errorf("%s completed %d requests, want %d", s.Service, s.Result.Completed, perService)
		}
	}
	if want := len(fleet.FleetServices) * perService; r.Aggregate.Completed != want || len(r.Services) != len(fleet.FleetServices) {
		return fmt.Errorf("aggregate completed %d requests over %d services, want %d over %d",
			r.Aggregate.Completed, len(r.Services), want, len(fleet.FleetServices))
	}
	return nil
}

// checkShardInvariance checks that two runs of the same seed with
// different shard counts produced identical aggregates.
func checkShardInvariance(a, b *fleet.Result) error {
	if !reflect.DeepEqual(a.Aggregate, b.Aggregate) {
		return fmt.Errorf("aggregate differs between %d and %d shards (completed %d vs %d, mean latency %v vs %v)",
			a.Shards, b.Shards, a.Aggregate.Completed, b.Aggregate.Completed, a.Aggregate.MeanLatency, b.Aggregate.MeanLatency)
	}
	return nil
}

// modelTol is the agreement internal/sim's tests hold between the
// simulated and the closed-form Sync speedup.
const modelTol = 0.01

// checkModelSpeedup compares a simulated speedup with the model's.
func checkModelSpeedup(simulated, model float64) error {
	if e := math.Abs(simulated-model) / model; !(e <= modelTol) {
		return fmt.Errorf("simulated Sync speedup %.5f vs model %.5f: %.2f%% apart, limit %.0f%%", simulated, model, e*100, modelTol*100)
	}
	return nil
}

// uniformSyncSpeedups runs a uniform workload (the paper's AES-NI case
// study: one 1111-cycle encryption per 6692-cycle request on one core)
// through the simulator with and without a Sync accelerator, and returns
// the simulated speedup and core.Model's closed-form speedup for the same
// parameters.
func uniformSyncSpeedups() (simulated, model float64, err error) {
	wl := sim.UniformWorkload{NonKernelCycles: 5581, KernelsPerReq: 1, KernelBytes: 202, Kernel: core.LinearKernel(5.5)}
	cfg := sim.Config{Cores: 1, Threads: 1, HostHz: 2e9, Requests: 2000}
	run := func(c sim.Config) (sim.Result, error) {
		s, err := sim.New(c, wl)
		if err != nil {
			return sim.Result{}, err
		}
		return s.Run()
	}
	base, err := run(cfg)
	if err != nil {
		return 0, 0, err
	}
	cfg.Accel = &sim.Accel{Threading: core.Sync, Strategy: core.OnChip, A: 6, O0: 10, L: 3, Servers: 1}
	acc, err := run(cfg)
	if err != nil {
		return 0, 0, err
	}
	if simulated, err = acc.Speedup(base); err != nil {
		return 0, 0, err
	}
	kernel := wl.Kernel.HostCycles(wl.KernelBytes)
	m, err := core.New(core.Params{C: 2e9, Alpha: kernel / (wl.NonKernelCycles + kernel), N: base.ThroughputQPS, O0: 10, L: 3, A: 6})
	if err != nil {
		return 0, 0, err
	}
	model, err = m.Speedup(core.Sync)
	return simulated, model, err
}

// fleetPhase runs whole operations until d has passed.
type fleetPhase struct {
	window
	baseD, accD time.Duration // wall time per arm, summed
	rssMB       []float64     // peak resident set of each operation, MiB
	first       fleetPair
	problems    []string
}

func runFleetPhase(opt options, d time.Duration, traced bool) (fleetPhase, error) {
	var ph fleetPhase
	// An operation outlasts a sub-window, so each operation is its own:
	// its simulated requests per second and its duration, left out when
	// more than maxSteal of the CPU time was stolen during it.
	var wins []subWindow
	var steal []float64
	probe := startMemProbe()
	rss := startRSSSampler()
	defer rss.close()
	t0 := time.Now()
	for k := 0; k == 0 || time.Since(t0) < d; k++ {
		shards := fleetShards[k%len(fleetShards)]
		before, _ := readCPU() // unreadable: zero readings, a share of 0
		p, baseD, accD, err := fleetOp(opt, shards, traced)
		if err != nil {
			return ph, err
		}
		after, _ := readCPU()
		steal = append(steal, after.shareSince(before))
		peak, err := rss.cut()
		if err != nil {
			return ph, err
		}
		ph.rssMB = append(ph.rssMB, peak)
		ph.ops++
		opD := baseD + accD
		wins = append(wins, subWindow{rate: simRequestsPerOp() / opD.Seconds(), p50: float64(opD) / 1e3, p99: math.NaN()})
		ph.baseD += baseD
		ph.accD += accD
		for _, r := range []*fleet.Result{p.base, p.accel} {
			if err := checkFleetCompleted(r, fleetRequests); err != nil {
				ph.problems = append(ph.problems, err.Error())
			}
		}
		if k == 0 {
			ph.first = p
			continue
		}
		for _, pair := range [][2]*fleet.Result{{ph.first.base, p.base}, {ph.first.accel, p.accel}} {
			if err := checkShardInvariance(pair[0], pair[1]); err != nil {
				ph.problems = append(ph.problems, err.Error())
			}
		}
	}
	ph.elapsed = time.Since(t0)
	ph.keep(wins, steal)
	probe.finish(&ph.window)
	return ph, nil
}

// simRequestsPerOp is the simulated requests one operation completes.
func simRequestsPerOp() float64 { return float64(2 * len(fleet.FleetServices) * fleetRequests) }

func runFleetSim(opt options) (*outcome, error) {
	t0 := time.Now()
	for _, name := range fleet.FleetServices {
		if _, err := services.New(name); err != nil {
			return nil, err
		}
	}
	fit := time.Since(t0)
	out := &outcome{setup: time.Since(processStart)}

	d := opt.duration
	if opt.trace {
		d /= 2
	}
	ph, err := runFleetPhase(opt, d, false)
	if err != nil {
		return nil, err
	}
	out.measured = ph.window
	// The resident set rises and falls with each operation, and how high
	// it gets depends on when the collector runs: one operation's peak
	// ranges over about a third of its median. VmHWM, the highest of a
	// run's operations, follows that tail; the median follows the program.
	out.rssMB = median(ph.rssMB)
	out.problems = append(out.problems, ph.problems...)

	if opt.trace {
		tph, err := runFleetPhase(opt, d, true)
		if err != nil {
			return nil, err
		}
		out.problems = append(out.problems, tph.problems...)
		perArm := float64(ph.ops) * float64(len(fleet.FleetServices)*fleetRequests)
		out.layers = map[string]float64{
			"services.fit_ms": float64(fit) / 1e6,
			// Each fleet.Run repeats the services synthesis; it is taken
			// out here so the figure is the event loop's own cost.
			"sim.ns_per_sim_request.base":  float64(ph.baseD-time.Duration(ph.ops)*fit) / perArm,
			"sim.ns_per_sim_request.accel": float64(ph.accD-time.Duration(ph.ops)*fit) / perArm,
			"go.gc_cycles_per_kreq":        float64(ph.gcs) / (float64(ph.ops) * simRequestsPerOp() / 1000),
			"trace.overhead_pct":           overheadPct(ph.p50(), tph.p50()),
		}
	}

	simulated, model, err := uniformSyncSpeedups()
	if err != nil {
		return nil, err
	}
	if err := checkModelSpeedup(simulated, model); err != nil {
		out.problems = append(out.problems, err.Error())
	}
	return out, nil
}
