package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// The reference machine is a virtual one. While its host runs other
// guests, the hypervisor takes the vCPUs away for milliseconds at a time
// (steal time in /proc/stat), and a request that crosses several threads
// waits for each of them: at a fifth of the CPU time stolen, fanout's
// median latency rose by three quarters. Sub-windows with more than
// maxSteal of the CPU time stolen are left out of a run's medians, as
// long as at least half of the run's sub-windows remain.
const maxSteal = 0.05

// cpuTimes reads the machine's CPU time from the first line of
// /proc/stat: the total over all states and the steal share of it, in
// clock ticks.
func cpuTimes() (total, steal uint64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal [guest guest_nice]
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("parse /proc/stat: %w", err)
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal, nil
}

// cpuReading is one cpuTimes sample; share gives the steal share of the
// CPU time between two samples.
type cpuReading struct{ total, steal uint64 }

func readCPU() (cpuReading, bool) {
	t, s, err := cpuTimes()
	return cpuReading{t, s}, err == nil
}

func (r cpuReading) shareSince(prev cpuReading) float64 {
	if r.total <= prev.total {
		return 0
	}
	return float64(r.steal-prev.steal) / float64(r.total-prev.total)
}

// stealSampler reads the steal share of each sub-window of a phase that
// starts at t0, from a goroutine of its own.
type stealSampler struct {
	t0     time.Time
	stop   chan struct{}
	done   chan struct{}
	shares []float64 // written by the sampler goroutine until done closes
}

func startStealSampler(t0 time.Time) *stealSampler {
	s := &stealSampler{t0: t0, stop: make(chan struct{}), done: make(chan struct{})}
	go s.run()
	return s
}

func (s *stealSampler) run() {
	defer close(s.done)
	prev, ok := readCPU()
	if !ok {
		return
	}
	for k := 1; ; k++ {
		t := time.NewTimer(time.Until(s.t0.Add(time.Duration(k) * sliceWidth)))
		select {
		case <-s.stop:
			t.Stop()
			return
		case <-t.C:
		}
		cur, ok := readCPU()
		if !ok {
			return
		}
		s.shares = append(s.shares, cur.shareSince(prev))
		prev = cur
	}
}

// finish stops the sampler and returns the steal share of each sub-window
// it saw end.
func (s *stealSampler) finish() []float64 {
	close(s.stop)
	<-s.done
	return s.shares
}

// quiet reports which of n sub-windows to keep: those whose steal share
// is at most maxSteal, provided they are at least half of all. Otherwise
// it keeps them all, since a run stolen from throughout has no quieter
// part to report. Sub-windows without a steal sample are kept.
func quiet(steal []float64, n int) []bool {
	keep := make([]bool, n)
	kept := 0
	for k := range keep {
		keep[k] = k >= len(steal) || steal[k] <= maxSteal
		if keep[k] {
			kept++
		}
	}
	if 2*kept < n {
		for k := range keep {
			keep[k] = true
		}
	}
	return keep
}
