package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/dist"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks, the definition numpy and Python's
// statistics.quantiles(method="inclusive") share. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentileSorted(s, p)
}

// percentileSorted is percentile over an already ascending slice.
func percentileSorted(s []float64, p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// median is the 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// poissonSchedule returns n arrival offsets of a Poisson process at rate
// per second, drawn from seed: the open-loop generator's due times.
func poissonSchedule(n int, rate float64, seed uint64) []time.Duration {
	rng := dist.NewRand(seed)
	gap := float64(time.Second) / rate
	due := make([]time.Duration, n)
	at := 0.0
	for i := range due {
		at += rng.ExpFloat64() * gap
		due[i] = time.Duration(at)
	}
	return due
}

// stratifiedSizes draws n sizes from cdf with one uniform per stratum
// [i/n, (i+1)/n), then shuffles them. Every seed thus yields the CDF's
// shape with little sampling noise: a plain draw of a few thousand sizes
// from a heavy-tailed CDF moves the mean byte count by several percent
// from seed to seed, which would show up as benchmark spread. Within a
// bucket the size is uniform, and the open last bucket spans [Lo, 2·Lo),
// as in dist.Sampler.
func stratifiedSizes(cdf *dist.CDF, n int, seed uint64) []uint64 {
	rng := dist.NewRand(seed)
	layout := cdf.Layout()
	out := make([]uint64, n)
	for i := range out {
		u := (float64(i) + rng.Float64()) / float64(n)
		b := len(layout) - 1
		for j := range layout {
			if u <= cdf.Cumulative(j) {
				b = j
				break
			}
		}
		lo, hi := layout[b].Lo, layout[b].Hi
		if hi == dist.MaxSize {
			hi = 2 * lo
		}
		if hi > lo {
			out[i] = lo + rng.Uint64n(hi-lo)
		} else {
			out[i] = lo
		}
	}
	for i := len(out) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) { return statusMB("VmHWM:") }

// statusMB reads one kB-valued field of /proc/self/status in MiB.
func statusMB(field string) (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 3 && fields[0] == field && fields[2] == "kB" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parse %s %w", field, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no %s line in /proc/self/status", field)
}

// rssEvery is how often an rssSampler reads the resident set.
const rssEvery = 5 * time.Millisecond

// rssSampler reads the process's resident set (VmRSS) every rssEvery in
// a goroutine of its own and keeps the highest reading since the last
// cut. It gives the peak of one operation, where VmHWM only gives the
// peak of the whole process.
type rssSampler struct {
	mu   sync.Mutex
	peak float64 // MiB since the last cut
	err  error   // first failed reading
	stop chan struct{}
	done chan struct{}
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			s.sample()
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	mb, err := statusMB("VmRSS:")
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		if s.err == nil {
			s.err = err
		}
		return
	}
	s.peak = math.Max(s.peak, mb)
}

// cut returns the highest reading since the last cut, one taken now
// included, and starts the next interval.
func (s *rssSampler) cut() (float64, error) {
	s.sample()
	s.mu.Lock()
	defer s.mu.Unlock()
	peak := s.peak
	s.peak = 0
	return peak, s.err
}

// close stops the sampling goroutine and waits for it to end.
func (s *rssSampler) close() {
	close(s.stop)
	<-s.done
}
