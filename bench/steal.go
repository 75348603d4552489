package main

import (
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// On a shared host the hypervisor takes the daemon's CPU away for a fifth of
// the time in one minute and not at all in the next; a session's wall time
// then says more about the neighbours than about the program. The kernel
// counts that stolen time per CPU, so the benchmark samples the count while
// it measures and reports wall times net of it. Where nothing is stolen (a
// dedicated host) the correction is zero.

// stealSampler records cumulative steal time on a set of CPUs a few times a
// second. The series is read only after stop.
type stealSampler struct {
	t0   time.Time
	cpus map[string]bool // "cpu1", ...; empty: every CPU

	at    []time.Duration // sample instants, offsets from t0
	steal []time.Duration // cumulative steal per CPU (mean over cpus) at each

	quit chan struct{}
	done chan struct{}
}

const stealSampleEvery = 250 * time.Millisecond

func startStealSampler(t0 time.Time, cpus []int) *stealSampler {
	s := &stealSampler{t0: t0, cpus: make(map[string]bool), quit: make(chan struct{}), done: make(chan struct{})}
	for _, c := range cpus {
		s.cpus["cpu"+strconv.Itoa(c)] = true
	}
	s.sample()
	go func() {
		defer close(s.done)
		tick := time.NewTicker(stealSampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				s.sample()
			case <-s.quit:
				return
			}
		}
	}()
	return s
}

// stop takes a last sample and ends the sampling goroutine.
func (s *stealSampler) stop() {
	close(s.quit)
	<-s.done
	s.sample()
}

func (s *stealSampler) sample() {
	now := time.Since(s.t0)
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return // no /proc: no correction
	}
	var ticks, n int64
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		// cpuN user nice system idle iowait irq softirq steal ...
		if len(f) < 9 || !strings.HasPrefix(f[0], "cpu") || f[0] == "cpu" {
			continue
		}
		if len(s.cpus) > 0 && !s.cpus[f[0]] {
			continue
		}
		if v, err := strconv.ParseInt(f[8], 10, 64); err == nil {
			ticks += v
			n++
		}
	}
	if n == 0 {
		return
	}
	s.at = append(s.at, now)
	s.steal = append(s.steal, time.Duration(ticks)*clockTick/time.Duration(n))
}

// cumulative interpolates the steal counter at offset t.
func (s *stealSampler) cumulative(t time.Duration) time.Duration {
	if len(s.at) == 0 {
		return 0
	}
	i := sort.Search(len(s.at), func(i int) bool { return s.at[i] >= t })
	switch {
	case i == 0:
		return s.steal[0]
	case i == len(s.at):
		return s.steal[len(s.at)-1]
	}
	a, b := s.at[i-1], s.at[i]
	frac := float64(t-a) / float64(b-a)
	return s.steal[i-1] + time.Duration(frac*float64(s.steal[i]-s.steal[i-1]))
}

// between is the time stolen from each of the sampled CPUs, on average,
// between two offsets. The kernel publishes the counter in 10 ms ticks and
// the sampler reads it every quarter second, so the figure is exact over
// seconds and an even spread of the surrounding quarter second within it.
func (s *stealSampler) between(a, b time.Duration) time.Duration {
	return s.cumulative(b) - s.cumulative(a)
}

// net is the wall time from a to b less the time stolen in it, never less
// than a tenth of the wall time (a guard against a sampling artefact turning
// a short session's time negative).
func (s *stealSampler) net(a, b time.Duration) time.Duration {
	wall := b - a
	return max(wall-s.between(a, b), wall/10)
}
