package main

import (
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// On a shared host the hypervisor gives the VM's CPUs to other guests now
// and then, in spells of seconds to minutes; Linux counts that time as
// "steal". On the 2-vCPU development VM a spell slowed every chain of
// hand-offs between the sites' goroutines far more than it slowed one
// short call: a round with 11% steal recovered in 0.22 s against 0.13 s
// in a round with none, while its commit median did not move. So the
// benchmark notes the steal share of the time each value was measured in:
// each recovery cycle and each move (10 ms or more, at least a clock tick
// on two CPUs), the span of at least stealSpan a commit or a read query
// fell in, and the set-up and commit phase of a round for setup_s and
// commit_tps. It reports a metric as the median (or p90) over its calmest
// values (calm). Where /proc/stat has no steal figure every value reads 0
// and all of them count.

// cpuTicks reads the steal and total CPU time of all CPUs, in clock ticks,
// from the first line of /proc/stat; both read 0 where it is unavailable.
func cpuTicks() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// stealMark is the CPU time counted at the start of a phase.
type stealMark struct{ steal, total int64 }

func markSteal() stealMark {
	s, t := cpuTicks()
	return stealMark{s, t}
}

// share is the part of all CPU time since the mark that was stolen.
func (m stealMark) share() float64 {
	s, t := cpuTicks()
	if t <= m.total {
		return 0
	}
	return float64(s-m.steal) / float64(t-m.total)
}

// stealSpan is the least time a span of commits or read iterations
// lasts: 20 clock ticks on two CPUs.
const stealSpan = 100 * time.Millisecond

// stealSpans gives values measured one after another, by one goroutine,
// the steal share of the span of at least stealSpan they fall in: one
// commit or one read iteration is too short to have its own.
type stealSpans struct {
	mark   stealMark
	start  time.Time
	open   int       // values since the span began
	shares []float64 // one per value of the closed spans
}

func newStealSpans() *stealSpans { return &stealSpans{mark: markSteal(), start: time.Now()} }

// add counts one value; the span closes once it has lasted stealSpan.
func (s *stealSpans) add() {
	s.open++
	if time.Since(s.start) >= stealSpan {
		s.close()
	}
}

// close gives the span's values its share and begins the next span.
func (s *stealSpans) close() {
	share := s.mark.share()
	for ; s.open > 0; s.open-- {
		s.shares = append(s.shares, share)
	}
	s.mark, s.start = markSteal(), time.Now()
}

// calmSteal is the steal share a value may show and still count as calm:
// no clock tick in a recovery cycle of the commit workload (26 ticks on
// two CPUs), one in a phase of a quarter second.
const calmSteal = 0.02

// calm returns the calmest quarter of the values: those whose steal is
// at most that of the value ranked len/4 from the calm end, ties
// included. Values that lost at most calmSteal count too, so a calm run
// reports the median of nearly all its values and not of a quarter of
// them. steal[i] belongs to values[i]; values without steal shares (a
// size) all count.
func calm(values, steal []float64) []float64 {
	if len(steal) != len(values) || len(values) == 0 {
		return values
	}
	sorted := append([]float64(nil), steal...)
	sort.Float64s(sorted)
	limit := max(sorted[(len(sorted)+3)/4-1], calmSteal)
	var calm []float64
	for i, v := range values {
		if steal[i] <= limit {
			calm = append(calm, v)
		}
	}
	return calm
}
