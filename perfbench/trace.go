package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"harbor/internal/obs"
)

// span is one timed call the benchmark made into a layer. Spans of one
// operation share op; parent is the index of the enclosing span, -1 for
// the operation's root.
type span struct {
	Op     int64  `json:"op"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans of a traced run in memory. A nil tracer records
// nothing, which is how the untraced run measures.
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []span
	nextOp int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// spanRef names an open span; the zero value (from a nil tracer) is inert.
type spanRef struct {
	t   *tracer
	op  int64
	idx int
}

func (t *tracer) open(op int64, parent int, name string) spanRef {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{Op: op, Parent: parent, Name: name, Start: now})
	idx := len(t.spans) - 1
	t.mu.Unlock()
	return spanRef{t: t, op: op, idx: idx}
}

// root opens the first span of a new operation.
func (t *tracer) root(name string) spanRef {
	if t == nil {
		return spanRef{}
	}
	t.mu.Lock()
	t.nextOp++
	op := t.nextOp
	t.mu.Unlock()
	return t.open(op, -1, name)
}

// child opens a span caused by s.
func (s spanRef) child(name string) spanRef {
	if s.t == nil {
		return spanRef{}
	}
	return s.t.open(s.op, s.idx, name)
}

func (s spanRef) end() {
	if s.t == nil {
		return
	}
	now := time.Since(s.t.epoch).Nanoseconds()
	s.t.mu.Lock()
	s.t.spans[s.idx].End = now
	s.t.mu.Unlock()
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	Count  int64   `json:"count"`
	MeanUS float64 `json:"mean_us"`
	SelfUS float64 `json:"self_mean_us"`
}

// summary aggregates spans by name. A span's self time is its duration
// minus the part of it covered by its child spans.
func (t *tracer) summary() map[string]spanStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	type acc struct{ n, total, self int64 }
	by := map[string]*acc{}
	for i, s := range t.spans {
		dur := s.End - s.Start
		var ivs [][2]int64
		for _, c := range children[i] {
			ivs = append(ivs, [2]int64{t.spans[c].Start, t.spans[c].End})
		}
		a := by[s.Name]
		if a == nil {
			a = &acc{}
			by[s.Name] = a
		}
		a.n++
		a.total += dur
		a.self += dur - covered(ivs, s.Start, s.End)
	}
	out := make(map[string]spanStat, len(by))
	for name, a := range by {
		out[name] = spanStat{Count: a.n, MeanUS: float64(a.total) / float64(a.n) / 1e3,
			SelfUS: float64(a.self) / float64(a.n) / 1e3}
	}
	return out
}

// covered returns how much of [lo, hi) the union of the intervals covers.
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		s, e := max(iv[0], cur), min(iv[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// write stores the per-layer metrics, the span summary and every span as
// JSON lines.
func (t *tracer) write(path string, layers map[string]metric) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(map[string]any{"per_layer": layers, "spans_by_name": t.summary()}); err != nil {
		f.Close()
		return err
	}
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// counters is a flat view of registry deltas: counter name → delta, and
// for each histogram name.count and name.sum.
type counters map[string]int64

func flatten(s obs.Snapshot) counters {
	out := counters{}
	for n, v := range s.Counters {
		out[n] = v
	}
	for n, h := range s.Histograms {
		out[n+".count"] = h.Count
		out[n+".sum"] = h.Sum
	}
	return out
}

// regMark is every known registry's state at the start of a phase.
type regMark map[*obs.Registry]counters

func (c *cluster) mark() regMark {
	m := regMark{}
	for _, r := range c.regs {
		m[r] = flatten(r.Snapshot())
	}
	return m
}

// since sums the counter deltas since the mark, separately for the
// coordinator and across every worker incarnation (a site opened during
// the phase counts from zero).
func (c *cluster) since(m regMark) (coordD, workerD counters) {
	coordD, workerD = counters{}, counters{}
	coordReg := c.co.Obs()
	for _, r := range c.regs {
		dst := workerD
		if r == coordReg {
			dst = coordD
		}
		before := m[r]
		for n, v := range flatten(r.Snapshot()) {
			dst[n] += v - before[n]
		}
	}
	return coordD, workerD
}

// prefixSum adds every counter whose name starts with prefix, covering
// labelled families such as comm.dials{site=1}.
func (cs counters) prefixSum(prefix string) int64 {
	var n int64
	for k, v := range cs {
		if strings.HasPrefix(k, prefix) {
			n += v
		}
	}
	return n
}

// proc is a snapshot of the process's own resource counters.
type proc struct {
	cpu        time.Duration
	mallocs    uint64
	allocBytes uint64
	gcs        uint32
	gcPause    uint64
	readSys    int64
	writeSys   int64
	heapLive   uint64
}

func readProc() proc {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p := proc{mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc, gcs: ms.NumGC,
		gcPause: ms.PauseTotalNs, heapLive: ms.HeapAlloc}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		p.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	// /proc/self/io counts the read and write system calls of every
	// thread; it is absent on some kernels, and the counts then read 0.
	if b, err := os.ReadFile("/proc/self/io"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			k, v, ok := strings.Cut(line, ": ")
			if !ok {
				continue
			}
			n, _ := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			switch k {
			case "syscr":
				p.readSys = n
			case "syscw":
				p.writeSys = n
			}
		}
	}
	return p
}

// peakRSSMB is the process's peak resident set.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
