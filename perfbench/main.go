// Command perfbench is HARBOR's benchmark. It runs one workload on
// in-process clusters (real loopback TCP, real files) for a wall-clock
// budget, in whole rounds of fixed work, checks every result against its
// own model of the acknowledged writes, and prints one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// records spans around its calls into coord, core and worker, snapshots
// every site's obs registry and the process counters around each phase,
// runs the layer replays, and prints the per-layer metrics (also written
// with every span to -trace-out). Build and run it through run.py:
//
//	python3 perfbench/run.py --workload commit --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state of one benchmark invocation.
type run struct {
	shape  shape
	rng    *rand.Rand
	dir    string
	rounds int
	// tr is non-nil during traced rounds only.
	tr *tracer

	attempted, failed int64
	// figures holds each end-to-end metric's values from every untraced
	// round, steal the stolen CPU share of the time each value was measured
	// in, and tracedP50 the commit latencies of every traced round.
	figures   map[string][]float64
	steal     map[string][]float64
	tracedP50 []float64
	layers    layerAcc
}

// newRound makes the round's data directory.
func (r *run) newRound() (string, error) {
	dir := filepath.Join(r.dir, fmt.Sprintf("round%d", r.rounds))
	return dir, os.MkdirAll(dir, 0o755)
}

// checkErr wraps a failed correctness check so main can tell it from an
// error of the program under test.
type checkErr struct{ err error }

func (e checkErr) Error() string { return "check failed: " + e.err.Error() }

func check(err error, what string, args ...any) error {
	if err == nil {
		return nil
	}
	return checkErr{fmt.Errorf("%s: %w", fmt.Sprintf(what, args...), err)}
}

func main() {
	name := flag.String("workload", "", "commit or logged")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 20, "wall-clock budget; whole rounds run until it is spent")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	traceOut := flag.String("trace-out", "", "file for spans and per-layer metrics (traced runs)")
	flag.Parse()
	sh, ok := shapes[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload commit|logged --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	base, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := execute(sh, base, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *traceOut)
	os.RemoveAll(base)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if _, isCheck := err.(checkErr); !isCheck {
			os.Exit(1)
		}
		res.Correct = false
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func execute(sh shape, dir string, seed int64, budget time.Duration, traced bool, traceOut string) (result, error) {
	r := &run{shape: sh, rng: rand.New(rand.NewSource(seed)), dir: dir}
	res := result{Correct: true, Metrics: map[string]metric{}}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	// A traced invocation alternates untraced and traced rounds, so the
	// tracing overhead is measured inside one process on the same inputs.
	minRounds := 1
	if traced {
		minRounds = 2
	}
	start := time.Now()
	for r.rounds < minRounds || time.Since(start) < budget {
		r.tr = nil
		if traced && r.rounds%2 == 1 {
			r.tr = tr
		}
		err := r.round()
		r.rounds++
		if err != nil {
			res.Attempted, res.Failed = r.attempted, r.failed
			return res, err
		}
	}
	res.Attempted, res.Failed = r.attempted, r.failed
	if !traced {
		for name, unit := range roundUnits {
			q := 0.5
			if name == "commit_p90_ms" {
				q = 0.9
			}
			res.Metrics[name] = metric{quantile(calm(r.figures[name], r.steal[name]), q), unit}
		}
		res.Metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
		return res, nil
	}
	res.Metrics = r.layers.metrics(tr)
	replays, err := replayLayers(dir)
	if err != nil {
		return res, fmt.Errorf("layer replays: %w", err)
	}
	for k, v := range replays {
		res.Metrics[k] = v
	}
	plain, withTrace := median(r.figures["commit_p50_ms"]), median(r.tracedP50)
	over := 0.0
	if plain > 0 {
		over = (withTrace/plain - 1) * 100
	}
	res.Metrics["trace.overhead_pct"] = metric{over, "%"}
	if traceOut != "" {
		if err := tr.write(traceOut, res.Metrics); err != nil {
			return res, err
		}
	}
	return res, nil
}

// median is the middle of the samples (mean of the middle two for an
// even count), 0 for none.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between the closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
