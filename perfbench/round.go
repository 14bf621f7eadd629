package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"harbor/internal/aries"
	"harbor/internal/coord"
	"harbor/internal/core"
	"harbor/internal/expr"
	"harbor/internal/tuple"
	"harbor/internal/worker"
)

// samples are one round's end-to-end measurements.
type samples struct {
	setup           time.Duration
	commitLat       []float64 // ms, client-side Begin→Commit
	commits         int64
	commitWall      time.Duration
	scanRowsPerS    []float64 // one per historical scan
	rangeMS, aggMS  []float64
	recoveryS       []float64
	firstReadMS     []float64
	migrateRowsPerS []float64
	heapBytes       int64
	// The share of the CPU time stolen from the VM while each value above
	// was measured (steal.go): of the set-up and of the commit phase for
	// their figures, of the span of about stealSpan a commit or a read
	// iteration fell in, and of each recovery cycle and each move.
	setupSteal, phaseSteal          float64
	latSteal                        []float64 // one per commitLat
	scanSteal, rangeSteal, aggSteal []float64
	cycleSteal, moveSteal           []float64
}

// roundUnits lists the end-to-end metrics, with their units. A round
// yields one value of setup_s, commit_tps and heap_mb, and one per
// commit, query, recovery cycle or move of the others; the run reports
// the median (or p90) over the calm values of its untraced rounds (calm).
var roundUnits = map[string]string{
	"setup_s": "s", "commit_tps": "1/s", "commit_p50_ms": "ms", "commit_p90_ms": "ms",
	"scan_rows_per_s": "1/s", "range_p50_ms": "ms", "agg_p50_ms": "ms", "recovery_s": "s",
	"first_read_ms": "ms", "migrate_rows_per_s": "1/s", "heap_mb": "MB",
}

// figures gives the round's values of each metric, and with each value
// the steal share of the time it was measured in. The commit percentiles
// get every latency: the run takes them over its calm commits. heap_mb, a
// size, has no steal share.
func (s *samples) figures() (values, steal map[string][]float64) {
	one := func(v float64) []float64 { return []float64{v} }
	values = map[string][]float64{
		"setup_s":            one(s.setup.Seconds()),
		"commit_tps":         one(float64(s.commits) / s.commitWall.Seconds()),
		"commit_p50_ms":      s.commitLat,
		"commit_p90_ms":      s.commitLat,
		"scan_rows_per_s":    s.scanRowsPerS,
		"range_p50_ms":       s.rangeMS,
		"agg_p50_ms":         s.aggMS,
		"recovery_s":         s.recoveryS,
		"first_read_ms":      s.firstReadMS,
		"migrate_rows_per_s": s.migrateRowsPerS,
		"heap_mb":            one(float64(s.heapBytes) / 1e6),
	}
	steal = map[string][]float64{
		"setup_s":            one(s.setupSteal),
		"commit_tps":         one(s.phaseSteal),
		"commit_p50_ms":      s.latSteal,
		"commit_p90_ms":      s.latSteal,
		"scan_rows_per_s":    s.scanSteal,
		"range_p50_ms":       s.rangeSteal,
		"agg_p50_ms":         s.aggSteal,
		"recovery_s":         s.cycleSteal,
		"first_read_ms":      s.cycleSteal,
		"migrate_rows_per_s": s.moveSteal,
	}
	return values, steal
}

// roundState is one round's cluster, model and generators.
type roundState struct {
	*run
	c       *cluster
	m       *model
	live    map[int32]*liveSet
	nextKey map[int32]int64
	asOfs   []int64 // commit timestamps the historical scans read as of
	samples samples
}

// round runs one round: a fresh cluster, a fixed amount of work in each
// phase, and every check.
func (r *run) round() error {
	dir, err := r.newRound()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir) // after the cluster has closed
	setupSteal := markSteal()
	setupStart := time.Now()
	c, err := startCluster(dir, r.shape.cluster, r.tr)
	if err != nil {
		return err
	}
	defer c.close()
	st := &roundState{run: r, c: c, m: newModel(), live: map[int32]*liveSet{}, nextKey: map[int32]int64{}}
	if err := st.load(); err != nil {
		return err
	}
	roundMark := c.mark()
	inputs, err := st.commitInputs()
	if err != nil {
		return err
	}
	st.samples.setup = time.Since(setupStart)
	st.samples.setupSteal = setupSteal.share()

	if err := st.commitPhase(inputs); err != nil {
		return err
	}
	if err := st.readPhase(); err != nil {
		return err
	}
	if err := st.recoveryPhase(); err != nil {
		return err
	}
	if err := st.movePhase(); err != nil {
		return err
	}
	if r.shape.afterMoveFault {
		if err := st.recoverAfterMove(); err != nil {
			return err
		}
	}
	if st.samples.heapBytes, err = c.heapBytes(); err != nil {
		return err
	}
	r.noteHeap(c, st.m, st.samples.heapBytes)
	r.endRound(c, roundMark)
	r.addFigures(st.samples.figures())
	return nil
}

// addFigures keeps an untraced round's values of the end-to-end metrics
// with their steal shares, and a traced round's commit latencies for the
// tracing overhead.
func (r *run) addFigures(values, steal map[string][]float64) {
	if r.tr != nil {
		r.tracedP50 = append(r.tracedP50, values["commit_p50_ms"]...)
		return
	}
	if r.figures == nil {
		r.figures = map[string][]float64{}
		r.steal = map[string][]float64{}
	}
	for name, v := range values {
		r.figures[name] = append(r.figures[name], v...)
		r.steal[name] = append(r.steal[name], steal[name]...)
	}
}

// settle collects the garbage of the untimed work before a timed phase,
// so every phase starts from the same heap state whatever ran before it.
// The phase itself runs with the runtime's default collector settings.
func settle() { runtime.GC() }

// load creates and bulk-loads every table, then checkpoints, so a later
// crash recovers from the loaded state.
func (st *roundState) load() error {
	for _, id := range tables {
		if err := st.c.createTable(id); err != nil {
			return err
		}
		rows := loadRows(st.rng, 0, tableRows)
		ts, err := st.c.bulkLoad(id, rows)
		if err != nil {
			return err
		}
		st.m.load(id, rows, ts)
		st.live[id] = newLiveSet(st.m.liveKeys(id))
		st.nextKey[id] = tableRows
	}
	return st.c.checkpoint()
}

// commitInputs runs each client's untimed warm-up and draws the timed
// phase's transactions.
func (st *roundState) commitInputs() ([][]txnInput, error) {
	s := st.shape
	inputs := make([][]txnInput, len(tables))
	for i, id := range tables {
		rng := rand.New(rand.NewSource(st.rng.Int63()))
		gen := func() txnInput {
			nk := st.nextKey[id]
			in := mixedTxn(rng, id, st.live[id], &nk, txnUpdates, 0, txnInserts)
			st.nextKey[id] = nk
			return in
		}
		for j := 0; j < s.warmup; j++ {
			if _, _, err := execTxn(st.c.co, st.tr, st.m, gen()); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		for j := 0; j < s.txns; j++ {
			inputs[i] = append(inputs[i], gen())
		}
	}
	return inputs, nil
}

// commitPhase runs the clients closed-loop, each on its own table, and
// checks commit order, the Table 4.2 costs and every replica.
func (st *roundState) commitPhase(inputs [][]txnInput) error {
	s, c := st.shape, st.c
	settle()
	before := forceCounts(c)
	pm := st.beginPhase(c)
	lat := make([][]float64, len(inputs))
	tss := make([][]int64, len(inputs))
	fails := make([]int64, len(inputs))
	spans := make([]*stealSpans, len(inputs))
	var wg sync.WaitGroup
	phase := markSteal()
	start := time.Now()
	for i := range inputs {
		wg.Add(1)
		spans[i] = newStealSpans()
		go func(i int) {
			defer wg.Done()
			for _, in := range inputs[i] {
				ts, d, err := execTxn(c.co, st.tr, st.m, in)
				if err != nil {
					fails[i]++
					continue
				}
				lat[i] = append(lat[i], ms(d))
				tss[i] = append(tss[i], ts)
				spans[i].add()
			}
			spans[i].close()
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)
	st.samples.phaseSteal = phase.share()
	after := forceCounts(c)
	var committed, rows int64
	for i := range inputs {
		st.attempted += int64(len(inputs[i]))
		st.failed += fails[i]
		committed += int64(len(tss[i]))
		for _, in := range inputs[i] {
			rows += int64(len(in.ws))
		}
		st.asOfs = append(st.asOfs, tss[i]...)
	}
	st.endPhase(pm, c, phaseCommit, phaseCounts{ops: committed, rows: rows})
	for i := range lat {
		st.samples.commitLat = append(st.samples.commitLat, lat[i]...)
		st.samples.latSteal = append(st.samples.latSteal, spans[i].shares...)
	}
	st.samples.commits, st.samples.commitWall = committed, wall

	if err := check(checkCommitOrder(tss), "commit order"); err != nil {
		return err
	}
	if committed == int64(len(tables)*s.txns) {
		spent := costCount{msgs: after.msgs - before.msgs, coordForces: after.coordForces - before.coordForces}
		for i := 0; i < 2; i++ {
			spent.workerForces = append(spent.workerForces, after.workerForces[i]-before.workerForces[i])
		}
		if err := check(checkCost(spent, s.cluster.protocol.ExpectedCost(), int(committed), txnUpdates+txnInserts), "Table 4.2 cost"); err != nil {
			return err
		}
	}
	return checkReplicas(c, st.m, tables...)
}

// readPhase runs one client's historical scans, range queries and
// grouped aggregates on the first table, checking each against the model.
func (st *roundState) readPhase() error {
	c, m := st.c, st.m
	table := tables[0]
	full := expr.FullKeyRange()
	type rangeQ struct{ lo, hi int64 }
	scanAt := make([]int64, readIters)
	ranges := make([][]rangeQ, readIters)
	for it := range scanAt {
		scanAt[it] = st.asOfs[st.rng.Intn(len(st.asOfs))]
		for q := 0; q < readRanges; q++ {
			lo := st.rng.Int63n(st.nextKey[table] - rangeKeys)
			ranges[it] = append(ranges[it], rangeQ{lo, lo + rangeKeys})
		}
	}
	wantAgg := groupTotals(m.snapshot(table, current, full.Lo, full.Hi))

	settle()
	pm := st.beginPhase(c)
	var queries, rowsOut int64
	query := func(kind, call string, run func() (int, error)) (time.Duration, error) {
		root := st.tr.root(kind)
		sp := root.child(call)
		t0 := time.Now()
		n, err := run()
		d := time.Since(t0)
		sp.end()
		root.end()
		st.attempted++
		queries++
		rowsOut += int64(n)
		if err != nil {
			st.failed++
		}
		return d, err
	}
	spans := newStealSpans()
	for it := 0; it < readIters; it++ {
		var got []tuple.Tuple
		d, err := query("query.scan", "coord.Scan", func() (int, error) {
			rows, err := c.co.Scan(table, coord.QueryOptions{Historical: true, AsOf: scanAt[it]})
			got = rows
			return len(rows), err
		})
		if err != nil {
			return fmt.Errorf("historical scan as of %d: %w", scanAt[it], err)
		}
		st.samples.scanRowsPerS = append(st.samples.scanRowsPerS, float64(len(got))/d.Seconds())
		if err := checkRows(got, m.snapshot(table, scanAt[it], full.Lo, full.Hi)); err != nil {
			return check(err, "historical scan as of %d", scanAt[it])
		}

		for _, q := range ranges[it] {
			rng := expr.KeyRange{Lo: q.lo, Hi: q.hi}
			d, err := query("query.range", "coord.Scan", func() (int, error) {
				rows, err := c.co.Scan(table, coord.QueryOptions{Pred: rng.Pred(benchDesc)})
				got = rows
				return len(rows), err
			})
			if err != nil {
				return fmt.Errorf("range query %v: %w", rng, err)
			}
			st.samples.rangeMS = append(st.samples.rangeMS, ms(d))
			if err := checkRows(got, m.snapshot(table, current, q.lo, q.hi)); err != nil {
				return check(err, "range query %v", rng)
			}
		}

		for a := 0; a < readAggs; a++ {
			d, err := query("query.agg", "coord.Aggregate", func() (int, error) {
				rows, err := c.co.Aggregate(table, coord.QueryOptions{}, aggPlan)
				got = rows
				return len(rows), err
			})
			if err != nil {
				return fmt.Errorf("grouped aggregate: %w", err)
			}
			st.samples.aggMS = append(st.samples.aggMS, ms(d))
			if err := checkGroups(got, wantAgg); err != nil {
				return check(err, "grouped aggregate")
			}
		}
		spans.add()
	}
	spans.close()
	for _, share := range spans.shares {
		st.samples.scanSteal = append(st.samples.scanSteal, share)
		for q := 0; q < readRanges; q++ {
			st.samples.rangeSteal = append(st.samples.rangeSteal, share)
		}
		for a := 0; a < readAggs; a++ {
			st.samples.aggSteal = append(st.samples.aggSteal, share)
		}
	}
	st.endPhase(pm, c, phaseRead, phaseCounts{ops: queries, rows: rowsOut})
	return nil
}

// recoveryPhase crashes the victim cycles times and recovers it while the
// probe client reads the hot range from it.
func (st *roundState) recoveryPhase() error {
	s, c, m := st.shape, st.c, st.m
	useARIES := s.cluster.mode == worker.ARIES
	hotTable := tables[0]
	for cy := 0; cy < recCycles; cy++ {
		if useARIES {
			if err := st.commitDelta(); err != nil {
				return fmt.Errorf("cycle %d delta: %w", cy, err)
			}
		}
		c.workers[victim].Crash()
		if !useARIES {
			if err := st.commitDelta(); err != nil {
				return fmt.Errorf("cycle %d delta: %w", cy, err)
			}
		}
		asOf := c.co.Authority.HWM()
		wantHot := m.snapshot(hotTable, asOf, hotRange.Lo, hotRange.Hi)

		settle()
		st.attempted++
		root := st.tr.root("recovery.cycle")
		m0 := markSteal()
		t0 := time.Now()
		site, err := c.open(victim, root)
		if err != nil {
			root.end()
			st.failed++
			return err
		}
		probe := startProbe(site.Addr(), hotTable, asOf, hotRange, t0)
		if useARIES {
			sp := root.child("worker.RecoverARIES")
			var as *aries.Stats
			as, err = site.RecoverARIES()
			sp.end()
			if err == nil {
				st.layers.addAries(st.tr, as.AnalysisTime, as.RedoTime, as.UndoTime, as.RedoRecords)
			}
		} else {
			sp := root.child("core.RecoverSite")
			var stats *core.SiteStats
			stats, err = core.New(site, c.cat).RecoverSite(core.Options{Parallel: true, Concurrency: 1})
			sp.end()
			if err == nil {
				st.layers.addRecovery(st.tr, stats)
			}
		}
		recovered := time.Since(t0)
		cycleSteal := m0.share()
		first := probe.stop()
		root.end()
		if err != nil {
			st.failed++
			return fmt.Errorf("cycle %d recovery: %w", cy, err)
		}
		if first.err != nil {
			st.failed++
			return fmt.Errorf("cycle %d probe: %w", cy, first.err)
		}
		st.samples.recoveryS = append(st.samples.recoveryS, recovered.Seconds())
		st.samples.firstReadMS = append(st.samples.firstReadMS, ms(first.after))
		st.samples.cycleSteal = append(st.samples.cycleSteal, cycleSteal)
		if st.tr != nil {
			st.layers.add("core.first_read_refusals", float64(first.refusals))
			st.layers.add("recovery.cycles", 1)
		}
		if err := checkRows(first.rows, wantHot); err != nil {
			return check(err, "cycle %d first read of %v as of %d", cy, hotRange, asOf)
		}
		if err := checkReplicas(c, m, tables...); err != nil {
			return fmt.Errorf("cycle %d after recovery: %w", cy, err)
		}
	}
	return nil
}

// commitDelta commits one recovery cycle's delta: per table, the shape's
// updates, deletes and inserts, shuffled into transactions of recTxnOps
// writes.
func (st *roundState) commitDelta() error {
	for _, id := range tables {
		var kinds []int // indexes into delta: update, delete, insert
		for k, n := range st.shape.delta {
			for j := 0; j < n; j++ {
				kinds = append(kinds, k)
			}
		}
		st.rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		for lo := 0; lo < len(kinds); lo += recTxnOps {
			var n [3]int
			for _, k := range kinds[lo:min(lo+recTxnOps, len(kinds))] {
				n[k]++
			}
			nk := st.nextKey[id]
			in := mixedTxn(st.rng, id, st.live[id], &nk, n[0], n[1], n[2])
			st.nextKey[id] = nk
			if _, _, err := execTxn(st.c.co, st.tr, st.m, in); err != nil {
				return err
			}
		}
	}
	return nil
}

// movePhase moves moveRange from the victim to the spare site and back,
// movePairs times.
func (st *roundState) movePhase() error {
	for mv := 0; mv < movePairs; mv++ {
		settle()
		for _, dir := range [][2]int{{victim, spare}, {spare, victim}} {
			if err := st.migrate(tables[0], moveRange, dir[0], dir[1]); err != nil {
				return fmt.Errorf("move %d: %w", mv, err)
			}
		}
	}
	return nil
}
