package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"harbor/internal/catalog"
	"harbor/internal/coord"
	"harbor/internal/core"
	"harbor/internal/exec"
	"harbor/internal/expr"
	"harbor/internal/tuple"
)

// txnInput is one generated transaction: its writes for the model and the
// tuples sent for them.
type txnInput struct {
	ws []write
	ts []tuple.Tuple
}

func newTxnInput(ws []write) txnInput {
	in := txnInput{ws: ws, ts: make([]tuple.Tuple, len(ws))}
	for i, w := range ws {
		in.ts[i] = w.row.tuple()
	}
	return in
}

// loadRows makes n rows with keys [lo, lo+n).
func loadRows(rng *rand.Rand, lo, n int64) []row {
	rows := make([]row, n)
	for i := range rows {
		k := lo + int64(i)
		rows[i] = row{key: k, grp: int32(k % groups), val: rng.Int31n(1000)}
	}
	return rows
}

// execTxn runs one transaction through the coordinator and, once it is
// acknowledged, records its writes in the model. It returns the commit
// timestamp and the client-side Begin→Commit latency, which leaves out the
// model's bookkeeping.
func execTxn(co *coord.Coordinator, tr *tracer, m *model, in txnInput) (int64, time.Duration, error) {
	root := tr.root("txn")
	defer root.end()
	start := time.Now()
	sp := root.child("coord.Begin")
	tx := co.Begin()
	sp.end()
	for i, w := range in.ws {
		var err error
		switch w.kind {
		case opInsert:
			sp = root.child("coord.Txn.Insert")
			err = tx.Insert(w.table, in.ts[i])
		case opUpdate:
			sp = root.child("coord.Txn.UpdateKey")
			err = tx.UpdateKey(w.table, w.row.key, in.ts[i])
		case opDelete:
			sp = root.child("coord.Txn.DeleteKey")
			err = tx.DeleteKey(w.table, w.row.key)
		}
		sp.end()
		if err != nil {
			_ = tx.Abort() // the update's own error is the one to report
			return 0, 0, err
		}
	}
	sp = root.child("coord.Txn.Commit")
	ts, err := tx.Commit()
	sp.end()
	lat := time.Since(start)
	if err != nil {
		return 0, 0, err
	}
	m.commit(in.ws, ts)
	return ts, lat, nil
}

// checkReplicas reads every replica of the tables directly from its site,
// as of the coordinator's high-water mark, and compares it with the model.
func checkReplicas(c *cluster, m *model, tables ...int32) error {
	hwm := c.co.Authority.HWM()
	for _, t := range tables {
		for _, rep := range c.cat.Replicas(t) {
			addr, _ := c.cat.SiteAddr(rep.Site)
			got, served, err := siteRead(addr, t, hwm, rep.Range)
			if err != nil {
				return fmt.Errorf("reading table %d at site %d: %w", t, rep.Site, err)
			}
			if !served {
				return check(fmt.Errorf("read refused"), "replica of table %d at site %d", t, rep.Site)
			}
			if err := checkRows(got, m.snapshot(t, current, rep.Range.Lo, rep.Range.Hi)); err != nil {
				return check(err, "replica of table %d at site %d", t, rep.Site)
			}
		}
	}
	return nil
}

// forceCounts reads wal.force_calls at the coordinator and at each worker.
func forceCounts(c *cluster) costCount {
	cc := costCount{coordForces: c.co.Obs().Counter("wal.force_calls").Load(),
		msgs: c.co.Obs().Counter("coord.msgs_sent").Load()}
	for _, wk := range c.workers {
		cc.workerForces = append(cc.workerForces, wk.Obs().Counter("wal.force_calls").Load())
	}
	return cc
}

// liveSet tracks the keys a generator may update or delete.
type liveSet struct {
	keys []int64
	pos  map[int64]int
}

func newLiveSet(keys []int64) *liveSet {
	s := &liveSet{keys: append([]int64(nil), keys...), pos: map[int64]int{}}
	for i, k := range s.keys {
		s.pos[k] = i
	}
	return s
}

func (s *liveSet) pick(rng *rand.Rand) int64 { return s.keys[rng.Intn(len(s.keys))] }

func (s *liveSet) add(k int64) { s.pos[k] = len(s.keys); s.keys = append(s.keys, k) }

func (s *liveSet) remove(k int64) {
	i := s.pos[k]
	last := s.keys[len(s.keys)-1]
	s.keys[i] = last
	s.pos[last] = i
	s.keys = s.keys[:len(s.keys)-1]
	delete(s.pos, k)
}

// mixedTxn generates a transaction of updates, deletes and inserts with
// distinct keys, keeping live current.
func mixedTxn(rng *rand.Rand, table int32, live *liveSet, nextKey *int64, updates, deletes, inserts int) txnInput {
	var ws []write
	used := map[int64]bool{}
	pick := func() int64 {
		for {
			if k := live.pick(rng); !used[k] {
				used[k] = true
				return k
			}
		}
	}
	for i := 0; i < updates; i++ {
		k := pick()
		ws = append(ws, write{kind: opUpdate, table: table, row: row{key: k, grp: int32(k % groups), val: rng.Int31n(1000)}})
	}
	for i := 0; i < deletes; i++ {
		k := pick()
		live.remove(k)
		ws = append(ws, write{kind: opDelete, table: table, row: row{key: k}})
	}
	for i := 0; i < inserts; i++ {
		k := *nextKey
		*nextKey++
		live.add(k)
		ws = append(ws, write{kind: opInsert, table: table, row: row{key: k, grp: int32(k % groups), val: rng.Int31n(1000)}})
	}
	return newTxnInput(ws)
}

var aggPlan = exec.AggPlan{GroupField: fGrp, Aggs: []exec.AggSpec{{Fn: exec.Sum, Field: fVal}, {Fn: exec.Count}}}

// migrate moves rng of the table from worker from to worker to with
// core.Migrate and checks the target against the model and that the donor
// no longer holds the range.
func (st *roundState) migrate(table int32, rng expr.KeyRange, from, to int) error {
	c := st.c
	st.attempted++
	root := st.tr.root("migrate")
	sp := root.child("core.Migrate")
	m0 := markSteal()
	t0 := time.Now()
	ms, err := core.Migrate(c.workers[to], c.cat, core.MigrateSpec{Table: table, Range: rng, DropFrom: siteID(from)}, core.Options{})
	d := time.Since(t0)
	moveSteal := m0.share()
	sp.end()
	root.end()
	if err != nil {
		st.failed++
		return fmt.Errorf("migrating %v of table %d to site %d: %w", rng, table, to+1, err)
	}
	rows := int64(ms.Phase2Inserts + ms.Phase3Inserts)
	st.samples.migrateRowsPerS = append(st.samples.migrateRowsPerS, float64(rows)/d.Seconds())
	st.samples.moveSteal = append(st.samples.moveSteal, moveSteal)
	if st.tr != nil {
		st.layers.add("core.moves", 1)
		st.layers.add("core.migrate_rows", float64(rows))
	}
	hwm := c.co.Authority.HWM()
	got, served, err := siteRead(c.workers[to].Addr(), table, hwm, rng)
	if err != nil {
		return err
	}
	if !served {
		return check(fmt.Errorf("read refused"), "migrated range %v at site %d", rng, to+1)
	}
	if err := checkRows(got, st.m.snapshot(table, current, rng.Lo, rng.Hi)); err != nil {
		return check(err, "migrated range %v at site %d", rng, to+1)
	}
	if holdsRange(c.cat, siteID(from), table, rng) {
		return check(fmt.Errorf("catalog still places it there"), "donor site %d after moving %v", from+1, rng)
	}
	got, served, err = siteRead(c.workers[from].Addr(), table, hwm, rng)
	if err != nil {
		return err
	}
	if served && len(got) > 0 {
		return check(fmt.Errorf("%d rows still served", len(got)), "donor site %d after moving %v", from+1, rng)
	}
	return nil
}

// holdsRange reports whether the catalog places any of rng of the table
// on the site.
func holdsRange(cat *catalog.Catalog, site catalog.SiteID, table int32, rng expr.KeyRange) bool {
	for _, rep := range cat.ReplicasOn(site) {
		if rep.Table == table && !rep.Range.Intersect(rng).Empty() {
			return true
		}
	}
	return false
}

// probeResult is the first read of the hot range the recovering site
// served.
type probeResult struct {
	rows     []tuple.Tuple
	served   bool
	after    time.Duration
	refusals int
	err      error
}

type probe struct {
	stopCh chan struct{}
	done   chan probeResult
	addr   string
	table  int32
	asOf   int64
	rng    expr.KeyRange
	start  time.Time
}

// startProbe starts the probe client: it asks the site for rng as of
// asOf every probeDelay until a read is served. Each refusal faults the
// range in, so HARBOR recovery copies the hot segment first.
func startProbe(addr string, table int32, asOf int64, rng expr.KeyRange, start time.Time) *probe {
	p := &probe{stopCh: make(chan struct{}), done: make(chan probeResult, 1), addr: addr, table: table,
		asOf: asOf, rng: rng, start: start}
	go func() {
		var res probeResult
		for {
			rows, served, err := siteRead(addr, table, asOf, rng)
			if err != nil || served {
				res.rows, res.served, res.err, res.after = rows, served, err, time.Since(start)
				p.done <- res
				return
			}
			res.refusals++
			select {
			case <-p.stopCh:
				p.done <- res
				return
			case <-time.After(probeDelay):
			}
		}
	}()
	return p
}

// stop ends the probe once recovery has finished. A probe that was never
// served during recovery reads once more: the site is caught up now, so
// that read is its first served one.
func (p *probe) stop() probeResult {
	close(p.stopCh)
	res := <-p.done
	if !res.served && res.err == nil {
		rows, served, err := siteRead(p.addr, p.table, p.asOf, p.rng)
		res.rows, res.served, res.err, res.after = rows, served, err, time.Since(p.start)
		if err == nil && !served {
			res.err = fmt.Errorf("recovered site refused the read")
		}
	}
	return res
}

// recoverAfterMove crashes the victim after the moves, commits a fixed
// delta that does not depend on the seed (inserts below and above the
// moved range), recovers the site and compares its replica of the moved
// table with the model. The comparison fails on every run because of a
// fault in the program (see README), so the step counts as one failed
// operation and its time is not reported.
func (st *roundState) recoverAfterMove() error {
	c := st.c
	table := tables[0]
	c.workers[victim].Crash()
	var ws []write
	for i := int64(0); i < 20; i++ {
		ws = append(ws,
			write{kind: opInsert, table: table, row: row{key: -1 - i, grp: 1, val: 1}},
			write{kind: opInsert, table: table, row: row{key: 1_000_000 + i, grp: 1, val: 1}})
	}
	if _, _, err := execTxn(c.co, st.tr, st.m, newTxnInput(ws)); err != nil {
		return fmt.Errorf("delta after moves: %w", err)
	}
	st.attempted++
	root := st.tr.root("recovery.after_move")
	site, err := c.open(victim, root)
	root.end()
	if err != nil {
		st.failed++
		return err
	}
	if _, err := core.New(site, c.cat).RecoverSite(core.Options{Parallel: true, Concurrency: 1}); err != nil {
		st.failed++
		return fmt.Errorf("recovery after moves: %w", err)
	}
	if err := checkReplicas(c, st.m, table); err != nil {
		st.failed++
		fmt.Fprintln(os.Stderr, "perfbench: known fault, counted as failed:", err)
	}
	return nil
}
