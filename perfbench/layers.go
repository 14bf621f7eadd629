package main

import (
	"math"
	"strings"
	"time"

	"harbor/internal/core"
	"harbor/internal/page"
)

// roundKinds are the coordinator round types every commit protocol runs;
// coord.round_us.<kind> is the mean of coord.round.latency for the kind.
var roundKinds = []string{"INSERT", "UPDATE-KEY", "PREPARE", "COMMIT"}

// layerAcc sums the raw quantities of the traced rounds; metrics divides
// them into the per-layer metrics at the end of the run.
type layerAcc struct{ sum map[string]float64 }

func (a *layerAcc) add(k string, v float64) {
	if a.sum == nil {
		a.sum = map[string]float64{}
	}
	a.sum[k] += v
}

func (a *layerAcc) get(k string) float64 { return a.sum[k] }

// ratio divides two sums, reading 0 when the denominator is empty (the
// workload never exercised that layer).
func (a *layerAcc) ratio(num, den string, scale float64) float64 {
	d := a.get(den)
	if d == 0 {
		return 0
	}
	return a.get(num) / d * scale
}

// phaseMark is the state at the start of a timed phase of a traced round.
type phaseMark struct {
	regs regMark
	p    proc
}

// phaseCounts is the work a timed phase did: ops is its unit (a commit or
// a query), rows the rows it read or wrote.
type phaseCounts struct{ ops, rows int64 }

func (r *run) beginPhase(c *cluster) *phaseMark {
	if r.tr == nil {
		return nil
	}
	return &phaseMark{regs: c.mark(), p: readProc()}
}

// endPhase adds the phase's registry and process-counter deltas under
// the phase's name, so each metric can be divided by the operations of
// the phase it describes.
func (r *run) endPhase(pm *phaseMark, c *cluster, phase string, n phaseCounts) {
	if pm == nil {
		return
	}
	p := readProc()
	cd, wd := c.since(pm.regs)
	a := phaseAcc{&r.layers, phase + "/"}
	a.add("ops", float64(n.ops))
	a.add("rows", float64(n.rows))
	a.add("phases", 1)
	a.add("coord.msgs", float64(cd["coord.msgs_sent"]))
	a.add("comm.dials", float64(cd.prefixSum("comm.dials")))
	a.add("coord.scan.batches", float64(cd["coord.scan.batches"]))
	a.add("coord.agg.rows_shipped", float64(cd["coord.agg.rows_shipped"]))
	for _, k := range []string{"worker.scan.bytes", "worker.scan.rows", "worker.scan.frames",
		"lockmgr.wait.ns.sum", "buffer.hits", "buffer.misses", "buffer.evictions",
		"storage.page.reads", "storage.page.writes", "storage.fsyncs"} {
		a.add(k, float64(wd[k]))
	}
	a.add("wal.force_calls", float64(cd["wal.force_calls"]+wd["wal.force_calls"]))
	a.add("wal.fsyncs", float64(cd["wal.fsyncs"]+wd["wal.fsyncs"]))
	a.add("proc.cpu_ns", float64(p.cpu-pm.p.cpu))
	a.add("proc.mallocs", float64(p.mallocs-pm.p.mallocs))
	a.add("proc.alloc_bytes", float64(p.allocBytes-pm.p.allocBytes))
	a.add("proc.gcs", float64(p.gcs-pm.p.gcs))
	a.add("proc.gc_pause_ns", float64(p.gcPause-pm.p.gcPause))
	a.add("proc.read_sys", float64(p.readSys-pm.p.readSys))
	a.add("proc.write_sys", float64(p.writeSys-pm.p.writeSys))
	a.add("proc.heap_live", float64(p.heapLive))
}

// phaseAcc adds to the sums of one phase.
type phaseAcc struct {
	a      *layerAcc
	prefix string
}

func (p phaseAcc) add(k string, v float64) { p.a.add(p.prefix+k, v) }

// endRound adds the traced round's latency histograms, which are means
// over every call of the round, not just the timed phase.
func (r *run) endRound(c *cluster, from regMark) {
	if r.tr == nil {
		return
	}
	cd, wd := c.since(from)
	for _, k := range roundKinds {
		prefix := "coord.round.latency{msg=" + k + ","
		var sum, cnt int64
		for n, v := range cd {
			if strings.HasPrefix(n, prefix) {
				if strings.HasSuffix(n, ".sum") {
					sum += v
				} else if strings.HasSuffix(n, ".count") {
					cnt += v
				}
			}
		}
		r.layers.add("round.sum."+k, float64(sum))
		r.layers.add("round.count."+k, float64(cnt))
	}
	r.layers.add("wal.fsync.ns.sum", float64(cd["wal.fsync.ns.sum"]+wd["wal.fsync.ns.sum"]))
	r.layers.add("wal.fsync.ns.count", float64(cd["wal.fsync.ns.count"]+wd["wal.fsync.ns.count"]))
}

// noteHeap records the stored size of the round's data, bytes, against
// the versions and live rows the model says each site holds.
func (r *run) noteHeap(c *cluster, m *model, bytes int64) {
	if r.tr == nil {
		return
	}
	var versions, live int
	for i := range c.workers {
		for _, rep := range c.cat.ReplicasOn(siteID(i)) {
			versions += m.versions(rep.Table, rep.Range.Lo, rep.Range.Hi)
			live += len(m.snapshot(rep.Table, current, rep.Range.Lo, rep.Range.Hi))
		}
	}
	r.layers.add("heap.bytes", float64(bytes))
	r.layers.add("heap.versions", float64(versions))
	r.layers.add("heap.live", float64(live))
}

// layerUnits lists every per-layer metric with its unit; a traced run
// prints each of them.
var layerUnits = map[string]string{
	"coord.distribute_us": "us", "coord.commit_call_us": "us",
	"coord.round_us.insert": "us", "coord.round_us.update_key": "us",
	"coord.round_us.prepare": "us", "coord.round_us.commit": "us",
	"coord.msgs_per_commit": "count", "coord.scan_batches_per_query": "count",
	"coord.agg_rows_shipped_per_query": "count", "coord.query_call_ms": "ms",
	"comm.dials_per_commit": "count", "comm.call_us": "us",
	"wire.marshal_ns": "ns", "wire.unmarshal_ns": "ns", "wire.unmarshal_allocs": "count",
	"tuple.decode_ns_per_row": "ns",
	"proc.cpu_us_per_op":      "us", "proc.allocs_per_op": "count", "proc.alloc_bytes_per_op": "B",
	"proc.gc_cycles_per_kop": "count", "proc.gc_pause_us_per_kop": "us",
	"proc.write_syscalls_per_op": "count", "proc.read_syscalls_per_op": "count",
	"proc.live_heap_mb": "MB",
	"worker.open_ms":    "ms", "worker.scan_bytes_per_row": "B", "worker.rows_per_frame": "count",
	"lockmgr.wait_us_per_op": "us", "lockmgr.acquire_release_ns": "ns",
	"version.update_commit_us": "us", "version.pages_per_kversion": "count",
	"buffer.hit_ratio": "ratio", "buffer.evictions_per_query": "count", "buffer.getpage_ns": "ns",
	"storage.page_reads_per_krow": "count", "storage.page_writes_per_op": "count",
	"storage.fsyncs_per_op": "count", "storage.heap_bytes_per_row": "B",
	"exec.filter_ns_per_row": "ns", "exec.hashagg_ns_per_row": "ns",
	"wal.force_calls_per_commit": "count", "wal.fsyncs_per_commit": "count",
	"wal.fsync_us": "us", "wal.append_force_us": "us",
	"aries.analysis_ms": "ms", "aries.redo_ms": "ms", "aries.undo_ms": "ms", "aries.redo_records": "count",
	"core.phase1_ms": "ms", "core.phase2_ms": "ms", "core.phase3_ms": "ms",
	"core.rows_copied": "count", "core.first_read_refusals": "count",
	"core.migrate_ms": "ms", "core.migrate_rows": "count",
	"trace.overhead_pct": "%",
}

// metrics turns the sums of the traced rounds and the span summary into
// the per-layer metrics (the replays and the overhead are added by the
// caller). Per-commit and per-op metrics come from the commit phase,
// per-query ones from the read phase.
func (a *layerAcc) metrics(tr *tracer) map[string]metric {
	spans := tr.summary()
	meanOf := func(names ...string) float64 {
		var n, total float64
		for _, name := range names {
			s := spans[name]
			n += float64(s.Count)
			total += float64(s.Count) * s.MeanUS
		}
		if n == 0 {
			return 0
		}
		return total / n
	}
	cm, rd := phaseCommit+"/", phaseRead+"/"
	op := cm
	v := map[string]float64{
		"coord.distribute_us":              meanOf("coord.Txn.UpdateKey", "coord.Txn.Insert", "coord.Txn.DeleteKey"),
		"coord.commit_call_us":             meanOf("coord.Txn.Commit"),
		"coord.msgs_per_commit":            a.ratio(cm+"coord.msgs", cm+"ops", 1),
		"coord.scan_batches_per_query":     a.ratio(rd+"coord.scan.batches", rd+"ops", 1),
		"coord.agg_rows_shipped_per_query": a.ratio(rd+"coord.agg.rows_shipped", rd+"ops", 1),
		"coord.query_call_ms":              meanOf("coord.Scan", "coord.Aggregate") / 1e3,
		"comm.dials_per_commit":            a.ratio(cm+"comm.dials", cm+"ops", 1),
		"proc.cpu_us_per_op":               a.ratio(op+"proc.cpu_ns", op+"ops", 1e-3),
		"proc.allocs_per_op":               a.ratio(op+"proc.mallocs", op+"ops", 1),
		"proc.alloc_bytes_per_op":          a.ratio(op+"proc.alloc_bytes", op+"ops", 1),
		"proc.gc_cycles_per_kop":           a.ratio(op+"proc.gcs", op+"ops", 1e3),
		"proc.gc_pause_us_per_kop":         a.ratio(op+"proc.gc_pause_ns", op+"ops", 1),
		"proc.write_syscalls_per_op":       a.ratio(op+"proc.write_sys", op+"ops", 1),
		"proc.read_syscalls_per_op":        a.ratio(op+"proc.read_sys", op+"ops", 1),
		"proc.live_heap_mb":                a.ratio(op+"proc.heap_live", op+"phases", 1e-6),
		"worker.open_ms":                   meanOf("worker.Open") / 1e3,
		"worker.scan_bytes_per_row":        a.ratio(rd+"worker.scan.bytes", rd+"worker.scan.rows", 1),
		"worker.rows_per_frame":            a.ratio(rd+"worker.scan.rows", rd+"worker.scan.frames", 1),
		"lockmgr.wait_us_per_op":           a.ratio(op+"lockmgr.wait.ns.sum", op+"ops", 1e-3),
		"version.pages_per_kversion":       a.ratio("heap.bytes", "heap.versions", 1e3/page.Size),
		"buffer.evictions_per_query":       a.ratio(rd+"buffer.evictions", rd+"ops", 1),
		"storage.page_reads_per_krow":      a.ratio(rd+"storage.page.reads", rd+"rows", 1e3),
		"storage.page_writes_per_op":       a.ratio(op+"storage.page.writes", op+"ops", 1),
		"storage.fsyncs_per_op":            a.ratio(op+"storage.fsyncs", op+"ops", 1),
		"storage.heap_bytes_per_row":       a.ratio("heap.bytes", "heap.live", 1),
		"wal.force_calls_per_commit":       a.ratio(cm+"wal.force_calls", cm+"ops", 1),
		"wal.fsyncs_per_commit":            a.ratio(cm+"wal.fsyncs", cm+"ops", 1),
		"wal.fsync_us":                     a.ratio("wal.fsync.ns.sum", "wal.fsync.ns.count", 1e-3),
		"aries.analysis_ms":                a.ratio("aries.analysis_ms", "aries.restarts", 1),
		"aries.redo_ms":                    a.ratio("aries.redo_ms", "aries.restarts", 1),
		"aries.undo_ms":                    a.ratio("aries.undo_ms", "aries.restarts", 1),
		"aries.redo_records":               a.ratio("aries.redo_records", "aries.restarts", 1),
		"core.phase1_ms":                   a.ratio("core.phase1_ms", "core.recoveries", 1),
		"core.phase2_ms":                   a.ratio("core.phase2_ms", "core.recoveries", 1),
		"core.phase3_ms":                   a.ratio("core.phase3_ms", "core.recoveries", 1),
		"core.rows_copied":                 a.ratio("core.rows_copied", "core.recoveries", 1),
		"core.first_read_refusals":         a.ratio("core.first_read_refusals", "recovery.cycles", 1),
		"core.migrate_ms":                  meanOf("core.Migrate") / 1e3,
		"core.migrate_rows":                a.ratio("core.migrate_rows", "core.moves", 1),
	}
	if hm := a.get(op+"buffer.hits") + a.get(op+"buffer.misses"); hm > 0 {
		v["buffer.hit_ratio"] = a.get(op+"buffer.hits") / hm
	}
	for _, k := range roundKinds {
		v["coord.round_us."+strings.ToLower(strings.ReplaceAll(k, "-", "_"))] = a.ratio("round.sum."+k, "round.count."+k, 1e-3)
	}
	out := make(map[string]metric, len(layerUnits))
	for name, unit := range layerUnits {
		x := v[name]
		if math.IsNaN(x) || math.IsInf(x, 0) {
			x = 0
		}
		out[name] = metric{x, unit}
	}
	return out
}

// addRecovery records one HARBOR site recovery's phase times and the rows
// it copied.
func (a *layerAcc) addRecovery(tr *tracer, st *core.SiteStats) {
	if tr == nil {
		return
	}
	a.add("core.recoveries", 1)
	for _, o := range st.Objects {
		a.add("core.rows_copied", float64(o.Phase2Inserts+o.Phase2Deletes+o.Phase3Inserts+o.Phase3Deletes))
		a.add("core.phase1_ms", ms(o.Phase1))
		a.add("core.phase2_ms", ms(o.Phase2Update+o.Phase2Insert))
		a.add("core.phase3_ms", ms(o.Phase3))
	}
}

// addAries records one ARIES restart's pass times and redo volume.
func (a *layerAcc) addAries(tr *tracer, analysis, redo, undo time.Duration, redoRecords int) {
	if tr == nil {
		return
	}
	a.add("aries.restarts", 1)
	a.add("aries.analysis_ms", ms(analysis))
	a.add("aries.redo_ms", ms(redo))
	a.add("aries.undo_ms", ms(undo))
	a.add("aries.redo_records", float64(redoRecords))
}
