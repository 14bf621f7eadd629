package main

import (
	"fmt"
	"path/filepath"
	"time"

	"harbor/internal/catalog"
	"harbor/internal/comm"
	"harbor/internal/coord"
	"harbor/internal/exec"
	"harbor/internal/expr"
	"harbor/internal/obs"
	"harbor/internal/page"
	"harbor/internal/tuple"
	"harbor/internal/txn"
	"harbor/internal/wire"
	"harbor/internal/worker"
)

// clusterConfig is what the workloads' deployments differ in.
type clusterConfig struct {
	protocol    txn.Protocol
	mode        worker.RecoveryMode
	groupCommit bool
	syncDelay   time.Duration // simulated per-fsync disk latency
}

// cluster is one coordinator (site 0) and N workers (sites 1..N) in this
// process, over loopback TCP and real files under dir.
type cluster struct {
	cfg     clusterConfig
	dir     string
	cat     *catalog.Catalog
	co      *coord.Coordinator
	workers []*worker.Site // index i is site i+1
	// regs holds the coordinator's registry and every worker incarnation's,
	// so a phase's counter deltas survive crashes and restarts.
	regs []*obs.Registry
}

func startCluster(dir string, cfg clusterConfig, tr *tracer) (*cluster, error) {
	c := &cluster{cfg: cfg, dir: dir, cat: catalog.New(0)}
	c.workers = make([]*worker.Site, numWorkers)
	for i := range c.workers {
		if _, err := c.open(i, spanRef{}); err != nil {
			c.close()
			return nil, err
		}
	}
	sp := tr.root("coord.New")
	co, err := coord.New(coord.Config{
		Site:        0,
		Dir:         filepath.Join(dir, "site0"),
		Protocol:    cfg.protocol,
		Catalog:     c.cat,
		GroupCommit: cfg.groupCommit,
		SyncDelay:   cfg.syncDelay,
	})
	sp.end()
	if err != nil {
		c.close()
		return nil, err
	}
	c.co = co
	c.regs = append(c.regs, co.Obs())
	c.cat.AddSite(0, co.Addr())
	return c, nil
}

func siteID(i int) catalog.SiteID { return catalog.SiteID(i + 1) }

// open starts worker i over its directory: a fresh site at cluster start,
// a restart of a crashed incarnation otherwise (the caller then runs
// recovery). It repoints the catalog at the new address.
func (c *cluster) open(i int, parent spanRef) (*worker.Site, error) {
	sp := parent.child("worker.Open")
	w, err := worker.Open(worker.Config{
		Site:        siteID(i),
		Dir:         filepath.Join(c.dir, fmt.Sprintf("site%d", i+1)),
		Protocol:    c.cfg.protocol,
		Mode:        c.cfg.mode,
		PoolFrames:  poolFrames,
		GroupCommit: c.cfg.groupCommit,
		SyncDelay:   c.cfg.syncDelay,
		Catalog:     c.cat,
	})
	sp.end()
	if err != nil {
		return nil, err
	}
	c.workers[i] = w
	c.regs = append(c.regs, w.Obs())
	c.cat.AddSite(siteID(i), w.Addr())
	return w, nil
}

func (c *cluster) close() {
	if c.co != nil {
		c.co.Close()
	}
	for _, w := range c.workers {
		if w != nil {
			w.Close()
		}
	}
}

// createTable registers a table with a full replica on workers 0 and 1.
func (c *cluster) createTable(id int32) error {
	spec := &catalog.TableSpec{ID: id, Name: fmt.Sprintf("t%d", id), Desc: benchDesc, SegPages: segPages}
	var reps []catalog.Replica
	for _, i := range []int{0, 1} {
		reps = append(reps, catalog.Replica{Site: siteID(i), Table: id, Range: expr.FullKeyRange(), SegPages: segPages})
	}
	return c.co.CreateTable(spec, reps...)
}

// bulkLoad appends the rows as one pre-stamped segment on every replica
// and returns the segment's insertion timestamp. It is the §4.2 bulk-load
// path: no locks, no commit protocol.
func (c *cluster) bulkLoad(table int32, rows []row) (int64, error) {
	ts := c.co.Authority.Issue()
	defer c.co.Authority.Complete(ts)
	for _, rep := range c.cat.Replicas(table) {
		batch := make([]tuple.Tuple, len(rows))
		for i, r := range rows {
			batch[i] = r.tuple()
			batch[i].SetInsTS(ts)
		}
		w := c.workers[rep.Site-1]
		tb, err := w.Mgr.Get(table)
		if err != nil {
			return 0, err
		}
		if _, err := tb.Heap.BulkLoadSegment(batch); err != nil {
			return 0, err
		}
		if err := w.Mgr.RebuildIndexes(); err != nil {
			return 0, err
		}
		w.SeedAppliedTS(ts)
	}
	return ts, nil
}

// checkpoint takes a checkpoint on every live worker, so a later crash
// recovers from the loaded state rather than from empty tables.
func (c *cluster) checkpoint() error {
	for _, w := range c.workers {
		if err := w.CheckpointNow(); err != nil {
			return err
		}
	}
	return nil
}

// heapBytes is the heap-file size, in pages, summed over every table on
// every worker site.
func (c *cluster) heapBytes() (int64, error) {
	var n int64
	for _, w := range c.workers {
		for _, id := range w.Mgr.IDs() {
			tb, err := w.Mgr.Get(id)
			if err != nil {
				return 0, err
			}
			n += int64(tb.Heap.NumPages()) * page.Size
		}
	}
	return n, nil
}

// readTxnID tags the benchmark's direct historical reads; they take no
// locks, so one id serves them all.
const readTxnID = 1 << 40

// siteRead asks one worker directly for the rows of a table visible as of
// asOf within rng. served is false when the site refuses the read (its
// recovery state does not cover asOf yet); a refusal also faults the range
// in, which is how a waiting client steers HARBOR's recovery order.
func siteRead(addr string, table int32, asOf int64, rng expr.KeyRange) (rows []tuple.Tuple, served bool, err error) {
	c, err := comm.Dial(addr)
	if err != nil {
		return nil, false, err
	}
	defer c.Close()
	if err := c.Send(&wire.Msg{Type: wire.MsgScan, Txn: readTxnID, Table: table,
		Vis: uint8(exec.Historical), TS: asOf, Pred: rng.Pred(benchDesc).Terms,
		KeyLo: rng.Lo, KeyHi: rng.Hi}); err != nil {
		return nil, false, err
	}
	for {
		m, err := c.Recv()
		if err != nil {
			return nil, false, err
		}
		switch m.Type {
		case wire.MsgScanEnd:
			return rows, true, nil
		case wire.MsgErr:
			return nil, false, nil
		case wire.MsgTuple:
			rows = append(rows, wire.ToTuple(m.Tuple))
		case wire.MsgTupleBatch:
			n, err := wire.CheckBatch(m, benchDesc.Width())
			if err != nil {
				return nil, false, err
			}
			b := tuple.NewBatch(n)
			if err := b.DecodeBatch(benchDesc, m.Raw); err != nil {
				return nil, false, err
			}
			rows = append(rows, b.Rows()...)
		}
	}
}
