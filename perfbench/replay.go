package main

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"harbor/internal/catalog"
	"harbor/internal/comm"
	"harbor/internal/exec"
	"harbor/internal/expr"
	"harbor/internal/lockmgr"
	"harbor/internal/page"
	"harbor/internal/tuple"
	"harbor/internal/txn"
	"harbor/internal/wal"
	"harbor/internal/wire"
	"harbor/internal/worker"
)

// The layer replays call one lower layer's public functions directly, with
// inputs shaped like the workloads': the message mix of one commit, a full
// scan frame of benchmark rows, an update's lock set, a logless version
// update, buffer-pool hits, filter and grouped aggregation over benchmark
// rows, and a forced WAL append. Each is timed in replayBatches batches;
// the median batch mean is reported.
const replayBatches = 5

// replayRows is the size of the standalone site's table, that of one
// commit-workload table.
const replayRows = 2000

// timeBatches runs fn(n) replayBatches times and returns the median
// nanoseconds per unit, where fn reports how many units it did.
func timeBatches(fn func() (int, error)) (float64, error) {
	var per []float64
	for b := 0; b < replayBatches; b++ {
		t0 := time.Now()
		n, err := fn()
		if err != nil {
			return 0, err
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(per), nil
}

// commitMix is the request and reply traffic of one opt-3PC commit of the
// commit workload's shape, as seen by one worker.
func commitMix() []*wire.Msg {
	var msgs []*wire.Msg
	msgs = append(msgs, &wire.Msg{Type: wire.MsgBegin, Txn: 42}, &wire.Msg{Type: wire.MsgOK, Txn: 42})
	for i := 0; i < txnUpdates; i++ {
		r := row{key: int64(100 + i), grp: 3, val: 7}
		msgs = append(msgs, &wire.Msg{Type: wire.MsgUpdateKey, Txn: 42, Table: 1, Key: r.key,
			Tuple: wire.TupleValues(r.tuple())}, &wire.Msg{Type: wire.MsgOK, Txn: 42})
	}
	ins := row{key: 5000, grp: 8, val: 9}
	msgs = append(msgs,
		&wire.Msg{Type: wire.MsgInsert, Txn: 42, Table: 1, Tuple: wire.TupleValues(ins.tuple())},
		&wire.Msg{Type: wire.MsgOK, Txn: 42},
		&wire.Msg{Type: wire.MsgPrepare, Txn: 42, Sites: []int32{1, 2}},
		&wire.Msg{Type: wire.MsgVote, Txn: 42, Flags: wire.FlagYes},
		&wire.Msg{Type: wire.MsgPrepareToCommit, Txn: 42, TS: 1234},
		&wire.Msg{Type: wire.MsgOK, Txn: 42},
		&wire.Msg{Type: wire.MsgCommit, Txn: 42, TS: 1234},
		&wire.Msg{Type: wire.MsgOK, Txn: 42})
	return msgs
}

func replayLayers(dir string) (map[string]metric, error) {
	out := map[string]metric{}
	set := func(name string, v float64) { out[name] = metric{v, layerUnits[name]} }

	// wire: encode and decode the message mix of one commit.
	msgs := commitMix()
	encoded := make([][]byte, len(msgs))
	for i, m := range msgs {
		encoded[i] = m.Marshal()
		back, err := wire.Unmarshal(encoded[i])
		if err != nil || back.Type != m.Type {
			return nil, fmt.Errorf("wire replay: %v does not round-trip: %v", m.Type, err)
		}
	}
	const wireIters = 2000
	var buf []byte
	v, _ := timeBatches(func() (int, error) {
		for i := 0; i < wireIters; i++ {
			for _, m := range msgs {
				buf = m.AppendTo(buf[:0])
			}
		}
		return wireIters * len(msgs), nil
	})
	set("wire.marshal_ns", v)
	v, err := timeBatches(func() (int, error) {
		for i := 0; i < wireIters; i++ {
			for _, b := range encoded {
				if _, err := wire.Unmarshal(b); err != nil {
					return 0, err
				}
			}
		}
		return wireIters * len(msgs), nil
	})
	if err != nil {
		return nil, err
	}
	set("wire.unmarshal_ns", v)
	allocs := testing.AllocsPerRun(200, func() {
		for _, b := range encoded {
			_, _ = wire.Unmarshal(b) // round-trip checked above
		}
	})
	set("wire.unmarshal_allocs", allocs/float64(len(msgs)))

	// tuple: decode one full scan frame.
	const frameRows = 512
	frame := tuple.NewBatch(frameRows)
	for i := 0; i < frameRows; i++ {
		t := row{key: int64(i), grp: int32(i % groups), val: int32(i)}.tuple()
		t.SetInsTS(1)
		frame.Append(t)
	}
	raw := frame.EncodeTo(benchDesc, nil)
	dec := tuple.NewBatch(frameRows)
	v, err = timeBatches(func() (int, error) {
		for i := 0; i < 50; i++ {
			dec.Reset()
			if err := dec.DecodeBatch(benchDesc, raw); err != nil {
				return 0, err
			}
		}
		return 50 * frameRows, nil
	})
	if err != nil {
		return nil, err
	}
	set("tuple.decode_ns_per_row", v)

	// comm: one commit-round request and its reply over loopback.
	srv, err := comm.Listen("127.0.0.1:0", comm.HandlerFunc(func(c *comm.Conn) {
		for {
			m, err := c.Recv()
			if err != nil {
				return
			}
			if err := c.Send(&wire.Msg{Type: wire.MsgOK, Txn: m.Txn}); err != nil {
				return
			}
		}
	}))
	if err != nil {
		return nil, err
	}
	conn, err := comm.Dial(srv.Addr())
	if err != nil {
		srv.Close()
		return nil, err
	}
	v, err = timeBatches(func() (int, error) {
		for i := 0; i < 300; i++ {
			if _, err := conn.Call(&wire.Msg{Type: wire.MsgCommit, Txn: int64(i), TS: int64(i)}); err != nil {
				return 0, err
			}
		}
		return 300, nil
	})
	conn.Close()
	srv.Close()
	if err != nil {
		return nil, err
	}
	set("comm.call_us", v/1e3)

	// lockmgr: the lock set of one page update, then release.
	locks := lockmgr.New(time.Second)
	v, err = timeBatches(func() (int, error) {
		for i := 0; i < 5000; i++ {
			tid := lockmgr.TxnID(i + 1)
			if err := locks.Acquire(tid, lockmgr.TableTarget(1), lockmgr.IX); err != nil {
				return 0, err
			}
			if err := locks.Acquire(tid, lockmgr.PageTarget(1, int32(i%64)), lockmgr.X); err != nil {
				return 0, err
			}
			locks.ReleaseAll(tid)
		}
		return 5000, nil
	})
	if err != nil {
		return nil, err
	}
	set("lockmgr.acquire_release_ns", v)

	// version and buffer: a standalone logless site holding one commit
	// workload table.
	if err := replaySite(filepath.Join(dir, "replay-site"), set); err != nil {
		return nil, err
	}

	// exec: filter and grouped aggregation over benchmark rows.
	const execRows = 20000
	rows := make([]tuple.Tuple, execRows)
	for i := range rows {
		rows[i] = row{key: int64(i), grp: int32(i % groups), val: int32(i % 1000)}.tuple()
		rows[i].SetInsTS(1)
	}
	pred := expr.KeyRange{Lo: 0, Hi: execRows / 10}.Pred(benchDesc)
	v, err = timeBatches(func() (int, error) {
		_, err := exec.Drain(&exec.Filter{Child: &exec.SliceScan{Schema: benchDesc, Rows: rows}, Pred: pred})
		return execRows, err
	})
	if err != nil {
		return nil, err
	}
	set("exec.filter_ns_per_row", v)
	v, err = timeBatches(func() (int, error) {
		_, err := exec.Drain(&exec.HashAgg{Child: &exec.SliceScan{Schema: benchDesc, Rows: rows},
			GroupField: fGrp, Aggs: []exec.AggSpec{{Fn: exec.Sum, Field: fVal}, {Fn: exec.Count}}})
		return execRows, err
	})
	if err != nil {
		return nil, err
	}
	set("exec.hashagg_ns_per_row", v)

	// wal: append a commit record and force it, on this machine's disk.
	walDir := filepath.Join(dir, "replay-wal")
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		return nil, err
	}
	log, err := wal.Open(walDir, 0)
	if err != nil {
		return nil, err
	}
	v, err = timeBatches(func() (int, error) {
		for i := 0; i < 20; i++ {
			lsn := log.Append(&wal.Record{Type: wal.RecCommit, Txn: int64(i + 1)})
			if err := log.Force(lsn, true); err != nil {
				return 0, err
			}
		}
		return 20, nil
	})
	if cerr := log.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	set("wal.append_force_us", v/1e3)
	return out, nil
}

// replaySite times logless version-store updates and buffer-pool hits on
// a standalone worker site.
func replaySite(dir string, set func(string, float64)) error {
	w, err := worker.Open(worker.Config{Site: 1, Dir: dir, Protocol: txn.OptThreePC,
		Mode: worker.HARBOR, PoolFrames: 1024, Catalog: catalog.New(0)})
	if err != nil {
		return err
	}
	defer w.Close()
	if err := w.CreateTable(1, benchDesc, 64); err != nil {
		return err
	}
	tb, err := w.Mgr.Get(1)
	if err != nil {
		return err
	}
	batch := make([]tuple.Tuple, replayRows)
	for i := range batch {
		batch[i] = row{key: int64(i), grp: int32(i % groups), val: 1}.tuple()
		batch[i].SetInsTS(1)
	}
	if _, err := tb.Heap.BulkLoadSegment(batch); err != nil {
		return err
	}
	if err := w.Mgr.RebuildIndexes(); err != nil {
		return err
	}
	w.SeedAppliedTS(1)

	ts := int64(2)
	var spent time.Duration
	var updates int
	var per []float64
	for b := 0; b < replayBatches; b++ {
		spent, updates = 0, 0
		for i := 0; i < 300; i++ {
			key := int64((b*300 + i) % replayRows)
			_, rids, err := exec.IndexLookup(w.Store, 1, key, exec.Current, 0)
			if err != nil || len(rids) != 1 {
				return fmt.Errorf("version replay: lookup of key %d: %d rows, %v", key, len(rids), err)
			}
			nt := row{key: key, grp: int32(key % groups), val: int32(ts)}.tuple()
			tid := lockmgr.TxnID(1_000_000 + ts)
			t0 := time.Now()
			w.Store.Begin(tid)
			if _, err := w.Store.UpdateTuple(tid, 1, rids[0], nt); err != nil {
				return err
			}
			if err := w.Store.Commit(tid, ts, false, false); err != nil {
				return err
			}
			spent += time.Since(t0)
			updates++
			ts++
		}
		per = append(per, float64(spent.Nanoseconds())/float64(updates))
	}
	set("version.update_commit_us", median(per)/1e3)

	pages := tb.Heap.NumPages()
	v, err := timeBatches(func() (int, error) {
		for i := 0; i < 20000; i++ {
			f, err := w.Pool.GetPageNoLock(page.ID{Table: 1, PageNo: int32(i) % pages})
			if err != nil {
				return 0, err
			}
			w.Pool.Unpin(f, false, 0)
		}
		return 20000, nil
	})
	if err != nil {
		return err
	}
	set("buffer.getpage_ns", v)
	return nil
}
