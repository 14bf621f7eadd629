package main

import (
	"time"

	"harbor/internal/expr"
	"harbor/internal/sim"
	"harbor/internal/txn"
	"harbor/internal/worker"
)

// A round of every workload runs the same phases in order, each timed
// phase with at most two client goroutines and one kind of work:
//
//	setup     cluster start, bulk load, checkpoint, untimed warm-up
//	commit    closed-loop clients commit a fixed number of transactions
//	read      one client: historical whole-table scans, narrow current
//	          range queries and grouped aggregates with pushdown
//	recovery  crash a site, commit a delta it misses, restart it and
//	          recover (HARBOR, or ARIES restart) while a probe client asks
//	          it for a hot key range
//	move      core.Migrate a key range to the spare site and back
//
// Every workload runs on the same cluster and data (the constants below);
// the workloads differ in commit protocol, logging and recovery method,
// so each stresses other layers, and every end-to-end metric is measured
// on every workload.
type shape struct {
	cluster clusterConfig
	// commit phase: each client commits txns transactions after warmup
	// untimed ones.
	txns, warmup int
	// recovery phase: delta is the per-table (updates, deletes, inserts)
	// of a cycle, committed while the victim is down (HARBOR) or just
	// before its crash (ARIES, which recovers from its own log only).
	delta [3]int
	// afterMoveFault ends the round with one recovery of the victim after
	// the moves, which loses writes because of a fault in the program
	// and is counted as one failed operation (see README).
	afterMoveFault bool
}

const (
	// Workers 0 and 1 each hold a full replica of every table; worker 2
	// starts empty and is the move target.
	numWorkers    = 3
	victim, spare = 0, 2
	// poolFrames is each site's buffer pool (4 MiB): the data fits.
	poolFrames = 1024
	// Each table is tableRows rows, keys [0, tableRows), bulk-loaded as
	// one segment.
	tableRows = 2000
	segPages  = 32
	// A commit-phase transaction updates txnUpdates live rows and inserts
	// one new row, all in its client's table.
	txnUpdates = 3
	txnInserts = 1
	// The read phase runs, on tables[0], readIters times one historical
	// scan, readRanges range queries of rangeKeys keys and readAggs
	// grouped aggregates.
	readIters, readRanges, readAggs = 40, 5, 2
	rangeKeys                       = 100
	// The recovery phase crashes and recovers the victim recCycles times;
	// the move phase moves moveRange to the spare and back movePairs
	// times. Each round reports the median of its cycles and of its moves.
	recCycles = 10
	movePairs = 6
	// recTxnOps is the number of writes per delta transaction.
	recTxnOps = 25
	// probeDelay paces the probe client's retries.
	probeDelay = time.Millisecond
)

// tables are the workload's tables; client i of the commit phase writes
// tables[i], so no two writers share a table (see README).
var tables = []int32{1, 2}

var (
	// hotRange of tables[0] is what the probe client reads from the
	// recovering site; moveRange of tables[0] is what the moves carry.
	hotRange  = expr.KeyRange{Lo: 500, Hi: 700}
	moveRange = expr.KeyRange{Lo: 200, Hi: 1800}
)

// The timed phases whose registry and process-counter deltas the traced
// run keeps.
const (
	phaseCommit = "commit"
	phaseRead   = "read"
)

var shapes = map[string]shape{
	// commit: logless opt-3PC. Two clients each commit small transactions
	// (three updates of live rows, one insert) to their own table; two
	// writers on one replicated table can deadlock on page locks across
	// the replicas (see README). The data fits the buffer pool, so nearly
	// all the time goes to coord, comm, wire, worker, lockmgr and version.
	// The round ends with the recovery that shows the fault a move leaves
	// behind.
	"commit": {
		cluster:        clusterConfig{protocol: txn.OptThreePC, mode: worker.HARBOR},
		txns:           1000,
		warmup:         50,
		delta:          [3]int{40, 10, 20},
		afterMoveFault: true,
	},
	// logged: the same transactions under traditional 2PC with a WAL on
	// every site, group commit and the simulated 2 ms per-fsync latency
	// (sim.SimulatedDiskLatency), then crash-and-ARIES-restart cycles:
	// the paper's baseline and the only workload that runs wal and aries.
	"logged": {
		cluster: clusterConfig{protocol: txn.TwoPC, mode: worker.ARIES, groupCommit: true,
			syncDelay: sim.SimulatedDiskLatency},
		txns:   100,
		warmup: 5,
		delta:  [3]int{30, 5, 15},
	},
}
