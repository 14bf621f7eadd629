package main

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"harbor/internal/tuple"
	"harbor/internal/txn"
)

// benchDesc is the one schema every workload uses: a key, a group column
// for the grouped aggregates, a value the updates change, and ten payload
// columns that make a row 64 bytes wide (plus the two timestamps).
var benchDesc = func() *tuple.Desc {
	fields := []tuple.FieldDef{
		{Name: "id", Type: tuple.Int64},
		{Name: "grp", Type: tuple.Int32},
		{Name: "val", Type: tuple.Int32},
	}
	for i := 0; i < payloadCols; i++ {
		fields = append(fields, tuple.FieldDef{Name: fmt.Sprintf("p%d", i), Type: tuple.Int32})
	}
	return tuple.MustDesc("id", fields...)
}()

const (
	groups      = 16 // distinct values of grp, which is key % groups
	payloadCols = 10
	fKey        = tuple.FieldFirstUser
	fGrp        = fKey + 1
	fVal        = fKey + 2
	fPayload    = fKey + 3
)

// row is the user-visible content of one tuple version; the payload
// columns are a function of the key.
type row struct {
	key      int64
	grp, val int32
}

func payload(key int64, i int) int64 { return (key*31 + int64(i)*7) & 0x7fffffff }

func (r row) tuple() tuple.Tuple {
	vals := make([]tuple.Value, 3+payloadCols)
	vals[0] = tuple.VInt(r.key)
	vals[1] = tuple.VInt(int64(r.grp))
	vals[2] = tuple.VInt(int64(r.val))
	for i := 0; i < payloadCols; i++ {
		vals[3+i] = tuple.VInt(payload(r.key, i))
	}
	return tuple.MustMake(benchDesc, vals...)
}

type opKind uint8

const (
	opInsert opKind = iota + 1
	opUpdate
	opDelete
)

// write is one logical update of a transaction.
type write struct {
	kind  opKind
	table int32
	row   row // the new content; only the key matters for a delete
}

// current is the snapshot time that sees every committed version.
const current = math.MaxInt64 - 1

type version struct {
	ins, del int64
	row      row
}

// model is the benchmark's own record of every acknowledged write with its
// commit timestamp. Every read the benchmark makes is checked against it.
type model struct {
	mu     sync.Mutex
	tables map[int32]map[int64][]version
}

func newModel() *model { return &model{tables: map[int32]map[int64][]version{}} }

// commit applies an acknowledged transaction's writes at its timestamp.
func (m *model) commit(ws []write, ts int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, w := range ws {
		t := m.tables[w.table]
		if t == nil {
			t = map[int64][]version{}
			m.tables[w.table] = t
		}
		vs := t[w.row.key]
		if w.kind != opInsert && len(vs) > 0 && vs[len(vs)-1].del == 0 {
			vs[len(vs)-1].del = ts
		}
		if w.kind != opDelete {
			vs = append(vs, version{ins: ts, row: w.row})
		}
		t[w.row.key] = vs
	}
}

// load records bulk-loaded rows stamped with one timestamp.
func (m *model) load(table int32, rows []row, ts int64) {
	ws := make([]write, len(rows))
	for i, r := range rows {
		ws[i] = write{kind: opInsert, table: table, row: r}
	}
	m.commit(ws, ts)
}

// snapshot returns the rows of a table visible as of asOf (current for the
// latest state) whose keys fall in [lo, hi).
func (m *model) snapshot(table int32, asOf, lo, hi int64) map[int64]row {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := map[int64]row{}
	for k, vs := range m.tables[table] {
		if k < lo || k >= hi {
			continue
		}
		for _, v := range vs {
			if v.ins <= asOf && (v.del == 0 || v.del > asOf) {
				out[k] = v.row
			}
		}
	}
	return out
}

// liveKeys returns the table's currently visible keys in ascending order.
func (m *model) liveKeys(table int32) []int64 {
	snap := m.snapshot(table, current, math.MinInt64, math.MaxInt64)
	keys := make([]int64, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// versions counts the tuple versions stored for a table within [lo, hi).
func (m *model) versions(table int32, lo, hi int64) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for k, vs := range m.tables[table] {
		if k >= lo && k < hi {
			n += len(vs)
		}
	}
	return n
}

// checkRows verifies that got holds exactly the rows of want: no row
// missing, none extra, none duplicated, every column equal.
func checkRows(got []tuple.Tuple, want map[int64]row) error {
	seen := make(map[int64]bool, len(got))
	for _, t := range got {
		if len(t.Values) != benchDesc.NumFields() {
			return fmt.Errorf("row has %d columns, want %d", len(t.Values), benchDesc.NumFields())
		}
		k := t.Values[fKey].I64
		if seen[k] {
			return fmt.Errorf("key %d returned twice", k)
		}
		seen[k] = true
		w, ok := want[k]
		if !ok {
			return fmt.Errorf("key %d returned but not in the model", k)
		}
		if t.Values[fGrp].I64 != int64(w.grp) || t.Values[fVal].I64 != int64(w.val) {
			return fmt.Errorf("key %d: got grp=%d val=%d, want grp=%d val=%d",
				k, t.Values[fGrp].I64, t.Values[fVal].I64, w.grp, w.val)
		}
		for i := 0; i < payloadCols; i++ {
			if t.Values[fPayload+i].I64 != payload(k, i) {
				return fmt.Errorf("key %d: payload column %d differs", k, i)
			}
		}
	}
	if len(seen) != len(want) {
		for k := range want {
			if !seen[k] {
				return fmt.Errorf("key %d missing (%d rows returned, %d expected)", k, len(seen), len(want))
			}
		}
	}
	return nil
}

// groupTotal is one group's expected sum(val) and count(*).
type groupTotal struct{ sum, count int64 }

// groupTotals computes per-group sums and counts over rows in plain Go.
func groupTotals(rows map[int64]row) map[int64]groupTotal {
	out := map[int64]groupTotal{}
	for _, r := range rows {
		g := out[int64(r.grp)]
		g.sum += int64(r.val)
		g.count++
		out[int64(r.grp)] = g
	}
	return out
}

// checkGroups verifies grouped-aggregate output rows of the form
// (grp, sum(val), count(*)) against the expected totals.
func checkGroups(got []tuple.Tuple, want map[int64]groupTotal) error {
	if len(got) != len(want) {
		return fmt.Errorf("aggregate returned %d groups, want %d", len(got), len(want))
	}
	seen := make(map[int64]bool, len(got))
	for _, t := range got {
		if len(t.Values) != 3 {
			return fmt.Errorf("aggregate row has %d columns, want 3", len(t.Values))
		}
		g, sum, cnt := t.Values[0].I64, t.Values[1].I64, t.Values[2].I64
		if seen[g] {
			return fmt.Errorf("aggregate returned group %d twice", g)
		}
		seen[g] = true
		w, ok := want[g]
		if !ok {
			return fmt.Errorf("aggregate returned unknown group %d", g)
		}
		if sum != w.sum || cnt != w.count {
			return fmt.Errorf("group %d: got sum=%d count=%d, want sum=%d count=%d", g, sum, cnt, w.sum, w.count)
		}
	}
	return nil
}

// checkCommitOrder verifies that commit timestamps are unique across all
// clients and strictly increase along each client's sequence.
func checkCommitOrder(perClient [][]int64) error {
	seen := map[int64]int{}
	for c, tss := range perClient {
		for i, ts := range tss {
			if i > 0 && ts <= tss[i-1] {
				return fmt.Errorf("client %d: commit %d has ts %d after ts %d", c, i, ts, tss[i-1])
			}
			if o, dup := seen[ts]; dup {
				return fmt.Errorf("ts %d given to clients %d and %d", ts, o, c)
			}
			seen[ts] = c
		}
	}
	return nil
}

// costCount is what one commit phase cost, counted the way TestCostParity
// counts it: coordinator requests sent, and WAL force calls at the
// coordinator and at each worker.
type costCount struct {
	msgs         int64
	coordForces  int64
	workerForces []int64
}

// checkCost verifies a phase of txns commits, each of opsPerTxn updates
// sent to every worker, against the Table 4.2 plan: per worker one BEGIN,
// one request per update, and half the plan's messages (the counter sees
// requests only, not replies).
func checkCost(got costCount, want txn.Cost, txns, opsPerTxn int) error {
	n := int64(txns)
	workers := int64(len(got.workerForces))
	if wantMsgs := n * workers * int64(1+opsPerTxn+want.MessagesPerWorker/2); got.msgs != wantMsgs {
		return fmt.Errorf("coordinator sent %d requests for %d commits, plan gives %d", got.msgs, txns, wantMsgs)
	}
	if w := n * int64(want.CoordForcedWrites); got.coordForces != w {
		return fmt.Errorf("coordinator forced %d times for %d commits, plan gives %d", got.coordForces, txns, w)
	}
	for i, f := range got.workerForces {
		if w := n * int64(want.WorkerForcedWrites); f != w {
			return fmt.Errorf("worker %d forced %d times for %d commits, plan gives %d", i, f, txns, w)
		}
	}
	return nil
}
