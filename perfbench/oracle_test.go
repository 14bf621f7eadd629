package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"harbor/internal/tuple"
	"harbor/internal/txn"
)

// testModel is 50 loaded rows at ts 1, then at ts 2 an update of key 3, a
// delete of key 4 and an insert of key 100.
func testModel() *model {
	m := newModel()
	m.load(1, loadRows(rand.New(rand.NewSource(1)), 0, 50), 1)
	m.commit([]write{
		{kind: opUpdate, table: 1, row: row{key: 3, grp: 3, val: 999}},
		{kind: opDelete, table: 1, row: row{key: 4}},
		{kind: opInsert, table: 1, row: row{key: 100, grp: 4, val: 7}},
	}, 2)
	return m
}

// rowsOf renders the rows a correct read returns, in key order.
func rowsOf(want map[int64]row) []tuple.Tuple {
	var keys []int64
	for k := range want {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]tuple.Tuple, len(keys))
	for i, k := range keys {
		out[i] = want[k].tuple()
	}
	return out
}

func TestModelSnapshotAsOf(t *testing.T) {
	m := testModel()
	before := m.snapshot(1, 1, math.MinInt64, math.MaxInt64)
	after := m.snapshot(1, current, math.MinInt64, math.MaxInt64)
	if len(before) != 50 || len(after) != 50 {
		t.Fatalf("sizes %d, %d; want 50, 50", len(before), len(after))
	}
	if before[3].val == 999 || after[3].val != 999 {
		t.Errorf("update of key 3 visible at the wrong time: before %v after %v", before[3], after[3])
	}
	if _, ok := before[4]; !ok {
		t.Error("key 4 missing before its delete")
	}
	if _, ok := after[4]; ok {
		t.Error("key 4 visible after its delete")
	}
	if _, ok := before[100]; ok {
		t.Error("key 100 visible before its insert")
	}
	if got := m.versions(1, math.MinInt64, math.MaxInt64); got != 52 {
		t.Errorf("versions = %d, want 52", got)
	}
}

// TestCheckRowsRejectsTampering shows that the row oracle accepts an exact
// read at every snapshot and rejects each kind of tampered result.
func TestCheckRowsRejectsTampering(t *testing.T) {
	m := testModel()
	for _, asOf := range []int64{1, 2, current} {
		want := m.snapshot(1, asOf, math.MinInt64, math.MaxInt64)
		if err := checkRows(rowsOf(want), want); err != nil {
			t.Fatalf("exact read as of %d rejected: %v", asOf, err)
		}
	}
	want := m.snapshot(1, current, math.MinInt64, math.MaxInt64)
	stale := m.snapshot(1, 1, math.MinInt64, math.MaxInt64)
	tamper := map[string]func([]tuple.Tuple) []tuple.Tuple{
		"one row dropped": func(rs []tuple.Tuple) []tuple.Tuple { return rs[1:] },
		"one row twice":   func(rs []tuple.Tuple) []tuple.Tuple { return append(rs, rs[0]) },
		"unknown row added": func(rs []tuple.Tuple) []tuple.Tuple {
			return append(rs, row{key: 5000, grp: 1, val: 1}.tuple())
		},
		"value off by one": func(rs []tuple.Tuple) []tuple.Tuple {
			rs[7].Values[fVal].I64++
			return rs
		},
		"payload changed": func(rs []tuple.Tuple) []tuple.Tuple {
			rs[9].Values[fPayload+4].I64++
			return rs
		},
		"deleted row still visible": func(rs []tuple.Tuple) []tuple.Tuple {
			return append(rs, stale[4].tuple())
		},
		"old version instead of the update": func([]tuple.Tuple) []tuple.Tuple {
			old := rowsOf(stale)
			for i, r := range old {
				if r.Values[fKey].I64 == 4 {
					old[i] = row{key: 100, grp: 4, val: 7}.tuple()
				}
			}
			return old
		},
		"column missing": func(rs []tuple.Tuple) []tuple.Tuple {
			rs[0].Values = rs[0].Values[:len(rs[0].Values)-1]
			return rs
		},
	}
	for name, f := range tamper {
		if err := checkRows(f(rowsOf(want)), want); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func aggRow(g, sum, count int64) tuple.Tuple {
	return tuple.Tuple{Values: []tuple.Value{tuple.VInt(g), tuple.VInt(sum), tuple.VInt(count)}}
}

func TestCheckGroupsRejectsTampering(t *testing.T) {
	want := groupTotals(testModel().snapshot(1, current, math.MinInt64, math.MaxInt64))
	exact := func() []tuple.Tuple {
		var out []tuple.Tuple
		for g, tot := range want {
			out = append(out, aggRow(g, tot.sum, tot.count))
		}
		return out
	}
	if err := checkGroups(exact(), want); err != nil {
		t.Fatalf("exact aggregate rejected: %v", err)
	}
	tamper := map[string]func([]tuple.Tuple) []tuple.Tuple{
		"sum off by one":   func(rs []tuple.Tuple) []tuple.Tuple { rs[0].Values[1].I64++; return rs },
		"count off by one": func(rs []tuple.Tuple) []tuple.Tuple { rs[2].Values[2].I64--; return rs },
		"group dropped":    func(rs []tuple.Tuple) []tuple.Tuple { return rs[1:] },
		"group renamed":    func(rs []tuple.Tuple) []tuple.Tuple { rs[0].Values[0].I64 += 100; return rs },
		"group duplicated in place of another": func(rs []tuple.Tuple) []tuple.Tuple {
			rs[1] = aggRow(rs[0].Values[0].I64, rs[0].Values[1].I64, rs[0].Values[2].I64)
			return rs
		},
	}
	for name, f := range tamper {
		if err := checkGroups(f(exact()), want); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCheckCommitOrder(t *testing.T) {
	if err := checkCommitOrder([][]int64{{1, 3, 5}, {2, 4, 6}}); err != nil {
		t.Fatalf("valid order rejected: %v", err)
	}
	for name, tss := range map[string][][]int64{
		"decreasing within a client": {{1, 5, 3}, {2, 4}},
		"repeated within a client":   {{1, 3, 3}, {2}},
		"shared across clients":      {{1, 3}, {2, 3}},
	} {
		if err := checkCommitOrder(tss); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestCheckCostRejectsTampering counts a phase of 10 commits of 4 writes
// on two workers the way the commit phase does, for a logless and a
// logged protocol, and rejects each count off by one.
func TestCheckCostRejectsTampering(t *testing.T) {
	const txns, ops = 10, 4
	for _, p := range []txn.Protocol{txn.OptThreePC, txn.TwoPC} {
		want := p.ExpectedCost()
		exact := func() costCount {
			return costCount{
				msgs:         txns * 2 * int64(1+ops+want.MessagesPerWorker/2),
				coordForces:  txns * int64(want.CoordForcedWrites),
				workerForces: []int64{txns * int64(want.WorkerForcedWrites), txns * int64(want.WorkerForcedWrites)},
			}
		}
		if err := checkCost(exact(), want, txns, ops); err != nil {
			t.Fatalf("%v: exact counts rejected: %v", p, err)
		}
		tamper := map[string]func(*costCount){
			"one message more":      func(c *costCount) { c.msgs++ },
			"one coordinator force": func(c *costCount) { c.coordForces++ },
			"one worker force less": func(c *costCount) { c.workerForces[1]-- },
		}
		for name, f := range tamper {
			c := exact()
			f(&c)
			if err := checkCost(c, want, txns, ops); err == nil {
				t.Errorf("%v, %s: accepted", p, name)
			}
		}
	}
}
