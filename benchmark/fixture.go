package main

import (
	"fmt"
	"sort"

	"sssdb/internal/client"
)

// Fixture shape. Every workload runs against the same table.
const (
	createEmp = `CREATE TABLE emp (id INT, name VARCHAR(8), salary INT, dept INT)`
	fullRows  = 100_000 // rows loaded by a full run (≈17 MiB per provider)
	smokeRows = 5_000   // rows loaded by -smoke
	loadBatch = 2_000   // rows per InsertValues call while loading
	salaryMax = 100_000 // salaries are uniform in [0, salaryMax)
	numDepts  = 16
	// userBytesPerRow is the plaintext a row carries: three 8-byte integers
	// and an 8-character name.
	userBytesPerRow = 32
)

// empRow is one plaintext row of emp.
type empRow struct {
	ID     int64
	Name   string
	Salary int64
	Dept   int64
}

// splitmix64 is the finalizer of the splitmix generator: a cheap bijective
// mix used to derive row contents from (seed, id).
func splitmix64(u uint64) uint64 {
	u += 0x9e3779b97f4a7c15
	u = (u ^ (u >> 30)) * 0xbf58476d1ce4e5b9
	u = (u ^ (u >> 27)) * 0x94d049bb133111eb
	return u ^ (u >> 31)
}

// rowAt is the row the fixture stores under id: a pure function of the
// seed, so any worker can check any row — loaded or inserted later by
// another worker — without shared state.
func rowAt(seed, id int64) empRow {
	h := splitmix64(uint64(seed)<<32 ^ uint64(id))
	var name [8]byte
	g := splitmix64(h)
	for i := range name {
		name[i] = byte('A' + g%26)
		g /= 26
	}
	return empRow{
		ID:     id,
		Name:   string(name[:]),
		Salary: int64(h % salaryMax),
		Dept:   int64((h >> 32) % numDepts),
	}
}

func (r empRow) values() []client.Value {
	return []client.Value{
		client.IntValue(r.ID),
		client.StringValue(r.Name),
		client.IntValue(r.Salary),
		client.IntValue(r.Dept),
	}
}

// checksum folds a row into 64 bits; sums of checksums compare row sets
// without regard to order.
func (r empRow) checksum() uint64 {
	h := splitmix64(uint64(r.ID))
	h = splitmix64(h ^ uint64(r.Salary))
	h = splitmix64(h ^ uint64(r.Dept))
	for i := 0; i < len(r.Name); i++ {
		h = h*1099511628211 ^ uint64(r.Name[i])
	}
	return h
}

// rowFromValues converts a SELECT * result row back to an empRow.
func rowFromValues(v []client.Value) (empRow, error) {
	if len(v) != 4 || v[0].Kind != client.KindInt || v[1].Kind != client.KindString ||
		v[2].Kind != client.KindInt || v[3].Kind != client.KindInt {
		return empRow{}, fmt.Errorf("row of unexpected shape: %v", v)
	}
	return empRow{ID: v[0].I, Name: v[1].S, Salary: v[2].I, Dept: v[3].I}, nil
}

// model is the in-memory oracle: what the table must hold. Rows loaded at
// set-up live in base (index = id) and are mutated in place by the one
// worker that owns their parity; rows inserted later are rowAt(seed, id)
// while their id is in the owning worker's live set.
type model struct {
	seed int64
	base []empRow

	// Salary index over the loaded rows, valid while no workload updates
	// salaries: ids in ascending salary order, the salaries themselves, and
	// a running checksum so a range's row set is verified in O(log n).
	salaries  []int64
	sumPrefix []uint64

	// SUM(salary) and COUNT(*) per dept over the loaded rows, valid while
	// no workload writes.
	deptSum, deptCount [numDepts]int64
}

func newModel(seed int64, rows int) *model {
	m := &model{seed: seed, base: make([]empRow, rows)}
	for id := range m.base {
		m.base[id] = rowAt(seed, int64(id))
	}
	return m
}

// indexSalaries builds the salary index from the current base rows.
func (m *model) indexSalaries() {
	order := make([]int32, len(m.base))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool {
		return m.base[order[a]].Salary < m.base[order[b]].Salary
	})
	m.salaries = make([]int64, len(order))
	m.sumPrefix = make([]uint64, len(order)+1)
	for i, id := range order {
		m.salaries[i] = m.base[id].Salary
		m.sumPrefix[i+1] = m.sumPrefix[i] + m.base[id].checksum()
	}
}

// salaryRange returns how many loaded rows have lo <= salary <= hi and the
// sum of their checksums.
func (m *model) salaryRange(lo, hi int64) (count int, sum uint64) {
	a := sort.Search(len(m.salaries), func(i int) bool { return m.salaries[i] >= lo })
	b := sort.Search(len(m.salaries), func(i int) bool { return m.salaries[i] > hi })
	return b - a, m.sumPrefix[b] - m.sumPrefix[a]
}

// indexDepts totals salary and row count per dept from the current base rows.
func (m *model) indexDepts() {
	for _, r := range m.base {
		m.deptSum[r.Dept] += r.Salary
		m.deptCount[r.Dept]++
	}
}
