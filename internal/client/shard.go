package client

// Provider groups: the row space of every table is hash-partitioned across
// the Client's G >= 1 groups, each its own independent k-of-n share quorum
// (the multi-provider scale-out the paper's DaaS framing argues for). The
// paper's data source rewrites one query into per-provider sub-queries and
// combines their partial results (Sec. V-A: sum of SUMs, min of MINs, union
// of row sets); combining across groups is the same algebra one level up.
// This file is the routing half — which groups a statement or a row belongs
// to; select.go, group.go and join.go hold the three partial forms and
// their merges. Hint journals, the repair loop, and Merkle resync live in
// the engines, so degraded writes and readmission work per (group,
// provider) with no extra machinery.
//
// A table is partitioned either on the insert sequence (default — every
// statement scatter-gathers) or, when Options.ShardKeys names one of its
// columns, on that column's encoded value, in which case a top-level
// equality (or IN) predicate on the shard key routes to the owning group(s)
// only. With one group every route is that group and nothing is hashed.

import (
	"sort"

	"sssdb/internal/sql"
)

// shardHash is the splitmix64 finalizer: a cheap, well-mixed hash from an
// encoded shard-key value (or insert sequence number) onto groups.
func shardHash(u uint64) uint64 {
	u += 0x9e3779b97f4a7c15
	u = (u ^ (u >> 30)) * 0xbf58476d1ce4e5b9
	u = (u ^ (u >> 27)) * 0x94d049bb133111eb
	return u ^ (u >> 31)
}

func (c *Client) groupForHash(u uint64) int {
	return int(shardHash(u) % uint64(len(c.groups)))
}

// routeGroups picks the target groups of a statement from its WHERE
// conjuncts, in ascending order, and the shard-key comparison that narrowed
// them (0 when none did): a top-level equality on the shard key routes to the
// one owning group, IN to the union of its members' groups, anything else (or
// any value that fails to parse — the scatter path surfaces the identical
// error) to every group.
func (c *Client) routeGroups(meta *tableMeta, where []sql.Predicate) ([]int, sql.CompareOp) {
	if meta.shardCol < 0 || len(c.groups) == 1 {
		return c.allGroups(), 0
	}
	cm := &meta.Cols[meta.shardCol]
	groupOf := func(lit sql.Literal) (int, bool) {
		v, err := cm.parseValue(lit)
		if err != nil {
			return 0, false
		}
		enc, err := cm.encode(v)
		if err != nil {
			return 0, false
		}
		return c.groupForHash(enc), true
	}
	for _, p := range where {
		if p.Col.Name != cm.Name || (p.Col.Table != "" && p.Col.Table != meta.Name) {
			continue
		}
		switch p.Op {
		case sql.OpEq:
			if g, ok := groupOf(p.Lo); ok {
				return []int{g}, sql.OpEq
			}
			return c.allGroups(), 0
		case sql.OpIn:
			seen := make(map[int]bool)
			var targets []int
			for _, lit := range p.List {
				g, ok := groupOf(lit)
				if !ok {
					return c.allGroups(), 0
				}
				if !seen[g] {
					seen[g] = true
					targets = append(targets, g)
				}
			}
			if len(targets) == 0 || len(targets) == len(c.groups) {
				return c.allGroups(), 0
			}
			sort.Ints(targets)
			return targets, sql.OpIn
		}
	}
	return c.allGroups(), 0
}

// partitionRows splits an INSERT's rows, resolved to the schema's arity,
// onto their owning groups — by the shard key's encoded value, or by fresh
// insert sequence numbers — and returns the groups that received any,
// ascending, with batches indexed by group.
func (c *Client) partitionRows(meta *tableMeta, rows [][]Value) (targets []int, batches [][][]Value, err error) {
	batches = make([][][]Value, len(c.groups))
	switch {
	case len(c.groups) == 1:
		batches[0] = rows
	case meta.shardCol >= 0:
		cm := &meta.Cols[meta.shardCol]
		for _, row := range rows {
			enc, err := cm.encode(row[meta.shardCol])
			if err != nil {
				return nil, nil, err
			}
			g := c.groupForHash(enc)
			batches[g] = append(batches[g], row)
		}
	default:
		base := meta.nextSeq.Add(uint64(len(rows))) - uint64(len(rows))
		for i, row := range rows {
			g := c.groupForHash(base + uint64(i))
			batches[g] = append(batches[g], row)
		}
	}
	for g, batch := range batches {
		if len(batch) > 0 {
			targets = append(targets, g)
		}
	}
	return targets, batches, nil
}
