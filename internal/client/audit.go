package client

import (
	"sort"
)

// AuditReport summarizes a full verified sweep of one table.
type AuditReport struct {
	Table string
	// Rows is the number of reconstructed rows.
	Rows int
	// Faulty lists providers whose shares failed robust reconstruction or
	// whose blob replicas diverged.
	Faulty []int
}

// Audit runs the paper's trust mechanism end to end over a whole table:
// every live provider is scanned with a Merkle completeness proof, row sets
// are cross-checked, and every cell is robust-reconstructed to identify
// providers returning corrupted shares. It returns an error when
// verification cannot complete (too many corruptions to decode, digest
// mismatch, dropped rows).
func (c *Client) Audit(table string) (*AuditReport, error) {
	if c.shards != nil {
		return c.shardAudit(table)
	}
	// Audits are reads: they share the statement lock unless buffered lazy
	// updates force a flush first.
	unlock := c.lockForRead()
	defer unlock()
	meta, err := c.table(table)
	if err != nil {
		return nil, err
	}
	if err := c.flushTableLocked(table); err != nil {
		return nil, err
	}
	scan, err := c.scanTable(meta, nil, c.readOpts(meta.allCols(), 0, true))
	if err != nil {
		return nil, err
	}
	report := &AuditReport{Table: table, Rows: len(scan.ids)}
	report.Faulty = append(report.Faulty, scan.faulty...)
	sort.Ints(report.Faulty)
	return report, nil
}

// Tables lists the client-side catalog.
func (c *Client) Tables() []string {
	if c.shards != nil {
		// Every group holds the same table set; group 0 speaks for all.
		return c.shards[0].Tables()
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.tables))
	for name := range c.tables {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
