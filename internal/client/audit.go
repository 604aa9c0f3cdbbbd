package client

// AuditReport summarizes a full verified sweep of one table.
type AuditReport struct {
	Table string
	// Rows is the number of reconstructed rows.
	Rows int
	// Faulty lists providers (flat index group*N + provider) whose shares
	// failed robust reconstruction or whose blob replicas diverged.
	Faulty []int
}

// Audit runs the paper's trust mechanism end to end over a whole table:
// every live provider is scanned with a Merkle completeness proof, row sets
// are cross-checked, and every cell is robust-reconstructed to identify
// providers returning corrupted shares. It returns an error when
// verification cannot complete (too many corruptions to decode, proof
// mismatch, dropped rows).
func (c *Client) Audit(table string) (*AuditReport, error) {
	meta, err := c.cat.table(table)
	if err != nil {
		return nil, err
	}
	// A verified sweep compares row sets across providers, so it holds the
	// statement locks exclusively, as every verified read does: under a shared
	// lock a concurrent INSERT could be half-landed and outvote an honest
	// provider.
	p := &selectPlan{meta: meta, targets: c.allGroups(), verified: true, fetch: meta.allCols(), flush: true, oci: -1}
	scan, err := c.gather(p)
	if err != nil {
		return nil, err
	}
	return &AuditReport{Table: table, Rows: len(scan.ids), Faulty: append([]int(nil), scan.faulty...)}, nil
}

// Tables lists the client-side catalog.
func (c *Client) Tables() []string {
	var names []string
	for _, meta := range c.cat.list() {
		names = append(names, meta.Name)
	}
	return names
}
