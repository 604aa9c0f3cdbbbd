package bench

import (
	"fmt"
	"time"

	"sssdb/internal/client"
)

// RunS3 is the availability study for degraded writes: a provider is
// killed mid-workload and the table reports how many writes commit under a
// strict all-providers quorum (W=N, the pre-quorum behavior) versus a
// relaxed W=3-of-4 quorum with hinted handoff, plus how long the repair
// loop takes to drain the hints and readmit the provider once it returns.
// The paper's premise is that outsourcing must not reduce availability
// below what a self-hosted database offers; without write quorums a single
// unreachable provider blocks every mutation.
func RunS3(scale Scale) (*Table, error) {
	writes := scale.pick(60, 600)
	t := &Table{
		ID: "S3",
		Title: fmt.Sprintf(
			"supplementary: write availability under a provider outage (n=4, k=2, %d writes)", writes),
		PaperClaim: "outsourced data must stay writable through single-provider failures",
		Header:     []string{"phase", "quorum", "writes ok", "avg write", "hints queued"},
	}

	type phase struct {
		name   string
		quorum int // 0 = default (W=N)
		crash  bool
	}
	phases := []phase{
		{"healthy", 3, false},
		{"provider 0 down", 0, true}, // strict W=N: every write must fail
		{"provider 0 down", 3, true}, // hinted handoff keeps committing
	}
	var quorumFleet *fleet // kept open for the recovery measurement
	defer func() {
		if quorumFleet != nil {
			quorumFleet.Close()
		}
	}()
	for _, ph := range phases {
		f, err := newFleet(4, 2, client.Options{
			WriteQuorum:    ph.quorum,
			RepairInterval: 5 * time.Millisecond,
		})
		if err != nil {
			return nil, err
		}
		if _, err := f.client.Exec(`CREATE TABLE ops (v INT, tag INT)`); err != nil {
			f.Close()
			return nil, err
		}
		if ph.crash {
			f.faults[0].Crash()
		}
		ok := 0
		start := time.Now()
		for i := 0; i < writes; i++ {
			if _, err := f.client.Exec(fmt.Sprintf(`INSERT INTO ops VALUES (%d, %d)`, i, i%7)); err == nil {
				ok++
			}
		}
		elapsed := time.Since(start)
		quorumLabel := "W=N (strict)"
		if ph.quorum != 0 {
			quorumLabel = fmt.Sprintf("W=%d of 4", ph.quorum)
		}
		t.Rows = append(t.Rows, []string{
			ph.name, quorumLabel,
			fmt.Sprintf("%d/%d", ok, writes),
			fmtDur(elapsed / time.Duration(writes)),
			fmt.Sprintf("%d", f.client.PendingHints()),
		})
		if ph.crash && ph.quorum != 0 {
			if ok != writes {
				f.Close()
				return nil, fmt.Errorf("S3: only %d/%d degraded writes committed", ok, writes)
			}
			quorumFleet = f // measure its recovery below
			continue
		}
		f.Close()
	}

	// Recovery: bring the provider back and time the repair loop from
	// readmission kick to convergence (hints drained, Merkle roots equal).
	f := quorumFleet
	f.faults[0].Recover()
	start := time.Now()
	f.client.RepairNow()
	for !f.client.Converged() {
		if time.Since(start) > time.Minute {
			return nil, fmt.Errorf("S3: repair did not converge within a minute")
		}
		time.Sleep(time.Millisecond)
	}
	converged := time.Since(start)
	for i, st := range f.stores {
		rc, err := st.RowCount("ops")
		if err != nil {
			return nil, err
		}
		if rc != writes {
			return nil, fmt.Errorf("S3: provider %d holds %d rows after repair, want %d", i, rc, writes)
		}
	}
	t.Rows = append(t.Rows, []string{
		"recovery", "W=3 of 4", fmt.Sprintf("replayed %d", writes), fmtDur(converged), "0",
	})
	t.Notes = append(t.Notes,
		"strict W=N refuses every write while any provider is unreachable; W=3 commits all of them",
		"degraded writes queue per-provider hints (WAL-backed); scans mask rows above the lagging provider's floor",
		"recovery time covers journal replay plus the Merkle resync check before readmission")
	return t, nil
}
