package bench

import (
	"bytes"
	"crypto/rand"
	"fmt"
	mrand "math/rand"
	"time"

	"sssdb/internal/client"
	"sssdb/internal/field"
	"sssdb/internal/numenc"
	"sssdb/internal/opp"
	"sssdb/internal/proto"
	"sssdb/internal/secretshare"
	"sssdb/internal/workload"
)

// RunE8 compares provider-side partial aggregation with the client-side
// fallback (fetch everything, aggregate locally).
func RunE8(scale Scale) (*Table, error) {
	nRows := scale.pick(5_000, 50_000)
	f, err := newFleet(3, 2, client.Options{})
	if err != nil {
		return nil, err
	}
	defer f.Close()
	emp := workload.GenEmployees(nRows, 100_000, 20, 81)
	if _, err := f.client.Exec(workload.EmployeesSchema); err != nil {
		return nil, err
	}
	if err := f.load("employees", emp.Rows); err != nil {
		return nil, err
	}
	t := &Table{
		ID:         "E8",
		Title:      fmt.Sprintf("aggregation over %d rows (salary BETWEEN 20000 AND 60000)", nRows),
		PaperClaim: "providers 'perform an intermediate computation'; the data source combines partial results",
		Header:     []string{"aggregate", "mode", "latency", "bytes on wire"},
	}
	queries := []string{
		`SELECT SUM(salary) FROM employees WHERE salary BETWEEN 20000 AND 60000`,
		`SELECT MEDIAN(salary) FROM employees WHERE salary BETWEEN 20000 AND 60000`,
		`SELECT COUNT(*) FROM employees WHERE salary BETWEEN 20000 AND 60000`,
		`SELECT dept, SUM(salary) FROM employees GROUP BY dept`,
	}
	names := []string{"SUM", "MEDIAN", "COUNT", "GROUP BY SUM"}
	var remoteVals, localVals []string
	for qi, q := range queries {
		for _, mode := range []string{"provider-side", "client-side"} {
			f.client.SetClientSideAggregates(mode == "client-side")
			var value string
			var dur time.Duration
			sent, recv, err := f.bytesDelta(func() error {
				var inner error
				dur, inner = timeIt(func() error {
					res, err := f.client.Exec(q)
					if err != nil {
						return err
					}
					for _, row := range res.Rows {
						for _, v := range row {
							value += v.Format() + " "
						}
					}
					return nil
				})
				return inner
			})
			if err != nil {
				return nil, err
			}
			if mode == "provider-side" {
				remoteVals = append(remoteVals, value)
			} else {
				localVals = append(localVals, value)
			}
			t.Rows = append(t.Rows, []string{names[qi], mode, fmtDur(dur), fmtBytes(sent + recv)})
		}
	}
	f.client.SetClientSideAggregates(false)
	for i := range remoteVals {
		if remoteVals[i] != localVals[i] {
			return nil, fmt.Errorf("E8: %s differs between modes: %s vs %s", names[i], remoteVals[i], localVals[i])
		}
	}
	t.Notes = append(t.Notes, "both modes agree on every aggregate value (verified)")
	return t, nil
}

// RunE9 compares the provider-side same-domain equijoin with the
// client-side fallback the paper's scheme needs for cross-domain keys.
func RunE9(scale Scale) (*Table, error) {
	nEmp := scale.pick(1_000, 10_000)
	nMgr := scale.pick(300, 3_000)
	w := workload.GenJoin(nEmp, nMgr, 91)

	f, err := newFleet(3, 2, client.Options{})
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if _, err := f.client.Exec(workload.EmployeesWithIDSchema); err != nil {
		return nil, err
	}
	if _, err := f.client.Exec(workload.ManagersSchema); err != nil {
		return nil, err
	}
	if err := f.load("employees", w.Employees); err != nil {
		return nil, err
	}
	if err := f.load("managers", w.Managers); err != nil {
		return nil, err
	}
	joinQ := `SELECT employees.name, managers.level FROM employees JOIN managers ON employees.eid = managers.eid`
	var remoteRows int
	var remoteDur time.Duration
	rSent, rRecv, err := f.bytesDelta(func() error {
		var inner error
		remoteDur, inner = timeIt(func() error {
			res, err := f.client.Exec(joinQ)
			if err != nil {
				return err
			}
			remoteRows = len(res.Rows)
			return nil
		})
		return inner
	})
	if err != nil {
		return nil, err
	}
	// Client-side baseline: fetch both tables and join locally.
	var localRows int
	var localDur time.Duration
	lSent, lRecv, err := f.bytesDelta(func() error {
		var inner error
		localDur, inner = timeIt(func() error {
			emps, err := f.client.Exec(`SELECT eid, name FROM employees`)
			if err != nil {
				return err
			}
			mgrs, err := f.client.Exec(`SELECT eid, level FROM managers`)
			if err != nil {
				return err
			}
			byEID := make(map[int64][]int)
			for i, row := range emps.Rows {
				byEID[row[0].I] = append(byEID[row[0].I], i)
			}
			localRows = 0
			for _, m := range mgrs.Rows {
				localRows += len(byEID[m[0].I])
			}
			return nil
		})
		return inner
	})
	if err != nil {
		return nil, err
	}
	if remoteRows != localRows {
		return nil, fmt.Errorf("E9: join cardinality mismatch %d vs %d", remoteRows, localRows)
	}
	t := &Table{
		ID:         "E9",
		Title:      fmt.Sprintf("equijoin employees(%d) ⋈ managers(%d), %d result pairs", nEmp, nMgr, remoteRows),
		PaperClaim: "same-domain referential joins run at the provider; cross-domain joins cannot and fall back to the client",
		Header:     []string{"strategy", "latency", "bytes on wire"},
		Rows: [][]string{
			{"provider-side join (same domain)", fmtDur(remoteDur), fmtBytes(rSent + rRecv)},
			{"client-side join (fallback)", fmtDur(localDur), fmtBytes(lSent + lRecv)},
		},
	}
	return t, nil
}

// RunE10 measures availability: query success and latency with f crashed
// providers, sweeping the threshold k (the paper's fault-tolerance dividend
// for accepting multi-provider communication).
func RunE10(scale Scale) (*Table, error) {
	nRows := scale.pick(1_000, 10_000)
	t := &Table{
		ID:         "E10",
		Title:      "fault tolerance: range query under provider crashes (n=5)",
		PaperClaim: "communicating with multiple providers buys greater fault-tolerance and data availability under failures",
		Header:     []string{"k", "crashed", "query", "latency"},
	}
	for _, k := range []int{2, 3, 4} {
		f, err := newFleet(5, k, client.Options{})
		if err != nil {
			return nil, err
		}
		emp := workload.GenEmployees(nRows, 100_000, 20, 101)
		if _, err := f.client.Exec(workload.EmployeesSchema); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.load("employees", emp.Rows); err != nil {
			f.Close()
			return nil, err
		}
		for crashed := 0; crashed <= 3; crashed++ {
			for i := 0; i < 5; i++ {
				if i < crashed {
					f.faults[i].Crash()
				} else {
					f.faults[i].Recover()
				}
			}
			status := "ok"
			dur, err := timeIt(func() error {
				_, err := f.client.Exec(`SELECT COUNT(*) FROM employees WHERE salary BETWEEN 10000 AND 50000`)
				return err
			})
			if err != nil {
				status = "UNAVAILABLE"
			}
			wantOK := 5-crashed >= k
			if wantOK != (status == "ok") {
				f.Close()
				return nil, fmt.Errorf("E10: k=%d crashed=%d: got %s, want ok=%v", k, crashed, status, wantOK)
			}
			lat := fmtDur(dur)
			if status != "ok" {
				lat = "-"
			}
			t.Rows = append(t.Rows, []string{fmt.Sprint(k), fmt.Sprint(crashed), status, lat})
		}
		f.Close()
	}
	t.Notes = append(t.Notes, "reads survive exactly n-k crashes, as the threshold predicts")
	return t, nil
}

// RunE11 demonstrates Sec. IV's security argument: the monotone-function
// construction falls to a two-plaintext attack; the slotted-hash
// construction does not.
func RunE11(scale Scale) (*Table, error) {
	trials := scale.pick(50, 500)
	rng := mrand.New(mrand.NewSource(111))

	naiveBroken, slottedBroken := 0, 0
	for trial := 0; trial < trials; trial++ {
		// Random instance of the naive scheme.
		ns, err := opp.NewNaiveScheme(
			[]uint64{1 + uint64(rng.Intn(100)), 1 + uint64(rng.Intn(100)), 1 + uint64(rng.Intn(100))},
			[]uint64{uint64(rng.Intn(1000)), uint64(rng.Intn(1000)), uint64(rng.Intn(1000))},
			[]uint64{2, 4, 1},
		)
		if err != nil {
			return nil, err
		}
		secrets := make([]uint64, 5)
		for i := range secrets {
			secrets[i] = uint64(rng.Intn(1_000_000))
		}
		secrets[1] = secrets[0] + 1 + uint64(rng.Intn(100)) // distinct known pair
		s0, _ := ns.ShareAt(secrets[0], 0)
		s1, _ := ns.ShareAt(secrets[1], 0)
		model, err := opp.BreakNaive(secrets[0], s0, secrets[1], s1)
		if err == nil {
			all := true
			for _, v := range secrets[2:] {
				sh, _ := ns.ShareAt(v, 0)
				got, err := model.Invert(sh)
				if err != nil || got != v {
					all = false
				}
			}
			if all {
				naiveBroken++
			}
		}
		// Same attack against the slotted scheme.
		key := make([]byte, 16)
		rng.Read(key)
		sch, err := opp.NewScheme(opp.Params{Degree: 3, DomainBits: 32, N: 1}, key)
		if err != nil {
			return nil, err
		}
		sh0, _ := sch.ShareAt(secrets[0]&0xffffffff, 0)
		sh1, _ := sch.ShareAt(secrets[1]&0xffffffff, 0)
		model, err = opp.BreakNaive(secrets[0]&0xffffffff, sh0.Int(), secrets[1]&0xffffffff, sh1.Int())
		if err == nil {
			for _, v := range secrets[2:] {
				sh, _ := sch.ShareAt(v&0xffffffff, 0)
				if got, err := model.Invert(sh.Int()); err == nil && got == v&0xffffffff {
					slottedBroken++
					break
				}
			}
		}
	}
	t := &Table{
		ID:         "E11",
		Title:      fmt.Sprintf("two-known-plaintext attack, %d random instances", trials),
		PaperClaim: "the monotone-function construction lets one broken item reveal the complete set; the slotted construction resists",
		Header:     []string{"construction", "instances fully broken", "rate"},
		Rows: [][]string{
			{"naive monotone coefficients", fmt.Sprint(naiveBroken), fmt.Sprintf("%.0f%%", 100*float64(naiveBroken)/float64(trials))},
			{"slotted keyed-hash coefficients", fmt.Sprint(slottedBroken), fmt.Sprintf("%.0f%%", 100*float64(slottedBroken)/float64(trials))},
		},
		Notes: []string{"both constructions intentionally reveal ORDER to providers; that is the price of range filtering"},
	}
	if naiveBroken != trials || slottedBroken != 0 {
		return nil, fmt.Errorf("E11: unexpected break rates naive=%d/%d slotted=%d", naiveBroken, trials, slottedBroken)
	}
	return t, nil
}

// RunE12 exercises Sec. V-B: strings as base-27 numbers, prefix and
// dictionary-range queries compiled to numeric ranges.
func RunE12(scale Scale) (*Table, error) {
	nNames := scale.pick(2_000, 20_000)
	codec, err := numenc.NewStringCodec(numenc.PaperAlphabet, 5)
	if err != nil {
		return nil, err
	}
	abc, err := codec.Encode("ABC")
	if err != nil {
		return nil, err
	}
	names := workload.Names(nNames, 121)
	start := time.Now()
	for _, n := range names {
		v, err := codec.Encode(n)
		if err != nil {
			return nil, err
		}
		back, err := codec.Decode(v)
		if err != nil || back != n {
			return nil, fmt.Errorf("E12: round trip %q -> %q (%v)", n, back, err)
		}
	}
	rtTime := time.Since(start) / time.Duration(nNames)

	// End-to-end prefix query through the full stack.
	f, err := newFleet(3, 2, client.Options{Alphabet: numenc.PaperAlphabet})
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if _, err := f.client.Exec(`CREATE TABLE people (name VARCHAR(5))`); err != nil {
		return nil, err
	}
	rows := make([][]client.Value, len(names))
	for i, n := range names {
		rows[i] = []client.Value{client.StringValue(n)}
	}
	if err := f.load("people", rows); err != nil {
		return nil, err
	}
	wantPrefix := 0
	for _, n := range names {
		if len(n) >= 2 && n[:2] == "JO" {
			wantPrefix++
		}
	}
	res, err := f.client.Exec(`SELECT name FROM people WHERE name LIKE 'JO%'`)
	if err != nil {
		return nil, err
	}
	if len(res.Rows) != wantPrefix {
		return nil, fmt.Errorf("E12: prefix query returned %d rows, want %d", len(res.Rows), wantPrefix)
	}
	t := &Table{
		ID:         "E12",
		Title:      "non-numeric attributes as order-preserving numbers (base 27, width 5)",
		PaperClaim: "\"ABC**\" enumerates to (12300)_27; prefix and BETWEEN queries become range queries",
		Header:     []string{"measurement", "value"},
		Rows: [][]string{
			{"Encode(\"ABC\")", fmt.Sprint(abc)},
			{"paper's stated value", "21998878 (arithmetically wrong; (12300)_27 = 572994)"},
			{"encode+decode round trip", fmtDur(rtTime) + "/value"},
			{fmt.Sprintf("LIKE 'JO%%' over %d names", nNames), fmt.Sprintf("%d rows, exact", len(res.Rows))},
		},
	}
	return t, nil
}

// RunE13 compares eager updates (one round trip per UPDATE) with lazy
// buffered updates flushed in a batch (Sec. V-C's proposed direction).
func RunE13(scale Scale) (*Table, error) {
	nRows := scale.pick(1_000, 10_000)
	nUpdates := scale.pick(50, 500)
	run := func(lazy bool) (time.Duration, uint64, uint64, error) {
		f, err := newFleet(3, 2, client.Options{LazyUpdates: lazy})
		if err != nil {
			return 0, 0, 0, err
		}
		defer f.Close()
		emp := workload.GenEmployees(nRows, 100_000, 20, 131)
		if _, err := f.client.Exec(workload.EmployeesSchema); err != nil {
			return 0, 0, 0, err
		}
		if err := f.load("employees", emp.Rows); err != nil {
			return 0, 0, 0, err
		}
		var dur time.Duration
		sent, recv, err := f.bytesDelta(func() error {
			var inner error
			dur, inner = timeIt(func() error {
				for u := 0; u < nUpdates; u++ {
					dept := u % 20
					q := fmt.Sprintf(`UPDATE employees SET salary = %d WHERE dept = %d`, 50_000+u, dept)
					if _, err := f.client.Exec(q); err != nil {
						return err
					}
				}
				return f.client.Flush()
			})
			return inner
		})
		return dur, sent, recv, err
	}
	eagerDur, eagerSent, eagerRecv, err := run(false)
	if err != nil {
		return nil, err
	}
	lazyDur, lazySent, lazyRecv, err := run(true)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:         "E13",
		Title:      fmt.Sprintf("%d UPDATE statements over %d rows", nUpdates, nRows),
		PaperClaim: "updates retrieve, reconstruct, re-share, redistribute; lazy updates can cut the communication overhead",
		Header:     []string{"mode", "total time", "bytes sent", "bytes received"},
		Rows: [][]string{
			{"eager (per-statement push)", fmtDur(eagerDur), fmtBytes(eagerSent), fmtBytes(eagerRecv)},
			{"lazy (buffered, one flush)", fmtDur(lazyDur), fmtBytes(lazySent), fmtBytes(lazyRecv)},
		},
	}
	if lazySent >= eagerSent {
		t.Notes = append(t.Notes, "WARNING: lazy mode did not reduce upstream bytes")
	}
	return t, nil
}

// RunE14 measures the cost of verification and demonstrates detection of a
// malicious provider.
func RunE14(scale Scale) (*Table, error) {
	nRows := scale.pick(2_000, 20_000)
	f, err := newFleet(4, 2, client.Options{})
	if err != nil {
		return nil, err
	}
	defer f.Close()
	emp := workload.GenEmployees(nRows, 100_000, 20, 141)
	if _, err := f.client.Exec(workload.EmployeesSchema); err != nil {
		return nil, err
	}
	if err := f.load("employees", emp.Rows); err != nil {
		return nil, err
	}
	q := `SELECT name, salary FROM employees WHERE salary BETWEEN 20000 AND 40000`
	var plainDur, verDur time.Duration
	plainSent, plainRecv, err := f.bytesDelta(func() error {
		var inner error
		plainDur, inner = timeIt(func() error {
			_, err := f.client.Exec(q)
			return err
		})
		return inner
	})
	if err != nil {
		return nil, err
	}
	verSent, verRecv, err := f.bytesDelta(func() error {
		var inner error
		verDur, inner = timeIt(func() error {
			_, err := f.client.Exec(q + ` VERIFIED`)
			return err
		})
		return inner
	})
	if err != nil {
		return nil, err
	}
	// Malicious provider: detection via audit.
	f.faults[2].SetCorrupter(func(resp proto.Message) proto.Message {
		if rr, ok := resp.(*proto.RowsResponse); ok {
			for i := range rr.Rows {
				for j, cell := range rr.Rows[i].Cells {
					if len(cell) == 8 {
						rr.Rows[i].Cells[j][1] ^= 0x55
					}
				}
			}
		}
		return resp
	})
	report, err := f.client.Audit("employees")
	if err != nil {
		return nil, err
	}
	f.faults[2].SetCorrupter(nil)
	if fmt.Sprint(report.Faulty) != "[2]" {
		return nil, fmt.Errorf("E14: audit identified %v, want [2]", report.Faulty)
	}
	t := &Table{
		ID:         "E14",
		Title:      fmt.Sprintf("verification cost and malicious-provider detection (%d rows)", nRows),
		PaperClaim: "a trust mechanism must verify results and detect corrupted data",
		Header:     []string{"measurement", "plain", "verified", "overhead"},
		Rows: [][]string{
			{"query latency", fmtDur(plainDur), fmtDur(verDur), fmtRatio(float64(verDur), float64(plainDur))},
			{"bytes on wire", fmtBytes(plainSent + plainRecv), fmtBytes(verSent + verRecv),
				fmtRatio(float64(verSent+verRecv), float64(plainSent+plainRecv))},
		},
		Notes: []string{
			fmt.Sprintf("audit of a share-corrupting provider identified exactly provider %v", report.Faulty),
		},
	}
	return t, nil
}

// RunE15 runs the Sec. V-D mash-up: private friends joined against public
// restaurants at the provider, in share space.
func RunE15(scale Scale) (*Table, error) {
	nFriends := scale.pick(100, 1_000)
	nRest := scale.pick(1_000, 10_000)
	m := workload.GenMashup(nFriends, nRest, 200, 151)
	f, err := newFleet(3, 2, client.Options{})
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if _, err := f.client.Exec(workload.FriendsSchema); err != nil {
		return nil, err
	}
	if _, err := f.client.Exec(workload.RestaurantsSchema); err != nil {
		return nil, err
	}
	if err := f.load("friends", m.Friends); err != nil {
		return nil, err
	}
	if err := f.load("restaurants", m.Restaurants); err != nil {
		return nil, err
	}
	friendName := m.Friends[0][0].S
	q := fmt.Sprintf(`SELECT restaurants.rname FROM friends JOIN restaurants
		ON friends.zip = restaurants.zip WHERE friends.name = '%s'`, friendName)
	var rows int
	var dur time.Duration
	sent, recv, err := f.bytesDelta(func() error {
		var inner error
		dur, inner = timeIt(func() error {
			res, err := f.client.Exec(q)
			if err != nil {
				return err
			}
			rows = len(res.Rows)
			return nil
		})
		return inner
	})
	if err != nil {
		return nil, err
	}
	// Oracle: count expected matches.
	want := 0
	for _, fr := range m.Friends {
		if fr[0].S == friendName {
			for _, r := range m.Restaurants {
				if r[1].I == fr[1].I {
					want++
				}
			}
		}
	}
	if rows != want {
		return nil, fmt.Errorf("E15: mash-up returned %d rows, oracle says %d", rows, want)
	}
	t := &Table{
		ID:         "E15",
		Title:      fmt.Sprintf("private friends (%d) ⋈ public restaurants (%d) at the provider", nFriends, nRest),
		PaperClaim: "request restaurants close to a friend's house without revealing any private information about the friend",
		Header:     []string{"measurement", "value"},
		Rows: [][]string{
			{"restaurants near the friend", fmt.Sprint(rows)},
			{"latency", fmtDur(dur)},
			{"bytes on wire", fmtBytes(sent + recv)},
		},
		Notes: []string{"the provider executes the join on shares: it learns neither the friend, the zip, nor the matches' values"},
	}
	return t, nil
}

// RunA1 ablates the field representation: single-word Mersenne arithmetic
// vs math/big rational interpolation for reconstruction.
func RunA1(scale Scale) (*Table, error) {
	iters := scale.pick(2_000, 20_000)
	fieldSch, err := secretshare.NewSchemeFromKey(4, 4, []byte("a1"))
	if err != nil {
		return nil, err
	}
	shares, err := fieldSch.Split(field.New(123456789), rand.Reader)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := fieldSch.Reconstruct(shares); err != nil {
			return nil, err
		}
	}
	fieldTime := time.Duration(int64(time.Since(start)) / int64(iters))

	oppSch, err := opp.NewScheme(opp.Params{Degree: 3, DomainBits: 32, N: 4}, []byte("a1"))
	if err != nil {
		return nil, err
	}
	oppShares, err := oppSch.Split(123456)
	if err != nil {
		return nil, err
	}
	providers := []int{0, 1, 2, 3}
	start = time.Now()
	for i := 0; i < iters; i++ {
		if _, err := oppSch.ReconstructLagrange(providers, oppShares); err != nil {
			return nil, err
		}
	}
	bigTime := time.Duration(int64(time.Since(start)) / int64(iters))
	t := &Table{
		ID:     "A1",
		Title:  "ablation: reconstruction arithmetic (4 shares)",
		Header: []string{"representation", "time/op"},
		Rows: [][]string{
			{"GF(2^61-1) single-word Lagrange", fmtDur(fieldTime)},
			{"big.Rat exact rational Lagrange", fmtDur(bigTime)},
		},
		Notes: []string{"the Mersenne field is why per-cell reconstruction stays cheap at table scale"},
	}
	return t, nil
}

// RunA2 ablates dual-share storage: bytes per row with and without the
// random field share, and what functionality each configuration loses.
func RunA2(Scale) (*Table, error) {
	// One INT column (the default 40-bit domain at degree 3), n = 3 providers.
	sch, err := opp.NewScheme(opp.Params{Degree: 3, DomainBits: 40, N: 3}, []byte("a2"))
	if err != nil {
		return nil, err
	}
	oppBytes := 3 * sch.Width()
	fieldBytes := 3 * 8
	t := &Table{
		ID:     "A2",
		Title:  "ablation: dual shares per cell (n=3, one INT column)",
		Header: []string{"configuration", "bytes/cell (all providers)", "filtering", "IT-secure reads", "provider-side SUM"},
		Rows: [][]string{
			{"OPP share only", fmtBytes(uint64(oppBytes)), "yes", "no (deterministic, order-leaking)", "no"},
			{"field share only", fmtBytes(uint64(fieldBytes)), "no (full scans)", "yes", "yes"},
			{"dual (sssdb)", fmtBytes(uint64(oppBytes + fieldBytes)), "yes", "yes", "yes"},
		},
		Notes: []string{fmt.Sprintf("the %.1fx storage premium of dual shares over field shares alone buys both query classes of Sec. V-A",
			float64(oppBytes+fieldBytes)/float64(fieldBytes))},
	}
	return t, nil
}

// RunA3 ablates the share key representation in provider indexes:
// fixed-width byte comparison vs big.Int comparison.
func RunA3(scale Scale) (*Table, error) {
	iters := scale.pick(200_000, 2_000_000)
	sch, err := opp.NewScheme(opp.Params{Degree: 3, DomainBits: 32, N: 1}, []byte("a3"))
	if err != nil {
		return nil, err
	}
	a, err := sch.ShareAt(1000, 0)
	if err != nil {
		return nil, err
	}
	b, err := sch.ShareAt(1001, 0)
	if err != nil {
		return nil, err
	}
	ab, bb := sch.AppendShare(nil, a), sch.AppendShare(nil, b)
	start := time.Now()
	sink := 0
	for i := 0; i < iters; i++ {
		sink += bytes.Compare(ab, bb)
	}
	byteTime := time.Duration(int64(time.Since(start)) / int64(iters))
	ai, bi := a.Int(), b.Int()
	start = time.Now()
	for i := 0; i < iters; i++ {
		sink += ai.Cmp(bi)
	}
	bigTime := time.Duration(int64(time.Since(start)) / int64(iters))
	_ = sink
	t := &Table{
		ID:     "A3",
		Title:  "ablation: index key comparison",
		Header: []string{"representation", "compare time"},
		Rows: [][]string{
			{fmt.Sprintf("%d-byte big-endian bytes.Compare", sch.Width()), fmtDur(byteTime)},
			{"math/big Int.Cmp", fmtDur(bigTime)},
		},
		Notes: []string{"fixed-width byte keys also keep the B+-tree oblivious to the share construction"},
	}
	return t, nil
}

// RunA4 ablates the order-preserving polynomial degree: share computation
// cost and single-share inversion cost per degree. Degree buys resistance
// against coalitions interpolating OPP values (degree+1 shares needed),
// paid for in hash evaluations per share.
func RunA4(scale Scale) (*Table, error) {
	iters := scale.pick(2_000, 20_000)
	t := &Table{
		ID:     "A4",
		Title:  "ablation: OPP polynomial degree",
		Header: []string{"degree", "shares to interpolate", "ShareAt time", "invert time", "share bytes"},
	}
	for _, degree := range []int{1, 2, 3, 5, 8} {
		sch, err := opp.NewScheme(opp.Params{Degree: degree, DomainBits: 40, N: 1}, []byte("a4"))
		if err != nil {
			return nil, err
		}
		start := time.Now()
		for i := 0; i < iters; i++ {
			if _, err := sch.ShareAt(uint64(i), 0); err != nil {
				return nil, err
			}
		}
		shareT := time.Duration(int64(time.Since(start)) / int64(iters))
		sh, err := sch.ShareAt(123456789, 0)
		if err != nil {
			return nil, err
		}
		invIters := iters / 20
		if invIters == 0 {
			invIters = 1
		}
		start = time.Now()
		for i := 0; i < invIters; i++ {
			if _, err := sch.ReconstructSearch(0, sh); err != nil {
				return nil, err
			}
		}
		invT := time.Duration(int64(time.Since(start)) / int64(invIters))
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(degree), fmt.Sprint(degree + 1), fmtDur(shareT), fmtDur(invT), fmt.Sprint(sch.Width()),
		})
	}
	t.Notes = append(t.Notes, "a share is as wide as its bound: each degree adds the 10 bits of an evaluation point; the paper's exposition uses degree 3")
	return t, nil
}
