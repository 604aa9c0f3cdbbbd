// Command dasload bulk-loads CSV data into an outsourced table: each row is
// typed against the table's schema, split into shares, and distributed to
// every provider in batches.
//
// Usage:
//
//	dasload -providers host:7001,host:7002,host:7003 -k 2 -key secret \
//	        -catalog schema.json -table employees -csv employees.csv
//
// The CSV columns must match the table's columns in order. Values are
// parsed per column type: INT and DECIMAL as numeric literals, VARCHAR and
// BLOB as raw strings. With -create, the table is created first from
// -schema (a CREATE TABLE statement).
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"sssdb"
)

func main() {
	providers := flag.String("providers", "", "comma-separated provider addresses")
	local := flag.Int("local", 0, "use an in-process cluster instead (demo)")
	k := flag.Int("k", 2, "reconstruction threshold")
	key := flag.String("key", "", "master key")
	catalog := flag.String("catalog", "", "schema catalog file (loaded/saved)")
	table := flag.String("table", "", "target table")
	csvPath := flag.String("csv", "", "CSV file to load ('-' for stdin)")
	schema := flag.String("schema", "", "CREATE TABLE statement to run first")
	batch := flag.Int("batch", 500, "rows per insert batch")
	timeout := flag.Duration("timeout", 0, "per-call deadline against providers (0 = none)")
	flag.Parse()

	if *table == "" || *csvPath == "" {
		fatal(fmt.Errorf("-table and -csv are required"))
	}
	opts := sssdb.Options{K: *k}
	var db *sssdb.Client
	switch {
	case *local > 0:
		if *key == "" {
			*key = "dasload-local-demo-key"
		}
		opts.MasterKey = []byte(*key)
		cluster, err := sssdb.OpenLocal(*local, opts)
		if err != nil {
			fatal(err)
		}
		defer cluster.Close()
		db = cluster.Client
	case *providers != "":
		if *key == "" {
			fatal(fmt.Errorf("-key is required with -providers"))
		}
		opts.MasterKey = []byte(*key)
		var err error
		db, err = sssdb.OpenWith(strings.Split(*providers, ","), opts, sssdb.DialConfig{Timeout: *timeout})
		if err != nil {
			fatal(err)
		}
		defer db.Close()
	default:
		fatal(fmt.Errorf("pass -providers or -local"))
	}

	if *catalog != "" {
		if data, err := os.ReadFile(*catalog); err == nil {
			if err := db.ImportCatalog(data); err != nil {
				fatal(err)
			}
		} else if !os.IsNotExist(err) {
			fatal(err)
		}
	}
	if *schema != "" {
		if _, err := db.Exec(*schema); err != nil {
			fatal(fmt.Errorf("creating table: %w", err))
		}
	}

	var in io.Reader = os.Stdin
	if *csvPath != "-" {
		f, err := os.Open(*csvPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	reader := csv.NewReader(in)
	reader.TrimLeadingSpace = true

	start := time.Now()
	total := 0
	var pending [][]string
	flush := func() error {
		if len(pending) == 0 {
			return nil
		}
		stmt, err := buildInsert(*table, pending)
		if err != nil {
			return err
		}
		if _, err := db.Exec(stmt); err != nil {
			return err
		}
		total += len(pending)
		pending = pending[:0]
		return nil
	}
	for {
		record, err := reader.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			fatal(fmt.Errorf("reading CSV: %w", err))
		}
		pending = append(pending, record)
		if len(pending) >= *batch {
			if err := flush(); err != nil {
				fatal(err)
			}
		}
	}
	if err := flush(); err != nil {
		fatal(err)
	}
	if *catalog != "" {
		data, err := db.ExportCatalog()
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*catalog, data, 0o600); err != nil {
			fatal(err)
		}
	}
	st := db.Stats()
	fmt.Printf("dasload: %d rows into %q in %v (%d bytes shipped)\n",
		total, *table, time.Since(start).Round(time.Millisecond), st.BytesSent)
}

// buildInsert renders an INSERT statement, quoting every field as a string
// unless it parses as a bare numeric literal. The SQL layer type-checks
// against the actual column types.
func buildInsert(table string, rows [][]string) (string, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "INSERT INTO %s VALUES ", table)
	for r, row := range rows {
		if r > 0 {
			sb.WriteString(",")
		}
		sb.WriteString("(")
		for i, field := range row {
			if i > 0 {
				sb.WriteString(",")
			}
			if isNumericLiteral(field) {
				sb.WriteString(field)
			} else {
				sb.WriteString("'")
				sb.WriteString(strings.ReplaceAll(field, "'", "''"))
				sb.WriteString("'")
			}
		}
		sb.WriteString(")")
	}
	return sb.String(), nil
}

func isNumericLiteral(s string) bool {
	if s == "" {
		return false
	}
	i := 0
	if s[0] == '-' || s[0] == '+' {
		i = 1
		if len(s) == 1 {
			return false
		}
	}
	dots := 0
	digits := 0
	for ; i < len(s); i++ {
		switch {
		case s[i] >= '0' && s[i] <= '9':
			digits++
		case s[i] == '.':
			dots++
			if dots > 1 {
				return false
			}
		default:
			return false
		}
	}
	return digits > 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dasload:", err)
	os.Exit(1)
}
