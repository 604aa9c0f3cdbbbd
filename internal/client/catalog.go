package client

import (
	"encoding/json"
	"fmt"
	"maps"

	"sssdb/internal/sql"
)

// catalogFile is the serialized form of the client-side catalog. The
// catalog holds only schema metadata and row-id counters — never key
// material — so it may be stored less carefully than the master key,
// though it does reveal schema names.
type catalogFile struct {
	Version int            `json:"version"`
	Tables  []catalogTable `json:"tables"`
	// Sharding is present when the exporting client had more than one
	// provider group. The group count is part of the format: importing into
	// a client opened with a different number of groups fails, which is how
	// a client detects a split (or merge) of the row space it does not
	// understand rather than silently routing to the wrong groups.
	Sharding *catalogSharding `json:"sharding,omitempty"`
}

// catalogSharding is the sharding section of an exported catalog.
type catalogSharding struct {
	// Groups is the provider group count the row space is partitioned over.
	Groups int `json:"groups"`
	// Tables holds one shard-map entry per table.
	Tables []catalogShard `json:"tables"`
}

// catalogShard is one table's shard-map entry.
type catalogShard struct {
	Table string `json:"table"`
	// Column is the shard-key column; "" means insert-sequence hashing.
	Column string `json:"column,omitempty"`
	// Version counts shard-map generations for the table.
	Version int `json:"version"`
	// NextSeq is the insert-sequence frontier (sequence hashing only).
	NextSeq uint64 `json:"next_seq,omitempty"`
	// NextIDs[g] is group g's private next row id for the table.
	NextIDs []uint64 `json:"next_ids"`
}

type catalogTable struct {
	Name   string          `json:"name"`
	Public bool            `json:"public,omitempty"`
	NextID uint64          `json:"next_id"`
	Cols   []catalogColumn `json:"columns"`
}

type catalogColumn struct {
	Name string `json:"name"`
	Type string `json:"type"`
	Arg  int    `json:"arg,omitempty"`
}

const catalogVersion = 1

// typeNames maps between sql.TypeName and its serialized spelling.
var typeNames = map[sql.TypeName]string{
	sql.TypeInt:     "INT",
	sql.TypeDecimal: "DECIMAL",
	sql.TypeVarchar: "VARCHAR",
	sql.TypeBlob:    "BLOB",
}

func typeFromName(s string) (sql.TypeName, bool) {
	for t, name := range typeNames {
		if name == s {
			return t, true
		}
	}
	return 0, false
}

// ExportCatalog serializes the client's schema catalog so a future session
// (same master key, same provider order, same group count) can resume
// querying outsourced tables without re-creating them. Pair it with
// ImportCatalog.
func (c *Client) ExportCatalog() ([]byte, error) {
	out := catalogFile{Version: catalogVersion}
	sh := &catalogSharding{Groups: len(c.groups)}
	for _, meta := range c.cat.list() {
		cs := catalogShard{Table: meta.Name, Version: meta.version, NextSeq: meta.nextSeq.Load(),
			NextIDs: make([]uint64, len(c.groups))}
		if meta.shardCol >= 0 {
			cs.Column = meta.Cols[meta.shardCol].Name
		}
		for g, e := range c.groups {
			// nextID[g] moves under group g's insMu (INSERT holds its
			// statement lock only shared).
			e.insMu.Lock()
			cs.NextIDs[g] = meta.nextID[g]
			e.insMu.Unlock()
		}
		sh.Tables = append(sh.Tables, cs)
		// Group 0's counter is the flat NextID: all there is with one group,
		// there for readability with several.
		ct := catalogTable{Name: meta.Name, Public: meta.Public, NextID: cs.NextIDs[0]}
		for _, cm := range meta.Cols {
			ct.Cols = append(ct.Cols, catalogColumn{
				Name: cm.Name,
				Type: typeNames[cm.Type],
				Arg:  cm.Arg,
			})
		}
		out.Tables = append(out.Tables, ct)
	}
	if len(c.groups) > 1 {
		out.Sharding = sh
	}
	return json.MarshalIndent(out, "", "  ")
}

// ImportCatalog restores a catalog exported by ExportCatalog, rebuilding
// codecs and per-domain schemes from the client's master key. Existing
// in-memory tables with the same names are rejected, and so is a catalog
// exported under a different group count; nothing is applied unless all of
// it can be.
func (c *Client) ImportCatalog(data []byte) error {
	var in catalogFile
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("client: parsing catalog: %w", err)
	}
	if in.Version != catalogVersion {
		return fmt.Errorf("%w: catalog version %d (want %d)", ErrBadSchema, in.Version, catalogVersion)
	}
	exported := 1
	shards := make(map[string]catalogShard)
	if in.Sharding != nil {
		exported = in.Sharding.Groups
		for _, cs := range in.Sharding.Tables {
			shards[cs.Table] = cs
		}
	}
	if exported != len(c.groups) {
		return fmt.Errorf("%w: catalog partitions rows across %d provider groups but this client has %d (re-shard the data instead of importing)",
			ErrBadSchema, exported, len(c.groups))
	}
	unlock, err := c.lock(c.allGroups(), true)
	if err != nil {
		return err
	}
	defer unlock()
	metas := make(map[string]*tableMeta, len(in.Tables))
	for _, ct := range in.Tables {
		if metas[ct.Name] != nil {
			return fmt.Errorf("%w: table %q named twice", ErrBadSchema, ct.Name)
		}
		defs := make([]sql.ColumnDef, len(ct.Cols))
		for i, cc := range ct.Cols {
			typ, ok := typeFromName(cc.Type)
			if !ok {
				return fmt.Errorf("%w: unknown column type %q", ErrBadSchema, cc.Type)
			}
			defs[i] = sql.ColumnDef{Name: cc.Name, Type: typ, Arg: cc.Arg}
		}
		cs, ok := shards[ct.Name]
		if in.Sharding == nil {
			// One group's catalog has no shard map: NextID is its counter.
			cs, ok = catalogShard{Version: 1, NextIDs: []uint64{ct.NextID}}, true
		}
		if !ok {
			return fmt.Errorf("%w: table %q has no shard map entry", ErrBadSchema, ct.Name)
		}
		if len(cs.NextIDs) != len(c.groups) {
			return fmt.Errorf("%w: table %q has %d row-id counters for %d groups",
				ErrBadSchema, ct.Name, len(cs.NextIDs), len(c.groups))
		}
		meta, err := c.newTableMeta(ct.Name, ct.Public, defs, cs.Column)
		if err != nil {
			return err
		}
		meta.version = cs.Version
		meta.nextSeq.Store(cs.NextSeq)
		for g, id := range cs.NextIDs {
			if id != 0 {
				meta.nextID[g] = id
			}
		}
		metas[ct.Name] = meta
	}
	c.cat.mu.Lock()
	maps.Copy(c.cat.tables, metas)
	c.cat.mu.Unlock()
	return nil
}
