// Package table implements relational tables over the SciBORQ column
// store: a schema, append-only columnar storage, typed row append, and
// consistent length bookkeeping across daily ingests.
//
// Tables are append-only by design — the paper's setting is a science
// warehouse filled by nightly loads; impressions are maintained during the
// append path (package loader), never by revisiting base data.
package table

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"sciborq/internal/column"
	"sciborq/internal/vec"
)

// tableIDs issues process-unique table identities. Two tables that
// merely share a name (a dropped-and-rebuilt table, a re-materialised
// sample) get distinct IDs, so identity-keyed caches can never confuse
// them even when their names and lengths coincide.
var tableIDs atomic.Uint64

func nextTableID() uint64 { return tableIDs.Add(1) }

// ColumnDef describes one column of a schema.
type ColumnDef struct {
	Name string
	Type column.Type
}

// Schema is an ordered set of column definitions.
type Schema []ColumnDef

// Index returns the position of the named column, or -1.
func (s Schema) Index(name string) int {
	for i, c := range s {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Names returns the column names in schema order.
func (s Schema) Names() []string {
	out := make([]string, len(s))
	for i, c := range s {
		out[i] = c.Name
	}
	return out
}

// Table is a named, append-only columnar table.
type Table struct {
	mu     sync.RWMutex
	name   string
	schema Schema
	cols   []column.Column
	byName map[string]int
	// id is the process-unique table identity; snapshots share their
	// source's id.
	id uint64
	// ver counts mutations (appends and rollback truncations). A
	// snapshot freezes the version it was taken at, so (id, ver)
	// uniquely names one immutable row-prefix state — the identity
	// discipline version-keyed caches rely on.
	ver uint64
	// snap marks point-in-time views produced by Snapshot: reads share
	// the source's value storage, appends are rejected.
	snap bool
	// pager, when non-nil, is the durable segment store backing this
	// table's column storage. Scans call TouchRange so the store can
	// account granule residency; snapshots inherit the pager (mapped
	// storage is never unmapped while the table lives, so snapshot
	// views stay valid).
	pager Pager
	// durable marks a table whose storage is owned by a segment store.
	// Direct appends are rejected: every row must flow through the
	// store's WAL (loader → store.LoadBatch) or durability would lie.
	durable bool
}

// Pager is implemented by the durable segment store. Touch accounts a
// scan over rows [lo, hi) for granule-residency tracking (LRU heat and
// byte-budgeted eviction of cold granules).
type Pager interface {
	Touch(lo, hi int)
}

// New creates an empty table with the given schema.
func New(name string, schema Schema) (*Table, error) {
	if len(schema) == 0 {
		return nil, fmt.Errorf("table %q: empty schema", name)
	}
	t := &Table{
		name:   name,
		schema: schema,
		cols:   make([]column.Column, len(schema)),
		byName: make(map[string]int, len(schema)),
		id:     nextTableID(),
	}
	for i, def := range schema {
		if def.Name == "" {
			return nil, fmt.Errorf("table %q: column %d has empty name", name, i)
		}
		if _, dup := t.byName[def.Name]; dup {
			return nil, fmt.Errorf("table %q: duplicate column %q", name, def.Name)
		}
		t.cols[i] = column.New(def.Name, def.Type)
		t.byName[def.Name] = i
	}
	return t, nil
}

// MustNew is New but panics on error; for static schemas.
func MustNew(name string, schema Schema) *Table {
	t, err := New(name, schema)
	if err != nil {
		panic(err)
	}
	return t
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// ID returns the table's process-unique identity. Snapshots share the
// identity of their source table; independently created tables never
// share one, even when their names collide.
func (t *Table) ID() uint64 { return t.id }

// Version returns the table's mutation counter. It bumps on every
// append (and on batch-rollback truncation), so (ID, Version) uniquely
// names one immutable prefix state of the table — a same-length rebuild
// or truncate can never alias an older state. For a snapshot it is the
// version frozen at snapshot time.
func (t *Table) Version() uint64 {
	if t.snap {
		return t.ver
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.ver
}

// Schema returns the table schema (shared; callers must not mutate).
func (t *Table) Schema() Schema { return t.schema }

// Len returns the number of rows.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.cols[0].Len()
}

// Col returns the named column, or an error if absent. The returned
// column is live storage: callers must treat it as read-only.
func (t *Table) Col(name string) (column.Column, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	i, ok := t.byName[name]
	if !ok {
		return nil, fmt.Errorf("table %q: no column %q (have %v)", t.name, name, t.schema.Names())
	}
	return t.cols[i], nil
}

// MustCol is Col but panics on error.
func (t *Table) MustCol(name string) column.Column {
	c, err := t.Col(name)
	if err != nil {
		panic(err)
	}
	return c
}

// Float64 returns the raw data slice of a DOUBLE column.
func (t *Table) Float64(name string) ([]float64, error) {
	c, err := t.Col(name)
	if err != nil {
		return nil, err
	}
	fc, ok := c.(*column.Float64Col)
	if !ok {
		return nil, fmt.Errorf("table %q: column %q is %s, want DOUBLE", t.name, name, c.Type())
	}
	return fc.Data, nil
}

// Int64 returns the raw data slice of a BIGINT column.
func (t *Table) Int64(name string) ([]int64, error) {
	c, err := t.Col(name)
	if err != nil {
		return nil, err
	}
	ic, ok := c.(*column.Int64Col)
	if !ok {
		return nil, fmt.Errorf("table %q: column %q is %s, want BIGINT", t.name, name, c.Type())
	}
	return ic.Data, nil
}

// Snapshot returns an immutable point-in-time view of the table: the
// row count and every column header are captured under the table lock,
// so scans over the snapshot are safe against concurrent appends to the
// source table (appenders only write rows the snapshot cannot see).
// Value storage is shared, not copied — a snapshot costs a few slice
// headers plus the string dictionaries. Snapshots reject appends, and
// snapshotting a snapshot returns it unchanged.
func (t *Table) Snapshot() *Table {
	if t.snap {
		return t
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := t.cols[0].Len()
	cols := make([]column.Column, len(t.cols))
	for i, c := range t.cols {
		cols[i] = c.SnapshotView(n)
	}
	return &Table{name: t.name, schema: t.schema, cols: cols, byName: t.byName,
		id: t.id, ver: t.ver, snap: true, pager: t.pager}
}

// SetPager installs the durable segment store as this table's pager and
// marks the table durable: direct appends are rejected from here on —
// ingest must flow through the store so every acknowledged row is in
// the WAL. Call before the table starts serving queries; snapshots
// taken afterwards carry the pager.
func (t *Table) SetPager(p Pager) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.pager = p
	t.durable = p != nil
}

// TouchRange reports a scan over rows [lo, hi) to the table's pager, if
// any. Nil-safe and cheap for in-memory tables (one predictable branch);
// for durable tables it feeds granule-residency accounting.
func (t *Table) TouchRange(lo, hi int) {
	if t.pager != nil {
		t.pager.Touch(lo, hi)
	}
}

// ExtendWith runs fn over the live column headers under the table's
// write lock and bumps the version on success — the hook the durable
// segment store uses to fold a WAL-acknowledged batch into mapped
// storage (swapping slice headers over the same mapping) atomically
// with respect to Snapshot. fn must leave all columns at equal lengths.
func (t *Table) ExtendWith(fn func(cols []column.Column) error) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.snap {
		return fmt.Errorf("table %q: cannot extend a snapshot", t.name)
	}
	if err := fn(t.cols); err != nil {
		return err
	}
	t.ver++
	return nil
}

// AdoptColumns replaces the table's column storage wholesale, without
// copying it — the recovery path, where the segment store rebuilds
// mapped columns from disk and installs them over the (empty or stale)
// in-memory ones, and the engine's grouped results, assembled column by
// column. The new columns must match the schema order and types. Bumps
// the version.
func (t *Table) AdoptColumns(cols []column.Column) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.snap {
		return fmt.Errorf("table %q: cannot adopt columns into a snapshot", t.name)
	}
	if len(cols) != len(t.schema) {
		return fmt.Errorf("table %q: adopt %d columns, want %d", t.name, len(cols), len(t.schema))
	}
	n := cols[0].Len()
	for i, c := range cols {
		if c.Type() != t.schema[i].Type {
			return fmt.Errorf("table %q: adopt column %d is %s, want %s",
				t.name, i, c.Type(), t.schema[i].Type)
		}
		if c.Len() != n {
			return fmt.Errorf("table %q: adopt column %d length %d, want %d",
				t.name, i, c.Len(), n)
		}
	}
	t.cols = cols
	t.ver++
	return nil
}

// Row is one tuple in schema order. Values must match the column types:
// float64, int64, string, or bool.
type Row []any

// AppendRow appends one tuple. It validates arity and types.
func (t *Table) AppendRow(r Row) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.appendRowLocked(r)
}

func (t *Table) appendRowLocked(r Row) error {
	if t.snap {
		return fmt.Errorf("table %q: cannot append to a snapshot", t.name)
	}
	if t.durable {
		return fmt.Errorf("table %q: durable table, appends must go through the segment store", t.name)
	}
	if len(r) != len(t.cols) {
		return fmt.Errorf("table %q: row arity %d, want %d", t.name, len(r), len(t.cols))
	}
	// Validate the whole row before touching any column so a bad row
	// never leaves columns with unequal lengths.
	for i, v := range r {
		ok := false
		switch t.cols[i].(type) {
		case *column.Float64Col:
			_, ok = v.(float64)
		case *column.Int64Col:
			_, ok = v.(int64)
		case *column.StringCol:
			_, ok = v.(string)
		case *column.BoolCol:
			_, ok = v.(bool)
		}
		if !ok {
			return fmt.Errorf("table %q: column %q wants %s, got %T",
				t.name, t.schema[i].Name, t.schema[i].Type, v)
		}
	}
	for i, v := range r {
		switch c := t.cols[i].(type) {
		case *column.Float64Col:
			c.Append(v.(float64))
		case *column.Int64Col:
			c.Append(v.(int64))
		case *column.StringCol:
			c.Append(v.(string))
		case *column.BoolCol:
			c.Append(v.(bool))
		}
	}
	t.ver++
	return nil
}

// AppendBatch appends a batch of rows atomically: if any row fails
// validation, nothing is appended.
func (t *Table) AppendBatch(rows []Row) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	before := t.cols[0].Len()
	for k, r := range rows {
		if err := t.appendRowLocked(r); err != nil {
			t.truncateLocked(before)
			return fmt.Errorf("batch row %d: %w", k, err)
		}
	}
	return nil
}

// AppendColumns appends whole column chunks. All chunks must have equal
// length and match the schema order and types.
func (t *Table) AppendColumns(chunks []column.Column) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.snap {
		return fmt.Errorf("table %q: cannot append to a snapshot", t.name)
	}
	if t.durable {
		return fmt.Errorf("table %q: durable table, appends must go through the segment store", t.name)
	}
	if len(chunks) != len(t.cols) {
		return fmt.Errorf("table %q: %d chunks, want %d", t.name, len(chunks), len(t.cols))
	}
	n := chunks[0].Len()
	for i, ch := range chunks {
		if ch.Len() != n {
			return fmt.Errorf("table %q: chunk %d length %d, want %d", t.name, i, ch.Len(), n)
		}
	}
	before := t.cols[0].Len()
	for i, ch := range chunks {
		if err := t.cols[i].AppendFrom(ch, nil); err != nil {
			t.truncateLocked(before)
			return err
		}
	}
	t.ver++
	return nil
}

// truncateLocked drops rows beyond n; used only to roll back failed
// batches. It still bumps the version: content is unchanged but any
// in-between state must not alias, and a conservative bump is harmless.
func (t *Table) truncateLocked(n int) {
	t.ver++
	for i, c := range t.cols {
		if c.Len() <= n {
			continue
		}
		keep := vec.Sel(nil)
		if n > 0 {
			keep = vec.NewSelAll(n)
		} else {
			keep = vec.Sel{}
		}
		t.cols[i] = c.Slice(keep)
	}
}

// Project returns a new table containing the named columns restricted to
// sel, fully materialised.
func (t *Table) Project(name string, colNames []string, sel vec.Sel) (*Table, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	schema := make(Schema, 0, len(colNames))
	cols := make([]column.Column, 0, len(colNames))
	for _, cn := range colNames {
		i, ok := t.byName[cn]
		if !ok {
			return nil, fmt.Errorf("table %q: no column %q", t.name, cn)
		}
		schema = append(schema, t.schema[i])
		cols = append(cols, t.cols[i].Slice(sel))
	}
	out := &Table{name: name, schema: schema, cols: cols,
		byName: make(map[string]int, len(schema)), id: nextTableID()}
	for i, def := range schema {
		out.byName[def.Name] = i
	}
	return out, nil
}

// RowStrings renders row i for display, in schema order.
func (t *Table) RowStrings(i int32) []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]string, len(t.cols))
	for k, c := range t.cols {
		out[k] = c.ValueString(i)
	}
	return out
}

// Catalog is a named collection of tables (the "database").
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*Table
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{tables: make(map[string]*Table)}
}

// Add registers a table; the name must be unused.
func (c *Catalog) Add(t *Table) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.tables[t.Name()]; dup {
		return fmt.Errorf("catalog: table %q already exists", t.Name())
	}
	c.tables[t.Name()] = t
	return nil
}

// Get returns the named table.
func (c *Catalog) Get(name string) (*Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[name]
	if !ok {
		return nil, fmt.Errorf("catalog: no table %q (have %v)", name, c.namesLocked())
	}
	return t, nil
}

// Names returns the registered table names, sorted.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.namesLocked()
}

func (c *Catalog) namesLocked() []string {
	out := make([]string, 0, len(c.tables))
	for n := range c.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Drop removes the named table.
func (c *Catalog) Drop(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[name]; !ok {
		return fmt.Errorf("catalog: no table %q", name)
	}
	delete(c.tables, name)
	return nil
}
