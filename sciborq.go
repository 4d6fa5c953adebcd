// Package sciborq is a reproduction of "SciBORQ: Scientific data
// management with Bounds On Runtime and Quality" (Sidirourgos, Kersten,
// Boncz — CIDR 2011): a data-exploration engine for append-only science
// warehouses that answers queries from multi-layer, workload-biased
// samples called impressions, under user-specified bounds on runtime
// ("WITHIN TIME 5ms") or result quality ("WITHIN ERROR 0.05 CONFIDENCE
// 0.95").
//
// The DB type is the public façade. A typical session:
//
//	db := sciborq.Open()
//	db.AttachTable(factTable)
//	db.TrackWorkload("PhotoObjAll",
//	    sciborq.Attr{Name: "ra", Min: 0, Max: 360, Beta: 30},
//	    sciborq.Attr{Name: "dec", Min: -90, Max: 90, Beta: 30})
//	db.BuildImpressions("PhotoObjAll", sciborq.ImpressionConfig{
//	    Sizes: []int{100000, 10000, 1000}, Policy: sciborq.Biased,
//	    Attrs: []string{"ra", "dec"},
//	})
//	db.Load("PhotoObjAll", nightlyRows) // impressions maintained in-line
//	res, err := db.Exec(`SELECT AVG(r) FROM PhotoObjAll
//	    WHERE fGetNearbyObjEq(185, 0, 3) WITHIN ERROR 0.05`)
//
// # Concurrency model
//
// Query execution is morsel-driven and parallel by default: every scan
// is split into fixed-size morsels (64K rows), a worker pool sized by
// GOMAXPROCS pulls morsels from a shared queue, evaluates the predicate
// and folds partial aggregate states (COUNT/SUM/AVG/MIN/MAX/STDDEV and
// per-morsel GROUP BY hash tables), and the partials merge in ascending
// morsel order. Because the merge order depends only on the morsel
// layout — never on worker scheduling — results are bit-for-bit
// reproducible at every parallelism level, floating point included.
// WithParallelism(1) forces sequential execution; the cost model that
// drives WITHIN TIME layer picking is calibrated for the configured
// parallelism so time promises track the executor's real rows/sec.
//
// Bounded queries execute impressions natively: each layer is a sorted
// row-position view (impression.View) scanned directly against a base
// snapshot through the same scan loop as a base-table scan
// (engine.Filter over the view's positions), with zone maps skipping
// granules no sampled position lands in. Loads
// running concurrently with bounded queries are safe — every
// escalation rung describes the one snapshot taken for the query, and
// layer views are clamped to it.
//
// # Serving and multi-tenancy
//
// ExecTenant ties a query to a context and a tenant: cancelling the
// context (client disconnect, deadline) aborts the running scan
// cooperatively at the next morsel boundary and frees the worker pool,
// and the tenant name routes the query's selection caching to a
// per-tenant recycler partition (WithTenantRecyclerBudget,
// WithMaxTenants), so concurrent tenants cannot evict each other's warm
// working sets.
// SetLoadProbe feeds live concurrency and queue wait into WITHIN TIME
// pricing — under load the executor picks smaller layers so the time
// promise still holds. internal/server + cmd/sciborqd package this as
// an HTTP/JSON query service (see docs/SERVER.md).
//
// # Local verification
//
// The Makefile mirrors CI exactly: `make build`, `make test`,
// `make race`, `make bench`, `make fmt`, and `make vet` run the same
// commands as .github/workflows/ci.yml, so a green local run means a
// green pipeline.
package sciborq

import (
	"fmt"
	"path/filepath"
	"sync"

	"sciborq/internal/bounded"
	"sciborq/internal/column"
	"sciborq/internal/engine"
	"sciborq/internal/faultinject"
	"sciborq/internal/governor"
	"sciborq/internal/impression"
	"sciborq/internal/loader"
	"sciborq/internal/recycler"
	"sciborq/internal/segment"
	"sciborq/internal/sqlparse"
	"sciborq/internal/table"
	"sciborq/internal/workload"
)

// Re-exported names so that library users need only this package for
// common flows.
type (
	// Schema describes a table's columns.
	Schema = table.Schema
	// ColumnDef is one column of a Schema.
	ColumnDef = table.ColumnDef
	// Row is one tuple (float64, int64, string, or bool per column).
	Row = table.Row
	// Attr declares a tracked workload attribute.
	Attr = workload.AttrSpec
	// Policy selects an impression's sampling focus.
	Policy = impression.Policy
)

// Impression focus policies.
const (
	Uniform  = impression.Uniform
	LastSeen = impression.LastSeen
	Biased   = impression.Biased
)

// Column types.
const (
	Float64 = column.Float64
	Int64   = column.Int64
	String  = column.String
	Bool    = column.Bool
)

// DB is a SciBORQ database: a catalog of append-only tables, per-table
// workload loggers, impression hierarchies maintained during loads, and
// a bounded query executor.
type DB struct {
	mu          sync.Mutex
	catalog     *table.Catalog
	loaders     map[string]*loader.Loader
	loggers     map[string]*workload.Logger
	hiers       map[string]*impression.Hierarchy
	execs       map[string]*bounded.Executor
	recPool     *recycler.Pool     // nil when disabled
	gov         *governor.Governor // nil when disabled
	stores      map[string]*segment.Store
	granules    *segment.Cache // nil unless WithDataDir
	dataDir     string
	granBytes   int64
	sealRows    int
	recBytes    int64
	govBytes    int64
	tenantBytes int64
	maxTenants  int
	loadProbe   func() LoadInfo
	cost        engine.CostModel
	opts        engine.ExecOptions
	seed        uint64
}

// LoadInfo reports live serving-layer contention to the WITHIN TIME
// cost model; see DB.SetLoadProbe and bounded.LoadInfo.
type LoadInfo = bounded.LoadInfo

// Option customises Open.
type Option func(*DB)

// WithCostModel installs a pre-calibrated cost model (the default runs a
// quick on-machine calibration).
func WithCostModel(m engine.CostModel) Option {
	return func(db *DB) { db.cost = m }
}

// WithSeed fixes the seed for all impression sampling.
func WithSeed(seed uint64) Option {
	return func(db *DB) { db.seed = seed }
}

// WithParallelism sets the number of scan workers for query execution.
// The default (0) is one worker per CPU (GOMAXPROCS); 1 forces
// sequential execution. Results are identical at every setting — only
// latency changes.
func WithParallelism(workers int) Option {
	return func(db *DB) { db.opts.Parallelism = workers }
}

// WithExecOptions installs a full execution configuration (worker count
// and morsel granule) for query execution and cost calibration.
func WithExecOptions(opts engine.ExecOptions) Option {
	return func(db *DB) { db.opts = opts }
}

// WithRecyclerBudget sets the byte budget of the selection recycler —
// the §3.3-style cache that serves repeated and refined WHERE
// predicates without re-scanning. Selections charge 4 bytes per cached
// row position and evict LRU-by-bytes. Zero or negative disables the
// recycler entirely (every query re-filters from scratch); the default
// is recycler.DefaultBudget (32 MiB). The budget configured here backs
// the shared default partition; named tenants (ExecTenant) get their
// own partitions sized by WithTenantRecyclerBudget.
func WithRecyclerBudget(bytes int64) Option {
	return func(db *DB) { db.recBytes = bytes }
}

// WithTenantRecyclerBudget sets the per-tenant recycler partition
// budget: every tenant named in ExecTenant gets an isolated selection
// cache of this size, so one tenant's churn cannot evict another's warm
// working set. Zero or negative means recycler.DefaultTenantBudget
// (4 MiB). Has no effect when the recycler is disabled.
func WithTenantRecyclerBudget(bytes int64) Option {
	return func(db *DB) { db.tenantBytes = bytes }
}

// WithMemoryBudget places every cache tier — durable tables' hot
// granules and the recycler's selections — under one global memory
// governor with the given total byte budget. When their combined usage
// crosses the budget's high-water mark the governor sheds tiers in
// fixed priority order (granules first: a refault each to rebuild;
// recycler selections last: each costs a scan), and bounded
// queries degrade to smaller impression layers before the serving
// layer refuses any work. Zero or negative (the default) disables the
// governor; each cache then enforces only its own private budget.
func WithMemoryBudget(bytes int64) Option {
	return func(db *DB) { db.govBytes = bytes }
}

// WithDataDir makes every attached table durable under dir (one
// subdirectory per table): Load batches are WAL-acknowledged before
// they return, sealed columnar segments with their zone maps survive
// restarts (crash recovery replays the WAL on AttachTable), and column
// storage is served from read-only file mappings so tables can be
// larger than RAM. Empty (the default) keeps the in-memory behaviour.
// See docs/STORAGE.md.
func WithDataDir(dir string) Option {
	return func(db *DB) { db.dataDir = dir }
}

// WithGranuleCacheBudget caps the estimated resident bytes of durable
// tables' hot granules: beyond it, the coldest 64K-row granules are
// advised out of their file mappings and refault from disk on demand.
// Zero or negative (the default) tracks residency without evicting.
// Only meaningful with WithDataDir.
func WithGranuleCacheBudget(bytes int64) Option {
	return func(db *DB) { db.granBytes = bytes }
}

// WithSealRows sets the unsealed-tail row threshold at which durable
// tables seal (sync columns, rewrite the manifest, truncate the WAL).
// Zero or negative means segment.DefaultSealRows. Only meaningful with
// WithDataDir; tests use small values to exercise multi-segment state.
func WithSealRows(n int) Option {
	return func(db *DB) { db.sealRows = n }
}

// WithMaxTenants caps how many named tenant recycler partitions stay
// resident; beyond it the least-recently-used tenant's cache is dropped
// wholesale (selections are recomputable, never data). Zero or negative
// means recycler.DefaultMaxTenants (64). Worst-case recycler memory is
// recyclerBudget + maxTenants × tenantBudget.
func WithMaxTenants(n int) Option {
	return func(db *DB) { db.maxTenants = n }
}

// Open creates an empty database.
func Open(opts ...Option) *DB {
	db := &DB{
		catalog:  table.NewCatalog(),
		loaders:  make(map[string]*loader.Loader),
		loggers:  make(map[string]*workload.Logger),
		hiers:    make(map[string]*impression.Hierarchy),
		execs:    make(map[string]*bounded.Executor),
		stores:   make(map[string]*segment.Store),
		recBytes: recycler.DefaultBudget,
		seed:     1,
	}
	for _, o := range opts {
		o(db)
	}
	if db.dataDir != "" {
		db.granules = segment.NewCache(db.granBytes)
	}
	if db.recBytes > 0 {
		pool, err := recycler.NewPool(db.recBytes, db.tenantBytes, db.maxTenants)
		if err != nil {
			panic(err) // positive budget; cannot happen
		}
		db.recPool = pool
	}
	if db.govBytes > 0 {
		// Registration order IS shed priority: hot granules first
		// (releasing one is a page-table zap and a refault later),
		// recycler selections last (a rescan each).
		db.gov = governor.New(db.govBytes)
		if db.granules != nil {
			db.gov.Register("storage.granules", db.granules.Usage, db.granules.Shed)
		}
		if db.recPool != nil {
			db.gov.Register("recycler", db.recPool.UsageBytes, db.recPool.Shed)
		}
	}
	if db.cost.NsPerRow <= 0 {
		// Calibrate the configured execution options, so WITHIN TIME
		// layer picks reflect parallel scan throughput.
		db.cost = engine.Calibrate(100_000, db.opts)
	}
	return db
}

// Governor returns the global memory governor (nil unless
// WithMemoryBudget configured one). The serving layer uses it for its
// memory-pressure gate and /stats section; tests use InjectPressure to
// drive the shed and degrade paths.
func (db *DB) Governor() *governor.Governor { return db.gov }

// RecyclerStats reports the shared default recycler partition's
// effectiveness (zero Stats when the recycler is disabled).
func (db *DB) RecyclerStats() recycler.Stats {
	if db.recPool == nil {
		return recycler.Stats{}
	}
	return db.recPool.Default().Stats()
}

// TenantRecyclerStats snapshots every resident recycler partition's
// Stats keyed by tenant (the default partition under ""); nil when the
// recycler is disabled.
func (db *DB) TenantRecyclerStats() map[string]recycler.Stats {
	if db.recPool == nil {
		return nil
	}
	return db.recPool.StatsByTenant()
}

// CheckSQL reports whether sql is a well-formed statement without
// executing it.
func (db *DB) CheckSQL(sql string) error {
	_, err := sqlparse.Parse(sql)
	return err
}

// recyclerFor resolves the recycler partition a query should use: the
// tenant's own partition, or nil when recycling is disabled.
func (db *DB) recyclerFor(tenant string) *recycler.Recycler {
	if db.recPool == nil {
		return nil
	}
	return db.recPool.For(tenant)
}

// SetLoadProbe installs a contention probe consulted by every WITHIN
// TIME layer pick: the probe reports live in-flight queries and
// observed admission queue wait, and the cost model derates
// accordingly so time promises hold under concurrent load. The serving
// layer (internal/server) wires its admission queue here; library
// embedders running their own scheduler can do the same.
func (db *DB) SetLoadProbe(fn func() LoadInfo) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.loadProbe = fn
	for _, ex := range db.execs {
		ex.SetLoadProbe(fn)
	}
}

// CreateTable adds a new empty table.
func (db *DB) CreateTable(name string, schema Schema) (*table.Table, error) {
	t, err := table.New(name, schema)
	if err != nil {
		return nil, err
	}
	if err := db.AttachTable(t); err != nil {
		return nil, err
	}
	return t, nil
}

// AttachTable registers an existing table (e.g. a generated SkyServer
// catalogue). With WithDataDir configured, the table becomes durable:
// an existing data directory takes precedence over whatever rows t
// holds in memory (crash recovery — the manifest's sealed prefix plus
// the WAL replay are the truth), while a fresh directory imports t's
// current rows as the initial sealed segment.
func (db *DB) AttachTable(t *table.Table) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.catalog.Add(t); err != nil {
		return err
	}
	l, err := loader.New(t)
	if err != nil {
		return err
	}
	if db.dataDir != "" {
		st, err := segment.Open(t, segment.Options{
			Dir:      filepath.Join(db.dataDir, t.Name()),
			SealRows: db.sealRows,
			Cache:    db.granules,
		})
		if err != nil {
			db.catalog.Drop(t.Name())
			return fmt.Errorf("sciborq: attach %q: %w", t.Name(), err)
		}
		db.stores[t.Name()] = st
		l.SetAppender(st)
	}
	db.loaders[t.Name()] = l
	return nil
}

// Recovered reports whether the named table was restored from an
// existing data directory at attach time (false for in-memory tables
// and fresh directories) — the signal daemons use to skip regenerating
// data and backfill impressions instead.
func (db *DB) Recovered(tableName string) bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	st, ok := db.stores[tableName]
	return ok && st.Recovered()
}

// StorageStats reports durable-storage state for /stats: per-table
// store counters plus the shared granule cache. Nil when WithDataDir is
// not configured.
func (db *DB) StorageStats() *StorageStats {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.dataDir == "" {
		return nil
	}
	out := &StorageStats{
		Tables: make(map[string]segment.StoreStats, len(db.stores)),
		Cache:  db.granules.Stats(),
	}
	for name, st := range db.stores {
		out.Tables[name] = st.Stats()
	}
	return out
}

// StorageStats is the /stats storage section.
type StorageStats struct {
	Tables map[string]segment.StoreStats `json:"tables"`
	Cache  segment.CacheStats            `json:"granule_cache"`
}

// Close seals and releases every durable table's storage (final
// manifest, file handles, mappings). Call after queries have drained:
// outstanding snapshots hold views into the mappings Close unmaps. A DB
// without WithDataDir has nothing to release; Close is then a no-op.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	var first error
	for _, st := range db.stores {
		if err := st.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Table returns a registered table.
func (db *DB) Table(name string) (*table.Table, error) {
	return db.catalog.Get(name)
}

// Tables lists the registered table names.
func (db *DB) Tables() []string { return db.catalog.Names() }

// TrackWorkload starts predicate-set logging for the named table (§4).
// Must be called before BuildImpressions with a Biased policy.
func (db *DB) TrackWorkload(tableName string, attrs ...Attr) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, err := db.catalog.Get(tableName); err != nil {
		return err
	}
	if _, dup := db.loggers[tableName]; dup {
		return fmt.Errorf("sciborq: workload tracking already enabled for %q", tableName)
	}
	lg, err := workload.NewLogger(attrs)
	if err != nil {
		return err
	}
	db.loggers[tableName] = lg
	return nil
}

// Logger returns the workload logger of a table (nil if untracked).
func (db *DB) Logger(tableName string) *workload.Logger {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.loggers[tableName]
}

// ImpressionConfig configures a table's impression hierarchy.
type ImpressionConfig struct {
	// Sizes are the layer sizes, largest first (strictly decreasing).
	Sizes []int
	// Policy applies to every layer.
	Policy Policy
	// Attrs are the bias attributes (Biased policy).
	Attrs []string
	// K, D parameterise the LastSeen policy (acceptance K/D).
	K, D float64
	// RefreshEvery controls how often smaller layers are rebuilt from
	// their parent (offers between refreshes; 0 = default 4096).
	RefreshEvery int64
	// Backfill offers all pre-existing rows to the hierarchy, in the
	// same step that registers it for later loads, so a concurrent Load
	// lands either before the backfill or after the registration.
	Backfill bool
}

// BuildImpressions creates and attaches an impression hierarchy for the
// named table; it is maintained automatically by subsequent Load calls.
func (db *DB) BuildImpressions(tableName string, cfg ImpressionConfig) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	base, err := db.catalog.Get(tableName)
	if err != nil {
		return err
	}
	if _, dup := db.hiers[tableName]; dup {
		return fmt.Errorf("sciborq: impressions already built for %q", tableName)
	}
	if len(cfg.Sizes) == 0 {
		return fmt.Errorf("sciborq: impression config needs at least one layer size")
	}
	layers := make([]*impression.Impression, 0, len(cfg.Sizes))
	for i, size := range cfg.Sizes {
		imCfg := impression.Config{
			Name:   fmt.Sprintf("%s/L%d(%s,%d)", tableName, i, cfg.Policy, size),
			Size:   size,
			Policy: cfg.Policy,
			Seed:   db.seed + uint64(i)*7919,
			Attrs:  cfg.Attrs,
			K:      cfg.K,
			D:      cfg.D,
			Logger: db.loggers[tableName],
		}
		im, err := impression.New(base, imCfg)
		if err != nil {
			return err
		}
		layers = append(layers, im)
	}
	h, err := impression.NewHierarchy(layers, cfg.RefreshEvery)
	if err != nil {
		return err
	}
	if cfg.Backfill {
		if err := db.loaders[tableName].Backfill(h); err != nil {
			return err
		}
		h.Refresh()
	} else if err := db.loaders[tableName].Attach(h); err != nil {
		return err
	}
	db.hiers[tableName] = h
	// Any cached bounded executor predates the hierarchy; rebuild it on
	// next use so bounded queries see the new layers.
	delete(db.execs, tableName)
	return nil
}

// Hierarchy returns a table's impression hierarchy (nil if absent).
func (db *DB) Hierarchy(tableName string) *impression.Hierarchy {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.hiers[tableName]
}

// Load appends one batch (a "nightly ingest") to the named table,
// maintaining its impressions in the load path.
func (db *DB) Load(tableName string, rows []Row) error {
	if err := faultinject.Fire(faultinject.PointLoad); err != nil {
		return fmt.Errorf("sciborq: load %q: %w", tableName, err)
	}
	db.mu.Lock()
	l, ok := db.loaders[tableName]
	db.mu.Unlock()
	if !ok {
		return fmt.Errorf("sciborq: no table %q", tableName)
	}
	err := l.LoadBatch(rows)
	if db.gov != nil {
		// Loads are where memory moves fastest (new granules now, new
		// selections soon after); recheck pressure here.
		db.gov.CheckNow()
	}
	return err
}

// CostModel returns the active cost model.
func (db *DB) CostModel() engine.CostModel { return db.cost }

// ExecOptions returns the active execution options.
func (db *DB) ExecOptions() engine.ExecOptions { return db.opts }
