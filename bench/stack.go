package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"sciborq"
	"sciborq/internal/server"
	"sciborq/internal/table"
	"sciborq/internal/wire"
)

// stackConfig is what differs between the workloads' serving stacks;
// everything else is sciborqd's defaults.
type stackConfig struct {
	seed       uint64
	clients    int   // MaxInFlight: one slot per client connection
	tenantMB   int64 // -tenant-recycler-mb
	dataDir    string
	granuleB   int64 // -granule-cache-mb, in bytes
	memoryB    int64 // -memory-mb, in bytes
	sealRows   int   // WithSealRows; 0: the default
	layerSizes []int
}

// stack is the real serving stack, wired as cmd/sciborqd wires it, on
// loopback listeners inside this process.
type stack struct {
	db       *sciborq.DB
	core     *server.Server
	httpSrv  *http.Server
	wireSrv  *wire.Server
	httpAddr string
	wireAddr string
	httpDone chan error
	wireDone chan error
	// setup is the time spent inside the program's own calls while
	// building the stack; generating the rows is the harness's time and
	// is not counted.
	setup time.Duration
	// loadRates is the rows per second of each DB.Load of set-up.
	loadRates []float64
}

func (st *stack) timed(fn func() error) error {
	t0 := time.Now()
	err := fn()
	st.setup += time.Since(t0)
	return err
}

func (cfg stackConfig) open() *sciborq.DB {
	opts := []sciborq.Option{
		sciborq.WithSeed(cfg.seed),
		sciborq.WithRecyclerBudget(16 << 20),
		sciborq.WithTenantRecyclerBudget(cfg.tenantMB << 20),
		sciborq.WithMaxTenants(64),
		sciborq.WithMemoryBudget(cfg.memoryB),
	}
	if cfg.dataDir != "" {
		opts = append(opts, sciborq.WithDataDir(cfg.dataDir), sciborq.WithGranuleCacheBudget(cfg.granuleB), sciborq.WithSealRows(cfg.sealRows))
	}
	return sciborq.Open(opts...)
}

func (cfg stackConfig) impressions(backfill bool) sciborq.ImpressionConfig {
	return sciborq.ImpressionConfig{
		Sizes: cfg.layerSizes, Policy: sciborq.Biased, Attrs: []string{"ra", "dec"},
		K: 500, D: 1000, Backfill: backfill,
	}
}

func trackSky(db *sciborq.DB) error {
	return db.TrackWorkload(factTable,
		sciborq.Attr{Name: "ra", Min: raMin, Max: raMax, Beta: 30},
		sciborq.Attr{Name: "dec", Min: decMin, Max: decMax, Beta: 30})
}

// bootLoaded builds a stack the way a fresh sciborqd does: empty table,
// tracked workload, impressions, then the first rows of data loaded in
// nightly batches so the impressions build in the load path.
func bootLoaded(cfg stackConfig, data *sky, rows int) (*stack, error) {
	st := &stack{}
	err := st.timed(func() error {
		st.db = cfg.open()
		if _, err := st.db.CreateTable(factTable, factSchema()); err != nil {
			return err
		}
		if err := trackSky(st.db); err != nil {
			return err
		}
		return st.db.BuildImpressions(factTable, cfg.impressions(false))
	})
	if err != nil {
		return nil, err
	}
	for lo := 0; lo < rows; lo += batchRows {
		batch := data.rows(lo, min(lo+batchRows, rows))
		before := st.setup
		if err := st.timed(func() error { return st.db.Load(factTable, batch) }); err != nil {
			return nil, err
		}
		st.loadRates = append(st.loadRates, float64(len(batch))/(st.setup-before).Seconds())
	}
	return st, st.serve(cfg)
}

// bootAttached builds a stack over cfg.dataDir. A fresh directory
// imports the first rows of data as the initial sealed segment; an
// existing one recovers whatever it holds (data is then not read). Both
// backfill the impressions, as sciborqd does after a restart.
func bootAttached(cfg stackConfig, data *sky, rows int) (*stack, error) {
	st := &stack{}
	tb, err := table.New(factTable, factSchema())
	if err != nil {
		return nil, err
	}
	for lo := 0; data != nil && lo < rows; lo += batchRows {
		batch := data.rows(lo, min(lo+batchRows, rows))
		if err := st.timed(func() error { return tb.AppendBatch(batch) }); err != nil {
			return nil, err
		}
	}
	err = st.timed(func() error {
		st.db = cfg.open()
		if err := st.db.AttachTable(tb); err != nil {
			return err
		}
		if err := trackSky(st.db); err != nil {
			return err
		}
		return st.db.BuildImpressions(factTable, cfg.impressions(true))
	})
	if err != nil {
		return nil, err
	}
	return st, st.serve(cfg)
}

// serve starts both listeners on 127.0.0.1:0.
func (st *stack) serve(cfg stackConfig) error {
	return st.timed(func() error {
		core, err := server.New(server.Config{
			DB: st.db, MaxInFlight: cfg.clients, MaxQueue: 32, MaxQueryTime: 30 * time.Second,
		})
		if err != nil {
			return err
		}
		st.core = core
		hln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		wln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			hln.Close()
			return err
		}
		st.httpSrv = &http.Server{Handler: core.Handler(), ReadHeaderTimeout: 10 * time.Second}
		st.wireSrv = wire.NewServer(wire.Config{DB: st.db, Core: core, MaxQueryTime: 30 * time.Second})
		core.SetWireStats(func() any { return st.wireSrv.Stats() })
		st.httpAddr, st.wireAddr = hln.Addr().String(), wln.Addr().String()
		st.httpDone, st.wireDone = make(chan error, 1), make(chan error, 1)
		go func() { st.httpDone <- st.httpSrv.Serve(hln) }()
		go func() { st.wireDone <- st.wireSrv.Serve(wln) }()
		return nil
	})
}

// close drains both listeners, waits for their goroutines, and closes
// the database (the final seal of a durable table).
func (st *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st.core.Drain()
	err := st.httpSrv.Shutdown(ctx)
	if e := st.wireSrv.Shutdown(ctx); err == nil {
		err = e
	}
	if e := <-st.httpDone; err == nil && !errors.Is(e, http.ErrServerClosed) {
		err = e
	}
	<-st.wireDone
	if e := st.db.Close(); err == nil {
		err = e
	}
	return err
}

// statsDoc is the part of GET /stats the harness reads.
type statsDoc struct {
	Admission struct {
		Admitted int64 `json:"admitted"`
		Rejected int64 `json:"rejected"`
	} `json:"admission"`
	Governor *struct {
		Level string `json:"level"`
		Sheds int64  `json:"sheds"`
	} `json:"governor"`
	Storage *struct {
		Tables map[string]struct {
			Rows      int64 `json:"rows"`
			Seals     int64 `json:"seals"`
			DiskBytes int64 `json:"disk_bytes"`
		} `json:"tables"`
		Cache struct {
			Touches   int64 `json:"touches"`
			Faults    int64 `json:"faults"`
			Evictions int64 `json:"evictions"`
		} `json:"granule_cache"`
	} `json:"storage"`
	Wire struct {
		Queries  int64 `json:"queries"`
		Executes int64 `json:"executes"`
		Batches  int64 `json:"batches"`
		RowsOut  int64 `json:"rows_out"`
		BytesOut int64 `json:"bytes_out"`
	} `json:"wire"`
	Recycler map[string]struct {
		Hits      int64 `json:"hits"`
		Subsumed  int64 `json:"subsumed_hits"`
		Misses    int64 `json:"misses"`
		Evictions int64 `json:"evictions"`
		Bytes     int64 `json:"bytes"`
	} `json:"recycler"`
	PlanCache map[string]struct {
		Hits          int64 `json:"hits"`
		CanonHits     int64 `json:"canon_hits"`
		ShapeHits     int64 `json:"shape_hits"`
		Misses        int64 `json:"misses"`
		Invalidations int64 `json:"invalidations"`
	} `json:"plancache"`
}

// scrape reads GET /stats over a connection of its own.
func (st *stack) scrape() (*statsDoc, error) {
	tp := &http.Transport{}
	defer tp.CloseIdleConnections()
	resp, err := (&http.Client{Transport: tp}).Get("http://" + st.httpAddr + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /stats: %s", resp.Status)
	}
	var doc statsDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("GET /stats: %w", err)
	}
	return &doc, nil
}

// mark is the state of the stack at one edge of the measured window:
// what /stats counts, what the process has used, and the impression
// layers' sample versions (read in-process; /stats does not carry them).
type mark struct {
	*statsDoc
	proc  procSnap
	views uint64
}

func (st *stack) mark() (mark, error) {
	doc, err := st.scrape()
	if err != nil {
		return mark{}, err
	}
	m := mark{statsDoc: doc, proc: procNow()}
	if h := st.db.Hierarchy(factTable); h != nil {
		for _, im := range h.Layers() {
			m.views += im.Version()
		}
	}
	return m, nil
}
