package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"sciborq/internal/wire"
)

// env is one run's sizing: the same for every workload of the run.
type env struct {
	seed    uint64
	clients int           // client goroutines and connections = server slots
	rows    int           // rows loaded during set-up
	layers  []int         // impression layer sizes
	warm    time.Duration // the running workload's warm-up
	window  time.Duration
	cycles  int
	traced  bool
	smoke   bool   // tiny sizes for tests; validity checks are not enforced
	outDir  string // span files, and scratch data under tmp/
	data    *sky
}

// workload is one traffic mix. Every workload runs the same cycle —
// fresh stack (timed as set-up), warm-up, one measured window — and the
// run reports the median over its cycles.
type workload struct {
	name    string
	why     string
	primary class
	// allPrimary makes every class count as the primary one: a dashboard
	// user does not tell a refined panel from a repeated one.
	allPrimary bool
	// promised is the class held to limitMs in promise_kept_rate: the
	// WITHIN TIME class and its budget where the workload has one, the
	// primary class and a stated limit otherwise.
	promised class
	limitMs  float64
	// warm is the untimed start of every cycle: long enough for the
	// learned cost model, the plan cache and the recycler to settle.
	warm time.Duration
	// extraBatches is how many load batches are generated beyond the
	// set-up rows (ingest-cold appends them while it is measured).
	extraBatches int
	cycle        func(e *env, cyc int) (*cycleResult, error)
}

var workloads = []*workload{
	{
		name:    "explore-bounded",
		why:     "closed-loop prepared cone aggregates WITHIN TIME 5ms and WITHIN ERROR 0.2 at unique centres: bounded executor, estimators and impression layers do the work, the recycler none",
		primary: clTime, promised: clTime, limitMs: timeBudgetMs, warm: 1500 * time.Millisecond,
		cycle: exploreCycle,
	},
	{
		name: "dashboard-hot",
		why:  "open-loop 250 req/s Poisson HTTP stream of pooled, refined and grouped exact aggregates from 8 tenants: recycler, plan-cache alias tier, admission and JSON do the work, the bounded path none",
		// Every pooled predicate is asked once before this warm-up starts.
		primary: clHit, promised: clHit, allPrimary: true, limitMs: 5, warm: time.Second,
		cycle: dashboardCycle,
	},
	{
		name:    "scan-stream",
		why:     "closed-loop unique full-scan aggregates, 100k-row streamed projections and 256-group GROUP BYs: scan kernels, hash grouping and wire batch encoding do the work, every cache is bypassed",
		primary: clAgg, promised: clAgg, limitMs: 25, warm: 1500 * time.Millisecond,
		cycle: scanCycle,
	},
	{
		name: "ingest-cold",
		why:  "durable table four times its granule cache, a 20k-row DB.Load every 500 ms beside one query session, then a restart: WAL, seals, granule faults and version-bump invalidations do the work",
		// The median WITHIN TIME query flips between the 1k and the 10k layer
		// from cycle to cycle (1.6 or 2.3 ms), so latency is that of the
		// exact scan; the promise is still the bounded class's.
		primary: clColdExact, promised: clColdTime, limitMs: timeBudgetMs, warm: time.Second, extraBatches: 12,
		cycle: ingestCycle,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// loadEvent is one DB.Load call of the ingest loader, in drive time.
type loadEvent struct {
	start, end int64
	rowsAfter  int
}

// cycleResult is what one cycle hands to scoring. recs and loads hold
// the measured window only.
type cycleResult struct {
	setupS float64
	// Rows per second of the median DB.Load of set-up.
	setupLoadRate float64
	recs          []record
	before        mark
	after         mark
	// Traced runs only: the probe pass.
	probes     map[string]float64
	probeSpans []span
	// ingest-cold only.
	loads        []loadEvent
	allLoads     []loadEvent // warm-up included: which rows a query could see
	recoverS     float64
	diskPerRow   float64
	restartFails []string
}

func (e *env) tmpDir() string { return filepath.Join(e.outDir, "tmp") }

// stackConfig is sciborqd's defaults for one cycle. Each cycle seeds the
// program's impression sampling differently, so a run's quality ratios
// average over three samples of the same data and not over one.
func (e *env) stackConfig(cyc int) stackConfig {
	return stackConfig{seed: e.seed + uint64(cyc)*7919, clients: e.clients, tenantMB: 2, layerSizes: e.layers}
}

// release returns a finished cycle's memory before the next set-up, so
// peak_rss_mb reports one stack and not the garbage of the previous one.
func release() {
	runtime.GC()
	debug.FreeOSMemory()
}

// driveClosed runs one closed-loop session per generator against st for
// warm+window, scraping /stats at both edges of the window. along, if
// not nil, runs beside the sessions for the same span (the ingest
// loader).
func (e *env) driveClosed(st *stack, tenant string, prepare []string, gens []func() *request, along func(t0 time.Time, deadline time.Duration)) (*cycleResult, error) {
	total := e.warm + e.window
	out := make([][]record, len(gens))
	errs := make([]error, len(gens))
	var wg sync.WaitGroup
	t0 := time.Now()
	for k, gen := range gens {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[k], errs[k] = closedLoop(st.wireAddr, tenant, prepare, gen, t0, total, e.traced)
		}()
	}
	if along != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			along(t0, total)
		}()
	}
	time.Sleep(e.warm - time.Since(t0))
	before, err := st.mark()
	wg.Wait()
	if err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	cr := st.result(before)
	if cr.after, err = st.mark(); err != nil {
		return nil, err
	}
	var all []record
	for _, recs := range out {
		all = append(all, recs...)
	}
	cr.window(all, e.warm)
	return cr, nil
}

// result starts a cycle's result from what set-up measured.
func (st *stack) result(before mark) *cycleResult {
	return &cycleResult{setupS: st.setup.Seconds(), setupLoadRate: median(st.loadRates), before: before}
}

// probe runs the probe pass of a traced run on the stack the window
// used; an untraced run skips it.
func (e *env) probe(st *stack, cr *cycleResult) (err error) {
	if e.traced {
		cr.probes, cr.probeSpans, err = e.probePass(st)
	}
	return err
}

// window keeps the records that were due after the warm-up.
func (cr *cycleResult) window(all []record, warm time.Duration) {
	for _, r := range all {
		if r.due >= int64(warm) {
			cr.recs = append(cr.recs, r)
		}
	}
}

// --- explore-bounded ---------------------------------------------------

// coneRequest draws one bounded cone aggregate for the prepared
// statements {sqlConeTime, sqlConeErr}.
func coneRequest(rng *rand.Rand, c class, stmt int) *request {
	ra, dec := coneCentre(rng)
	return &request{class: c, stmt: stmt, binds: []float64{ra, dec, coneRadius}, ra: ra, de: dec, check: true}
}

func exploreGen(seed uint64, cyc, client int) func() *request {
	rng := rngFor(seed, fmt.Sprintf("explore/%d/%d", cyc, client))
	i := 0
	return func() *request {
		i++
		if i%4 == 0 {
			return coneRequest(rng, clErr, 1)
		}
		return coneRequest(rng, clTime, 0)
	}
}

func exploreCycle(e *env, cyc int) (*cycleResult, error) {
	return e.closedCycle(cyc, "astro", []string{sqlConeTime, sqlConeErr}, exploreGen)
}

// closedCycle is one cycle of an in-memory closed-loop workload: a fresh
// loaded stack, one session per client drawing from gen, the probe pass
// of a traced run.
func (e *env) closedCycle(cyc int, tenant string, prepare []string, gen func(seed uint64, cyc, client int) func() *request) (*cycleResult, error) {
	st, err := bootLoaded(e.stackConfig(cyc), e.data, e.rows)
	if err != nil {
		return nil, err
	}
	gens := make([]func() *request, e.clients)
	for k := range gens {
		gens[k] = gen(e.seed, cyc, k)
	}
	cr, err := e.driveClosed(st, tenant, prepare, gens, nil)
	if err == nil {
		err = e.probe(st, cr)
	}
	if cerr := st.close(); err == nil {
		err = cerr
	}
	return cr, err
}

// --- dashboard-hot -----------------------------------------------------

const (
	dashRate    = 250.0 // requests per second, all tenants together
	dashTenants = 8
	dashPool    = 32
)

const aggSelect = "SELECT COUNT(*) AS n, AVG(r) AS m FROM " + factTable + " WHERE "

// dashPools draws each tenant's pool of panel predicates: sky boxes that
// select 0.3–3 % of the rows, so that a tenant's whole pool fits its
// recycler partition. Where a box lies comes from the seed; how many
// rows it selects is fixed by its rank in the pool, so that the most
// asked panels cost the same work on every seed.
func dashPools(seed uint64, data *sky) [dashTenants][dashPool]box {
	rng := rngFor(seed, "dashboard/pools")
	var pools [dashTenants][dashPool]box
	for t := range pools {
		for k := range pools[t] {
			frac := 0.003 * math.Pow(10, float64(k*13%dashPool)/dashPool)
			pools[t][k] = data.boxOfRows(rng, int(frac*float64(data.len())))
		}
	}
	return pools
}

// boxOfRows draws a sky box 4–10° wide that selects about target rows.
// Its ra edges and its lower dec edge are whole degrees, so the grid's
// cell counts add up to the rows of every whole-degree strip; the last
// strip is cut where, at the strip's mean density, the target is met.
func (s *sky) boxOfRows(rng *rand.Rand, target int) box {
	g := s.grid
	for {
		w := 4 + rng.IntN(7)
		col, row := rng.IntN(gridW-w), rng.IntN(gridH)
		n := 0
		for r := row; r < gridH; r++ {
			strip := int(g.start[r*gridW+col+w] - g.start[r*gridW+col])
			if n+strip >= target {
				decHi := float64(r) + float64(target-n)/float64(strip)
				return box{raLo: raMin + float64(col), raHi: raMin + float64(col+w),
					decLo: decMin + float64(row), decHi: round3(decMin + decHi)}
			}
			n += strip
		}
		// The window ended before the box held enough rows: draw again.
	}
}

// zipfCum is the cumulative distribution of the ranks of a pool:
// P(k) ∝ (1+k)^-1.1.
func zipfCum() []float64 {
	cum := make([]float64, dashPool)
	var total float64
	for k := range cum {
		total += math.Pow(float64(1+k), -1.1)
		cum[k] = total
	}
	for k := range cum {
		cum[k] /= total
	}
	return cum
}

// dashRequests draws n requests: 70 % a pooled aggregate, 20 % a
// refinement of one by a fresh magnitude cut, 10 % one grouped by type,
// the predicate by Zipf rank from a uniformly drawn tenant's pool. Class
// and rank follow a two-dimensional low-discrepancy sequence (each
// coordinate advances by an irrational step), not independent draws:
// every stretch of the stream then holds the same mix of cheap and
// expensive panels, and a slice's upper percentiles measure the program
// and not how many expensive requests the slice happened to draw.
func dashRequests(seed uint64, data *sky, cyc, n int) []*request {
	const stepClass, stepRank = 0.7548776662466927, 0.5698402909980532
	pools := dashPools(seed, data)
	rng := rngFor(seed, fmt.Sprintf("dashboard/%d", cyc))
	atClass, atRank, ranks := rng.Float64(), rng.Float64(), zipfCum()
	reqs := make([]*request, n)
	for i := range reqs {
		_, u := math.Modf(atClass + float64(i)*stepClass)
		_, v := math.Modf(atRank + float64(i)*stepRank)
		t := rng.IntN(dashTenants)
		b := pools[t][min(sort.SearchFloat64s(ranks, v), dashPool-1)]
		r := &request{class: clHit, tenant: fmt.Sprintf("tenant%d", t), stmt: -1, check: true}
		switch {
		case u < 0.7:
			r.sql = aggSelect + b.where()
		case u < 0.9:
			r.class = clRefine
			b.rMax = round3(16 + 6*rng.Float64())
			r.sql = aggSelect + b.where()
		default:
			r.class, r.group = clGroup, "type"
			r.sql = aggSelect + b.where() + " GROUP BY type"
		}
		r.box = b
		reqs[i] = r
	}
	return reqs
}

func dashboardCycle(e *env, cyc int) (*cycleResult, error) {
	cfg := e.stackConfig(cyc)
	cfg.tenantMB = 16
	st, err := bootLoaded(cfg, e.data, e.rows)
	if err != nil {
		return nil, err
	}
	defer st.close()
	total := e.warm + e.window
	n := int(dashRate * total.Seconds())
	reqs := dashRequests(e.seed, e.data, cyc, n)
	due := poissonSchedule(rngFor(e.seed, fmt.Sprintf("dashboard/arrivals/%d", cyc)), n, dashRate)

	// Warm-up begins by asking every pooled predicate once: a cold panel
	// costs a full scan, and 256 of them would otherwise spill far into
	// the measured window.
	var prime []*request
	for t, pool := range dashPools(e.seed, e.data) {
		for _, b := range pool {
			prime = append(prime, &request{class: clHit, tenant: fmt.Sprintf("tenant%d", t), sql: aggSelect + b.where()})
		}
	}
	for _, r := range openLoop(st.httpAddr, prime, make([]int64, len(prime)), e.clients, time.Now(), false) {
		if r.failed {
			return nil, fmt.Errorf("priming %q: %s", r.req.sql, r.errText)
		}
	}

	var before mark
	var scrapeErr error
	done := make(chan struct{})
	t0 := time.Now()
	go func() {
		defer close(done)
		time.Sleep(e.warm - time.Since(t0))
		before, scrapeErr = st.mark()
	}()
	all := openLoop(st.httpAddr, reqs, due, e.clients, t0, e.traced)
	<-done
	if scrapeErr != nil {
		return nil, scrapeErr
	}
	cr := st.result(before)
	if cr.after, err = st.mark(); err != nil {
		return nil, err
	}
	cr.window(all, e.warm)
	return cr, e.probe(st, cr)
}

// --- scan-stream -------------------------------------------------------

const (
	aggBandDeg    = 30.0 // every agg band has this width, so none contains another
	streamBandDeg = 12.0
	uniqueCheck   = 4 // every 4th unique exact answer is compared with the reference
)

const streamSelect = "SELECT objID, ra, dec, r, type FROM " + factTable + " WHERE "

func uniqueAgg(rng *rand.Rand, c class, seq int) *request {
	a := round3(raMin + rng.Float64()*(raMax-raMin-aggBandDeg))
	b := box{raLo: a, raHi: a + aggBandDeg, rMax: round3(17 + 4*rng.Float64())}
	return &request{class: c, stmt: -1, sql: aggSelect + b.where(), box: b, check: seq%uniqueCheck == 0}
}

func scanGen(seed uint64, cyc, client int) func() *request {
	rng := rngFor(seed, fmt.Sprintf("scan/%d/%d", cyc, client))
	i := -1
	return func() *request {
		i++
		check := (i/3)%uniqueCheck == 0
		switch i % 3 {
		case 0:
			return uniqueAgg(rng, clAgg, i/3)
		case 1:
			a := round3(raMin + rng.Float64()*(raMax-raMin-streamBandDeg))
			b := box{raLo: a, raHi: a + streamBandDeg}
			return &request{class: clStream, stmt: -1, sql: streamSelect + b.where(), box: b, check: check}
		default:
			b := box{rMax: round3(17 + 4*rng.Float64())}
			return &request{class: clGroup, stmt: -1, group: "fieldID", box: b, check: check,
				sql: aggSelect + b.where() + " GROUP BY fieldID"}
		}
	}
}

func scanCycle(e *env, cyc int) (*cycleResult, error) {
	return e.closedCycle(cyc, "scan", nil, scanGen)
}

// --- ingest-cold -------------------------------------------------------

const (
	coldHotPool = 8
	loadEvery   = 500 * time.Millisecond // 40 000 rows/s offered
)

// coldHotBoxes are the repeated predicates: a magnitude cut over three
// consecutive nights of the preloaded data: objID zone maps prune it to
// at most two granules, which a 2 MiB recycler partition still admits.
func coldHotBoxes(seed uint64, rows int) [coldHotPool]box {
	rng := rngFor(seed, "ingest/hot")
	var out [coldHotPool]box
	span := int64(min(3*batchRows, rows/2))
	for k := range out {
		lo := rng.Int64N(int64(rows) - span)
		out[k] = box{idLo: lo, idHi: lo + span - 1, rMax: round3(17 + 4*rng.Float64())}
	}
	return out
}

func ingestGen(seed uint64, cyc, rows int) func() *request {
	rng := rngFor(seed, fmt.Sprintf("ingest/%d", cyc))
	hot := coldHotBoxes(seed, rows)
	i := -1
	return func() *request {
		i++
		switch i % 3 {
		case 0:
			return coneRequest(rng, clColdTime, 0)
		case 1:
			r := uniqueAgg(rng, clColdExact, 0)
			return r
		default:
			b := hot[rng.IntN(coldHotPool)]
			return &request{class: clColdHot, stmt: -1, sql: aggSelect + b.where(), box: b, check: true}
		}
	}
}

const sqlTotals = "SELECT COUNT(*) AS n, SUM(r) AS m FROM " + factTable

// totals asks a stack for COUNT(*) and SUM(r) over the whole table.
func totals(st *stack) (answer, error) {
	c, err := wire.Dial(st.wireAddr, "ops")
	if err != nil {
		return answer{}, err
	}
	defer c.Close()
	resp, err := c.Query(sqlTotals)
	if err != nil {
		return answer{}, err
	}
	return wireAnswer(resp, &request{}), nil
}

func ingestCycle(e *env, cyc int) (*cycleResult, error) {
	dir, err := os.MkdirTemp(e.tmpDir(), "ingest-cold-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg := e.stackConfig(cyc)
	cfg.dataDir = filepath.Join(dir, "data")
	// The granule cache holds a quarter of the preloaded column bytes,
	// and the governor's budget is twice that.
	cfg.granuleB = int64(e.rows) * rowBytes / 4
	cfg.memoryB = 2 * cfg.granuleB
	// The tail is sealed every eighth load, so that each cycle seals
	// once inside its window; the default of 13 batches would never
	// come due in the ten loads of a cycle.
	cfg.sealRows = 8 * batchRows
	st, err := bootAttached(cfg, e.data, e.rows)
	if err != nil {
		return nil, err
	}

	// The loader is an open loop too: one batch falls due every
	// loadEvery, and a late batch starts as soon as the one before it is
	// acknowledged. A query that overlaps a load waits for it and then
	// pays the impression views' rebuild (README.md, finding 4). With
	// back-to-back loads the workload was bistable, and at one load per
	// 250 ms the session was held up a third of the time, so a machine
	// 30 % slower cost 40 % of the qps; at 500 ms it is a sixth.
	var loads []loadEvent
	every := loadEvery
	if e.smoke {
		every = e.window / 4
	}
	loader := func(t0 time.Time, deadline time.Duration) {
		rows := e.rows
		for due := time.Duration(0); due < deadline && rows+batchRows <= e.data.len(); due += every {
			batch := e.data.rows(rows, rows+batchRows)
			time.Sleep(due - time.Since(t0))
			ev := loadEvent{start: int64(time.Since(t0))}
			if err := st.db.Load(factTable, batch); err != nil {
				return // the restart check reports the missing rows
			}
			rows += batchRows
			ev.end, ev.rowsAfter = int64(time.Since(t0)), rows
			loads = append(loads, ev)
		}
	}
	cr, err := e.driveClosed(st, "ops", []string{sqlConeTime}, []func() *request{ingestGen(e.seed, cyc, e.rows)}, loader)
	if err != nil {
		st.close()
		return nil, err
	}
	cr.allLoads = loads
	for _, ev := range loads {
		if ev.end >= int64(e.warm) {
			cr.loads = append(cr.loads, ev)
		}
	}
	acked := e.rows + len(loads)*batchRows

	// Restart: what was acknowledged must be there, unchanged.
	pre, err := totals(st)
	if err != nil {
		st.close()
		return nil, err
	}
	t0 := time.Now()
	if err := st.close(); err != nil {
		return nil, err
	}
	st, err = bootAttached(cfg, nil, 0)
	if err != nil {
		return nil, err
	}
	defer st.close()
	post, err := totals(st)
	if err != nil {
		return nil, err
	}
	cr.recoverS = time.Since(t0).Seconds()
	if int(post.n) != acked {
		cr.restartFails = append(cr.restartFails, fmt.Sprintf("restart: %d rows acknowledged, %d recovered", acked, int(post.n)))
	}
	if post.n != pre.n || post.m != pre.m {
		cr.restartFails = append(cr.restartFails, fmt.Sprintf("restart: COUNT,SUM(r) %v,%v before and %v,%v after", pre.n, pre.m, post.n, post.m))
	}
	doc, err := st.scrape()
	if err != nil {
		return nil, err
	}
	if tb, ok := doc.Storage.Tables[factTable]; ok && tb.Rows > 0 {
		cr.diskPerRow = float64(tb.DiskBytes) / float64(tb.Rows)
	}
	return cr, e.probe(st, cr)
}

// rowBytes is the column bytes of one fact row: nine 8-byte numbers,
// a 4-byte dictionary code, the 8-byte mjd and a 1-byte bool.
const rowBytes = 9*8 + 4 + 8 + 1
