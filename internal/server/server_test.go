package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sciborq"
	"sciborq/internal/engine"
	"sciborq/internal/skyserver"
)

const (
	testTable = "PhotoObjAll"
	batchRows = 8000
)

// newTestDB builds a DB with SkyServer synthetic data, a focused
// workload, and a two-layer impression hierarchy — the smallest setup
// on which bounded, exact, and load paths are all exercisable.
func newTestDB(t *testing.T, nights int) (*sciborq.DB, *skyserver.Database) {
	t.Helper()
	db := sciborq.Open(
		sciborq.WithCostModel(engine.CostModel{NsPerRow: 12, FixedNs: 2000}),
		sciborq.WithSeed(99),
	)
	cfg := skyserver.DefaultConfig(0)
	sky, err := skyserver.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fact, err := sky.Catalog.Get(testTable)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AttachTable(fact); err != nil {
		t.Fatal(err)
	}
	if err := db.TrackWorkload(testTable,
		sciborq.Attr{Name: "ra", Min: cfg.RaMin, Max: cfg.RaMax, Beta: 30},
		sciborq.Attr{Name: "dec", Min: cfg.DecMin, Max: cfg.DecMax, Beta: 30},
	); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildImpressions(testTable, sciborq.ImpressionConfig{
		Sizes:  []int{4000, 400},
		Policy: sciborq.Biased,
		Attrs:  []string{"ra", "dec"},
	}); err != nil {
		t.Fatal(err)
	}
	gen := sky.Generator(nil)
	for night := 0; night < nights; night++ {
		if err := db.Load(testTable, gen.NextBatch(batchRows)); err != nil {
			t.Fatal(err)
		}
	}
	return db, sky
}

func newTestServer(t *testing.T, db *sciborq.DB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.DB = db
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// postQuery runs one query and decodes the response; status is returned
// so error paths can assert on it.
func postQuery(t *testing.T, base, sql, tenant string) (int, queryResponse, errorResponse) {
	t.Helper()
	body, _ := json.Marshal(queryRequest{SQL: sql, Tenant: tenant})
	resp, err := http.Post(base+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var ok queryResponse
	var bad errorResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &ok); err != nil {
			t.Fatalf("bad 200 body %s: %v", raw, err)
		}
	} else if err := json.Unmarshal(raw, &bad); err != nil {
		t.Fatalf("bad error body %s: %v", raw, err)
	}
	return resp.StatusCode, ok, bad
}

// TestServerEndpoints: the whole wire protocol — exact, bounded, stats,
// health, and every documented error shape.
func TestServerEndpoints(t *testing.T) {
	db, _ := newTestDB(t, 2)
	_, ts := newTestServer(t, db, Config{MaxInFlight: 4})

	// Exact aggregate.
	status, ok, _ := postQuery(t, ts.URL, "SELECT COUNT(*) AS n FROM PhotoObjAll", "")
	if status != http.StatusOK || ok.Exact == nil {
		t.Fatalf("exact query failed: status %d resp %+v", status, ok)
	}
	if ok.Exact.Columns[0] != "n" || ok.Exact.Rows[0][0] != "16000" {
		t.Fatalf("unexpected exact result: %+v", ok.Exact)
	}

	// Bounded aggregate: estimates + trail on the wire.
	status, ok, _ = postQuery(t, ts.URL,
		"SELECT COUNT(*) AS n FROM PhotoObjAll WHERE fGetNearbyObjEq(165, 20, 3) WITHIN ERROR 0.2 CONFIDENCE 0.95", "")
	if status != http.StatusOK || ok.Bounded == nil {
		t.Fatalf("bounded query failed: status %d resp %+v", status, ok)
	}
	if len(ok.Bounded.Estimates) != 1 || ok.Bounded.Estimates[0].Name != "n" {
		t.Fatalf("bounded estimates malformed: %+v", ok.Bounded)
	}
	if len(ok.Bounded.Trail) == 0 {
		t.Fatal("bounded answer must carry its escalation trail")
	}

	// Tenant routing: the tenant's partition shows up in /stats.
	if status, _, _ = postQuery(t, ts.URL,
		"SELECT AVG(ra) AS a FROM PhotoObjAll WHERE ra BETWEEN 150 AND 170", "alice"); status != http.StatusOK {
		t.Fatalf("tenant query failed: %d", status)
	}

	// Errors.
	if status, _, bad := postQuery(t, ts.URL, "SELEKT nonsense", ""); status != http.StatusBadRequest || bad.Error.Code != "parse_error" {
		t.Fatalf("want 400 parse_error, got %d %+v", status, bad)
	}
	if status, _, bad := postQuery(t, ts.URL, "   ", ""); status != http.StatusBadRequest || bad.Error.Code != "bad_request" {
		t.Fatalf("want 400 bad_request, got %d %+v", status, bad)
	}
	if status, _, bad := postQuery(t, ts.URL, "SELECT COUNT(*) FROM NoSuchTable", ""); status != http.StatusUnprocessableEntity || bad.Error.Code != "exec_error" {
		t.Fatalf("want 422 exec_error, got %d %+v", status, bad)
	}
	resp, err := http.Get(ts.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /query must 405, got %d", resp.StatusCode)
	}

	// Health.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	// Stats: well-formed JSON carrying admission, recycler partitions,
	// and per-tenant latency counters.
	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.UptimeNs <= 0 || st.Admission.MaxInFlight != 4 {
		t.Fatalf("stats malformed: %+v", st)
	}
	if st.Admission.Admitted < 4 {
		t.Fatalf("admission must count the admitted queries: %+v", st.Admission)
	}
	if _, okDef := st.Recycler["default"]; !okDef {
		t.Fatalf("default recycler partition missing: %+v", st.Recycler)
	}
	if _, okT := st.Recycler["alice"]; !okT {
		t.Fatalf("tenant recycler partition missing: %+v", st.Recycler)
	}
	alice, okT := st.Tenants["alice"]
	if !okT || alice.Queries != 1 || alice.TotalNs <= 0 {
		t.Fatalf("per-tenant latency counters missing: %+v", st.Tenants)
	}
}

// TestServerConcurrentClientsDuringLoads: N clients fire bounded and
// unbounded queries while batches land; every exact COUNT(*) must see a
// batch-atomic prefix (a multiple of the batch size), and nothing may
// error out.
func TestServerConcurrentClientsDuringLoads(t *testing.T) {
	db, sky := newTestDB(t, 1)
	_, ts := newTestServer(t, db, Config{MaxInFlight: 4, MaxQueue: 64})

	const clients = 4
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var failures atomic.Int64
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			tenant := fmt.Sprintf("tenant-%d", c%2)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var sql string
				if i%2 == 0 {
					sql = "SELECT COUNT(*) AS n FROM PhotoObjAll"
				} else {
					sql = "SELECT COUNT(*) AS n FROM PhotoObjAll WHERE fGetNearbyObjEq(165, 20, 3) WITHIN TIME 50ms"
				}
				status, ok, bad := postQuery(t, ts.URL, sql, tenant)
				if status != http.StatusOK {
					t.Errorf("client %d query %q failed: %d %+v", c, sql, status, bad)
					failures.Add(1)
					return
				}
				if ok.Exact != nil {
					var n int
					fmt.Sscanf(ok.Exact.Rows[0][0], "%d", &n)
					if n%batchRows != 0 {
						t.Errorf("non-batch-atomic count %d (batch %d)", n, batchRows)
						failures.Add(1)
						return
					}
				}
			}
		}()
	}

	gen := sky.Generator(nil)
	for night := 0; night < 4; night++ {
		if err := db.Load(testTable, gen.NextBatch(batchRows)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if failures.Load() > 0 {
		t.Fatalf("%d client failures", failures.Load())
	}
}

// TestServerDeadlineFreesPool: a query killed by the server's
// MaxQueryTime deadline returns 504 and releases its admission slot —
// the pool is usable immediately after.
func TestServerDeadlineFreesPool(t *testing.T) {
	db, _ := newTestDB(t, 2)
	s, ts := newTestServer(t, db, Config{MaxInFlight: 1, MaxQueue: 4, MaxQueryTime: time.Nanosecond})

	status, _, bad := postQuery(t, ts.URL, "SELECT COUNT(*) AS n FROM PhotoObjAll", "")
	if status != http.StatusGatewayTimeout || bad.Error.Code != "timeout" {
		t.Fatalf("want 504 timeout, got %d %+v", status, bad)
	}
	waitFor(t, func() bool { return s.adm.Stats().InFlight == 0 })
}

// TestServerClientCancelFreesPool: a client that disconnects mid-query
// frees the (single) worker slot; the next client is served normally.
func TestServerClientCancelFreesPool(t *testing.T) {
	db, _ := newTestDB(t, 2)
	s, ts := newTestServer(t, db, Config{MaxInFlight: 1, MaxQueue: 4})

	ctx, cancel := context.WithCancel(context.Background())
	body, _ := json.Marshal(queryRequest{SQL: "SELECT COUNT(*) AS n FROM PhotoObjAll WHERE fGetNearbyObjEq(165, 20, 3)"})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/query", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()
	cancel()
	<-done

	// The slot must come back regardless of how far the query got.
	waitFor(t, func() bool { return s.adm.Stats().InFlight == 0 })
	status, ok, _ := postQuery(t, ts.URL, "SELECT COUNT(*) AS n FROM PhotoObjAll", "")
	if status != http.StatusOK || ok.Exact == nil {
		t.Fatalf("server wedged after client cancel: %d %+v", status, ok)
	}
}

// TestServerBoundMetHoldsUnderContention: with a generous budget, K
// concurrent clients must not push the WITHIN TIME BoundMet rate more
// than 5 points below the idle rate — the contention-aware pricing is
// what keeps the promise honest.
func TestServerBoundMetHoldsUnderContention(t *testing.T) {
	db, _ := newTestDB(t, 2)
	_, ts := newTestServer(t, db, Config{MaxInFlight: 8, MaxQueue: 128})
	const sql = "SELECT COUNT(*) AS n FROM PhotoObjAll WHERE fGetNearbyObjEq(165, 20, 3) WITHIN TIME 100ms"

	rate := func(met, total int64) float64 {
		if total == 0 {
			return 0
		}
		return float64(met) / float64(total)
	}

	// Idle: one client, sequential.
	var idleMet, idleTotal int64
	for i := 0; i < 20; i++ {
		status, ok, bad := postQuery(t, ts.URL, sql, "")
		if status != http.StatusOK || ok.Bounded == nil {
			t.Fatalf("idle bounded query failed: %d %+v", status, bad)
		}
		idleTotal++
		if ok.Bounded.BoundMet {
			idleMet++
		}
	}

	// Contended: K clients hammering concurrently.
	const k = 8
	var met, total atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < k; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				status, ok, bad := postQuery(t, ts.URL, sql, "")
				if status != http.StatusOK || ok.Bounded == nil {
					t.Errorf("contended bounded query failed: %d %+v", status, bad)
					return
				}
				total.Add(1)
				if ok.Bounded.BoundMet {
					met.Add(1)
				}
			}
		}()
	}
	wg.Wait()

	idleRate := rate(idleMet, idleTotal)
	loadRate := rate(met.Load(), total.Load())
	t.Logf("BoundMet: idle %.2f (%d/%d), contended %.2f (%d/%d)",
		idleRate, idleMet, idleTotal, loadRate, met.Load(), total.Load())
	if loadRate < idleRate-0.05 {
		t.Fatalf("contention broke the time promise: idle %.2f vs contended %.2f", idleRate, loadRate)
	}
}
