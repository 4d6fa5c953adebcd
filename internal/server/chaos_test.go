package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"sync"
	"testing"

	"sciborq"
	"sciborq/internal/engine"
	"sciborq/internal/faultinject"
	"sciborq/internal/skyserver"
)

// chaosSeed is the schedule seed; a chaos failure replays from this
// number alone (same seed, same specs, same plan).
const chaosSeed = 2011

// chaosClients / chaosQueries size the load: 8 concurrent clients, 40
// queries each, against a 4-slot admission queue.
const (
	chaosClients = 8
	chaosQueries = 40
)

// chaosFixture builds the primary DB (all caches on, small morsels so
// the morsel fault point fires thousands of times) and an uncached
// mirror DB attached to the SAME table object — the reference for the
// bit-identical post-chaos check. Sharing the table means concurrent
// loads during chaos are visible to both sides without replaying them.
func chaosFixture(t *testing.T) (*sciborq.DB, *sciborq.DB, *skyserver.Generator) {
	t.Helper()
	cfg := skyserver.DefaultConfig(0)
	sky, err := skyserver.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fact, err := sky.Catalog.Get(testTable)
	if err != nil {
		t.Fatal(err)
	}
	execOpts := engine.ExecOptions{Parallelism: 4, MorselRows: 256}
	db := sciborq.Open(
		sciborq.WithCostModel(engine.CostModel{NsPerRow: 12, FixedNs: 2000}),
		sciborq.WithSeed(99),
		sciborq.WithExecOptions(execOpts),
	)
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
	for night := 0; night < 2; night++ {
		if err := db.Load(testTable, gen.NextBatch(batchRows)); err != nil {
			t.Fatal(err)
		}
	}

	// Mirror: same table, same execution options (identical morsel merge
	// layout), every cache disabled — the pure recompute path.
	mirror := sciborq.Open(
		sciborq.WithCostModel(engine.CostModel{NsPerRow: 12, FixedNs: 2000}),
		sciborq.WithSeed(99),
		sciborq.WithExecOptions(execOpts),
		sciborq.WithRecyclerBudget(-1),
	)
	if err := mirror.AttachTable(fact); err != nil {
		t.Fatal(err)
	}
	return db, mirror, gen
}

// chaosPost is a goroutine-safe POST /query: it reports instead of
// failing the test (t.Fatal is illegal off the test goroutine).
func chaosPost(base, sql string) (int, string, error) {
	body, _ := json.Marshal(queryRequest{SQL: sql})
	resp, err := http.Post(base+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, "", err
	}
	if resp.StatusCode == http.StatusOK {
		return resp.StatusCode, "", nil
	}
	var bad errorResponse
	if err := json.Unmarshal(raw, &bad); err != nil {
		return resp.StatusCode, "", fmt.Errorf("undecodable error body %q: %w", raw, err)
	}
	return resp.StatusCode, bad.Error.Code, nil
}

// chaosSQL picks client c's i-th statement: mostly exact WHERE
// aggregates with per-(client,query) literals — distinct spellings keep
// the caches churning and the scans real — plus a bounded query every
// fifth round. Deterministic, so a failure replays.
func chaosSQL(c, i int) string {
	switch i % 5 {
	case 4:
		return fmt.Sprintf(
			"SELECT COUNT(*) AS n FROM PhotoObjAll WHERE fGetNearbyObjEq(%d, %d, 3) WITHIN ERROR 0.3 CONFIDENCE 0.9",
			150+(c*7+i)%40, 10+(c+i)%20)
	case 3:
		return fmt.Sprintf("SELECT AVG(dec) AS a FROM PhotoObjAll WHERE ra < %d", 155+(c*11+i)%35)
	default:
		return fmt.Sprintf("SELECT COUNT(*) AS n FROM PhotoObjAll WHERE ra > %d", 150+(c*13+i)%40)
	}
}

// TestChaos drives the acceptance criterion: a seeded fault schedule —
// well over 100 injections across all five fault points (errors, panics,
// latency) — against a booted server under 8 concurrent clients and a
// concurrent ingest, asserting the resilience invariants afterwards:
// the process is alive, every admission slot came back, the stats are
// coherent, and results are bit-identical to the uncached mirror once
// the faults stop.
func TestChaos(t *testing.T) {
	db, mirror, gen := chaosFixture(t)
	srv, ts := newTestServer(t, db, Config{MaxInFlight: 4, MaxQueue: 8})
	_, mirrorTS := newTestServer(t, mirror, Config{MaxInFlight: 4})

	plan := faultinject.Schedule(chaosSeed, []faultinject.PointSpec{
		// Scan workers: errors and panics inside the morsel loop. Small
		// morsels mean thousands of hits, so every fault lands.
		{Point: faultinject.PointMorsel, Faults: 30, MaxHit: 1000,
			Kinds: []faultinject.Kind{faultinject.KindError, faultinject.KindPanic}},
		// Cache lookups: injected errors degrade to the uncached path (a
		// 200, not an error); panics unwind into the recover middleware.
		{Point: faultinject.PointRecycler, Faults: 20, MaxHit: 150,
			Kinds: []faultinject.Kind{faultinject.KindError, faultinject.KindPanic}},
		// Admission: rejections, panics before any slot is owned, and
		// latency spikes that stretch the queue.
		{Point: faultinject.PointAdmission, Faults: 25, MaxHit: 250,
			Kinds: []faultinject.Kind{faultinject.KindError, faultinject.KindPanic, faultinject.KindLatency}},
		// Query handler: fires with the slot held — the leak-proof point.
		{Point: faultinject.PointQuery, Faults: 25, MaxHit: 250,
			Kinds: []faultinject.Kind{faultinject.KindError, faultinject.KindPanic, faultinject.KindLatency}},
		// Ingest: errors only — Load runs on this test's own goroutine,
		// which has no recover guard.
		{Point: faultinject.PointLoad, Faults: 10, MaxHit: 15,
			Kinds: []faultinject.Kind{faultinject.KindError}},
	})
	faultinject.Enable(plan)
	defer faultinject.Disable()

	// Concurrent ingest: 15 small batches while the clients hammer. The
	// shared table makes every appended row visible to the mirror too.
	var loadErrs []error
	loadDone := make(chan struct{})
	go func() {
		defer close(loadDone)
		for b := 0; b < 15; b++ {
			if err := db.Load(testTable, gen.NextBatch(500)); err != nil {
				loadErrs = append(loadErrs, err)
			}
		}
	}()

	var (
		mu         sync.Mutex
		byStatus   = map[int]int{}
		byCode     = map[string]int{}
		clientErrs []error
	)
	var wg sync.WaitGroup
	for c := 0; c < chaosClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < chaosQueries; i++ {
				status, code, err := chaosPost(ts.URL, chaosSQL(c, i))
				mu.Lock()
				if err != nil {
					clientErrs = append(clientErrs, fmt.Errorf("client %d query %d: %w", c, i, err))
				}
				byStatus[status]++
				if code != "" {
					byCode[code]++
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	<-loadDone

	fired := plan.FiredTotal()
	errsFired, panicsFired, latsFired := plan.Fired()
	faultinject.Disable()
	t.Logf("chaos seed %d: fired %d faults (%d errors, %d panics, %d latencies); statuses %v codes %v",
		chaosSeed, fired, errsFired, panicsFired, latsFired, byStatus, byCode)

	// Transport-level failures mean a dropped connection — the process
	// (or its listener) did not survive a fault.
	for _, err := range clientErrs {
		t.Error(err)
	}
	for _, err := range loadErrs {
		if !errors.Is(err, faultinject.ErrInjected) {
			t.Errorf("load failed with a non-injected error: %v", err)
		}
	}

	// The schedule must have actually exercised the system.
	if fired < 100 {
		t.Fatalf("only %d faults fired, want >= 100 (replay with seed %d)", fired, chaosSeed)
	}
	for _, pt := range []string{
		faultinject.PointMorsel, faultinject.PointRecycler,
		faultinject.PointAdmission, faultinject.PointQuery, faultinject.PointLoad,
	} {
		if plan.Hits(pt) == 0 {
			t.Errorf("fault point %s was never reached", pt)
		}
	}

	// Only documented outcomes, no invented statuses.
	for status := range byStatus {
		switch status {
		case http.StatusOK, http.StatusUnprocessableEntity, http.StatusTooManyRequests,
			http.StatusInternalServerError, http.StatusServiceUnavailable:
		default:
			t.Errorf("unexpected status %d under chaos", status)
		}
	}
	if byStatus[http.StatusOK] == 0 {
		t.Error("no query succeeded under chaos — the faults should be sparse, not total")
	}

	// Every admission slot came back, and the stats are coherent with
	// the plan's own counters.
	adm := srv.adm.Stats()
	if adm.InFlight != 0 || adm.Queued != 0 {
		t.Fatalf("admission not drained after chaos: %+v", adm)
	}
	if adm.Admitted == 0 {
		t.Fatal("admission admitted nothing under chaos")
	}
	st := getStats(t, ts.URL)
	recovered := st.Resilience.HandlerPanics + st.Resilience.QueryPanics
	if panicsFired > 0 && recovered == 0 {
		t.Errorf("%d panics fired but none recovered in /stats", panicsFired)
	}
	if recovered > panicsFired {
		t.Errorf("recovered %d panics, more than the %d injected — a real panic slipped in: %s",
			recovered, panicsFired, st.Resilience.LastPanic)
	}
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after chaos: %v %v", resp, err)
	} else {
		resp.Body.Close()
	}

	// Bit-identical recovery: with faults disarmed, the battered primary
	// (caches shed, repopulated, and fault-degraded throughout) must
	// answer exactly like the never-cached mirror over the same table.
	for i, sql := range []string{
		"SELECT COUNT(*) AS n FROM PhotoObjAll",
		"SELECT COUNT(*) AS n FROM PhotoObjAll WHERE ra > 165",
		"SELECT COUNT(*) AS n FROM PhotoObjAll WHERE ra BETWEEN 150 AND 170",
		"SELECT AVG(dec) AS a FROM PhotoObjAll WHERE ra < 180",
		"SELECT AVG(ra) AS a FROM PhotoObjAll WHERE dec > 0",
	} {
		status, got, _ := postQuery(t, ts.URL, sql, "")
		if status != http.StatusOK || got.Exact == nil {
			t.Fatalf("post-chaos query %d (%s): status %d", i, sql, status)
		}
		mStatus, want, _ := postQuery(t, mirrorTS.URL, sql, "")
		if mStatus != http.StatusOK || want.Exact == nil {
			t.Fatalf("mirror query %d (%s): status %d", i, sql, mStatus)
		}
		if !reflect.DeepEqual(got.Exact, want.Exact) {
			t.Errorf("post-chaos divergence on %q:\n  primary %+v\n  mirror  %+v", sql, got.Exact, want.Exact)
		}
	}
}
