package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"sciborq"
	"sciborq/internal/engine"
	"sciborq/internal/faultinject"
	"sciborq/internal/server"
	"sciborq/internal/skyserver"
)

// Chaos parameters mirror the HTTP chaos suite exactly: same seed, same
// schedule, same load shape — the wire listener must uphold the same
// resilience invariants over persistent binary sessions.
const (
	chaosSeed    = 2011
	chaosClients = 8
	chaosQueries = 40
)

// chaosFixture builds the primary DB (all caches on, tiny morsels so the
// morsel fault point fires thousands of times) and an uncached mirror
// over the SAME table object — the bit-identical recovery reference.
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

// chaosSQL is client c's i-th statement — same mix as the HTTP suite:
// exact WHERE aggregates with per-(client,query) literals plus a bounded
// query every fifth round. Deterministic, so a failure replays.
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

// TestChaosWire replays the seeded fault schedule of the HTTP chaos
// suite against the wire listener: 8 persistent binary sessions × 40
// queries under concurrent ingest, with errors, panics, and latency
// firing at all five fault points. Invariants: no session ever sees a
// transport-level failure (every fault surfaces as a typed error frame
// on a still-usable session), every admission slot comes back, recovered
// panics never exceed injected ones, and once the faults are disarmed
// the battered primary answers bit-identically to the uncached mirror.
func TestChaosWire(t *testing.T) {
	db, mirror, gen := chaosFixture(t)
	core, _, addr := startWire(t, db, server.Config{MaxInFlight: 4, MaxQueue: 8}, Config{})
	ts := httptest.NewServer(core.Handler())
	defer ts.Close()

	plan := faultinject.Schedule(chaosSeed, []faultinject.PointSpec{
		{Point: faultinject.PointMorsel, Faults: 30, MaxHit: 1000,
			Kinds: []faultinject.Kind{faultinject.KindError, faultinject.KindPanic}},
		{Point: faultinject.PointRecycler, Faults: 20, MaxHit: 150,
			Kinds: []faultinject.Kind{faultinject.KindError, faultinject.KindPanic}},
		{Point: faultinject.PointAdmission, Faults: 25, MaxHit: 250,
			Kinds: []faultinject.Kind{faultinject.KindError, faultinject.KindPanic, faultinject.KindLatency}},
		{Point: faultinject.PointQuery, Faults: 25, MaxHit: 250,
			Kinds: []faultinject.Kind{faultinject.KindError, faultinject.KindPanic, faultinject.KindLatency}},
		{Point: faultinject.PointLoad, Faults: 10, MaxHit: 15,
			Kinds: []faultinject.Kind{faultinject.KindError}},
	})
	faultinject.Enable(plan)
	defer faultinject.Disable()

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
		ok         int
		byCode     = map[string]int{}
		clientErrs []error
	)
	var wg sync.WaitGroup
	for c := 0; c < chaosClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// One persistent session per client: every injected fault must
			// surface as an in-band error frame, never a dropped connection.
			cl, err := Dial(addr, "")
			if err != nil {
				mu.Lock()
				clientErrs = append(clientErrs, fmt.Errorf("client %d dial: %w", c, err))
				mu.Unlock()
				return
			}
			defer cl.Close()
			for i := 0; i < chaosQueries; i++ {
				_, err := cl.Query(chaosSQL(c, i))
				mu.Lock()
				if err == nil {
					ok++
				} else {
					var se *ServerError
					if errors.As(err, &se) {
						byCode[se.Code]++
					} else {
						clientErrs = append(clientErrs,
							fmt.Errorf("client %d query %d: transport failure %w", c, i, err))
					}
				}
				mu.Unlock()
				if err != nil {
					var se *ServerError
					if !errors.As(err, &se) {
						return // session gone — already recorded as a failure
					}
				}
			}
		}(c)
	}
	wg.Wait()
	<-loadDone

	fired := plan.FiredTotal()
	errsFired, panicsFired, latsFired := plan.Fired()
	faultinject.Disable()
	t.Logf("chaos seed %d: fired %d faults (%d errors, %d panics, %d latencies); ok %d codes %v",
		chaosSeed, fired, errsFired, panicsFired, latsFired, ok, byCode)

	for _, err := range clientErrs {
		t.Error(err)
	}
	for _, err := range loadErrs {
		if !errors.Is(err, faultinject.ErrInjected) {
			t.Errorf("load failed with a non-injected error: %v", err)
		}
	}

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

	// Only documented error codes, and plenty of successes. "canceled"
	// is legitimate: a fault in one parallel morsel worker cancels its
	// siblings, and the cancellation can win the error race.
	for code := range byCode {
		switch code {
		case "exec_error", "query_panic", "internal_panic", "injected_fault",
			"overloaded", "timeout", "canceled":
		default:
			t.Errorf("unexpected error code %q under chaos", code)
		}
	}
	if ok == 0 {
		t.Error("no query succeeded under chaos — the faults should be sparse, not total")
	}

	// A slot is released after the last response frame is written, so
	// the final client may read its End frame a moment before the slot
	// comes back.
	eventually(t, "admission to drain after chaos", func() bool {
		adm := readCoreStats(t, core).Admission
		return adm.InFlight == 0 && adm.Queued == 0
	})
	adm := readCoreStats(t, core).Admission
	if adm.Admitted == 0 {
		t.Fatal("admission admitted nothing under chaos")
	}

	// Panic accounting from /stats: recovered never exceeds injected.
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Resilience struct {
			HandlerPanics int64  `json:"handler_panics"`
			QueryPanics   int64  `json:"query_panics"`
			LastPanic     string `json:"last_panic"`
		} `json:"resilience"`
		Wire *StatsSnapshot `json:"wire"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	recovered := st.Resilience.HandlerPanics + st.Resilience.QueryPanics
	if panicsFired > 0 && recovered == 0 {
		t.Errorf("%d panics fired but none recovered in /stats", panicsFired)
	}
	if recovered > int64(panicsFired) {
		t.Errorf("recovered %d panics, more than the %d injected — a real panic slipped in: %s",
			recovered, panicsFired, st.Resilience.LastPanic)
	}
	if st.Wire == nil || st.Wire.Queries == 0 {
		t.Errorf("/stats wire section missing after chaos: %+v", st.Wire)
	}

	// Bit-identical recovery: with faults disarmed, a fresh session on
	// the battered primary must answer exactly like a direct Exec on the
	// never-cached mirror over the same table.
	cl := dialT(t, addr, "")
	for i, sql := range []string{
		"SELECT COUNT(*) AS n FROM PhotoObjAll",
		"SELECT COUNT(*) AS n FROM PhotoObjAll WHERE ra > 165",
		"SELECT COUNT(*) AS n FROM PhotoObjAll WHERE ra BETWEEN 150 AND 170",
		"SELECT AVG(dec) AS a FROM PhotoObjAll WHERE ra < 180",
		"SELECT AVG(ra) AS a FROM PhotoObjAll WHERE dec > 0",
	} {
		got, err := cl.Query(sql)
		if err != nil || got.Exact == nil {
			t.Fatalf("post-chaos wire query %d (%s): %v", i, sql, err)
		}
		want, err := mirror.Exec(sql)
		if err != nil || want.Rows == nil {
			t.Fatalf("mirror query %d (%s): %v", i, sql, err)
		}
		n := want.Rows.Len()
		if got.Exact.NumRows() != n {
			t.Fatalf("post-chaos %q: %d rows on the wire, %d in the mirror",
				sql, got.Exact.NumRows(), n)
		}
		// RowStrings renders %g from the full float bits, so string
		// equality here is bit equality.
		for r := 0; r < n; r++ {
			gotRow := got.Exact.RowStrings(r)
			wantRow := want.Rows.Table.RowStrings(int32(r))
			for j := range wantRow {
				if gotRow[j] != wantRow[j] {
					t.Errorf("post-chaos divergence on %q row %d col %d: wire %q mirror %q",
						sql, r, j, gotRow[j], wantRow[j])
				}
			}
		}
	}
}
