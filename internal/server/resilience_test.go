package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"sciborq"
	"sciborq/internal/engine"
	"sciborq/internal/faultinject"
	"sciborq/internal/governor"
)

// postRaw is postQuery without the decoding conveniences: the tests that
// assert on headers (Retry-After) need the *http.Response itself.
func postRaw(t *testing.T, base, sql string) (*http.Response, errorResponse) {
	t.Helper()
	body, _ := json.Marshal(queryRequest{SQL: sql})
	resp, err := http.Post(base+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var bad errorResponse
	if resp.StatusCode != http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&bad); err != nil {
			t.Fatalf("bad error body: %v", err)
		}
	}
	return resp, bad
}

// getStats fetches and decodes GET /stats.
func getStats(t *testing.T, base string) statsResponse {
	t.Helper()
	resp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/stats returned %d", resp.StatusCode)
	}
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestPanicReleasesAdmissionSlot is the slot-leak regression: a panic
// injected in the query handler — with the admission slot held and its
// release deferred — must unwind into the recover middleware as a 500
// for that request alone, and the slot must come back. Before the
// deferred release, this exact path leaked a slot per panic until the
// server wedged at MaxInFlight.
func TestPanicReleasesAdmissionSlot(t *testing.T) {
	db, _ := newTestDB(t, 1)
	srv, ts := newTestServer(t, db, Config{MaxInFlight: 2, MaxQueue: 2})

	faultinject.Enable(faultinject.NewPlan(
		faultinject.Fault{Point: faultinject.PointQuery, Hit: 1, Kind: faultinject.KindPanic},
	))
	defer faultinject.Disable()

	status, _, bad := postQuery(t, ts.URL, "SELECT COUNT(*) AS n FROM PhotoObjAll", "")
	if status != http.StatusInternalServerError || bad.Error.Code != "internal_panic" {
		t.Fatalf("panicking query: status %d code %q, want 500 internal_panic", status, bad.Error.Code)
	}
	if got := srv.adm.Stats().InFlight; got != 0 {
		t.Fatalf("in-flight = %d after handler panic, want 0 (slot leaked)", got)
	}

	// The daemon keeps serving: the next query (no fault at hit 2)
	// succeeds on the same admission queue.
	status, ok, _ := postQuery(t, ts.URL, "SELECT COUNT(*) AS n FROM PhotoObjAll", "")
	if status != http.StatusOK || ok.Exact == nil {
		t.Fatalf("query after panic: status %d, want 200", status)
	}
	if got := srv.adm.Stats().InFlight; got != 0 {
		t.Fatalf("in-flight = %d after recovery query, want 0", got)
	}

	st := getStats(t, ts.URL)
	if st.Resilience.HandlerPanics < 1 {
		t.Fatalf("handler_panics = %d, want >= 1", st.Resilience.HandlerPanics)
	}
	if st.Resilience.LastPanic == "" {
		t.Fatal("last_panic empty after a recovered handler panic")
	}
	if !st.Resilience.FaultsArmed {
		t.Fatal("faults_armed should report the active plan")
	}
}

// TestMorselPanicYields500 is the acceptance criterion for engine-side
// isolation: a panic in a morsel worker during POST /query costs that
// query a 500 (query_panic) — not the process — and /stats counts it.
func TestMorselPanicYields500(t *testing.T) {
	db, _ := newTestDB(t, 1)
	_, ts := newTestServer(t, db, Config{MaxInFlight: 2})

	faultinject.Enable(faultinject.NewPlan(
		faultinject.Fault{Point: faultinject.PointMorsel, Hit: 1, Kind: faultinject.KindPanic},
	))
	const sql = "SELECT COUNT(*) AS n FROM PhotoObjAll WHERE ra > 0"
	status, _, bad := postQuery(t, ts.URL, sql, "")
	faultinject.Disable()
	if status != http.StatusInternalServerError || bad.Error.Code != "query_panic" {
		t.Fatalf("morsel panic: status %d code %q, want 500 query_panic", status, bad.Error.Code)
	}

	// Only that query died; the same statement answers afterwards.
	status, ok, _ := postQuery(t, ts.URL, sql, "")
	if status != http.StatusOK || ok.Exact == nil {
		t.Fatalf("query after morsel panic: status %d, want 200", status)
	}
	if ok.Exact.Rows[0][0] != "8000" {
		t.Fatalf("post-panic COUNT = %s, want 8000", ok.Exact.Rows[0][0])
	}

	st := getStats(t, ts.URL)
	if st.Resilience.QueryPanics < 1 {
		t.Fatalf("query_panics = %d, want >= 1", st.Resilience.QueryPanics)
	}
}

// TestRetryAfterHeaders: every 429 and load-shedding 503 carries a
// Retry-After header with a positive whole-second value.
func TestRetryAfterHeaders(t *testing.T) {
	db, _ := newTestDB(t, 1)
	// MaxInFlight < 0 means zero capacity (New only defaults when the
	// field is exactly 0): every Acquire rejects with ErrOverloaded.
	srv, ts := newTestServer(t, db, Config{MaxInFlight: -1})

	resp, bad := postRaw(t, ts.URL, "SELECT COUNT(*) AS n FROM PhotoObjAll")
	if resp.StatusCode != http.StatusTooManyRequests || bad.Error.Code != "overloaded" {
		t.Fatalf("zero-capacity query: status %d code %q, want 429 overloaded", resp.StatusCode, bad.Error.Code)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("429 Retry-After = %q, want a positive whole-second value", ra)
	}

	srv.Drain()
	resp, bad = postRaw(t, ts.URL, "SELECT COUNT(*) AS n FROM PhotoObjAll")
	if resp.StatusCode != http.StatusServiceUnavailable || bad.Error.Code != "draining" {
		t.Fatalf("draining query: status %d code %q, want 503 draining", resp.StatusCode, bad.Error.Code)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("503 Retry-After = %q, want a positive whole-second value", ra)
	}
	if st := getStats(t, ts.URL); !st.Admission.Draining {
		t.Fatal("/stats should report draining")
	}
}

// TestGovernorPressure503Ordering pins the quality-before-availability
// ordering: under Elevated pressure queries still answer (bounded picks
// degrade silently), and only Critical refuses work — 503 with
// Retry-After — until the pressure releases.
func TestGovernorPressure503Ordering(t *testing.T) {
	db := sciborq.Open(
		sciborq.WithCostModel(engine.CostModel{NsPerRow: 12, FixedNs: 2000}),
		sciborq.WithSeed(7),
		sciborq.WithMemoryBudget(1<<20),
	)
	if _, err := db.CreateTable("T", sciborq.Schema{
		{Name: "x", Type: sciborq.Float64},
	}); err != nil {
		t.Fatal(err)
	}
	rows := make([]sciborq.Row, 2000)
	for i := range rows {
		rows[i] = sciborq.Row{float64(i)}
	}
	if err := db.Load("T", rows); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, db, Config{MaxInFlight: 2})
	gov := db.Governor()
	if gov == nil {
		t.Fatal("WithMemoryBudget did not install a governor")
	}

	const sql = "SELECT COUNT(*) AS n FROM T WHERE x < 1000"
	if status, _, _ := postQuery(t, ts.URL, sql, ""); status != http.StatusOK {
		t.Fatalf("baseline query: status %d", status)
	}

	// Elevated: degrade quality, keep availability.
	gov.InjectPressure(governor.Elevated)
	if status, _, bad := postQuery(t, ts.URL, sql, ""); status != http.StatusOK {
		t.Fatalf("elevated-pressure query: status %d code %q, want 200 (degrade before shed)", status, bad.Error.Code)
	}

	// Critical: shed load, honestly.
	gov.InjectPressure(governor.Critical)
	resp, bad := postRaw(t, ts.URL, sql)
	if resp.StatusCode != http.StatusServiceUnavailable || bad.Error.Code != "memory_pressure" {
		t.Fatalf("critical-pressure query: status %d code %q, want 503 memory_pressure", resp.StatusCode, bad.Error.Code)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("memory-pressure 503 Retry-After = %q, want a positive value", ra)
	}

	gov.ReleasePressure()
	if status, _, _ := postQuery(t, ts.URL, sql, ""); status != http.StatusOK {
		t.Fatalf("post-release query: status %d, want 200", status)
	}

	st := getStats(t, ts.URL)
	if st.Governor == nil {
		t.Fatal("/stats missing governor section on a budgeted DB")
	}
	if st.Governor.Budget != 1<<20 {
		t.Fatalf("governor budget = %d, want %d", st.Governor.Budget, 1<<20)
	}
}
