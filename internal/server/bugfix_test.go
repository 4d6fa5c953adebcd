package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sciborq"
	"sciborq/internal/column"
	"sciborq/internal/engine"
	"sciborq/internal/faultinject"
	"sciborq/internal/table"
)

// TestQueryRejectsTrailingGarbage: the request body must be exactly one
// JSON document. Concatenated documents or trailing garbage used to be
// silently ignored — an easy way for a proxy-mangled or misframed client
// to execute the wrong half of its request.
func TestQueryRejectsTrailingGarbage(t *testing.T) {
	db, _ := newTestDB(t, 1)
	_, ts := newTestServer(t, db, Config{MaxInFlight: 2})

	post := func(body string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		var bad errorResponse
		_ = json.Unmarshal(raw, &bad)
		return resp.StatusCode, bad.Error.Code
	}

	good := `{"sql": "SELECT COUNT(*) AS n FROM PhotoObjAll"}`
	if status, _ := post(good); status != http.StatusOK {
		t.Fatalf("clean body: status %d, want 200", status)
	}
	// Trailing whitespace is not garbage.
	if status, _ := post(good + "\n  \t\n"); status != http.StatusOK {
		t.Fatalf("trailing whitespace: status %d, want 200", status)
	}
	for _, body := range []string{
		good + good,                    // two concatenated documents
		good + `{"sql": "DROP EVERY"}`, // second doc never executed
		good + "garbage",               // raw trailing bytes
		good + `["extra"]`,             // trailing array
	} {
		status, code := post(body)
		if status != http.StatusBadRequest || code != "bad_request" {
			t.Fatalf("body %q: status %d code %q, want 400 bad_request", body, status, code)
		}
	}
}

// TestOutcomeClassification: client cancellations and server-side
// deadline hits land in their own per-tenant counters, not Errors — a
// disconnecting client must not inflate the fault rate operators alert
// on.
func TestOutcomeClassification(t *testing.T) {
	// One worker over tiny morsels: the injected morsel latency is
	// followed by another morsel pull, where the cooperative deadline
	// check actually runs. The default one-morsel-per-table layout would
	// finish the scan before ever re-checking the context.
	x := column.NewFloat64("x")
	for i := 0; i < 4000; i++ {
		x.Append(float64(i))
	}
	tb, err := table.New("T", table.Schema{{Name: "x", Type: column.Float64}})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.AppendColumns([]column.Column{x}); err != nil {
		t.Fatal(err)
	}
	db := sciborq.Open(sciborq.WithExecOptions(engine.ExecOptions{Parallelism: 1, MorselRows: 256}))
	if err := db.AttachTable(tb); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, db, Config{MaxInFlight: 2, MaxQueryTime: 50 * time.Millisecond})

	// Query 1 stalls 400ms inside execution (first morsel), blowing the
	// server's 50ms deadline; query 2 stalls 400ms at the query point
	// (before the deadline clock starts) and its client hangs up at 50ms.
	faultinject.Enable(faultinject.NewPlan(
		faultinject.Fault{Point: faultinject.PointMorsel, Hit: 1,
			Kind: faultinject.KindLatency, Latency: 400 * time.Millisecond},
		faultinject.Fault{Point: faultinject.PointQuery, Hit: 2,
			Kind: faultinject.KindLatency, Latency: 400 * time.Millisecond},
	))
	defer faultinject.Disable()

	// The predicate forces a real scan: a bare COUNT(*) short-circuits
	// without pulling morsels, and the morsel fault (and the cooperative
	// deadline check at the next morsel boundary) would never run.
	const sql = `{"sql": "SELECT COUNT(*) AS n FROM T WHERE x > -1", "tenant": "carol"}`
	resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(sql))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var bad errorResponse
	_ = json.Unmarshal(raw, &bad)
	if resp.StatusCode != http.StatusGatewayTimeout || bad.Error.Code != "timeout" {
		t.Fatalf("deadline query: status %d code %q, want 504 timeout", resp.StatusCode, bad.Error.Code)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/query",
		bytes.NewReader([]byte(sql)))
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Fatal("canceled request unexpectedly completed")
	}

	// The canceled handler may still be unwinding; poll for the counter.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := getStats(t, ts.URL)
		carol := st.Tenants["carol"]
		if carol.Canceled == 1 && carol.TimedOut == 1 {
			if carol.Errors != 0 {
				t.Fatalf("cancel/timeout counted as errors: %+v", carol)
			}
			if carol.Queries != 2 {
				t.Fatalf("want 2 queries counted, got %+v", carol)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("counters never settled: %+v", carol)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMaxRowsBoundary: a result of exactly MaxRows rows ships complete
// with Truncated false — the off-by-one the int32 cast guard sits next
// to — and one fewer budget row truncates honestly.
func TestMaxRowsBoundary(t *testing.T) {
	const rows = 50
	x := column.NewFloat64("x")
	for i := 0; i < rows; i++ {
		x.Append(float64(i))
	}
	tb, err := table.New("T", table.Schema{{Name: "x", Type: column.Float64}})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.AppendColumns([]column.Column{x}); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		maxRows   int
		want      int
		truncated bool
	}{
		{maxRows: rows, want: rows, truncated: false},
		{maxRows: rows - 1, want: rows - 1, truncated: true},
	} {
		db := sciborq.Open()
		if err := db.AttachTable(tb); err != nil {
			t.Fatal(err)
		}
		_, ts := newTestServer(t, db, Config{MaxInFlight: 2, MaxRows: tc.maxRows})
		status, ok, _ := postQuery(t, ts.URL, "SELECT x FROM T", "")
		if status != http.StatusOK || ok.Exact == nil {
			t.Fatalf("maxRows=%d: status %d", tc.maxRows, status)
		}
		if len(ok.Exact.Rows) != tc.want || ok.Exact.RowCount != rows ||
			ok.Exact.Truncated != tc.truncated {
			t.Fatalf("maxRows=%d: %d rows shipped of %d, truncated=%t; want %d/%d truncated=%t",
				tc.maxRows, len(ok.Exact.Rows), ok.Exact.RowCount, ok.Exact.Truncated,
				tc.want, rows, tc.truncated)
		}
	}
}

// TestNonFiniteEstimateRendersNull: a sampled MAX has no finite
// confidence interval (HalfWidth = +Inf). encoding/json refuses
// non-finite floats, and the refusal used to surface after the 200 was
// already sent — an empty body. Non-finite numbers must render as
// JSON null, and the body must decode.
func TestNonFiniteEstimateRendersNull(t *testing.T) {
	db, _ := newTestDB(t, 2)
	_, ts := newTestServer(t, db, Config{MaxInFlight: 2})

	body, _ := json.Marshal(queryRequest{SQL: "SELECT MAX(r) AS m FROM PhotoObjAll WITHIN TIME 1us"})
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %q", resp.StatusCode, raw)
	}
	var got struct {
		Bounded *struct {
			Estimates []struct {
				Value     *float64 `json:"value"`
				HalfWidth *float64 `json:"half_width"`
				RelError  *float64 `json:"rel_error"`
				Exact     bool     `json:"exact"`
			} `json:"estimates"`
		} `json:"bounded"`
	}
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("undecodable 200 body %q: %v", raw, err)
	}
	if got.Bounded == nil || len(got.Bounded.Estimates) != 1 {
		t.Fatalf("want one bounded estimate, got %s", raw)
	}
	e := got.Bounded.Estimates[0]
	if e.Exact {
		t.Fatalf("a 1us budget answered exactly; the sampled path is not exercised: %s", raw)
	}
	if e.Value == nil {
		t.Fatalf("sampled MAX has a finite value, rendered null: %s", raw)
	}
	if e.HalfWidth != nil || e.RelError != nil {
		t.Fatalf("sampled MAX half_width/rel_error = %v/%v, want null", e.HalfWidth, e.RelError)
	}
}

// TestWriteJSONEncodeFailureIs500: a body that cannot be encoded is
// reported as a 500 JSON error before any status is sent.
func TestWriteJSONEncodeFailureIs500(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"x": math.Inf(1)})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	var bad errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &bad); err != nil || bad.Error.Code != "encode_error" {
		t.Fatalf("body %q (%v), want an encode_error JSON error", rec.Body.String(), err)
	}
}
