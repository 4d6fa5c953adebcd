package wire

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"sciborq"
	"sciborq/internal/column"
	"sciborq/internal/engine"
	"sciborq/internal/faultinject"
	"sciborq/internal/governor"
	"sciborq/internal/server"
	"sciborq/internal/table"
)

// scanSQL forces a real scan: a bare COUNT(*) short-circuits without
// pulling morsels, so neither a morsel fault nor the cooperative
// context check at the next morsel boundary would ever run.
const scanSQL = "SELECT COUNT(*) AS n FROM T WHERE x > -1"

// parityDB is one float column scanned by a single worker over
// 256-row morsels, under a memory governor: an injected morsel latency
// is always followed by another morsel pull, which is where a deadline
// or a cancellation is noticed.
func parityDB(t *testing.T, morsels int) *sciborq.DB {
	t.Helper()
	x := column.NewFloat64("x")
	for i := 0; i < morsels*256; i++ {
		x.Append(float64(i))
	}
	tb, err := table.New("T", table.Schema{{Name: "x", Type: column.Float64}})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.AppendColumns([]column.Column{x}); err != nil {
		t.Fatal(err)
	}
	db := sciborq.Open(
		sciborq.WithExecOptions(engine.ExecOptions{Parallelism: 1, MorselRows: 256}),
		sciborq.WithMemoryBudget(64<<20))
	if err := db.AttachTable(tb); err != nil {
		t.Fatal(err)
	}
	return db
}

// eventually polls cond for up to five seconds and fails the test (from
// whichever goroutine) if it never holds.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Errorf("timed out waiting for %s", what)
			return
		}
	}
}

// outcome is everything a transport may differ in for one request.
type outcome struct {
	Code   string // "" for a success, and for a reply that never reached the client
	Retry  bool   // a retry-after hint came with the refusal
	Tenant tenantCounts
}

// TestTransportParity induces every outcome of server.Serve once over
// HTTP and once over the wire against the same core, and requires the
// two transports to agree on the error code, on whether a retry hint
// is attached, and on how the tenant's /stats counters move — and the
// admission queue to be empty afterwards.
func TestTransportParity(t *testing.T) {
	const tenant = "carol"
	stall := func(point string) []faultinject.Fault {
		return []faultinject.Fault{{Point: point, Hit: 1, Kind: faultinject.KindLatency, Latency: 150 * time.Millisecond}}
	}
	cases := []struct {
		name    string
		sql     string
		cfg     server.Config
		maxTime time.Duration
		arm     func(t *testing.T, core *server.Server, db *sciborq.DB)
		faults  []faultinject.Fault
		hangUp  bool // the client goes away once the first fault has fired
		want    outcome
	}{
		{name: "bad_request", sql: " \t\n", want: outcome{Code: "bad_request"}},
		{name: "parse_error", sql: "SELEC n FROM T", want: outcome{Code: "parse_error"}},
		{name: "memory_pressure", sql: scanSQL,
			arm: func(t *testing.T, _ *server.Server, db *sciborq.DB) {
				db.Governor().InjectPressure(governor.Critical)
				t.Cleanup(db.Governor().ReleasePressure)
			},
			want: outcome{Code: "memory_pressure", Retry: true}},
		{name: "overloaded", sql: scanSQL, cfg: server.Config{MaxInFlight: -1},
			want: outcome{Code: "overloaded", Retry: true}},
		{name: "draining", sql: scanSQL,
			arm:  func(_ *testing.T, core *server.Server, _ *sciborq.DB) { core.Drain() },
			want: outcome{Code: "draining", Retry: true}},
		{name: "injected_fault", sql: scanSQL,
			faults: []faultinject.Fault{{Point: faultinject.PointQuery, Hit: 1, Kind: faultinject.KindError}},
			want:   outcome{Code: "injected_fault"}},
		{name: "query_panic", sql: scanSQL,
			faults: []faultinject.Fault{{Point: faultinject.PointMorsel, Hit: 1, Kind: faultinject.KindPanic}},
			want:   outcome{Code: "query_panic", Tenant: tenantCounts{Queries: 1, Errors: 1}}},
		{name: "timeout", sql: scanSQL, maxTime: 30 * time.Millisecond,
			faults: stall(faultinject.PointMorsel),
			want:   outcome{Code: "timeout", Tenant: tenantCounts{Queries: 1, TimedOut: 1}}},
		{name: "canceled", sql: scanSQL, hangUp: true,
			faults: stall(faultinject.PointMorsel),
			want:   outcome{Tenant: tenantCounts{Queries: 1, Canceled: 1}}},
		{name: "exec_error", sql: "SELECT COUNT(*) AS n FROM Missing",
			want: outcome{Code: "exec_error", Tenant: tenantCounts{Queries: 1, Errors: 1}}},
		{name: "success", sql: scanSQL, want: outcome{Tenant: tenantCounts{Queries: 1}}},
	}

	db := parityDB(t, 16)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.MaxQueryTime = tc.maxTime
			core, ws, addr := startWire(t, db, cfg, Config{MaxQueryTime: tc.maxTime})
			ts := httptest.NewServer(core.Handler())
			defer ts.Close()
			if tc.arm != nil {
				tc.arm(t, core, db)
			}
			fired := func(plan *faultinject.Plan) func() bool {
				return func() bool { return plan.Hits(tc.faults[0].Point) >= 1 }
			}

			overHTTP := func(plan *faultinject.Plan) (string, bool) {
				ctx, hangUp := context.WithCancel(context.Background())
				defer hangUp()
				body, _ := json.Marshal(map[string]string{"sql": tc.sql, "tenant": tenant})
				req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/query", bytes.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				if tc.hangUp {
					go func() {
						eventually(t, "the fault to fire", fired(plan))
						hangUp()
					}()
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					if !tc.hangUp {
						t.Fatal(err)
					}
					return "", false
				}
				defer resp.Body.Close()
				var reply struct {
					Error struct {
						Code string `json:"code"`
					} `json:"error"`
				}
				if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
					t.Fatal(err)
				}
				if (resp.StatusCode == http.StatusOK) != (reply.Error.Code == "") {
					t.Fatalf("status %d with error code %q", resp.StatusCode, reply.Error.Code)
				}
				return reply.Error.Code, resp.Header.Get("Retry-After") != ""
			}

			overWire := func(plan *faultinject.Plan) (string, bool) {
				c := dialT(t, addr, tenant)
				shut := make(chan struct{})
				if tc.hangUp {
					// A wire client blocks on its reply; what takes a
					// running query's caller away is a forced shutdown.
					go func() {
						defer close(shut)
						eventually(t, "the fault to fire", fired(plan))
						expired, cancel := context.WithCancel(context.Background())
						cancel()
						ws.Shutdown(expired)
					}()
				} else {
					close(shut)
				}
				_, err := c.Query(tc.sql)
				<-shut
				var se *ServerError
				switch {
				case err == nil:
					return "", false
				case errors.As(err, &se):
					return se.Code, se.RetryAfter > 0
				case tc.hangUp:
					return "", false
				}
				t.Fatal(err)
				return "", false
			}

			var got [2]outcome
			for i, send := range []func(*faultinject.Plan) (string, bool){overHTTP, overWire} {
				before := readCoreStats(t, core).Tenants[tenant]
				plan := faultinject.NewPlan(tc.faults...)
				faultinject.Enable(plan)
				code, retry := send(plan)
				// A hung-up request is still unwinding; its slot comes
				// back after its outcome is counted.
				eventually(t, "the admission queue to empty", func() bool {
					adm := readCoreStats(t, core).Admission
					return adm.InFlight == 0 && adm.Queued == 0
				})
				faultinject.Disable()
				after := readCoreStats(t, core).Tenants[tenant]
				got[i] = outcome{Code: code, Retry: retry, Tenant: tenantCounts{
					Queries:  after.Queries - before.Queries,
					Errors:   after.Errors - before.Errors,
					Canceled: after.Canceled - before.Canceled,
					TimedOut: after.TimedOut - before.TimedOut,
				}}
			}
			if got[0] != got[1] {
				t.Errorf("transports disagree:\nhttp %+v\nwire %+v", got[0], got[1])
			}
			if got[0] != tc.want {
				t.Errorf("outcome %+v, want %+v", got[0], tc.want)
			}
		})
	}
}

// TestWireForcedShutdownCancelsScan: when Shutdown's own deadline has
// passed, closing the sockets must also stop the scans behind them — a
// running query is cancelled at its next morsel boundary and its
// admission slot comes back, instead of Shutdown waiting out the scan
// (up to MaxQueryTime) with the slot pinned.
func TestWireForcedShutdownCancelsScan(t *testing.T) {
	const (
		morsels   = 40
		perMorsel = 50 * time.Millisecond // the whole scan: two seconds
	)
	db := parityDB(t, morsels)
	core, ws, addr := startWire(t, db, server.Config{MaxInFlight: 2}, Config{})
	faults := make([]faultinject.Fault, morsels)
	for i := range faults {
		faults[i] = faultinject.Fault{Point: faultinject.PointMorsel, Hit: int64(i + 1),
			Kind: faultinject.KindLatency, Latency: perMorsel}
	}
	plan := faultinject.NewPlan(faults...)
	faultinject.Enable(plan)
	defer faultinject.Disable()

	c := dialT(t, addr, "dave")
	reply := make(chan error, 1)
	go func() {
		_, err := c.Query(scanSQL)
		reply <- err
	}()
	eventually(t, "the scan to start", func() bool { return plan.Hits(faultinject.PointMorsel) >= 1 })

	expired, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if err := ws.Shutdown(expired); !errors.Is(err, context.Canceled) {
		t.Fatalf("Shutdown = %v, want the expired context's error", err)
	}
	if took := time.Since(start); took > morsels*perMorsel/4 {
		t.Fatalf("forced Shutdown took %v: it waited for the scan instead of cancelling it", took)
	}
	st := readCoreStats(t, core)
	if st.Admission.InFlight != 0 {
		t.Fatalf("admission after forced Shutdown: %+v, want 0 in flight", st.Admission)
	}
	if dave := st.Tenants["dave"]; dave.Canceled != 1 || dave.Queries != 1 {
		t.Fatalf("tenant counters after forced Shutdown: %+v, want the one query canceled", dave)
	}
	if err := <-reply; err == nil {
		t.Fatal("the client got a result from a connection Shutdown closed")
	}
}
