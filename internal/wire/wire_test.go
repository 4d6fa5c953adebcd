package wire

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sciborq"
	"sciborq/internal/column"
	"sciborq/internal/engine"
	"sciborq/internal/server"
	"sciborq/internal/skyserver"
	"sciborq/internal/table"
)

const (
	testTable = "PhotoObjAll"
	batchRows = 8000
)

// newTestDB builds the same SkyServer fixture the HTTP server tests
// use: synthetic catalogue, tracked workload, two-layer impressions.
func newTestDB(t testing.TB, nights int, opts ...sciborq.Option) *sciborq.DB {
	t.Helper()
	base := []sciborq.Option{
		sciborq.WithCostModel(engine.CostModel{NsPerRow: 12, FixedNs: 2000}),
		sciborq.WithSeed(99),
	}
	db := sciborq.Open(append(base, opts...)...)
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
	return db
}

// startWire boots a server.Server core plus a wire listener over db and
// returns the core, the wire server, and its dial address.
func startWire(t testing.TB, db *sciborq.DB, coreCfg server.Config, wireCfg Config) (*server.Server, *Server, string) {
	t.Helper()
	coreCfg.DB = db
	core, err := server.New(coreCfg)
	if err != nil {
		t.Fatal(err)
	}
	wireCfg.DB = db
	wireCfg.Core = core
	ws := NewServer(wireCfg)
	core.SetWireStats(func() any { return ws.Stats() })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ws.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		ws.Shutdown(ctx)
	})
	return core, ws, ln.Addr().String()
}

// coreStats is the slice of the core's /stats the wire tests assert on:
// the shared admission queue and the per-tenant outcome counters.
type coreStats struct {
	Admission server.AdmissionStats   `json:"admission"`
	Tenants   map[string]tenantCounts `json:"tenants"`
}

type tenantCounts struct {
	Queries  int64 `json:"queries"`
	Errors   int64 `json:"errors"`
	Canceled int64 `json:"canceled"`
	TimedOut int64 `json:"timed_out"`
}

// readCoreStats reads the core's state the way an operator does: from
// its /stats endpoint.
func readCoreStats(t testing.TB, core *server.Server) coreStats {
	t.Helper()
	rec := httptest.NewRecorder()
	core.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var st coreStats
	if err := json.NewDecoder(rec.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func dialT(t testing.TB, addr, tenant string) *Client {
	t.Helper()
	c, err := Dial(addr, tenant)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestWireQueryExact(t *testing.T) {
	db := newTestDB(t, 2)
	_, ws, addr := startWire(t, db, server.Config{MaxInFlight: 4}, Config{})
	c := dialT(t, addr, "")

	resp, err := c.Query("SELECT COUNT(*) AS n FROM PhotoObjAll")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Exact == nil || resp.Exact.NumRows() != 1 {
		t.Fatalf("count query: %+v", resp)
	}
	if got := resp.Exact.RowStrings(0)[0]; got != "16000" {
		t.Fatalf("COUNT(*) = %s, want 16000", got)
	}
	if resp.ElapsedNs <= 0 {
		t.Fatal("End frame carries no elapsed time")
	}

	// Projection: bit-identical to the engine's own result.
	const sql = "SELECT ra, dec FROM PhotoObjAll WHERE ra > 165"
	resp, err = c.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	want, err := db.Exec(sql)
	if err != nil {
		t.Fatal(err)
	}
	n := want.Rows.Len()
	if resp.Exact.NumRows() != n || int(resp.Rows) != n {
		t.Fatalf("wire streamed %d rows, engine returned %d", resp.Exact.NumRows(), n)
	}
	ra, _ := want.Rows.Table.Col("ra")
	dec, _ := want.Rows.Table.Col("dec")
	raData := ra.(*column.Float64Col).Data
	decData := dec.(*column.Float64Col).Data
	for i := 0; i < n; i++ {
		if math.Float64bits(resp.Exact.Blocks[0].F64[i]) != math.Float64bits(raData[i]) ||
			math.Float64bits(resp.Exact.Blocks[1].F64[i]) != math.Float64bits(decData[i]) {
			t.Fatalf("row %d differs from the engine result", i)
		}
	}

	st := ws.Stats()
	if st.Queries < 2 || st.Batches == 0 || st.RowsOut == 0 || st.BytesOut == 0 {
		t.Fatalf("stats not accounting: %+v", st)
	}
}

func TestWireBounded(t *testing.T) {
	db := newTestDB(t, 2)
	_, _, addr := startWire(t, db, server.Config{MaxInFlight: 4}, Config{})
	c := dialT(t, addr, "")

	resp, err := c.Query(
		"SELECT COUNT(*) AS n FROM PhotoObjAll WHERE fGetNearbyObjEq(165, 20, 3) WITHIN ERROR 0.2 CONFIDENCE 0.95")
	if err != nil {
		t.Fatal(err)
	}
	b := resp.Bounded
	if b == nil {
		t.Fatalf("bounded query returned no Bounded frame: %+v", resp)
	}
	if len(b.Estimates) != 1 || b.Estimates[0].Name != "n" {
		t.Fatalf("estimates malformed: %+v", b)
	}
	if len(b.Trail) == 0 {
		t.Fatal("bounded answer must carry its escalation trail")
	}
	if !b.Exact && b.Estimates[0].Confidence <= 0 {
		t.Fatalf("approximate estimate without a confidence level: %+v", b.Estimates[0])
	}
}

func TestWireErrorsKeepSessionAlive(t *testing.T) {
	db := newTestDB(t, 1)
	_, _, addr := startWire(t, db, server.Config{MaxInFlight: 4}, Config{})
	c := dialT(t, addr, "")

	cases := []struct {
		sql, code string
	}{
		{"SELEKT nonsense", "parse_error"},
		{"", "bad_request"},
		{"SELECT COUNT(*) AS n FROM NoSuchTable", "exec_error"},
	}
	for _, tc := range cases {
		_, err := c.Query(tc.sql)
		var se *ServerError
		if !errors.As(err, &se) || se.Code != tc.code {
			t.Fatalf("query %q: got %v, want code %s", tc.sql, err, tc.code)
		}
	}
	// The session survives every in-band error.
	resp, err := c.Query("SELECT COUNT(*) AS n FROM PhotoObjAll")
	if err != nil || resp.Exact.RowStrings(0)[0] != "8000" {
		t.Fatalf("session dead after error frames: %v %+v", err, resp)
	}
}

func TestWirePrepared(t *testing.T) {
	db := newTestDB(t, 2)
	_, ws, addr := startWire(t, db, server.Config{MaxInFlight: 4}, Config{})
	c := dialT(t, addr, "")

	st, err := c.Prepare("SELECT COUNT(*) AS n FROM PhotoObjAll WHERE ra > 160")
	if err != nil {
		t.Fatal(err)
	}
	if st.NumParams != 1 {
		t.Fatalf("NumParams = %d, want 1", st.NumParams)
	}
	// Prepare refuses what Parse refuses, and LIMIT values are not
	// parameters.
	if _, err := c.Prepare("SELECT FROM PhotoObjAll"); !isCode(err, "parse_error") {
		t.Fatalf("malformed prepare: %v", err)
	}
	lim, err := c.Prepare("SELECT ra FROM PhotoObjAll WHERE ra > 160 LIMIT 5")
	if err != nil || lim.NumParams != 1 {
		t.Fatalf("LIMIT prepare: %+v, %v; want 1 param", lim, err)
	}
	if err := c.CloseStmt(lim); err != nil {
		t.Fatal(err)
	}

	// Every verbatim re-execution answers exactly like the first.
	first, err := c.Execute(st)
	if err != nil {
		t.Fatal(err)
	}
	want := first.Exact.RowStrings(0)[0]
	for i := 0; i < 20; i++ {
		resp, err := c.Execute(st)
		if err != nil {
			t.Fatal(err)
		}
		if got := resp.Exact.RowStrings(0)[0]; got != want {
			t.Fatalf("re-execution %d: %s, want %s", i, got, want)
		}
	}

	// Literal rebinding: same statement, new threshold, answers
	// bit-identical to a direct query with the substituted literal.
	bound, err := c.Execute(st, 170)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := db.Exec("SELECT COUNT(*) AS n FROM PhotoObjAll WHERE ra > 170")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := bound.Exact.RowStrings(0)[0], direct.Rows.Table.RowStrings(0)[0]; got != want {
		t.Fatalf("rebound execution: %s, want %s", got, want)
	}

	// The rebind must NOT poison the statement's cached spelling: a
	// verbatim re-execution still answers for the original literal.
	again, err := c.Execute(st)
	if err != nil {
		t.Fatal(err)
	}
	if got := again.Exact.RowStrings(0)[0]; got != want170Guard(want, bound.Exact.RowStrings(0)[0]) {
		t.Fatalf("verbatim after rebind: %s, want the ra>160 answer %s", got, want)
	}

	// Parameter arity is enforced.
	if _, err := c.Execute(st, 1, 2); !isCode(err, "bad_request") {
		t.Fatalf("arity mismatch: %v", err)
	}

	// Closed statements stop resolving.
	if err := c.CloseStmt(st); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Execute(st); !isCode(err, "bad_request") {
		t.Fatalf("execute after close: %v", err)
	}
	if open := ws.Stats().StmtsOpen; open != 0 {
		t.Fatalf("stmts_open = %d after close, want 0", open)
	}
}

// want170Guard returns the ra>160 answer while asserting the test is
// meaningful: if both literals produced the same count the poisoning
// check could not distinguish them.
func want170Guard(want160, got170 string) string {
	if want160 == got170 {
		panic("fixture degenerate: ra>160 and ra>170 have equal counts")
	}
	return want160
}

func isCode(err error, code string) bool {
	var se *ServerError
	return errors.As(err, &se) && se.Code == code
}

func TestWireOverloadAndStats(t *testing.T) {
	db := newTestDB(t, 1)
	core, _, addr := startWire(t, db, server.Config{MaxInFlight: -1}, Config{})
	c := dialT(t, addr, "")

	_, err := c.Query("SELECT COUNT(*) AS n FROM PhotoObjAll")
	var se *ServerError
	if !errors.As(err, &se) || se.Code != "overloaded" {
		t.Fatalf("got %v, want overloaded error frame", err)
	}
	if se.RetryAfter < 0 {
		t.Fatalf("negative retry-after: %v", se.RetryAfter)
	}
	adm := readCoreStats(t, core).Admission
	if adm.InFlight != 0 || adm.Queued != 0 {
		t.Fatalf("admission occupancy leaked: %+v", adm)
	}

	// The wire section shows up in the HTTP /stats body.
	ts := httptest.NewServer(core.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Wire *StatsSnapshot `json:"wire"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Wire == nil || stats.Wire.Queries == 0 || stats.Wire.ErrorsSent == 0 {
		t.Fatalf("/stats wire section missing or empty: %+v", stats.Wire)
	}
}

func TestWireProtocolViolations(t *testing.T) {
	db := newTestDB(t, 1)
	_, _, addr := startWire(t, db, server.Config{MaxInFlight: 2}, Config{})

	// A first frame that is not Hello gets a protocol_error frame and a
	// closed connection.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	raw := appendU32(nil, 2)
	raw = appendU8(raw, FrameQuery)
	raw = appendU8(raw, 'x')
	if _, err := conn.Write(raw); err != nil {
		t.Fatal(err)
	}
	typ, payload, _, err := ReadFrame(conn, MaxServerFrame, nil)
	if err != nil || typ != FrameError {
		t.Fatalf("want error frame, got 0x%02x err %v", typ, err)
	}
	ef, err := DecodeError(payload)
	if err != nil || ef.Code != "protocol_error" {
		t.Fatalf("want protocol_error, got %+v %v", ef, err)
	}
	if _, _, _, err := ReadFrame(conn, MaxServerFrame, nil); err == nil {
		t.Fatal("connection still open after protocol violation")
	}

	// A frame above the client cap is rejected without reading it.
	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], MaxClientFrame+100)
	hdr[4] = FrameHello
	if _, err := conn2.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if typ, _, _, err := ReadFrame(conn2, MaxServerFrame, nil); err != nil || typ != FrameError {
		t.Fatalf("oversized frame: want error frame, got 0x%02x err %v", typ, err)
	}
}

// TestWireVsHTTPEquivalence runs the same statements over both
// transports at parallelism 1 and 4 and demands bit-identical values —
// the wire result in full, the JSON result as its (possibly truncated)
// prefix — then repeats the comparison under and after a concurrent
// ingest.
func TestWireVsHTTPEquivalence(t *testing.T) {
	for _, par := range []int{1, 4} {
		par := par
		t.Run(fmt.Sprintf("parallelism%d", par), func(t *testing.T) {
			db := newTestDB(t, 2, sciborq.WithExecOptions(engine.ExecOptions{Parallelism: par}))
			core, _, addr := startWire(t, db, server.Config{MaxInFlight: 4}, Config{BatchRows: 3000})
			ts := httptest.NewServer(core.Handler())
			defer ts.Close()
			c := dialT(t, addr, "")

			queries := []string{
				"SELECT COUNT(*) AS n FROM PhotoObjAll",
				"SELECT AVG(dec) AS a FROM PhotoObjAll WHERE ra < 180",
				"SELECT ra, dec FROM PhotoObjAll WHERE ra > 165",
				"SELECT objID, type, clean FROM PhotoObjAll WHERE dec > 10",
			}
			for _, sql := range queries {
				compareTransports(t, c, ts.URL, sql)
			}

			// Under concurrent ingest both transports must keep
			// answering; exact cross-transport comparison resumes once
			// the table stops moving.
			sky, err := skyserver.New(skyserver.DefaultConfig(0))
			if err != nil {
				t.Fatal(err)
			}
			gen := sky.Generator(nil)
			var wg sync.WaitGroup
			wg.Add(1)
			loadErr := make(chan error, 1)
			go func() {
				defer wg.Done()
				for b := 0; b < 10; b++ {
					batch := gen.NextBatch(500)
					if err := db.Load(testTable, batch); err != nil {
						loadErr <- err
						return
					}
				}
			}()
			for i := 0; i < 10; i++ {
				sql := queries[i%len(queries)]
				if _, err := c.Query(sql); err != nil {
					t.Fatalf("wire query under load: %v", err)
				}
				if code, _ := httpQuery(t, ts.URL, sql); code != http.StatusOK {
					t.Fatalf("http query under load: status %d", code)
				}
			}
			wg.Wait()
			select {
			case err := <-loadErr:
				t.Fatal(err)
			default:
			}
			for _, sql := range queries {
				compareTransports(t, c, ts.URL, sql)
			}
		})
	}
}

// httpExact mirrors the server's exact-result JSON shape.
type httpExact struct {
	Columns   []string   `json:"columns"`
	Rows      [][]string `json:"rows"`
	RowCount  int        `json:"row_count"`
	Truncated bool       `json:"truncated"`
}

func httpQuery(t *testing.T, base, sql string) (int, *httpExact) {
	t.Helper()
	body, _ := json.Marshal(map[string]string{"sql": sql})
	resp, err := http.Post(base+"/query", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Exact *httpExact `json:"exact"`
	}
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, out.Exact
}

func compareTransports(t *testing.T, c *Client, httpBase, sql string) {
	t.Helper()
	wr, err := c.Query(sql)
	if err != nil {
		t.Fatalf("wire %q: %v", sql, err)
	}
	code, ex := httpQuery(t, httpBase, sql)
	if code != http.StatusOK || ex == nil {
		t.Fatalf("http %q: status %d", sql, code)
	}
	if wr.Exact == nil {
		t.Fatalf("wire %q: no exact result", sql)
	}
	if wr.Exact.NumRows() != ex.RowCount {
		t.Fatalf("%q: wire %d rows, http row_count %d", sql, wr.Exact.NumRows(), ex.RowCount)
	}
	if ex.Truncated && len(ex.Rows) >= ex.RowCount {
		t.Fatalf("%q: http claims truncation but shipped all rows", sql)
	}
	for i, name := range ex.Columns {
		if wr.Exact.Cols[i].Name != name {
			t.Fatalf("%q: column %d is %q on the wire, %q over http", sql, i, wr.Exact.Cols[i].Name, name)
		}
	}
	// The JSON rows are a prefix of the full wire stream; every value
	// string must match exactly (same %g/%d/%t rendering).
	for i, row := range ex.Rows {
		got := wr.Exact.RowStrings(i)
		for j := range row {
			if got[j] != row[j] {
				t.Fatalf("%q row %d col %d: wire %q != http %q", sql, i, j, got[j], row[j])
			}
		}
	}
}

// TestWireStreamMillionRows is the tentpole acceptance test: a 1M-row
// exact projection streams completely (no 10k truncation), across all
// four column types, bit-identical to the engine's materialised result.
func TestWireStreamMillionRows(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-row stream in -short mode")
	}
	const rows = 1_000_000
	x := column.NewFloat64("x")
	id := column.NewInt64("id")
	tag := column.NewString("tag")
	flag := column.NewBool("flag")
	words := []string{"STAR", "GALAXY", "QSO", "SKY", "DEBRIS", "GHOST", "TRAIL", "BLEND"}
	for i := 0; i < rows; i++ {
		x.Append(float64(i) * 0.4269)
		id.Append(int64(i) * 3)
		tag.Append(words[i%len(words)])
		flag.Append(i%5 == 0)
	}
	big, err := table.New("Big", table.Schema{
		{Name: "x", Type: column.Float64},
		{Name: "id", Type: column.Int64},
		{Name: "tag", Type: column.String},
		{Name: "flag", Type: column.Bool},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := big.AppendColumns([]column.Column{x, id, tag, flag}); err != nil {
		t.Fatal(err)
	}
	db := sciborq.Open()
	if err := db.AttachTable(big); err != nil {
		t.Fatal(err)
	}
	_, ws, addr := startWire(t, db, server.Config{MaxInFlight: 2}, Config{})
	c := dialT(t, addr, "")

	const sql = "SELECT x, id, tag, flag FROM Big"
	resp, err := c.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Exact == nil || resp.Exact.NumRows() != rows || resp.Rows != rows {
		t.Fatalf("streamed %d rows, want %d", resp.Exact.NumRows(), rows)
	}
	want, err := db.Exec(sql)
	if err != nil {
		t.Fatal(err)
	}
	if want.Rows.Len() != rows {
		t.Fatalf("engine result has %d rows", want.Rows.Len())
	}
	wx, _ := want.Rows.Table.Col("x")
	wid, _ := want.Rows.Table.Col("id")
	wtag, _ := want.Rows.Table.Col("tag")
	wflag, _ := want.Rows.Table.Col("flag")
	xs := wx.(*column.Float64Col).Data
	ids := wid.(*column.Int64Col).Data
	tags := wtag.(*column.StringCol)
	flags := wflag.(*column.BoolCol).Data
	got := resp.Exact.Blocks
	for i := 0; i < rows; i++ {
		if math.Float64bits(got[0].F64[i]) != math.Float64bits(xs[i]) ||
			got[1].I64[i] != ids[i] ||
			got[2].Str[i] != tags.Word(tags.Data[i]) ||
			got[3].Bool[i] != flags[i] {
			t.Fatalf("row %d differs from the engine result", i)
		}
	}
	if st := ws.Stats(); st.Batches < int64(rows/defaultBatchRows) {
		t.Fatalf("only %d batches for %d rows — streaming did not chunk", st.Batches, rows)
	}
}
