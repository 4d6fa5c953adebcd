// Package server exposes a sciborq.DB over HTTP/JSON as a long-running
// multi-tenant query service.
//
// Every query, whichever transport carried it, takes one path: Serve.
// The HTTP handler here and the binary listener in internal/wire only
// decode a request, call Serve, and render what it hands back. Three
// layers sit on that path between the socket and the engine:
//
//   - An Admission queue caps concurrent query execution (FIFO, bounded
//     wait queue, immediate 429 beyond that) and measures what it does:
//     its live in-flight count and queue-wait EWMA feed the bounded
//     executor's WITHIN TIME pricing via sciborq.DB.SetLoadProbe, so a
//     time promise made under load accounts for the load.
//   - Per-request contexts propagate cancellation: a client disconnect
//     or the server's MaxQueryTime deadline aborts the running morsel
//     scan cooperatively and frees the worker pool within one morsel
//     boundary.
//   - The request's tenant name selects a recycler partition, so one
//     tenant's scan cache cannot evict another's warm working set.
//
// Endpoints: POST /query executes one SQL statement, GET /stats reports
// admission/recycler/per-tenant counters, GET /healthz is a liveness
// probe. The wire protocol is documented in docs/SERVER.md.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sciborq"
	"sciborq/internal/faultinject"
	"sciborq/internal/recycler"
)

// DefaultMaxRows caps how many result rows /query returns for exact
// projections; the response reports the untruncated count.
const DefaultMaxRows = 10_000

// Config configures a Server.
type Config struct {
	// DB is the shared database every request executes against.
	DB *sciborq.DB
	// MaxInFlight caps concurrently executing queries (default 2×
	// available parallelism via sciborq's ExecOptions is NOT assumed;
	// 0 means a default of 8).
	MaxInFlight int
	// MaxQueue caps queries waiting for a slot (default 4×MaxInFlight).
	MaxQueue int
	// MaxQueryTime bounds one query's execution wall-clock (admission
	// wait excluded); 0 disables the server-side deadline.
	MaxQueryTime time.Duration
	// MaxRows caps rows returned by exact queries (default
	// DefaultMaxRows).
	MaxRows int
}

// govCheckEvery rate-limits the serving loop's governor pressure
// checks: every Nth request runs a full usage recomputation (and any
// shedding it implies); every request reads the cached level for free.
const govCheckEvery = 16

// Server is the HTTP face of one sciborq.DB.
type Server struct {
	db      *sciborq.DB
	adm     *Admission
	maxTime time.Duration
	maxRows int
	started time.Time
	mu      sync.Mutex
	tenants map[string]*tenantCounters

	// Resilience counters: handlerPanics counts panics recovered by the
	// HTTP middleware (anything that unwound out of a handler);
	// queryPanics counts engine-side panics already converted to
	// per-query errors by the morsel guard. reqCount gates the periodic
	// governor check.
	handlerPanics atomic.Int64
	queryPanics   atomic.Int64
	reqCount      atomic.Int64
	panicMu       sync.Mutex
	lastPanic     string // value + first stack frames of the latest panic

	// wireStats, when set, snapshots the binary wire listener's counters
	// for the /stats "wire" section. The hook keeps the dependency
	// one-way: package wire imports server, never the reverse.
	wireStats atomic.Pointer[func() any]
}

// notePanic records the latest panic for /stats — the observable signal
// operators correlate a 500 spike against.
func (s *Server) notePanic(p any, stack []byte) {
	const maxStack = 2048
	if len(stack) > maxStack {
		stack = stack[:maxStack]
	}
	s.panicMu.Lock()
	s.lastPanic = fmt.Sprintf("%v\n%s", p, stack)
	s.panicMu.Unlock()
}

// RecordHandlerPanic counts a panic recovered by a transport front end
// (the HTTP middleware or the wire listener's per-request guard) and
// records it for /stats.
func (s *Server) RecordHandlerPanic(p any, stack []byte) {
	s.handlerPanics.Add(1)
	s.notePanic(p, stack)
}

// tenantCounters accumulates per-tenant latency and outcome counts.
// Errors counts real execution failures only; client cancellations and
// server-side deadline hits get their own counters, so a disconnecting
// client can never inflate the server-fault rate operators alert on.
type tenantCounters struct {
	Queries  int64 `json:"queries"`
	Errors   int64 `json:"errors"`
	Canceled int64 `json:"canceled"`
	TimedOut int64 `json:"timed_out"`
	Bounded  int64 `json:"bounded"`
	BoundMet int64 `json:"bound_met"`
	TotalNs  int64 `json:"total_ns"`
	MaxNs    int64 `json:"max_ns"`
}

// New builds a Server over db and registers the admission queue as the
// database's load probe, so WITHIN TIME layer picks price in the
// server's live concurrency and queue wait.
func New(cfg Config) (*Server, error) {
	if cfg.DB == nil {
		return nil, errors.New("server: Config.DB is required")
	}
	if cfg.MaxInFlight == 0 {
		cfg.MaxInFlight = 8
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = 4 * cfg.MaxInFlight
	}
	if cfg.MaxRows <= 0 {
		cfg.MaxRows = DefaultMaxRows
	}
	s := &Server{
		db:      cfg.DB,
		adm:     NewAdmission(cfg.MaxInFlight, cfg.MaxQueue),
		maxTime: cfg.MaxQueryTime,
		maxRows: cfg.MaxRows,
		started: time.Now(),
		tenants: map[string]*tenantCounters{},
	}
	cfg.DB.SetLoadProbe(s.adm.Load)
	return s, nil
}

// Handler returns the routed HTTP handler (also usable under httptest).
// Every route runs under the panic-isolation middleware: a panic that
// unwinds out of a handler becomes a 500 JSON error for that request
// alone — deferred cleanup (admission release, context cancel) has
// already run during the unwind, and the daemon keeps serving.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/healthz", s.handleHealthz)
	return s.recoverWrap(mux)
}

// recoverWrap is the outermost resilience layer: one panicking request
// must cost exactly one 500, never the process. The recover runs after
// the handler's own defers (admission slot release, context cancel), so
// no slot or scratch leaks on the way out. http.ErrAbortHandler keeps
// its net/http meaning (client gone; nothing to write).
func (s *Server) recoverWrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			p := recover()
			if p == nil {
				return
			}
			if p == http.ErrAbortHandler {
				panic(p)
			}
			s.RecordHandlerPanic(p, debug.Stack())
			writeError(w, http.StatusInternalServerError, "internal_panic",
				"request handler panicked; the query was aborted")
		}()
		next.ServeHTTP(w, r)
	})
}

// Drain stops admitting queries: queued waiters get 503, in-flight
// queries complete. The daemon calls it on SIGTERM before closing the
// listener.
func (s *Server) Drain() { s.adm.Drain() }

// SetWireStats registers a stats snapshot for the binary wire listener;
// the returned value appears verbatim as the /stats "wire" section.
func (s *Server) SetWireStats(fn func() any) { s.wireStats.Store(&fn) }

// queryRequest is the POST /query body.
type queryRequest struct {
	SQL    string `json:"sql"`
	Tenant string `json:"tenant,omitempty"`
}

// estimateJSON is one aggregate estimate on the wire.
type estimateJSON struct {
	Name       string  `json:"name"`
	Value      number  `json:"value"`
	HalfWidth  number  `json:"half_width"`
	Confidence float64 `json:"confidence"`
	RelError   number  `json:"rel_error"`
	Exact      bool    `json:"exact"`
	SampleRows int     `json:"sample_rows"`
}

// number is a float64 that renders as JSON null when it is not finite.
// A sampled MAX has no finite confidence interval (HalfWidth = +Inf),
// and encoding/json refuses NaN and ±Inf outright.
type number float64

func (n number) MarshalJSON() ([]byte, error) {
	f := float64(n)
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return []byte("null"), nil
	}
	return json.Marshal(f)
}

// trailJSON is one escalation-ladder rung on the wire.
type trailJSON struct {
	Layer     string `json:"layer"`
	Rows      int    `json:"rows"`
	ElapsedNs int64  `json:"elapsed_ns"`
	Satisfied bool   `json:"satisfied"`
}

// boundedJSON is the bounded-answer half of a query response.
type boundedJSON struct {
	Layer      string         `json:"layer"`
	Exact      bool           `json:"exact"`
	BoundMet   bool           `json:"bound_met"`
	PromisedNs int64          `json:"promised_ns"`
	Estimates  []estimateJSON `json:"estimates"`
	Trail      []trailJSON    `json:"trail"`
}

// exactJSON is the exact-result half of a query response. Values are
// rendered as strings (the engine's canonical decimal formatting).
type exactJSON struct {
	Columns   []string   `json:"columns"`
	Rows      [][]string `json:"rows"`
	RowCount  int        `json:"row_count"`
	Truncated bool       `json:"truncated"`
}

// queryResponse is the POST /query success body.
type queryResponse struct {
	SQL       string       `json:"sql"`
	Tenant    string       `json:"tenant,omitempty"`
	ElapsedNs int64        `json:"elapsed_ns"`
	QueueNs   int64        `json:"queue_ns"`
	Bounded   *boundedJSON `json:"bounded,omitempty"`
	Exact     *exactJSON   `json:"exact,omitempty"`
}

// errorResponse is every non-2xx body.
type errorResponse struct {
	Error errorBody `json:"error"`
}

type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// statsResponse is the GET /stats body.
type statsResponse struct {
	UptimeNs   int64                     `json:"uptime_ns"`
	Admission  AdmissionStats            `json:"admission"`
	Resilience resilienceJSON            `json:"resilience"`
	Governor   *governorJSON             `json:"governor,omitempty"`
	Storage    *sciborq.StorageStats     `json:"storage,omitempty"`
	Wire       any                       `json:"wire,omitempty"`
	Recycler   map[string]recyclerJSON   `json:"recycler"`
	Tenants    map[string]tenantCounters `json:"tenants"`
}

// resilienceJSON reports the panic-isolation counters: how many times
// the process would have died without the recover guards.
type resilienceJSON struct {
	// HandlerPanics counts panics recovered by the HTTP middleware.
	HandlerPanics int64 `json:"handler_panics"`
	// QueryPanics counts engine-side panics converted to per-query
	// errors by the morsel guard.
	QueryPanics int64 `json:"query_panics"`
	// LastPanic is the most recent panic value and truncated stack.
	LastPanic string `json:"last_panic,omitempty"`
	// FaultsArmed reports whether a fault-injection plan is active
	// (true only under test/chaos harnesses, never in production).
	FaultsArmed bool `json:"faults_armed,omitempty"`
}

// governorJSON is governor.Stats on the wire.
type governorJSON struct {
	Budget     int64            `json:"budget_bytes"`
	Usage      int64            `json:"usage_bytes"`
	Level      string           `json:"level"`
	Forced     bool             `json:"forced,omitempty"`
	Sheds      int64            `json:"sheds"`
	ShedBytes  int64            `json:"shed_bytes"`
	TierUsages map[string]int64 `json:"tier_usages"`
}

// recyclerJSON is recycler.Stats on the wire.
type recyclerJSON struct {
	Hits             int64   `json:"hits"`
	SubsumedHits     int64   `json:"subsumed_hits"`
	Misses           int64   `json:"misses"`
	Evictions        int64   `json:"evictions"`
	AdmissionRejects int64   `json:"admission_rejects"`
	Entries          int     `json:"entries"`
	Bytes            int64   `json:"bytes"`
	Budget           int64   `json:"budget"`
	HitRate          float64 `json:"hit_rate"`
}

func toRecyclerJSON(st recycler.Stats) recyclerJSON {
	return recyclerJSON{
		Hits:             st.Hits,
		SubsumedHits:     st.SubsumedHits,
		Misses:           st.Misses,
		Evictions:        st.Evictions,
		AdmissionRejects: st.AdmissionRejects,
		Entries:          st.Entries,
		Bytes:            st.Bytes,
		Budget:           st.Budget,
		HitRate:          st.HitRate(),
	}
}

// writeJSON encodes v in full before sending the status, so a value
// that fails to encode becomes a 500 with a JSON error body rather than
// a 200 with an empty or truncated one.
func writeJSON(w http.ResponseWriter, status int, v any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		status = http.StatusInternalServerError
		buf.Reset()
		_ = enc.Encode(errorResponse{Error: errorBody{Code: "encode_error", Message: err.Error()}})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes()) // the connection may be gone; nothing to do
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, errorResponse{Error: errorBody{Code: code, Message: msg}})
}

// httpStatus maps every Failure code Serve returns to its HTTP status.
var httpStatus = map[string]int{
	"bad_request":     http.StatusBadRequest,
	"parse_error":     http.StatusBadRequest,
	"memory_pressure": http.StatusServiceUnavailable,
	"overloaded":      http.StatusTooManyRequests,
	"draining":        http.StatusServiceUnavailable,
	"canceled":        http.StatusServiceUnavailable, // cosmetic: the client is gone
	"injected_fault":  http.StatusInternalServerError,
	"query_panic":     http.StatusInternalServerError,
	"timeout":         http.StatusGatewayTimeout,
	"exec_error":      http.StatusUnprocessableEntity,
}

// writeFailure renders a Serve failure. Every load-dependent refusal
// (429 and the shedding 503s) carries a Retry-After header derived from
// the admission queue's observed wait EWMA, so the hint tracks real
// queue behaviour.
func writeFailure(w http.ResponseWriter, f *Failure) {
	if f.RetryAfter > 0 {
		secs := int64((f.RetryAfter + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	writeError(w, httpStatus[f.Code], f.Code, f.Msg)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use GET")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use GET")
		return
	}
	rec := map[string]recyclerJSON{}
	for tenant, st := range s.db.TenantRecyclerStats() {
		if tenant == "" {
			tenant = "default"
		}
		rec[tenant] = toRecyclerJSON(st)
	}
	s.mu.Lock()
	tenants := make(map[string]tenantCounters, len(s.tenants))
	for name, tc := range s.tenants {
		tenants[name] = *tc
	}
	s.mu.Unlock()
	s.panicMu.Lock()
	lastPanic := s.lastPanic
	s.panicMu.Unlock()
	resp := statsResponse{
		UptimeNs:  time.Since(s.started).Nanoseconds(),
		Admission: s.adm.Stats(),
		Resilience: resilienceJSON{
			HandlerPanics: s.handlerPanics.Load(),
			QueryPanics:   s.queryPanics.Load(),
			LastPanic:     lastPanic,
			FaultsArmed:   faultinject.Enabled(),
		},
		Recycler: rec,
		Tenants:  tenants,
	}
	if gov := s.db.Governor(); gov != nil {
		gov.CheckNow() // /stats is a natural pressure checkpoint
		gs := gov.Stats()
		resp.Governor = &governorJSON{
			Budget:     gs.Budget,
			Usage:      gs.Usage,
			Level:      gs.Level,
			Forced:     gs.Forced,
			Sheds:      gs.Sheds,
			ShedBytes:  gs.ShedBytes,
			TierUsages: gs.TierUsages,
		}
	}
	resp.Storage = s.db.StorageStats()
	if fn := s.wireStats.Load(); fn != nil {
		resp.Wire = (*fn)()
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use POST")
		return
	}
	var req queryRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "invalid JSON body: "+err.Error())
		return
	}
	// Decode stops at the end of the first JSON document, so without an
	// explicit EOF check a body like {"sql":"..."}{"sql":"..."} would be
	// silently half-read — accepted as the first statement with the rest
	// discarded. Require exactly one document.
	var extra json.RawMessage
	if err := dec.Decode(&extra); !errors.Is(err, io.EOF) {
		writeError(w, http.StatusBadRequest, "bad_request",
			"request body must be exactly one JSON document")
		return
	}
	fail := s.Serve(r.Context(), Request{Tenant: req.Tenant, SQL: req.SQL, MaxTime: s.maxTime},
		func(res *sciborq.Result, elapsed, queued time.Duration) {
			writeJSON(w, http.StatusOK, s.render(&req, res, elapsed, queued))
		})
	if fail != nil {
		writeFailure(w, fail)
	}
}

// render builds the POST /query success body for one result.
func (s *Server) render(req *queryRequest, res *sciborq.Result, elapsed, queued time.Duration) queryResponse {
	resp := queryResponse{
		SQL:       req.SQL,
		Tenant:    req.Tenant,
		ElapsedNs: elapsed.Nanoseconds(),
		QueueNs:   queued.Nanoseconds(),
	}
	if ans := res.Bounded; ans != nil {
		b := &boundedJSON{
			Layer:      ans.Layer,
			Exact:      ans.Exact,
			BoundMet:   ans.BoundMet,
			PromisedNs: ans.Promised.Nanoseconds(),
			Estimates:  make([]estimateJSON, 0, len(ans.Estimates)),
			Trail:      make([]trailJSON, 0, len(ans.Trail)),
		}
		for _, e := range ans.Estimates {
			b.Estimates = append(b.Estimates, estimateJSON{
				Name:       e.Spec.Name(),
				Value:      number(e.Value()),
				HalfWidth:  number(e.Interval.HalfWidth),
				Confidence: e.Interval.Level,
				RelError:   number(e.RelError()),
				Exact:      e.Exact,
				SampleRows: e.SampleRows,
			})
		}
		for _, step := range ans.Trail {
			b.Trail = append(b.Trail, trailJSON{
				Layer:     step.Layer,
				Rows:      step.Rows,
				ElapsedNs: step.Elapsed.Nanoseconds(),
				Satisfied: step.Satisfied,
			})
		}
		resp.Bounded = b
	} else if res.Rows != nil {
		n := res.Rows.Len()
		show := n
		if show > s.maxRows {
			show = s.maxRows
		}
		// RowStrings takes an int32 row index; a MaxRows configured past
		// 2^31 over a giant result would otherwise wrap the cast below
		// into a negative index panic (or worse, silently alias row 0).
		if show > math.MaxInt32 {
			show = math.MaxInt32
		}
		ex := &exactJSON{
			Columns:   res.Rows.Table.Schema().Names(),
			Rows:      make([][]string, 0, show),
			RowCount:  n,
			Truncated: show < n,
		}
		for i := 0; i < show; i++ {
			ex.Rows = append(ex.Rows, res.Rows.Table.RowStrings(int32(i)))
		}
		resp.Exact = ex
	}
	return resp
}
