package server

import (
	"context"
	"errors"
	"strings"
	"time"

	"sciborq"
	"sciborq/internal/engine"
	"sciborq/internal/faultinject"
	"sciborq/internal/governor"
	"sciborq/internal/sqlparse"
)

// Request is one query as a transport decoded it.
type Request struct {
	// Tenant selects the recycler partition and the /stats counters.
	Tenant string
	// SQL is the statement text (for a prepared statement, the text it
	// was prepared from).
	SQL string
	// Stmt, when non-nil, is SQL already parsed and re-bound with fresh
	// literals (a wire prepared statement): Serve executes it as given
	// instead of parsing SQL.
	Stmt *sqlparse.Statement
	// MaxTime bounds execution wall-clock (admission wait excluded);
	// 0 means no server-side deadline.
	MaxTime time.Duration
}

// Failure is the one shape every refused or failed query takes. HTTP
// maps Code to a status (httpStatus) and RetryAfter to a header; the
// wire listener writes the three fields as an Error frame.
type Failure struct {
	Code string
	Msg  string
	// RetryAfter is positive exactly when the refusal is load-dependent
	// and worth retrying: memory_pressure, overloaded, draining, and a
	// wait abandoned in the admission queue.
	RetryAfter time.Duration
}

// Serve is the one path a query takes, whichever transport carried it:
// parse, memory gate, admission, the query fault point, the
// deadline, execution, tenant accounting, outcome classification.
//
// On success it calls respond with the admission slot still held — a
// slow reader throttles a streamed response while its load stays
// visible to WITHIN TIME pricing — and returns nil; otherwise respond
// is never called and the Failure says why. A panic (injected at the
// fault point, or from respond) unwinds through the deferred slot
// release into the transport's recover guard, so it cannot leak a slot.
func (s *Server) Serve(ctx context.Context, req Request, respond func(res *sciborq.Result, elapsed, queued time.Duration)) *Failure {
	if strings.TrimSpace(req.SQL) == "" {
		return &Failure{Code: "bad_request", Msg: "empty SQL statement"}
	}
	// Parse once, before admission: malformed SQL never spends an
	// admission slot, and the statement parsed here is the one executed.
	st := req.Stmt
	if st == nil {
		var err error
		if st, err = sqlparse.Parse(req.SQL); err != nil {
			return &Failure{Code: "parse_error", Msg: err.Error()}
		}
	}
	// Quality degrades (caches shed, bounded picks shrink) before
	// availability does: only Critical refuses work.
	if s.memoryCritical() {
		return &Failure{Code: "memory_pressure",
			Msg: "server is under memory pressure; retry shortly", RetryAfter: s.adm.RetryAfter()}
	}

	release, queued, err := s.adm.Acquire(ctx)
	if err != nil {
		// Anything but a full queue or a drain is the caller giving up
		// while queued (or an injected admission fault).
		code := "canceled"
		switch {
		case errors.Is(err, ErrOverloaded):
			code = "overloaded"
		case errors.Is(err, ErrDraining):
			code = "draining"
		}
		return &Failure{Code: code, Msg: err.Error(), RetryAfter: s.adm.RetryAfter()}
	}
	defer release()

	// The query fault point fires with the slot held and its release
	// deferred: an injected panic here takes the exact path a real
	// handler bug would, and is the regression proof that a panic
	// cannot leak a slot.
	if err := faultinject.Fire(faultinject.PointQuery); err != nil {
		return &Failure{Code: "injected_fault", Msg: err.Error()}
	}

	if req.MaxTime > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, req.MaxTime)
		defer cancel()
	}

	start := time.Now()
	res, err := s.db.ExecStatementTenant(ctx, req.Tenant, st, req.SQL)
	elapsed := time.Since(start)

	var fail *Failure
	var pe *engine.PanicError
	switch {
	case err == nil:
	case errors.As(err, &pe):
		// A morsel worker panicked; the engine's recover guard confined
		// it to this query. The daemon keeps serving.
		s.queryPanics.Add(1)
		s.notePanic(pe.Value, pe.Stack)
		fail = &Failure{Code: "query_panic", Msg: "a query worker panicked; the query was aborted"}
	case errors.Is(err, context.DeadlineExceeded):
		fail = &Failure{Code: "timeout", Msg: "query exceeded the server's max query time"}
	case errors.Is(err, context.Canceled):
		fail = &Failure{Code: "canceled", Msg: "query canceled"}
	default:
		fail = &Failure{Code: "exec_error", Msg: err.Error()}
	}
	s.note(req.Tenant, res, fail, elapsed)
	if fail == nil {
		respond(res, elapsed, queued)
	}
	return fail
}

// memoryCritical is the memory-pressure gate. The per-request check is
// one atomic level read; every govCheckEvery-th request runs a full
// usage recomputation (which sheds). It reports true only at Critical —
// caches already shed, bounded queries already degraded.
func (s *Server) memoryCritical() bool {
	gov := s.db.Governor()
	if gov == nil {
		return false
	}
	if s.reqCount.Add(1)%govCheckEvery == 0 {
		gov.CheckNow()
	}
	return gov.Level() == governor.Critical
}

// note folds one executed query's outcome into the tenant's counters.
// Context outcomes are not server faults: a caller that went away
// counts as Canceled and a server-deadline hit as TimedOut, so the
// Errors rate in /stats tracks real execution failures only.
func (s *Server) note(tenant string, res *sciborq.Result, fail *Failure, elapsed time.Duration) {
	if tenant == "" {
		tenant = "default"
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	tc := s.tenants[tenant]
	if tc == nil {
		tc = &tenantCounters{}
		s.tenants[tenant] = tc
	}
	tc.Queries++
	if fail != nil {
		switch fail.Code {
		case "canceled":
			tc.Canceled++
		case "timeout":
			tc.TimedOut++
		default:
			tc.Errors++
		}
		return
	}
	ns := elapsed.Nanoseconds()
	tc.TotalNs += ns
	if ns > tc.MaxNs {
		tc.MaxNs = ns
	}
	if res.Bounded != nil {
		tc.Bounded++
		if res.Bounded.BoundMet {
			tc.BoundMet++
		}
	}
}
