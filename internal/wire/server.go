package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sciborq"
	"sciborq/internal/column"
	"sciborq/internal/server"
	"sciborq/internal/sqlparse"
)

// Config configures a wire listener. DB and Core are required: DB is
// the database Core serves, and the listener sends every query
// through Core.Serve — the one admission / memory gate / deadline /
// tenant accounting pipeline the HTTP handler uses — so /stats and the
// resilience invariants span both transports.
type Config struct {
	DB   *sciborq.DB
	Core *server.Server

	// MaxQueryTime bounds each query's execution context; 0 means
	// unbounded. The server smoke config mirrors the HTTP setting.
	MaxQueryTime time.Duration

	// BatchRows is the row count per streamed batch frame. The default
	// (65536) matches the engine's morsel alignment: one batch encodes
	// whole cache-resident column pages.
	BatchRows int

	// WriteTimeout bounds each frame write/flush. A client that stops
	// reading stalls the stream — intended backpressure, since the
	// query's admission slot stays held — but a dead peer must not hold
	// a slot forever; the deadline converts it into a connection error.
	WriteTimeout time.Duration

	// IdleTimeout bounds how long a session may sit between requests
	// (and how long a request frame may take to arrive). Without it a
	// dead or silent client parks a goroutine and its session state
	// forever — the connection holds no admission slot, so nothing else
	// ever reaps it. A slow-but-active streaming client is unaffected:
	// the deadline arms only when the server turns around to read the
	// next request, after the previous response finished. 0 means the
	// default (5 minutes); negative disables (tests only).
	IdleTimeout time.Duration
}

const (
	defaultBatchRows    = 65536
	defaultWriteTimeout = 30 * time.Second
	defaultIdleTimeout  = 5 * time.Minute
	// maxStmts caps prepared statements per session; a session leaking
	// statements is cut off before its map becomes a memory sink.
	maxStmts = 1024
)

// Server is the binary-protocol listener.
type Server struct {
	cfg Config

	mu     sync.Mutex
	ln     net.Listener
	conns  map[*session]struct{}
	closed bool
	wg     sync.WaitGroup

	connsTotal atomic.Int64
	connsOpen  atomic.Int64
	queries    atomic.Int64
	prepares   atomic.Int64
	executes   atomic.Int64
	batches    atomic.Int64
	rowsOut    atomic.Int64
	bytesOut   atomic.Int64
	bytesIn    atomic.Int64
	errorsSent atomic.Int64
	panics     atomic.Int64
	stmtsOpen  atomic.Int64
	idleClosed atomic.Int64
	sessionSeq atomic.Uint64
}

// StatsSnapshot is the listener's counter snapshot; it renders under the
// "wire" key of the HTTP /stats response.
type StatsSnapshot struct {
	ConnsOpen  int64 `json:"conns_open"`
	ConnsTotal int64 `json:"conns_total"`
	Queries    int64 `json:"queries"`
	Prepares   int64 `json:"prepares"`
	Executes   int64 `json:"executes"`
	Batches    int64 `json:"batches"`
	RowsOut    int64 `json:"rows_out"`
	BytesOut   int64 `json:"bytes_out"`
	BytesIn    int64 `json:"bytes_in"`
	ErrorsSent int64 `json:"errors_sent"`
	Panics     int64 `json:"panics"`
	StmtsOpen  int64 `json:"stmts_open"`
	IdleClosed int64 `json:"idle_closed"`
}

// NewServer returns a wire listener serving cfg.DB. It panics if DB or
// Core is nil — both are wiring bugs, not runtime conditions.
func NewServer(cfg Config) *Server {
	if cfg.DB == nil || cfg.Core == nil {
		panic("wire: Config.DB and Config.Core are required")
	}
	if cfg.BatchRows <= 0 {
		cfg.BatchRows = defaultBatchRows
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = defaultWriteTimeout
	}
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = defaultIdleTimeout
	}
	return &Server{cfg: cfg, conns: make(map[*session]struct{})}
}

// Stats returns a snapshot of the listener's counters.
func (s *Server) Stats() StatsSnapshot {
	return StatsSnapshot{
		ConnsOpen:  s.connsOpen.Load(),
		ConnsTotal: s.connsTotal.Load(),
		Queries:    s.queries.Load(),
		Prepares:   s.prepares.Load(),
		Executes:   s.executes.Load(),
		Batches:    s.batches.Load(),
		RowsOut:    s.rowsOut.Load(),
		BytesOut:   s.bytesOut.Load(),
		BytesIn:    s.bytesIn.Load(),
		ErrorsSent: s.errorsSent.Load(),
		Panics:     s.panics.Load(),
		StmtsOpen:  s.stmtsOpen.Load(),
		IdleClosed: s.idleClosed.Load(),
	}
}

// Serve accepts connections on ln until Shutdown closes it. It always
// returns a non-nil error; after Shutdown the error is net.ErrClosed.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return net.ErrClosed
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			return err
		}
		sess := s.newSession(c)
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return net.ErrClosed
		}
		s.conns[sess] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.connsTotal.Add(1)
		s.connsOpen.Add(1)
		go s.serveConn(sess)
	}
}

// Shutdown closes the listener, immediately closes idle connections,
// and waits for busy ones to finish their in-flight request — the wire
// half of the SIGTERM drain. The caller drains the shared admission
// queue first, so queued wire queries have already been answered with a
// draining error frame by the time their connections go idle here. When
// ctx expires, remaining connections are closed forcibly and their
// running queries cancelled, so the wait that follows is bounded by one
// morsel boundary, not by MaxQueryTime.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		s.closeIdle()
		select {
		case <-done:
			return nil
		case <-ctx.Done():
			s.closeAll()
			<-done
			return ctx.Err()
		case <-tick.C:
		}
	}
}

func (s *Server) closeIdle() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for sess := range s.conns {
		if !sess.busy.Load() {
			sess.conn.Close()
		}
	}
}

func (s *Server) closeAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for sess := range s.conns {
		sess.cancel()
		sess.conn.Close()
	}
}

// countingConn tallies raw bytes moved per direction into the server's
// counters; it sits between the bufio layers and the socket.
type countingConn struct {
	net.Conn
	s *Server
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.s.bytesIn.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.s.bytesOut.Add(int64(n))
	return n, err
}

// prepared is one session-scoped prepared statement. Only the SQL text
// and its parameter count live here: verbatim re-execution parses the
// text once in Serve, like any query, and literal-bound execution
// parses through ParseBound with the fresh literals.
type prepared struct {
	sql     string
	nparams int
}

// session is one wire connection's state.
type session struct {
	s *Server
	// ctx is the context every query of this session executes under;
	// cancel fires when the session exits and when a forced Shutdown
	// closes it, so a running scan stops at its next morsel boundary and
	// gives its admission slot back.
	ctx     context.Context
	cancel  context.CancelFunc
	conn    net.Conn
	cc      *countingConn
	r       *frameReader
	w       *frameWriter
	id      uint64
	tenant  string
	stmts   map[uint32]*prepared
	stmtSeq uint32
	// busy is true while a request is being served; Shutdown closes
	// only idle connections, so in-flight responses complete.
	busy atomic.Bool
	// responseStarted flips once any response frame for the current
	// request is on the wire; a panic after that point cannot be
	// reported in-band, so the connection dies instead.
	responseStarted bool
	encBuf          []byte
}

type frameReader struct {
	c       net.Conn
	scratch []byte
}

type frameWriter struct {
	c   net.Conn
	buf []byte
}

func (s *Server) newSession(c net.Conn) *session {
	cc := &countingConn{Conn: c, s: s}
	// Serve(ln) is handed no context to derive from: the session is the
	// root of its queries' cancellation.
	ctx, cancel := context.WithCancel(context.TODO())
	return &session{
		s:      s,
		ctx:    ctx,
		cancel: cancel,
		conn:   c,
		cc:     cc,
		r:      &frameReader{c: cc},
		w:      &frameWriter{c: cc},
		id:     s.sessionSeq.Add(1),
		stmts:  make(map[uint32]*prepared),
	}
}

func (r *frameReader) read() (byte, []byte, error) {
	typ, payload, scratch, err := ReadFrame(r.c, MaxClientFrame, r.scratch)
	r.scratch = scratch
	return typ, payload, err
}

// armIdle sets the read deadline for the next request frame. The
// deadline covers the whole inter-request gap plus the frame's own
// arrival, so a silent peer (or one that trickles half a frame and
// stops) is reaped rather than parking the goroutine forever. It is
// re-armed per request, never during response streaming — writes run
// under their own deadline.
func (sess *session) armIdle() error {
	t := sess.s.cfg.IdleTimeout
	if t < 0 {
		return sess.conn.SetReadDeadline(time.Time{})
	}
	return sess.conn.SetReadDeadline(time.Now().Add(t))
}

// noteReadErr classifies a request-read failure for the stats counters:
// a deadline expiry is an idle reap, everything else is a normal
// disconnect or protocol failure.
func (sess *session) noteReadErr(err error) {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		sess.s.idleClosed.Add(1)
	}
}

// write frames one payload and writes it under the session's write
// deadline. Frames are written whole — no separate flush step — so a
// stalled client surfaces as a deadline error on the very frame that
// stalled, with the admission slot still held (that is the
// backpressure signal).
func (sess *session) write(typ byte, payload []byte) error {
	w := sess.w
	w.buf = w.buf[:0]
	w.buf = appendU32(w.buf, uint32(len(payload))+1)
	w.buf = appendU8(w.buf, typ)
	w.buf = append(w.buf, payload...)
	if err := sess.conn.SetWriteDeadline(time.Now().Add(sess.s.cfg.WriteTimeout)); err != nil {
		return err
	}
	_, err := w.c.Write(w.buf)
	sess.responseStarted = true
	return err
}

func (sess *session) writeError(code, msg string, retry time.Duration) error {
	sess.s.errorsSent.Add(1)
	sess.encBuf = AppendError(sess.encBuf[:0], &ErrorFrame{
		Code: code, Message: msg, RetryAfterNs: retry.Nanoseconds(),
	})
	return sess.write(FrameError, sess.encBuf)
}

// serveConn runs one connection: Hello handshake, then a sequential
// request/response loop. The outer recover guard is the last line of
// defence — per-request panics are absorbed by dispatch and answered
// in-band; only a panic in the loop machinery itself lands here.
func (s *Server) serveConn(sess *session) {
	defer func() {
		if p := recover(); p != nil {
			s.panics.Add(1)
			s.cfg.Core.RecordHandlerPanic(p, debug.Stack())
		}
		sess.cancel()
		sess.conn.Close()
		s.stmtsOpen.Add(-int64(len(sess.stmts)))
		s.mu.Lock()
		delete(s.conns, sess)
		s.mu.Unlock()
		s.connsOpen.Add(-1)
		s.wg.Done()
	}()
	if err := sess.handshake(); err != nil {
		return
	}
	for {
		if err := sess.armIdle(); err != nil {
			return
		}
		typ, payload, err := sess.r.read()
		if err != nil {
			sess.noteReadErr(err)
			var tooBig *ErrFrameTooLarge
			if errors.As(err, &tooBig) {
				sess.busy.Store(true)
				sess.writeError("protocol_error", err.Error(), 0)
			}
			return
		}
		sess.busy.Store(true)
		sess.responseStarted = false
		fatal := sess.dispatch(typ, payload)
		sess.busy.Store(false)
		if fatal {
			return
		}
	}
}

// handshake consumes the Hello frame and acknowledges it. Any deviation
// is fatal: the protocol starts with Hello or not at all.
func (sess *session) handshake() error {
	if err := sess.armIdle(); err != nil {
		return err
	}
	typ, payload, err := sess.r.read()
	if err != nil {
		sess.noteReadErr(err)
		var tooBig *ErrFrameTooLarge
		if errors.As(err, &tooBig) {
			sess.busy.Store(true)
			defer sess.busy.Store(false)
			sess.writeError("protocol_error", err.Error(), 0)
		}
		return err
	}
	sess.busy.Store(true)
	defer sess.busy.Store(false)
	if typ != FrameHello {
		sess.writeError("protocol_error", fmt.Sprintf("expected Hello, got frame 0x%02x", typ), 0)
		return errors.New("wire: no hello")
	}
	c := cursor{p: payload}
	version := c.u8()
	tenant := c.str()
	if err := c.done(); err != nil {
		sess.writeError("protocol_error", err.Error(), 0)
		return err
	}
	if version > ProtocolVersion {
		sess.writeError("protocol_error",
			fmt.Sprintf("protocol version %d not supported (max %d)", version, ProtocolVersion), 0)
		return errors.New("wire: version mismatch")
	}
	sess.tenant = tenant
	sess.encBuf = appendU8(sess.encBuf[:0], ProtocolVersion)
	sess.encBuf = appendU64(sess.encBuf, sess.id)
	return sess.write(FrameHelloOK, sess.encBuf)
}

// dispatch serves one request frame. It returns true when the
// connection is beyond recovery (protocol violation, I/O failure, or a
// panic after response bytes already left). A panic before any response
// byte is answered with an internal_panic error frame and the session
// continues — the wire twin of the HTTP recover middleware.
func (sess *session) dispatch(typ byte, payload []byte) (fatal bool) {
	defer func() {
		if p := recover(); p != nil {
			sess.s.panics.Add(1)
			sess.s.cfg.Core.RecordHandlerPanic(p, debug.Stack())
			if sess.responseStarted {
				fatal = true
				return
			}
			fatal = sess.writeError("internal_panic", "internal error serving the request", 0) != nil
		}
	}()
	switch typ {
	case FrameQuery:
		return sess.handleQuery(payload)
	case FramePrepare:
		return sess.handlePrepare(payload)
	case FrameExecute:
		return sess.handleExecute(payload)
	case FrameCloseStmt:
		return sess.handleCloseStmt(payload)
	case FrameBye:
		return true
	default:
		sess.writeError("protocol_error", fmt.Sprintf("unknown frame type 0x%02x", typ), 0)
		return true
	}
}

func (sess *session) handleQuery(payload []byte) bool {
	c := cursor{p: payload}
	sql := c.str()
	if err := c.done(); err != nil {
		sess.writeError("protocol_error", err.Error(), 0)
		return true
	}
	sess.s.queries.Add(1)
	return sess.runQuery(sql, nil)
}

func (sess *session) handlePrepare(payload []byte) bool {
	c := cursor{p: payload}
	sql := c.str()
	if err := c.done(); err != nil {
		sess.writeError("protocol_error", err.Error(), 0)
		return true
	}
	sess.s.prepares.Add(1)
	if strings.TrimSpace(sql) == "" {
		return sess.writeError("bad_request", "empty SQL statement", 0) != nil
	}
	if len(sess.stmts) >= maxStmts {
		return sess.writeError("bad_request",
			fmt.Sprintf("session holds %d prepared statements; close some first", maxStmts), 0) != nil
	}
	// The parameter count is the statement's literal-slot count — the
	// exact slots ParseBound rebinds.
	nparams, err := sqlparse.Params(sql)
	if err != nil {
		return sess.writeError("parse_error", err.Error(), 0) != nil
	}
	sess.stmtSeq++
	id := sess.stmtSeq
	sess.stmts[id] = &prepared{sql: sql, nparams: nparams}
	sess.s.stmtsOpen.Add(1)
	sess.encBuf = appendU32(sess.encBuf[:0], id)
	sess.encBuf = appendU16(sess.encBuf, uint16(nparams))
	return sess.write(FramePrepareOK, sess.encBuf) != nil
}

func (sess *session) handleExecute(payload []byte) bool {
	c := cursor{p: payload}
	id := c.u32()
	nlits := int(c.u16())
	if c.bad || nlits > c.remaining() {
		sess.writeError("protocol_error", "truncated Execute payload", 0)
		return true
	}
	lits := make([]float64, nlits)
	for i := range lits {
		lits[i] = c.f64()
	}
	if err := c.done(); err != nil {
		sess.writeError("protocol_error", err.Error(), 0)
		return true
	}
	sess.s.executes.Add(1)
	st, ok := sess.stmts[id]
	if !ok {
		return sess.writeError("bad_request", fmt.Sprintf("unknown statement id %d", id), 0) != nil
	}
	if nlits == 0 {
		// Verbatim re-execution: the statement's own spelling goes
		// through Serve like a simple Query.
		return sess.runQuery(st.sql, nil)
	}
	if nlits != st.nparams {
		return sess.writeError("bad_request",
			fmt.Sprintf("statement %d takes %d parameters, got %d", id, st.nparams, nlits), 0) != nil
	}
	bound, err := sqlparse.ParseBound(st.sql, lits)
	if err != nil {
		return sess.writeError("parse_error", err.Error(), 0) != nil
	}
	return sess.runQuery(st.sql, bound)
}

func (sess *session) handleCloseStmt(payload []byte) bool {
	c := cursor{p: payload}
	id := c.u32()
	if err := c.done(); err != nil {
		sess.writeError("protocol_error", err.Error(), 0)
		return true
	}
	// Fire-and-forget and idempotent: no reply frame, unknown ids are
	// ignored. The client's next request stays in lockstep because the
	// server processes frames strictly in order.
	if _, ok := sess.stmts[id]; ok {
		delete(sess.stmts, id)
		sess.s.stmtsOpen.Add(-1)
	}
	return false
}

// runQuery sends one statement through the shared serving pipeline
// (server.Serve) under the session's context and renders the outcome:
// the streamed result, or one Error frame. st non-nil means a
// literal-rebound prepared statement, which Serve executes as given.
func (sess *session) runQuery(sql string, st *sqlparse.Statement) (fatal bool) {
	var err error
	fail := sess.s.cfg.Core.Serve(sess.ctx,
		server.Request{Tenant: sess.tenant, SQL: sql, Stmt: st, MaxTime: sess.s.cfg.MaxQueryTime},
		func(res *sciborq.Result, elapsed, queued time.Duration) {
			err = sess.streamResult(res, elapsed, queued)
		})
	if fail != nil {
		err = sess.writeError(fail.Code, fail.Msg, fail.RetryAfter)
	}
	return err != nil
}

// streamResult writes the response frames for one successful query.
// Exact results stream as Header + batches + End with no row cap —
// each batch is written (and therefore flushed to the socket) before
// the next is encoded, so a slow reader throttles the stream while the
// admission slot is held. Bounded answers are one typed frame.
func (sess *session) streamResult(res *sciborq.Result, elapsed, queued time.Duration) error {
	if ans := res.Bounded; ans != nil {
		b := &Bounded{
			Layer:      ans.Layer,
			Exact:      ans.Exact,
			BoundMet:   ans.BoundMet,
			PromisedNs: ans.Promised.Nanoseconds(),
			Estimates:  make([]EstimateW, 0, len(ans.Estimates)),
			Trail:      make([]TrailW, 0, len(ans.Trail)),
		}
		for _, e := range ans.Estimates {
			b.Estimates = append(b.Estimates, EstimateW{
				Name:       e.Spec.Name(),
				Value:      e.Value(),
				HalfWidth:  e.Interval.HalfWidth,
				Confidence: e.Interval.Level,
				RelError:   e.RelError(),
				Exact:      e.Exact,
				SampleRows: uint32(e.SampleRows),
			})
		}
		for _, step := range ans.Trail {
			b.Trail = append(b.Trail, TrailW{
				Layer:     step.Layer,
				Rows:      uint32(step.Rows),
				ElapsedNs: step.Elapsed.Nanoseconds(),
				Satisfied: step.Satisfied,
			})
		}
		sess.encBuf = AppendBounded(sess.encBuf[:0], b)
		if err := sess.write(FrameBounded, sess.encBuf); err != nil {
			return err
		}
		return sess.writeEnd(0, elapsed, queued)
	}
	if res.Rows == nil {
		return sess.writeEnd(0, elapsed, queued)
	}

	t := res.Rows.Table
	schema := t.Schema()
	n := t.Len()
	cols := make([]column.Column, len(schema))
	for i, def := range schema {
		c, err := t.Col(def.Name)
		if err != nil {
			return sess.writeError("exec_error", err.Error(), 0)
		}
		cols[i] = c
	}
	h := Header{RowCount: uint64(n), Cols: make([]Col, len(schema))}
	for i, def := range schema {
		h.Cols[i] = Col{Name: def.Name, Type: byte(cols[i].Type())}
	}
	sess.encBuf = AppendHeader(sess.encBuf[:0], &h)
	if err := sess.write(FrameHeader, sess.encBuf); err != nil {
		return err
	}
	for lo := 0; lo < n; lo += sess.s.cfg.BatchRows {
		hi := lo + sess.s.cfg.BatchRows
		if hi > n {
			hi = n
		}
		sess.encBuf = AppendBatch(sess.encBuf[:0], cols, lo, hi)
		if err := sess.write(FrameBatch, sess.encBuf); err != nil {
			return err
		}
		sess.s.batches.Add(1)
		sess.s.rowsOut.Add(int64(hi - lo))
	}
	return sess.writeEnd(uint64(n), elapsed, queued)
}

func (sess *session) writeEnd(rows uint64, elapsed, queued time.Duration) error {
	sess.encBuf = AppendEnd(sess.encBuf[:0], &End{
		Rows:      rows,
		ElapsedNs: elapsed.Nanoseconds(),
		QueueNs:   queued.Nanoseconds(),
	})
	return sess.write(FrameEnd, sess.encBuf)
}
