package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"sciborq/internal/wire"
)

// class is a kind of request within a workload; latency is reported per
// class because the classes cost the program very different work.
type class uint8

const (
	clTime class = iota
	clErr
	clHit
	clRefine
	clGroup
	clAgg
	clStream
	clColdTime
	clColdExact
	clColdHot
	numClasses
)

var classNames = [numClasses]string{
	"time", "err", "hit", "refine", "group", "agg", "stream", "cold-time", "cold-exact", "cold-hot",
}

func (c class) String() string { return classNames[c] }

// bounded reports whether the class asks for an estimate.
func (c class) bounded() bool { return c == clTime || c == clErr || c == clColdTime }

// request is one generated operation: what is sent, and what the
// reference evaluator needs to judge the answer.
type request struct {
	class  class
	tenant string
	sql    string    // statement text (plain Query and HTTP)
	stmt   int       // prepared statement to Execute; -1 sends sql
	binds  []float64 // Execute parameters
	ra, de float64   // cone centre (bounded classes)
	box    box       // filter (exact classes)
	group  string    // GROUP BY column, "" for none
	check  bool      // keep the answer and compare it with the reference
}

// answer is a response reduced to the numbers that are checked.
type answer struct {
	n, m     float64 // COUNT(*) AS n, AVG(r) AS m
	nHW, mHW float64 // bounded: interval half-widths
	base     bool    // bounded: answered from base data, not an impression
	groups   map[string][2]float64
	rows     int // stream: rows decoded, and checksums over them
	idSum    int64
	rSum     float64
}

// detail is what a traced run keeps per request beyond the record: the
// server's own account of the request, carried in the response.
type detail struct {
	queueNs, execNs int64
	promisedNs      int64
	boundMet        bool
	trail           []rung
}

type rung struct {
	layer     string
	rows      int
	elapsedNs int64
	satisfied bool
}

// record is one completed request. Times are nanoseconds since the
// drive began; due == start in a closed loop.
type record struct {
	req             *request
	due, start, end int64
	// idle: the sender was free when the request fell due (always true
	// in a closed loop), so start-due is the generator's own lateness
	// and not a wait behind earlier requests.
	idle    bool
	failed  bool
	errText string
	ans     answer
	tr      *detail // traced runs only
}

func (r *record) latencyMs() float64 { return float64(r.end-r.due) / 1e6 }

// closedLoop runs one client session: it sends its next request only
// after the previous answer has arrived, until the deadline.
func closedLoop(addr, tenant string, prepare []string, next func() *request, t0 time.Time, deadline time.Duration, traced bool) ([]record, error) {
	c, err := wire.Dial(addr, tenant)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	stmts := make([]*wire.Stmt, len(prepare))
	for i, sql := range prepare {
		if stmts[i], err = c.Prepare(sql); err != nil {
			return nil, fmt.Errorf("prepare %q: %w", sql, err)
		}
	}
	recs := make([]record, 0, 1<<14)
	for time.Since(t0) < deadline {
		req := next()
		rec := record{req: req, start: int64(time.Since(t0))}
		rec.due, rec.idle = rec.start, true
		var resp *wire.Response
		if req.stmt >= 0 {
			resp, err = c.Execute(stmts[req.stmt], req.binds...)
		} else {
			resp, err = c.Query(req.sql)
		}
		rec.end = int64(time.Since(t0))
		if err != nil {
			rec.failed, rec.errText = true, err.Error()
			recs = append(recs, rec)
			if _, ok := err.(*wire.ServerError); ok {
				continue // the session survives an error frame
			}
			return recs, nil // transport failure: the session is gone
		}
		rec.ans = wireAnswer(resp, req)
		if traced {
			rec.tr = wireDetail(resp)
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// wireAnswer reduces a wire response to the checked numbers. Stream
// checksums are taken for every request (one pass over two decoded
// columns); the other answers are a handful of values.
func wireAnswer(resp *wire.Response, req *request) answer {
	var a answer
	if b := resp.Bounded; b != nil {
		a.base = b.Exact
		for _, e := range b.Estimates {
			switch e.Name {
			case "n":
				a.n, a.nHW = e.Value, e.HalfWidth
			case "m":
				a.m, a.mHW = e.Value, e.HalfWidth
			}
		}
		return a
	}
	ex := resp.Exact
	if ex == nil {
		return a
	}
	col := func(name string) *wire.ColBlock {
		for i, c := range ex.Cols {
			if c.Name == name {
				return &ex.Blocks[i]
			}
		}
		return nil
	}
	num := func(b *wire.ColBlock, i int) float64 {
		if b == nil {
			return 0
		}
		if b.Type == wire.TypeInt64 {
			return float64(b.I64[i])
		}
		return b.F64[i]
	}
	switch {
	case req.class == clStream:
		a.rows = ex.NumRows()
		if ids, rs := col("objID"), col("r"); ids != nil && rs != nil {
			for _, v := range ids.I64 {
				a.idSum += v
			}
			for _, v := range rs.F64 {
				a.rSum += v
			}
		}
	case req.group != "":
		if !req.check {
			return a
		}
		a.groups = make(map[string][2]float64, ex.NumRows())
		key, n, m := col(req.group), col("n"), col("m")
		for i := 0; i < ex.NumRows() && key != nil; i++ {
			k := ""
			if key.Type == wire.TypeString {
				k = key.Str[i]
			} else {
				k = strconv.FormatInt(key.I64[i], 10)
			}
			a.groups[k] = [2]float64{num(n, i), num(m, i)}
		}
	case ex.NumRows() == 1:
		a.n, a.m = num(col("n"), 0), num(col("m"), 0)
	}
	return a
}

func wireDetail(resp *wire.Response) *detail {
	d := &detail{queueNs: resp.QueueNs, execNs: resp.ElapsedNs}
	if b := resp.Bounded; b != nil {
		d.promisedNs, d.boundMet = b.PromisedNs, b.BoundMet
		for _, t := range b.Trail {
			d.trail = append(d.trail, rung{t.Layer, int(t.Rows), t.ElapsedNs, t.Satisfied})
		}
	}
	return d
}

// httpBody is the part of a POST /query response the harness reads.
type httpBody struct {
	ElapsedNs int64 `json:"elapsed_ns"`
	QueueNs   int64 `json:"queue_ns"`
	Exact     *struct {
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
	} `json:"exact"`
	Error *struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// openLoop sends reqs[i] at due[i] whatever the state of earlier
// requests, over `workers` keep-alive connections. Each worker takes the
// next unsent request, waits for its due time if that is still ahead,
// and sends; latency counts from the due time, so a stall is charged to
// every request scheduled during it and not only to the one that hit it.
func openLoop(addr string, reqs []*request, due []int64, workers int, t0 time.Time, traced bool) []record {
	bodies := make([][]byte, len(reqs))
	for i, r := range reqs {
		bodies[i], _ = json.Marshal(map[string]string{"sql": r.sql, "tenant": r.tenant})
	}
	tp := &http.Transport{MaxIdleConnsPerHost: workers, MaxConnsPerHost: workers}
	defer tp.CloseIdleConnections()
	client := &http.Client{Transport: tp}
	url := "http://" + addr + "/query"
	recs := make([]record, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				rec := &recs[i]
				if wait := time.Duration(due[i]) - time.Since(t0); wait > 0 {
					rec.idle = true
					waitUntil(t0, time.Duration(due[i]))
				}
				rec.req, rec.due, rec.start = reqs[i], due[i], int64(time.Since(t0))
				status, err := post(client, url, bodies[i], &buf)
				rec.end = int64(time.Since(t0))
				if err != nil {
					rec.failed, rec.errText = true, err.Error()
					continue
				}
				httpAnswer(rec, status, buf.Bytes(), traced)
			}
		}()
	}
	wg.Wait()
	return recs
}

func post(client *http.Client, url string, body []byte, into *bytes.Buffer) (int, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	into.Reset()
	_, err = io.Copy(into, resp.Body)
	return resp.StatusCode, err
}

// httpAnswer decodes a response body after the clock has stopped.
func httpAnswer(rec *record, status int, body []byte, traced bool) {
	var doc httpBody
	if err := json.Unmarshal(body, &doc); err != nil {
		rec.failed, rec.errText = true, "bad response body: "+err.Error()
		return
	}
	if status != http.StatusOK || doc.Exact == nil {
		rec.failed, rec.errText = true, fmt.Sprintf("HTTP %d", status)
		if doc.Error != nil {
			rec.errText += " " + doc.Error.Code + ": " + doc.Error.Message
		}
		return
	}
	if traced {
		rec.tr = &detail{queueNs: doc.QueueNs, execNs: doc.ElapsedNs}
	}
	idx := func(name string) int {
		for i, c := range doc.Exact.Columns {
			if c == name {
				return i
			}
		}
		return -1
	}
	ni, mi := idx("n"), idx("m")
	num := func(row []string, i int) float64 {
		if i < 0 {
			return 0
		}
		v, _ := strconv.ParseFloat(row[i], 64)
		return v
	}
	if g := rec.req.group; g != "" {
		gi := idx(g)
		rec.ans.groups = make(map[string][2]float64, len(doc.Exact.Rows))
		for _, row := range doc.Exact.Rows {
			if gi >= 0 {
				rec.ans.groups[row[gi]] = [2]float64{num(row, ni), num(row, mi)}
			}
		}
		return
	}
	if len(doc.Exact.Rows) == 1 {
		rec.ans.n, rec.ans.m = num(doc.Exact.Rows[0], ni), num(doc.Exact.Rows[0], mi)
	}
}

// waitUntil returns when the drive clock, which started at t0, reads
// due. The thread sleeps in the kernel until spinFor before that and
// yields in a loop for the rest. time.Sleep alone wakes up to a
// millisecond late in a mostly idle process (the runtime's poller waits
// in whole milliseconds), which is more than the median latency this
// loop measures; and yielding for that whole millisecond, as the harness
// first did, made the program's own service time bistable (README,
// finding 6). nanosleep overshoots by 0.14 ms at the median here.
func waitUntil(t0 time.Time, due time.Duration) {
	if d := due - time.Since(t0) - spinFor; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // interrupted early: the loop below waits out the rest
	}
	for due > time.Since(t0) {
		runtime.Gosched()
	}
}

const spinFor = 250 * time.Microsecond

// poissonSchedule returns n due times (ns) with exponential gaps of
// mean 1/rate seconds.
func poissonSchedule(rng interface{ ExpFloat64() float64 }, n int, rate float64) []int64 {
	due := make([]int64, n)
	var t float64
	for i := range due {
		t += rng.ExpFloat64() / rate
		due[i] = int64(t * 1e9)
	}
	return due
}
