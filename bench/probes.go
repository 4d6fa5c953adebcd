package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"sciborq/internal/column"
	"sciborq/internal/engine"
	"sciborq/internal/estimate"
	"sciborq/internal/segment"
	"sciborq/internal/sqlparse"
	"sciborq/internal/table"
	"sciborq/internal/wire"
)

// The probe pass of a traced run: a fixed sample of generated
// statements replayed through each layer's public entry point inside
// the process, one span per call. It runs after the measured window on
// the stack the window used, so caches and impressions are in their
// served state. Heavy probes (a full scan per call) take fewer calls.

const (
	probeLight = 200
	probeHeavy = 20
)

type prober struct {
	st    *stack
	base  *table.Table
	t0    time.Time // span times count from the start of the pass
	out   map[string]float64
	spans []span
}

// time runs fn n times, records one span per call and returns the
// median duration in nanoseconds.
func (p *prober) time(name string, n int, fn func(i int) error) (float64, error) {
	durs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		start := time.Since(p.t0)
		if err := fn(i); err != nil {
			return 0, fmt.Errorf("probe %s: %w", name, err)
		}
		end := time.Since(p.t0)
		p.spans = append(p.spans, span{Name: "probe." + name, Start: int64(start), End: int64(end)})
		durs = append(durs, float64(end-start))
	}
	return percentile(durs, 50), nil
}

// probePass fills the probe metrics. seed-derived statements come from
// the same generators the workloads use.
func (e *env) probePass(st *stack) (map[string]float64, []span, error) {
	base, err := st.db.Table(factTable)
	if err != nil {
		return nil, nil, err
	}
	p := &prober{st: st, base: base, t0: time.Now(), out: map[string]float64{}}
	for _, probe := range []func(*env) error{
		p.frontEnd, p.engine, p.wire, p.render, p.estimate, p.impression, p.segment,
	} {
		if err := probe(e); err != nil {
			return nil, nil, err
		}
	}
	return p.out, p.spans, nil
}

// panelSQL is the sample of pooled dashboard statements.
func panelSQL(e *env, n int) []string {
	pools := dashPools(e.seed, e.data)
	out := make([]string, n)
	for i := range out {
		out[i] = aggSelect + pools[i%dashTenants][(i/dashTenants)%dashPool].where()
	}
	return out
}

// frontEnd: sqlparse.Parse on cold text, DB.CheckSQL on text the plan
// cache has seen.
func (p *prober) frontEnd(e *env) error {
	sqls := panelSQL(e, probeLight)
	ns, err := p.time("sqlparse.parse", len(sqls), func(i int) error {
		_, err := sqlparse.Parse(sqls[i])
		return err
	})
	if err != nil {
		return err
	}
	p.out["sqlparse.parse_us"] = ns / 1e3
	for _, sql := range sqls[:dashTenants] {
		if _, err := p.st.db.Exec(sql); err != nil {
			return err
		}
	}
	ns, err = p.time("plancache.lookup", len(sqls), func(i int) error {
		return p.st.db.CheckSQL(sqls[i%dashTenants])
	})
	p.out["plancache.lookup_us"] = ns / 1e3
	return err
}

// engine: RunOnOpts on a base snapshot for the three scan-stream
// statement kinds, per row scanned.
func (p *prober) engine(e *env) error {
	gen := scanGen(e.seed, 1<<20, 0)
	var stmts [3][]*sqlparse.Statement
	for i := 0; i < 3*probeHeavy; i++ {
		st, err := sqlparse.Parse(gen().sql)
		if err != nil {
			return err
		}
		stmts[i%3] = append(stmts[i%3], st)
	}
	snap := p.base.Snapshot()
	opts := p.st.db.ExecOptions()
	for k, name := range []string{"engine.scan", "engine.project", "engine.group"} {
		ns, err := p.time(name, probeHeavy, func(i int) error {
			_, err := engine.RunOnOpts(snap, stmts[k][i].Query, opts)
			return err
		})
		if err != nil {
			return err
		}
		p.out[name+"_ns_per_row"] = ns / float64(snap.Len())
	}
	return nil
}

// wire: AppendBatch and DecodeBatch on one 64K-row batch of the stream
// projection.
func (p *prober) wire(e *env) error {
	st, err := sqlparse.Parse(streamSelect + "ra BETWEEN 0 AND 360")
	if err != nil {
		return err
	}
	res, err := engine.RunOnOpts(p.base.Snapshot(), st.Query, p.st.db.ExecOptions())
	if err != nil {
		return err
	}
	rows := min(res.Table.Len(), 1<<16)
	if rows == 0 {
		return nil
	}
	var cols []column.Column
	for _, def := range res.Table.Schema() {
		cols = append(cols, res.Table.MustCol(def.Name))
	}
	var buf []byte
	ns, err := p.time("wire.encode", probeHeavy, func(int) error {
		buf = wire.AppendBatch(buf[:0], cols, 0, rows)
		return nil
	})
	if err != nil {
		return err
	}
	p.out["wire.encode_ns_per_row"] = ns / float64(rows)
	ns, err = p.time("wire.decode", probeHeavy, func(int) error {
		_, err := wire.DecodeBatch(buf)
		return err
	})
	p.out["wire.decode_ns_per_row"] = ns / float64(rows)
	return err
}

// render: the HTTP handler on a recorder, minus what the body says the
// database took: JSON decode of the request, admission, JSON encode of
// the answer.
func (p *prober) render(e *env) error {
	sqls := panelSQL(e, probeLight)
	h := p.st.core.Handler()
	var renders []float64
	_, err := p.time("server.render", len(sqls), func(i int) error {
		body, _ := json.Marshal(map[string]string{"sql": sqls[i], "tenant": "probe"})
		rec := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
		total := time.Since(start)
		var doc httpBody
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil || rec.Code != http.StatusOK {
			return fmt.Errorf("HTTP %d: %s", rec.Code, rec.Body.String())
		}
		renders = append(renders, float64(total.Nanoseconds()-doc.ElapsedNs-doc.QueueNs)/1e3)
		return nil
	})
	p.out["server.render_us"] = percentile(renders, 50)
	return err
}

// estimate: AggregateOnSelOpts over the largest layer's view.
func (p *prober) estimate(e *env) error {
	h := p.st.db.Hierarchy(factTable)
	snap := p.base.Snapshot()
	v := h.Layers()[0].View().Clamp(snap.Len())
	sl := estimate.SelLayer{Name: "probe", Base: snap, Positions: v.Positions, Weights: v.Weights, CountWeights: v.Pis, BaseRows: int64(snap.Len())}
	rng := rngFor(e.seed, "probe/estimate")
	var qs []engine.Query
	for i := 0; i < probeLight; i++ {
		ra, dec := coneCentre(rng)
		st, err := sqlparse.Parse(fmt.Sprintf("SELECT COUNT(*) AS n, AVG(r) AS m FROM %s WHERE fGetNearbyObjEq(%g, %g, %g)", factTable, ra, dec, coneRadius))
		if err != nil {
			return err
		}
		qs = append(qs, st.Query)
	}
	opts := p.st.db.ExecOptions()
	ns, err := p.time("estimate.aggregate", len(qs), func(i int) error {
		_, err := estimate.AggregateOnSelOpts(sl, qs[i], 0.95, opts)
		return err
	})
	p.out["estimate.aggregate_us"] = ns / 1e3
	return err
}

// impression: View() on every layer right after a load has dirtied
// them. The loaded rows repeat existing ones; nothing is measured on
// this stack afterwards.
func (p *prober) impression(e *env) error {
	h := p.st.db.Hierarchy(factTable)
	batch := e.data.rows(0, min(batchRows, e.data.len()))
	for i := 0; i < 5; i++ {
		if err := p.st.db.Load(factTable, batch); err != nil {
			return err
		}
		ns, err := p.time("impression.view", 1, func(int) error {
			for _, im := range h.Layers() {
				im.View()
			}
			return nil
		})
		if err != nil {
			return err
		}
		p.out["impression.view_us"] += ns / 1e3 / 5
	}
	return nil
}

// segment: Store.LoadBatch on a scratch store with no impressions: WAL
// append, fsync and fold alone.
func (p *prober) segment(e *env) error {
	dir, err := os.MkdirTemp(e.tmpDir(), "probe-wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	tb, err := table.New(factTable, factSchema())
	if err != nil {
		return err
	}
	store, err := segment.Open(tb, segment.Options{Dir: filepath.Join(dir, "t")})
	if err != nil {
		return err
	}
	defer store.Close()
	n := min(batchRows, e.data.len())
	batch := e.data.rows(0, n)
	ns, err := p.time("segment.wal", 5, func(int) error { return store.LoadBatch(batch) })
	if err != nil {
		return err
	}
	p.out["segment.wal_ns_per_row"] = ns / float64(n)
	if st := store.Stats(); st.WALBatches > 0 {
		p.out["segment.wal_bytes_per_row"] = float64(st.WALBytes) / float64(st.WALBatches*int64(n))
	}
	return nil
}
