// Package bounded implements SciBORQ's bounded query processing (§3.2):
//
//   - Error-bounded execution evaluates an aggregate query on the
//     smallest impression layer first and escalates to ever more
//     detailed layers while any aggregate's confidence interval exceeds
//     the requested relative error ε — ultimately falling back to the
//     base columns for a zero error margin.
//
//   - Time-bounded execution uses a calibrated cost model to pick the
//     largest layer whose predicted latency fits the user's budget, runs
//     there, and reports both the promise and the measured latency.
//     Time-bounded projections (the paper's replacement for LIMIT-N)
//     pick their layer the same way (TimeLayer).
//
// Impression layers execute as selection-vector scans over one shared
// base snapshot (estimate.AggregateOnSelOpts over impression.View):
// escalation never materialises a layer, so a dirty sample costs a
// view refresh instead of a table copy: one merge pass over the
// reservoir's deltas for a uniform-weight stream layer, a sort of the
// sample for a biased or derived layer. Each layer's scan visits only
// the sampled rows in the predicate's necessary boxes — a cone's box,
// not its whole declination band — (impression.View.Narrow), and
// WITHIN TIME prices a layer by those rows. The exact base rung is the
// unbounded exact execution itself (recycler.Exec), so a bounded exact
// answer is the unbounded exact answer, bit for bit.
//
// # Bounded execution under concurrent load
//
// A WITHIN TIME promise made against an idle-machine calibration is a
// lie the moment K queries share the cores. Executors therefore accept
// a load probe (SetLoadProbe) reporting the live in-flight query count
// and the admission queue's observed wait: at layer-pick time the
// per-row rate is inflated by the in-flight factor (K queries sharing
// the worker pool each see ~1/K of the machine) and the queue wait is
// added to the fixed overhead (dispatch delay the query will also
// suffer inside the scheduler), so contended picks degrade to smaller
// layers instead of blowing the bound. The EWMA latency feedback
// deflates its observations by the same factor, so the base model keeps
// tracking the uncontended per-row cost rather than double-counting
// contention.
//
// Per-query cancellation flows through Run's context into the morsel
// executor: a cancelled query frees its scan workers within one
// morsel boundary.
package bounded

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"sciborq/internal/engine"
	"sciborq/internal/estimate"
	"sciborq/internal/expr"
	"sciborq/internal/impression"
	"sciborq/internal/recycler"
	"sciborq/internal/sqlparse"
	"sciborq/internal/stats"
	"sciborq/internal/table"
	"sciborq/internal/vec"
)

// Executor runs bounded queries against an impression hierarchy and its
// base table. Every time-bounded execution feeds its measured latency
// back into the cost model (exponentially weighted), so layer choices
// converge to honest promises even when the initial calibration misses
// the true per-row cost of a query shape — the paper's future-work item
// of connecting processing time to impression size, made operational.
type Executor struct {
	base *table.Table
	hier *impression.Hierarchy
	opts engine.ExecOptions
	// load, when set, reports live contention for WITHIN TIME pricing
	// (see SetLoadProbe).
	load func() LoadInfo
	// mem, when set, reports the memory governor's degrade factor for
	// WITHIN TIME pricing (see SetMemoryProbe).
	mem func() float64

	mu   sync.Mutex
	cost engine.CostModel
}

// LoadInfo is a point-in-time contention report from the serving layer.
type LoadInfo struct {
	// InFlight is the number of queries currently executing, including
	// the one asking. Values above 1 inflate the per-row cost at layer
	// pick time: K concurrent scans each see roughly 1/K of the machine.
	InFlight int
	// QueueWait is the admission queue's observed wait (typically an
	// EWMA). It is charged as additional fixed overhead: a system whose
	// queue is backing up also delays the query's own goroutines.
	QueueWait time.Duration
}

// contentionModel derates a calibrated cost model by live load: per-row
// cost scales with the in-flight query count and the observed queue
// wait joins the fixed overhead. The returned factor (>= 1) is what the
// EWMA feedback must divide its observation by so the base model keeps
// learning the uncontended rate.
func contentionModel(model engine.CostModel, li LoadInfo) (engine.CostModel, float64) {
	factor := 1.0
	if li.InFlight > 1 {
		factor = float64(li.InFlight)
	}
	model.NsPerRow *= factor
	if li.QueueWait > 0 {
		model.FixedNs += float64(li.QueueWait.Nanoseconds())
	}
	return model, factor
}

// SetLoadProbe installs a callback reporting live load; WITHIN TIME
// layer picking consults it per query so time promises hold under
// contention, not just on an idle machine. A nil probe (the default)
// prices queries uncontended.
func (e *Executor) SetLoadProbe(fn func() LoadInfo) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.load = fn
}

// loadProbe returns the installed probe (nil when none).
func (e *Executor) loadProbe() func() LoadInfo {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.load
}

// SetMemoryProbe installs a callback reporting the memory governor's
// degrade factor (>= 1). WITHIN TIME layer picking multiplies the
// per-row rate by it, so under memory pressure a time promise buys
// fewer rows and the pick degrades to a smaller impression layer — the
// paper's quality knob, spent on availability before the serving layer
// is allowed to refuse work. A nil probe (the default) prices queries
// unpressured.
func (e *Executor) SetMemoryProbe(fn func() float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.mem = fn
}

// memoryProbe returns the installed probe (nil when none).
func (e *Executor) memoryProbe() func() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.mem
}

// learningRate is the EWMA weight of a new latency observation.
const learningRate = 0.3

// NewExecutor builds a bounded executor. hier may be nil, in which case
// every query runs on base data (exact, but unbounded in time). The
// cost model must be calibrated for opts (see engine.Calibrate) — a
// sequentially calibrated model under a parallel executor would
// pessimistically pick impression layers that are smaller than the time
// bound affords.
func NewExecutor(base *table.Table, hier *impression.Hierarchy, cost engine.CostModel, opts engine.ExecOptions) (*Executor, error) {
	if base == nil {
		return nil, fmt.Errorf("bounded: nil base table")
	}
	if cost.NsPerRow <= 0 {
		cost = engine.DefaultCostModel()
	}
	return &Executor{base: base, hier: hier, cost: cost, opts: opts}, nil
}

// LayerResult records one layer attempt during escalation.
type LayerResult struct {
	Layer     string
	Rows      int
	Estimates []estimate.Estimate
	Elapsed   time.Duration
	// Satisfied reports whether every aggregate met the error bound on
	// this layer.
	Satisfied bool
}

// Answer is the outcome of a bounded query.
type Answer struct {
	// Estimates holds the final per-aggregate estimates.
	Estimates []estimate.Estimate
	// Layer names the layer that produced the final answer.
	Layer string
	// Exact reports whether the answer came from base data.
	Exact bool
	// Trail records every layer attempted, in order.
	Trail []LayerResult
	// Promised is the cost-model latency prediction (time-bounded only).
	Promised time.Duration
	// Elapsed is the total wall-clock time spent.
	Elapsed time.Duration
	// BoundMet reports whether the requested bound was satisfied.
	BoundMet bool
}

// rung is one rung of the escalation ladder over the query's base
// snapshot: an impression layer evaluated as a selection-vector scan
// (im set), or the exact base rung (im nil). Building rungs never
// materialises an impression, and a layer rung takes its view only when
// opened — a layer whose sample changed since the last query costs a
// view refresh (impression.View), not a table copy, and only once a
// query reaches it.
type rung struct {
	name  string
	rows  int // sample rows (the Trail / layer-pick metric), once open
	snap  *table.Table
	im    *impression.Impression
	view  impression.View    // the layer's clamped view, once open
	layer *estimate.SelLayer // nil until open
}

func (r rung) exact() bool { return r.im == nil }

// open returns the rung with its layer's view taken and clamped to the
// rung's snapshot; the base rung and an open rung return unchanged.
func (r rung) open() rung {
	if r.exact() || r.layer != nil {
		return r
	}
	v := r.im.View().Clamp(r.snap.Len())
	r.rows, r.view = len(v.Positions), v
	r.layer = &estimate.SelLayer{
		Name: r.name, Base: r.snap, Positions: v.Positions,
		Weights: v.Weights, CountWeights: v.Pis, ShareSums: v.ShareSums,
		BaseRows: int64(r.snap.Len()),
	}
	return r
}

// narrow restricts an open layer rung's scan to the view positions in
// the query's necessary boxes (impression.View.Narrow), carrying their
// sample indices; the sample, and so every estimate, is unchanged.
// Release returns the scratch.
func (r rung) narrow(boxes []expr.Box) {
	if !r.exact() {
		r.layer.Scan, r.layer.ScanIdx = r.view.Narrow(boxes)
	}
}

// release returns a narrowed scan's pooled scratch.
func (r rung) release() {
	if !r.exact() && r.layer.Scan != nil {
		vec.PutSel(r.layer.Scan)
		vec.PutSel(r.layer.ScanIdx)
		r.layer.Scan, r.layer.ScanIdx = nil, nil
	}
}

// scanRows predicts the pruning-aware rows evaluating q on this rung
// touches, for the cost model: the narrowed (else all) sampled positions
// for layers, never |base|; zone-pruned base rows for the exact rung.
func (r rung) scanRows(q engine.Query, opts engine.ExecOptions) int {
	return engine.EstimateScanRows(r.snap, q.Pred(), r.positions(), opts)
}

// positions returns the rows the rung scans: the layer's narrowed scan
// or sampled positions, nil (every row) for the exact rung.
func (r rung) positions() vec.Sel {
	switch {
	case r.exact():
		return nil
	case r.layer.Scan != nil:
		return r.layer.Scan
	}
	return r.layer.Positions
}

// run evaluates q's aggregates on this rung. The exact rung runs
// recycler.Exec — the same execution as an unbounded query, through
// rec (nil = no cache) — and wraps its merged aggregate states as exact
// estimates. scanned is the base rows the exact rung actually touched
// (0 on a recycler hit, |cached selection| on a refinement); layer
// rungs report -1, their scan being exactly the one scanRows priced.
// The cost model must learn from scanned, never the prediction: a
// cache-served latency charged against a full-scan row count drags
// ns/row toward zero and poisons every later time promise.
func (r rung) run(q engine.Query, confidence float64, opts engine.ExecOptions, rec *recycler.Recycler) (ests []estimate.Estimate, scanned int, err error) {
	if !r.exact() {
		ests, err := estimate.AggregateOnSelOpts(*r.layer, q, confidence, opts)
		return ests, -1, err
	}
	res, err := recycler.Exec(rec, r.snap, q, opts)
	if err != nil {
		return nil, 0, err
	}
	ests = make([]estimate.Estimate, len(res.States))
	for i, st := range res.States {
		ests[i] = estimate.Estimate{
			Spec:       st.Spec,
			Interval:   stats.Interval{Estimate: st.Value(), Level: confidence},
			Exact:      true,
			SampleRows: int(st.Moments.N()),
		}
	}
	return ests, res.ScannedRows, nil
}

// rungs returns the evaluation ladder smallest-first, ending with the
// exact base rung; layer rungs are not yet open. All rungs share one
// base snapshot, so every rung of an escalation describes the same row
// prefix even under concurrent loads.
func (e *Executor) rungs() []rung {
	snap := e.base.Snapshot()
	var out []rung
	if e.hier != nil {
		for _, im := range e.hier.Ascending() {
			out = append(out, rung{name: im.Name(), snap: snap, im: im})
		}
	}
	return append(out, e.baseRung(snap))
}

// baseRung builds the exact base rung alone — the whole ladder (and
// every layer's view refresh) is not needed for unbounded queries.
func (e *Executor) baseRung(snap *table.Table) rung {
	return rung{name: "base:" + e.base.Name(), rows: snap.Len(), snap: snap}
}

// Run executes a parsed ungrouped aggregate statement under its bounds:
// WITHIN TIME runs on the one rung the cost model picks, WITHIN ERROR
// escalates, and a statement without bounds runs exactly on base data.
// ctx cancels the underlying morsel scans cooperatively (workers free
// within one morsel boundary); rec — a multi-tenant server passes the
// tenant's partition, nil means no cache — serves the exact base rung's
// WHERE selection.
func (e *Executor) Run(ctx context.Context, st *sqlparse.Statement, rec *recycler.Recycler) (*Answer, error) {
	q := st.Query
	if len(q.Aggs) == 0 || q.GroupBy != "" {
		return nil, fmt.Errorf("bounded: only ungrouped aggregate queries run bounded")
	}
	opts := e.opts
	opts.Ctx = ctx
	switch {
	case st.Bounds.HasTimeBound():
		return e.timeBounded(q, st.Bounds, opts, rec)
	case st.Bounds.HasErrorBound():
		return e.errorBounded(q, st.Bounds.MaxRelError, st.Bounds.Confidence, opts, rec)
	default:
		return e.exact(q, opts, rec)
	}
}

// exact evaluates on base data only.
func (e *Executor) exact(q engine.Query, opts engine.ExecOptions, rec *recycler.Recycler) (*Answer, error) {
	start := time.Now()
	base := e.baseRung(e.base.Snapshot())
	ests, _, err := base.run(q, 0.95, opts, rec)
	if err != nil {
		return nil, err
	}
	el := time.Since(start)
	return &Answer{
		Estimates: ests, Layer: base.name, Exact: true,
		Trail:   []LayerResult{{Layer: base.name, Rows: base.rows, Estimates: ests, Elapsed: el, Satisfied: true}},
		Elapsed: el, BoundMet: true,
	}, nil
}

// errorBounded escalates through the hierarchy until every aggregate's
// relative error is within eps at the given confidence level.
func (e *Executor) errorBounded(q engine.Query, eps, confidence float64, opts engine.ExecOptions, rec *recycler.Recycler) (*Answer, error) {
	if confidence <= 0 || confidence >= 1 {
		confidence = 0.95
	}
	start := time.Now()
	ans := &Answer{}
	boxes := expr.BoxesOf(q.Pred())
	for _, l := range e.rungs() {
		ls := time.Now()
		l = l.open()
		l.narrow(boxes)
		ests, _, err := l.run(q, confidence, opts, rec)
		l.release()
		if err != nil {
			return nil, err
		}
		ok := true
		for _, est := range ests {
			if est.RelError() > eps {
				ok = false
				break
			}
		}
		lr := LayerResult{
			Layer: l.name, Rows: l.rows, Estimates: ests,
			Elapsed: time.Since(ls), Satisfied: ok,
		}
		ans.Trail = append(ans.Trail, lr)
		if ok {
			ans.Estimates = ests
			ans.Layer = l.name
			ans.Exact = l.exact()
			ans.BoundMet = true
			break
		}
	}
	ans.Elapsed = time.Since(start)
	return ans, nil
}

// pickWithin is the WITHIN TIME layer choice, shared by bounded
// aggregates and bounded projections: the largest rung whose PRUNED scan
// fits budget under the executor's learned cost model, or — when even
// the smallest rung does not fit — the smallest rung (best effort). Each
// layer rung is narrowed once (rung.narrow) and prices the positions it
// will visit, minus the granules zone maps prove empty (the same pruning
// the selection scan applies), so picks see sample-sized costs, never
// base-sized ones, and the learned rate stays one per visited row. The
// pick keeps its narrowed scan for the caller to run and release; every
// other rung's is released here.
//
// With a load probe installed (SetLoadProbe) the model prices live
// contention: the per-row rate inflates by the in-flight query count
// and the observed queue wait joins the fixed overhead, so a promise
// made under K saturating neighbours degrades to a smaller layer instead
// of overshooting the budget. A memory probe (SetMemoryProbe) inflates
// the per-row rate the same way. It returns the rows the pick priced,
// the promised latency, and the combined inflation factor the EWMA
// feedback must divide back out.
func (e *Executor) pickWithin(q engine.Query, budget time.Duration, opts engine.ExecOptions) (pick rung, rows int, promised time.Duration, factor float64) {
	layers := e.rungs()
	model := e.CostModel()
	factor = 1.0
	if probe := e.loadProbe(); probe != nil {
		model, factor = contentionModel(model, probe())
	}
	if probe := e.memoryProbe(); probe != nil {
		if d := probe(); d > 1 {
			model.NsPerRow *= d
			factor *= d
		}
	}
	maxRows := model.MaxRowsWithin(budget)
	boxes := expr.BoxesOf(q.Pred())
	for i, l := range layers {
		l = l.open()
		layers[i] = l
		l.narrow(boxes)
		n := l.scanRows(q, opts)
		if i == 0 {
			pick, rows = l, n // smallest-layer fallback when nothing fits
		}
		if n <= maxRows && l.rows >= pick.rows {
			pick, rows = l, n
		}
	}
	for _, l := range layers {
		if l.layer != pick.layer {
			l.release()
		}
	}
	return pick, rows, model.Predict(rows), factor
}

// TimeLayer is where a WITHIN TIME projection of q runs: the base
// snapshot every rung describes and, unless the exact base rung fits the
// budget (exact), the positions of the impression layer pickWithin
// chooses — the same pick a bounded aggregate gets, narrowed to the rows
// q's bounds admit, so the projection scans what the pick priced.
// positions is owned by the caller.
func (e *Executor) TimeLayer(q engine.Query, budget time.Duration) (snap *table.Table, positions vec.Sel, exact bool) {
	pick, _, _, _ := e.pickWithin(q, budget, e.opts)
	positions = pick.positions()
	if !pick.exact() && pick.layer.Scan != nil {
		positions = slices.Clone(positions)
		pick.release()
	}
	return pick.snap, positions, pick.exact()
}

// timeBounded evaluates on the rung pickWithin chooses and reports the
// outcome against the wall clock.
func (e *Executor) timeBounded(q engine.Query, b sqlparse.Bounds, opts engine.ExecOptions, rec *recycler.Recycler) (*Answer, error) {
	pick, pickRows, promised, factor := e.pickWithin(q, b.MaxTime, opts)
	confidence := b.Confidence
	if confidence == 0 {
		confidence = 0.95
	}
	start := time.Now()
	ests, scanned, err := pick.run(q, confidence, opts, rec)
	pick.release()
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	// Learn from what actually ran (0 rows on a recycler hit — observe
	// skips tiny inputs). The observation deflates by the pick's factor
	// so the base model tracks the uncontended, unpressured per-row rate
	// — contention is re-applied per query at pick time, never baked
	// into the EWMA twice.
	if scanned < 0 {
		scanned = pickRows
	}
	e.observe(scanned, elapsed, factor)
	met := elapsed <= b.MaxTime
	ans := &Answer{
		Estimates: ests,
		Layer:     pick.name,
		Exact:     pick.exact(),
		Promised:  promised,
		Elapsed:   elapsed,
		BoundMet:  met,
		Trail: []LayerResult{{
			Layer: pick.name, Rows: pick.rows, Estimates: ests,
			Elapsed: elapsed, Satisfied: met,
		}},
	}
	// If an error bound was also requested, report whether it held.
	if b.HasErrorBound() && ans.BoundMet {
		for _, est := range ests {
			if est.RelError() > b.MaxRelError {
				ans.BoundMet = false
				break
			}
		}
	}
	return ans, nil
}

// CostModel returns the executor's current (possibly learned) model.
func (e *Executor) CostModel() engine.CostModel {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cost
}

// observe feeds one measured (rows, latency) pair back into the cost
// model: the per-row rate moves toward the observation by the EWMA
// learning rate. Tiny inputs are skipped — their latency is dominated by
// fixed overheads and would corrupt the per-row estimate. factor (>= 1)
// is the contention inflation the pick priced with; dividing it out
// keeps the learned model uncontended.
func (e *Executor) observe(rows int, elapsed time.Duration, factor float64) {
	if rows < 64 {
		return
	}
	if factor < 1 {
		factor = 1
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	ns := float64(elapsed.Nanoseconds()) - e.cost.FixedNs
	if ns <= 0 {
		return
	}
	observed := ns / (float64(rows) * factor)
	e.cost.NsPerRow = (1-learningRate)*e.cost.NsPerRow + learningRate*observed
}
