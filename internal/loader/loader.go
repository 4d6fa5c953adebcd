// Package loader implements the ingest pipeline of §3.3: nightly batches
// stream into the base table, and impressions are constructed and
// maintained inside the load path, "considering each tuple as it is
// being loaded, much like a stream" — base tables are never revisited.
package loader

import (
	"fmt"
	"sync"

	"sciborq/internal/impression"
	"sciborq/internal/table"
)

// Sink receives the positions of freshly loaded rows, one batch
// [lo, hi) at a time. Both *impression.Impression and
// *impression.Hierarchy satisfy it.
type Sink interface {
	OfferRange(lo, hi int32)
}

var (
	_ Sink = (*impression.Impression)(nil)
	_ Sink = (*impression.Hierarchy)(nil)
)

// Appender is an alternative batch-append destination — the durable
// segment store. When installed, LoadBatch routes every batch through
// it (WAL, fold, seal) instead of appending to the table directly; the
// store extends the same table, so position accounting is unchanged.
type Appender interface {
	LoadBatch(rows []table.Row) error
}

// Loader appends batches to a base table and feeds every appended row to
// the registered sinks.
type Loader struct {
	mu      sync.Mutex
	base    *table.Table
	app     Appender // nil: append straight to base
	sinks   []Sink
	batches int64
	rows    int64
}

// New builds a loader for base.
func New(base *table.Table) (*Loader, error) {
	if base == nil {
		return nil, fmt.Errorf("loader: nil base table")
	}
	return &Loader{base: base}, nil
}

// Attach registers a sink for every later batch. Rows already present
// in the base table are NOT replayed: attach before loading starts (the
// paper's deployment), or use Backfill to take in the existing rows as
// well.
func (l *Loader) Attach(s Sink) error {
	if s == nil {
		return fmt.Errorf("loader: nil sink")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sinks = append(l.sinks, s)
	return nil
}

// Backfill offers every existing base row to the sink and registers it
// for every later batch — the paper's second deployment mode,
// "extracted from an existing database" (§3.3). Both happen under one
// hold of the loader's lock, so no batch can land between the rows
// offered and the registration.
func (l *Loader) Backfill(s Sink) error {
	if s == nil {
		return fmt.Errorf("loader: nil sink")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	s.OfferRange(0, int32(l.base.Len()))
	l.sinks = append(l.sinks, s)
	return nil
}

// SetAppender routes subsequent batches through a (durable) appender
// instead of the table's direct append path. Install before loading
// starts.
func (l *Loader) SetAppender(a Appender) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.app = a
}

// LoadBatch appends one nightly batch and offers its positions to every
// sink as one range. The append is atomic; on error no sink sees any
// row. With an Appender installed, the batch is durable
// (WAL-acknowledged) before this returns.
func (l *Loader) LoadBatch(rows []table.Row) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	start := l.base.Len()
	var err error
	if l.app != nil {
		err = l.app.LoadBatch(rows)
	} else {
		err = l.base.AppendBatch(rows)
	}
	if err != nil {
		return fmt.Errorf("loader: %w", err)
	}
	end := l.base.Len()
	for _, s := range l.sinks {
		s.OfferRange(int32(start), int32(end))
	}
	l.batches++
	l.rows += int64(end - start)
	return nil
}

// Batches returns the number of loaded batches (nights).
func (l *Loader) Batches() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.batches
}

// Rows returns the number of rows loaded through this loader.
func (l *Loader) Rows() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rows
}

// Base returns the base table.
func (l *Loader) Base() *table.Table { return l.base }
