// Package workload implements SciBORQ's query-workload infrastructure
// (§4): a logger that extracts the predicate set — the attribute values
// requested by queries — into per-attribute Figure-5 histograms, and
// generators that produce SkyServer-like exploration workloads with
// static, drifting, or mixed focal points.
package workload

import (
	"fmt"
	"sort"
	"sync"

	"sciborq/internal/expr"
	"sciborq/internal/stats"
)

// AttrSpec declares one attribute whose predicate values are tracked.
type AttrSpec struct {
	Name string
	// Min, Max bound the histogram domain (values outside clamp).
	Min, Max float64
	// Beta is the number of equal-width bins (β in the paper).
	Beta int
}

// Logger maintains, per interesting attribute, the Figure-5 histogram
// over the predicate set. It keeps nothing else per query: the
// histograms are the whole workload summary, so a long-running daemon
// logging every query holds memory proportional to the attributes and
// their bins, not to the number of queries.
type Logger struct {
	mu      sync.Mutex
	hists   map[string]*stats.Histogram
	queries int64
	// gen counts histogram mutations; Live caches one immutable clone
	// per generation so the per-tuple bias path never reads a histogram
	// another goroutine is writing.
	gen   int64
	snaps map[string]histSnap
}

// histSnap is one generation-stamped immutable histogram clone.
type histSnap struct {
	gen int64
	h   *stats.Histogram
}

// NewLogger builds a logger for the given attributes.
func NewLogger(attrs []AttrSpec) (*Logger, error) {
	if len(attrs) == 0 {
		return nil, fmt.Errorf("workload: logger needs at least one attribute")
	}
	l := &Logger{hists: make(map[string]*stats.Histogram, len(attrs))}
	for _, a := range attrs {
		h, err := stats.NewHistogram(a.Min, a.Max, a.Beta)
		if err != nil {
			return nil, fmt.Errorf("workload: attribute %q: %w", a.Name, err)
		}
		if _, dup := l.hists[a.Name]; dup {
			return nil, fmt.Errorf("workload: duplicate attribute %q", a.Name)
		}
		l.hists[a.Name] = h
	}
	return l, nil
}

// LogQuery extracts the predicate points of pred and records them.
// Points on untracked attributes are ignored.
func (l *Logger) LogQuery(pred expr.Predicate) {
	if pred == nil {
		return
	}
	l.LogPoints(pred.Points())
}

// LogPoints records pre-extracted predicate points.
func (l *Logger) LogPoints(pts []expr.Point) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.queries++
	l.gen++
	for _, pt := range pts {
		if h, ok := l.hists[pt.Attr]; ok {
			h.Observe(pt.Value)
		}
	}
}

// Histogram returns a snapshot (clone) of the predicate-set histogram
// for attr, or an error for untracked attributes.
func (l *Logger) Histogram(attr string) (*stats.Histogram, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	h, ok := l.hists[attr]
	if !ok {
		return nil, fmt.Errorf("workload: attribute %q is not tracked (have %v)", attr, l.attrsLocked())
	}
	return h.Clone(), nil
}

// Live returns the current histogram for attr as an immutable snapshot.
// The impression maintenance path reads it on every ingested tuple, so
// the snapshot is cached per mutation generation — a quiescent workload
// costs one clone total, not one per tuple — and a query logged by a
// concurrent session can never race the read (the snapshot is frozen;
// the next Live call after the mutation returns a fresh one). Callers
// must not mutate the result.
func (l *Logger) Live(attr string) (*stats.Histogram, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	h, ok := l.hists[attr]
	if !ok {
		return nil, fmt.Errorf("workload: attribute %q is not tracked", attr)
	}
	if s, ok := l.snaps[attr]; ok && s.gen == l.gen {
		return s.h, nil
	}
	if l.snaps == nil {
		l.snaps = make(map[string]histSnap)
	}
	s := histSnap{gen: l.gen, h: h.Clone()}
	l.snaps[attr] = s
	return s.h, nil
}

// Queries returns the number of logged queries.
func (l *Logger) Queries() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.queries
}

// Attrs returns the tracked attribute names, sorted.
func (l *Logger) Attrs() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.attrsLocked()
}

func (l *Logger) attrsLocked() []string {
	out := make([]string, 0, len(l.hists))
	for a := range l.hists {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// Decay ages all histograms by factor (see stats.Histogram.Decay); used
// by adaptive impressions to track workload shift.
func (l *Logger) Decay(factor float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.gen++
	for _, h := range l.hists {
		h.Decay(factor)
	}
}
