package impression

import (
	"fmt"

	"sciborq/internal/column"
	"sciborq/internal/engine"
	"sciborq/internal/table"
)

// JoinSpec names one foreign-key join from the fact table to a
// dimension: fact.FactKey = dim.DimKey.
type JoinSpec struct {
	Dim     *table.Table
	FactKey string
	DimKey  string
}

// weightCol is the reserved column carrying sample weights through
// joins.
const weightCol = "__sciborq_weight"

// Synopsis materialises an impression joined with its dimension tables —
// the join synopses of §3.1 ("Correlations"): because dimensions are
// complete and the join follows foreign keys, joining the *sample* of
// the fact table with the full dimensions yields exactly a sample of the
// full join (Acharya et al. [3]); correlations between join attributes
// are preserved and per-tuple weights survive the join. The returned
// weights align with the returned table's rows.
//
// Fact rows whose key has no dimension match are dropped by the inner
// join, exactly as they would be in the full-join population.
func Synopsis(im *Impression, joins []JoinSpec) (*table.Table, []float64, error) {
	layer, weights, err := im.Table()
	if err != nil {
		return nil, nil, err
	}
	return JoinWithWeights(layer, weights, joins)
}

// JoinWithWeights joins an arbitrary weighted sample table through the
// given FK joins, threading the weights.
func JoinWithWeights(layer *table.Table, weights []float64, joins []JoinSpec) (*table.Table, []float64, error) {
	if weights != nil && len(weights) != layer.Len() {
		return nil, nil, fmt.Errorf("impression: %d weights for %d rows", len(weights), layer.Len())
	}
	if layer.Schema().Index(weightCol) != -1 {
		return nil, nil, fmt.Errorf("impression: layer already carries the reserved column %q", weightCol)
	}
	// Augment the layer with a weight column so HashJoin threads it.
	schema := append(table.Schema{}, layer.Schema()...)
	schema = append(schema, table.ColumnDef{Name: weightCol, Type: column.Float64})
	augmented, err := table.New(layer.Name(), schema)
	if err != nil {
		return nil, nil, err
	}
	chunks := make([]column.Column, 0, len(schema))
	for _, name := range layer.Schema().Names() {
		c, err := layer.Col(name)
		if err != nil {
			return nil, nil, err
		}
		chunks = append(chunks, c.Slice(nil))
	}
	w := weights
	if w == nil {
		w = make([]float64, layer.Len())
		for i := range w {
			w[i] = 1
		}
	}
	wCopy := make([]float64, len(w))
	copy(wCopy, w)
	chunks = append(chunks, column.NewFloat64From(weightCol, wCopy))
	if err := augmented.AppendColumns(chunks); err != nil {
		return nil, nil, err
	}
	joined := augmented
	for i, j := range joins {
		if j.Dim == nil {
			return nil, nil, fmt.Errorf("impression: join %d has nil dimension", i)
		}
		joined, err = engine.HashJoin(joined, j.Dim, j.FactKey, j.DimKey, engine.DefaultExecOptions())
		if err != nil {
			return nil, nil, fmt.Errorf("impression: join %d (%s=%s.%s): %w",
				i, j.FactKey, j.Dim.Name(), j.DimKey, err)
		}
	}
	outW, err := joined.Float64(weightCol)
	if err != nil {
		return nil, nil, err
	}
	// Strip the weight column from the output schema.
	keep := make([]string, 0, len(joined.Schema())-1)
	for _, name := range joined.Schema().Names() {
		if name != weightCol {
			keep = append(keep, name)
		}
	}
	out, err := joined.Project(joined.Name(), keep, nil)
	if err != nil {
		return nil, nil, err
	}
	finalW := make([]float64, len(outW))
	copy(finalW, outW)
	return out, finalW, nil
}
