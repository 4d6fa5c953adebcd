// Package vec provides the vectorised kernels underneath the SciBORQ
// column store: selection vectors, the range- and selection-native
// filter kernels (range.go, sel.go) and the gathers the execution engine
// is built from.
//
// The design follows the MonetDB/X100 column-at-a-time model the paper
// assumes: operators consume whole columns (or selections over them) and
// materialise whole intermediate results, which is what makes it possible
// to re-target a running query at a different impression layer.
package vec

// Sel is a selection vector: a sorted list of row positions into a column.
// The filter kernels never return nil — an empty Sel means no match. Only
// the gathers below, and the engine's scan entry points, read a nil Sel as
// "all rows".
type Sel []int32

// NewSelAll returns a selection covering rows [0, n).
func NewSelAll(n int) Sel {
	s := make(Sel, n)
	for i := range s {
		s[i] = int32(i)
	}
	return s
}

// CmpOp is a comparison operator used by the Select* kernels.
type CmpOp int

// Comparison operators.
const (
	Eq CmpOp = iota
	Ne
	Lt
	Le
	Gt
	Ge
)

// String returns the SQL spelling of the operator.
func (op CmpOp) String() string {
	switch op {
	case Eq:
		return "="
	case Ne:
		return "<>"
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	}
	return "?"
}

// GatherFloat64 materialises data[sel] into a fresh slice; a nil sel
// copies the whole column.
func GatherFloat64(data []float64, sel Sel) []float64 {
	if sel == nil {
		out := make([]float64, len(data))
		copy(out, data)
		return out
	}
	out := make([]float64, len(sel))
	for k, i := range sel {
		out[k] = data[i]
	}
	return out
}

// GatherInt64 materialises data[sel] into a fresh slice; a nil sel
// copies the whole column.
func GatherInt64(data []int64, sel Sel) []int64 {
	if sel == nil {
		out := make([]int64, len(data))
		copy(out, data)
		return out
	}
	out := make([]int64, len(sel))
	for k, i := range sel {
		out[k] = data[i]
	}
	return out
}
