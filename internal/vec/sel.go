package vec

// Sel-native selection kernels: predicate evaluation restricted to an
// explicit sorted position vector, appending into caller-provided
// scratch. They are the hot path of selection-vector scans — an
// impression's sampled row positions evaluated directly against the
// base table — and follow the same write-then-advance ("branchless")
// shape as the range kernels in range.go: the candidate position is
// stored unconditionally and the output cursor advances by the
// comparison outcome.
//
// Every kernel takes dst as reusable scratch (contents overwritten;
// only capacity matters) and returns the filled prefix. Pair with
// SelPool to make steady-state sel filtering allocation free.

// SelectFloat64Sel writes the positions p in sel with data[p] op c into
// dst and returns the filled prefix. NaN values never match any
// operator except Ne, matching SelectFloat64Range.
func SelectFloat64Sel(dst Sel, data []float64, sel Sel, op CmpOp, c float64) Sel {
	dst = grow(dst, len(sel))
	k := 0
	switch op {
	case Eq:
		for _, p := range sel {
			dst[k] = p
			k += b2i(data[p] == c)
		}
	case Ne:
		for _, p := range sel {
			dst[k] = p
			k += b2i(data[p] != c)
		}
	case Lt:
		for _, p := range sel {
			dst[k] = p
			k += b2i(data[p] < c)
		}
	case Le:
		for _, p := range sel {
			dst[k] = p
			k += b2i(data[p] <= c)
		}
	case Gt:
		for _, p := range sel {
			dst[k] = p
			k += b2i(data[p] > c)
		}
	case Ge:
		for _, p := range sel {
			dst[k] = p
			k += b2i(data[p] >= c)
		}
	default:
		return dst[:0]
	}
	return dst[:k]
}

// SelectBetweenFloat64Sel writes the positions p in sel with
// blo <= data[p] <= bhi (inclusive, SQL BETWEEN) into dst, combining
// the bound tests branch-free as SelectBetweenFloat64Range does.
func SelectBetweenFloat64Sel(dst Sel, data []float64, sel Sel, blo, bhi float64) Sel {
	dst = grow(dst, len(sel))
	k := 0
	for _, p := range sel {
		dst[k] = p
		v := data[p]
		k += b2i(v >= blo) & b2i(v <= bhi)
	}
	return dst[:k]
}

// SelectEqInt32Sel writes the positions p in sel whose code equals
// (want) or differs from (!want) code into dst — the dictionary-coded
// string comparison over an explicit selection.
func SelectEqInt32Sel(dst Sel, data []int32, sel Sel, code int32, want bool) Sel {
	dst = grow(dst, len(sel))
	k := 0
	if want {
		for _, p := range sel {
			dst[k] = p
			k += b2i(data[p] == code)
		}
	} else {
		for _, p := range sel {
			dst[k] = p
			k += b2i(data[p] != code)
		}
	}
	return dst[:k]
}

// CopyInto copies src into dst scratch and returns the filled prefix —
// the pooled-output shape of "the whole selection matched".
func CopyInto(dst, src Sel) Sel {
	dst = grow(dst, len(src))
	copy(dst, src)
	return dst
}

// DiffInto writes the sorted set difference a \ b into dst (neither may
// be nil) — the complement of a selection-local result against its own
// input (sel-native NOT).
func DiffInto(dst, a, b Sel) Sel {
	dst = grow(dst, len(a))
	k := 0
	j := 0
	for _, v := range a {
		for j < len(b) && b[j] < v {
			j++
		}
		dst[k] = v
		k += b2i(j >= len(b) || b[j] != v)
	}
	return dst[:k]
}
