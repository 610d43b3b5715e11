package stylometry

// AttrSet is a user-level attribute set in the sense of §II-B: user u has
// attribute A_i iff some post of u has feature F_i (non-zero dimension i),
// and the weight l_u(A_i) is the number of u's posts that have F_i.
//
// The set is stored sparsely as parallel slices sorted by feature index.
type AttrSet struct {
	Idx    []int32 // sorted feature indices present
	Weight []int32 // Weight[k] = l_u(A_Idx[k]) >= 1
}

// Len returns |A(u)|, the number of attributes the user has.
func (a AttrSet) Len() int { return len(a.Idx) }

// TotalWeight returns the sum of all attribute weights.
func (a AttrSet) TotalWeight() int {
	s := 0
	for _, w := range a.Weight {
		s += int(w)
	}
	return s
}

// UserAttributes projects a user's post feature vectors to the user-level
// attribute set: attribute i is present with weight = number of posts whose
// dimension i is non-zero.
func UserAttributes(postVectors [][]float64) AttrSet {
	if len(postVectors) == 0 {
		return AttrSet{}
	}
	m := len(postVectors[0])
	counts := make([]int32, m)
	for _, v := range postVectors {
		for i, x := range v {
			if x > 0 {
				counts[i]++
			}
		}
	}
	var set AttrSet
	for i, c := range counts {
		if c > 0 {
			set.Idx = append(set.Idx, int32(i))
			set.Weight = append(set.Weight, c)
		}
	}
	return set
}

// Jaccard computes |A(u) ∩ A(v)| / |A(u) ∪ A(v)| over the binary attribute
// sets. It returns 0 when both sets are empty.
func Jaccard(a, b AttrSet) float64 {
	inter, union := 0, 0
	i, j := 0, 0
	for i < len(a.Idx) && j < len(b.Idx) {
		switch {
		case a.Idx[i] == b.Idx[j]:
			inter++
			union++
			i++
			j++
		case a.Idx[i] < b.Idx[j]:
			union++
			i++
		default:
			union++
			j++
		}
	}
	union += len(a.Idx) - i + len(b.Idx) - j
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// WeightedJaccard computes |WA(u) ∩ WA(v)| / |WA(u) ∪ WA(v)| where the
// weighted intersection takes min weights and the weighted union takes max
// weights, as defined in §III-B. It returns 0 when both sets are empty.
func WeightedJaccard(a, b AttrSet) float64 {
	var inter, union int
	i, j := 0, 0
	for i < len(a.Idx) && j < len(b.Idx) {
		switch {
		case a.Idx[i] == b.Idx[j]:
			wa, wb := int(a.Weight[i]), int(b.Weight[j])
			if wa < wb {
				inter += wa
				union += wb
			} else {
				inter += wb
				union += wa
			}
			i++
			j++
		case a.Idx[i] < b.Idx[j]:
			union += int(a.Weight[i])
			i++
		default:
			union += int(b.Weight[j])
			j++
		}
	}
	for ; i < len(a.Idx); i++ {
		union += int(a.Weight[i])
	}
	for ; j < len(b.Idx); j++ {
		union += int(b.Weight[j])
	}
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// MeanVector returns the element-wise mean of the vectors, or nil when vs is
// empty. All vectors must have equal length.
func MeanVector(vs [][]float64) []float64 {
	if len(vs) == 0 {
		return nil
	}
	out := make([]float64, len(vs[0]))
	for _, v := range vs {
		for i, x := range v {
			out[i] += x
		}
	}
	n := float64(len(vs))
	for i := range out {
		out[i] /= n
	}
	return out
}
