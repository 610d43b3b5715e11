// Names kept only because the frozen benchmark program (benchmark/) still
// uses them; scripts/benchmark_names.txt tags each one compat.

package dehealth

// ApproxConfig configured the retired approximate retrieval tier.
//
// Deprecated: Enabled is ignored. Every world runs the exact scan.
type ApproxConfig struct {
	Enabled bool
}

// QueryUser is a one-user QueryBatch.
//
// Deprecated: use QueryBatch.
func (w *PreparedWorld) QueryUser(u, k int, opt Options) ([]Candidate, error) {
	res, err := w.QueryBatch([]int{u}, k, opt)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}
